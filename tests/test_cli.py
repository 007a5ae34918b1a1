import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chadkit.cli import main
from chadkit.synthdata import make_clustered_dataset

from conftest import read_csv, write_csv, write_schema_json


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Schema file, a 200-row training CSV, and a ready train config."""
    root = tmp_path_factory.mktemp("cli")
    ds = make_clustered_dataset(200, arities=(6, 8), n_cont=4, n_clusters=3, seed=3)
    write_schema_json(root / "schema.json", ds.schema)
    write_csv(root / "train.csv", ds.schema, ds.cat, ds.cont)
    config = {
        "schema": str(root / "schema.json"),
        "train_data": str(root / "train.csv"),
        "min_count": 1,
        "model": {"encoder_sizes": [12, 6]},
        "train": {"phase_epochs": [2, 1, 2], "batch_size": 64},
        "negatives": {"m": 3},
        "seed": 5,
        "out_dir": str(root / "run"),
    }
    (root / "train_cfg.json").write_text(json.dumps(config))
    rc = main(["train", "--config", str(root / "train_cfg.json")])
    assert rc == 0
    return root


class TestTrain:
    def test_produces_four_checkpoint_files(self, workspace):
        names = {p.name for p in (workspace / "run").iterdir()}
        assert {"checkpoint_phase1.chad", "checkpoint_phase2.chad",
                "checkpoint_phase3.chad", "model.chad"} <= names
        assert {"train_log.jsonl", "load_report.json", "vocab.json",
                "normalization.json", "resolved_config.json"} <= names

    def test_rerun_is_bit_identical(self, workspace, tmp_path):
        config = json.loads((workspace / "train_cfg.json").read_text())
        config["out_dir"] = str(tmp_path / "rerun")
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 0
        a = (workspace / "run/model.chad").read_bytes()
        b = (tmp_path / "rerun/model.chad").read_bytes()
        assert a == b

    def test_missing_schema_path_in_message(self, tmp_path, capsys):
        config = {"schema": str(tmp_path / "nope.json"),
                  "train_data": str(tmp_path / "also_nope.csv"),
                  "min_count": 1, "out_dir": str(tmp_path / "o")}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        rc = main(["train", "--config", str(tmp_path / "cfg.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "nope.json" in err and "also_nope.csv" in err

    def test_unknown_keys_all_reported(self, workspace, tmp_path, capsys):
        config = json.loads((workspace / "train_cfg.json").read_text())
        config["typo_one"] = 1
        config["train"]["typo_two"] = 2
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        rc = main(["train", "--config", str(tmp_path / "cfg.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "typo_one" in err and "typo_two" in err

    def test_min_count_required(self, workspace, tmp_path):
        config = json.loads((workspace / "train_cfg.json").read_text())
        del config["min_count"]
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 2

    def test_unseen_policy_key_rejected(self, workspace, tmp_path, capsys):
        config = json.loads((workspace / "train_cfg.json").read_text())
        config["unseen_policy"] = "reserve"
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 2
        assert "unknown key 'unseen_policy'" in capsys.readouterr().err

    def test_no_rows_left_after_loading_exits_2(self, workspace, tmp_path, capsys):
        lines = (workspace / "train.csv").read_text().splitlines()
        emptied = [line.rsplit(",", 1)[0] + "," for line in lines[1:]]
        data = tmp_path / "empty_cells.csv"
        data.write_text("\n".join([lines[0], *emptied]) + "\n")
        config = json.loads((workspace / "train_cfg.json").read_text())
        config.update(train_data=str(data), out_dir=str(tmp_path / "out"))
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert "no training rows left" in err and "200 read, 0 kept" in err
        assert "200 with empty cells" in err
        assert not (tmp_path / "out/model.chad").exists()

    def test_no_rows_left_after_pruning_exits_2(self, workspace, tmp_path, capsys):
        # categorical fields only: nothing fails on the way, training would
        # run zero batches and save an untrained model
        (tmp_path / "schema.json").write_text(
            json.dumps({"cat_0": "categorical", "cat_1": "categorical"}))
        config = json.loads((workspace / "train_cfg.json").read_text())
        config.update(schema=str(tmp_path / "schema.json"), min_count=1000,
                      out_dir=str(tmp_path / "out"))
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert "200 read, 200 kept" in err and "min_count 1000" in err
        assert not (tmp_path / "out/model.chad").exists()

    def test_reproducible_from_resolved_config_alone(self, workspace, tmp_path):
        resolved = json.loads((workspace / "run/resolved_config.json").read_text())
        (tmp_path / "resolved.json").write_text(json.dumps(resolved))
        rc = main(["train", "--config", str(tmp_path / "resolved.json"),
                   "--out", str(tmp_path / "replay")])
        assert rc == 0
        assert (workspace / "run/model.chad").read_bytes() == \
            (tmp_path / "replay/model.chad").read_bytes()

    def test_seed_flag_changes_model(self, workspace, tmp_path):
        config = json.loads((workspace / "train_cfg.json").read_text())
        config["out_dir"] = str(tmp_path / "seeded")
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "cfg.json"),
                     "--seed", "99"]) == 0
        a = (workspace / "run/model.chad").read_bytes()
        b = (tmp_path / "seeded/model.chad").read_bytes()
        assert a != b
        resolved = json.loads((tmp_path / "seeded/resolved_config.json").read_text())
        assert resolved["seed"] == 99

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_nonfinite_training_cell_exits_2(self, workspace, tmp_path, capsys, cell):
        src = (workspace / "train.csv").read_text().splitlines()
        parts = src[3].split(",")
        parts[2] = cell
        data = tmp_path / "nonfinite.csv"
        data.write_text("\n".join(src[:3] + [",".join(parts)] + src[4:40]) + "\n")
        message = f"row 4, column {src[0].split(',')[2]!r}: {cell!r} is not a finite number"
        config = json.loads((workspace / "train_cfg.json").read_text())
        config.update(train_data=str(data), out_dir=str(tmp_path / "out"))
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out/model.chad").exists()
        dump = {"schema": config["schema"], "data": str(data), "out_dir": str(tmp_path / "dump")}
        (tmp_path / "dump.json").write_text(json.dumps(dump))
        assert main(["negsample-dump", "--config", str(tmp_path / "dump.json")]) == 2
        assert message in capsys.readouterr().err


class TestScore:
    def test_scores_sorted_ascending(self, workspace, tmp_path):
        out = tmp_path / "scores.csv"
        rc = main(["score", "--model", str(workspace / "run/model.chad"),
                   "--data", str(workspace / "train.csv"), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["record_id", "score"]
        scores = [float(r[1]) for r in rows[1:]]
        assert len(scores) == 200
        assert scores == sorted(scores)
        assert out.with_suffix(".csv.report.json").exists()

    def test_schema_mismatch_exits_3(self, workspace, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,columns\n1,2\n")
        rc = main(["score", "--model", str(workspace / "run/model.chad"),
                   "--data", str(bad), "--out", str(tmp_path / "s.csv")])
        assert rc == 3

    def test_unseen_category_dropped_and_reported(self, workspace, tmp_path):
        src = (workspace / "train.csv").read_text().splitlines()
        doctored = src[:6]
        parts = src[1].split(",")
        parts[0] = "brand_new_value"
        doctored.append(",".join(parts))
        data = tmp_path / "unseen.csv"
        data.write_text("\n".join(doctored) + "\n")
        out = tmp_path / "scores.csv"
        rc = main(["score", "--model", str(workspace / "run/model.chad"),
                   "--data", str(data), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) - 1 == 5
        report = json.loads(out.with_suffix(".csv.report.json").read_text())
        assert report["rows_dropped_unseen"] == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_nonfinite_cell_dropped_and_reported(self, workspace, tmp_path, cell):
        src = (workspace / "train.csv").read_text().splitlines()
        parts = src[3].split(",")
        parts[2] = cell
        data = tmp_path / "nonfinite.csv"
        data.write_text("\n".join(src[:3] + [",".join(parts)] + src[4:8]) + "\n")
        out = tmp_path / "scores.csv"
        rc = main(["score", "--model", str(workspace / "run/model.chad"),
                   "--data", str(data), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)[1:]
        assert sorted(int(r[0]) for r in rows) == list(range(6))
        assert all(math.isfinite(float(r[1])) for r in rows)
        report = json.loads(out.with_suffix(".csv.report.json").read_text())
        assert report["rows_dropped_nonfinite"] == 1
        assert report["rows_dropped_missing"] == 0

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe", "line 1 is not valid UTF-8"),
        (None, "line 3: field larger than field limit"),
    ])
    def test_hostile_csv_bytes_exit_2(self, workspace, tmp_path, capsys, content, message):
        data = tmp_path / "hostile.csv"
        if content is None:
            lines = (workspace / "train.csv").read_text().splitlines()
            huge = "x" * (csv.field_size_limit() + 1)
            content = "\n".join([*lines[:2], huge + lines[2]]).encode() + b"\n"
        data.write_bytes(content)
        rc = main(["score", "--model", str(workspace / "run/model.chad"),
                   "--data", str(data), "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_corrupt_model_exits_2(self, workspace, tmp_path):
        model = tmp_path / "corrupt.chad"
        model.write_bytes(b"\x00" * 7 + b"\x40" + b"junk")
        rc = main(["score", "--model", str(model),
                   "--data", str(workspace / "train.csv"), "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    @pytest.mark.parametrize("make, out", [
        (lambda root: (root / "afile").write_text("x"), "afile/x.csv"),
        (lambda root: (root / "adir").mkdir(), "adir"),
    ], ids=["parent_is_a_file", "out_is_a_directory"])
    def test_unwritable_out_exits_2_naming_path(self, workspace, tmp_path, capsys, make, out):
        make(tmp_path)
        rc = main(["score", "--model", str(workspace / "run/model.chad"),
                   "--data", str(workspace / "train.csv"), "--out", str(tmp_path / out)])
        assert rc == 2
        assert f"cannot write scores to {tmp_path / out}" in capsys.readouterr().err

    def test_missing_model_exits_2(self, tmp_path):
        rc = main(["score", "--model", str(tmp_path / "no.chad"),
                   "--data", str(tmp_path / "no.csv"),
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2


def test_cli_import_leaves_out_scipy_stats():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, chadkit.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert out.stdout.strip() == "False"


class TestEval:
    def test_report_contains_config_and_ap(self, workspace, tmp_path):
        config = {"model": str(workspace / "run/model.chad"),
                  "test_data": str(workspace / "train.csv"),
                  "anomaly_fraction": 0.1, "seeds": [0, 1],
                  "percentages": [5, 10],
                  "out_dir": str(tmp_path / "eval")}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["eval", "--config", str(tmp_path / "cfg.json")]) == 0
        report = json.loads((tmp_path / "eval/eval_report.json").read_text())
        assert report["config"]["model"] == config["model"]
        assert len(report["ap_per_seed"]) == 2
        assert 0.0 <= report["ap_mean"] <= 1.0
        assert [r["percent"] for r in report["vary_anomaly"]] == [5, 10]
        assert report["load_report"]["rows_read"] == 200
        assert report["load_report"]["rows_kept"] == 200
        rows = read_csv(tmp_path / "eval/vary_anomaly.csv")
        assert rows[0] == ["percent", "ap_mean", "ap_sd", "runs"]
        assert len(rows) == 3

    @pytest.mark.parametrize("settings, message", [
        ({"percentages": [2, 5]}, "2% of 12 nominal rows gives no anomalies"),
        ({"anomaly_fraction": 0.01}, "anomaly_fraction 0.01 of 12 test rows gives no anomalies"),
    ], ids=["percentage", "fraction"])
    def test_mostly_unseen_test_csv_names_counts(self, workspace, tmp_path, capsys,
                                                 settings, message):
        src = (workspace / "train.csv").read_text().splitlines()
        rows = [line if i % 50 < 3 else "unseen_value," + line.split(",", 1)[1]
                for i, line in enumerate(src[1:])]
        data = tmp_path / "mostly_unseen.csv"
        data.write_text("\n".join([src[0], *rows]) + "\n")
        config = {"model": str(workspace / "run/model.chad"), "test_data": str(data),
                  "seeds": [0], "out_dir": str(tmp_path / "eval"), **settings}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["eval", "--config", str(tmp_path / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "200 read, 12 kept after loading" in err and "188 unseen" in err


class TestBenchConcept:
    def test_bad_blob_and_empty_seeds_rejected(self, tmp_path, capsys):
        config = {"concept": {"blobs": [{"cov": 0.5}]}, "seeds": [],
                  "out_dir": str(tmp_path / "b")}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["bench-concept", "--config", str(tmp_path / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert "mean" in err and "seeds" in err

    def test_four_method_table(self, tmp_path):
        config = {"concept": {"n_per_cluster": 80, "n_per_blob": 8},
                  "seeds": [0], "out_dir": str(tmp_path / "bench")}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["bench-concept", "--config", str(tmp_path / "cfg.json")]) == 0
        rows = read_csv(tmp_path / "bench/concept_bench.csv")
        assert rows[0] == ["method", "seed", "ap"]
        assert len(rows) == 5
        summary = json.loads((tmp_path / "bench/concept_summary.json").read_text())
        assert len(summary["summary"]) == 4
        data_rows = read_csv(tmp_path / "bench/concept_data.csv")
        assert data_rows[0] == ["x", "y", "label"]
        assert len(data_rows) == 1 + 2 * 80 + 2 * 8


class TestVizLatent:
    def test_projection_csv(self, workspace, tmp_path):
        rc = main(["viz-latent", "--model", str(workspace / "run/model.chad"),
                   "--data", str(workspace / "train.csv"),
                   "--out", str(tmp_path / "viz")])
        assert rc == 0
        rows = read_csv(tmp_path / "viz/projection_latent.csv")
        assert rows[0] == ["x", "y", "label"]
        assert len(rows) == 201

    def test_estimator_source(self, workspace, tmp_path):
        config = {"model": str(workspace / "run/model.chad"),
                  "data": str(workspace / "train.csv"),
                  "source": "estimator", "out_dir": str(tmp_path / "viz2")}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["viz-latent", "--config", str(tmp_path / "cfg.json")]) == 0
        assert (tmp_path / "viz2/projection_estimator.csv").exists()

    def test_label_field_flows_into_projection(self, workspace, tmp_path):
        src = (workspace / "train.csv").read_text().splitlines()
        labeled = [src[0] + ",label"]
        for i, line in enumerate(src[1:9]):
            labeled.append(line + ("," + ("1" if i % 2 else "0")))
        data = tmp_path / "labeled.csv"
        data.write_text("\n".join(labeled) + "\n")
        config = {"model": str(workspace / "run/model.chad"),
                  "data": str(data), "label_field": "label",
                  "out_dir": str(tmp_path / "viz3")}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["viz-latent", "--config", str(tmp_path / "cfg.json")]) == 0
        rows = read_csv(tmp_path / "viz3/projection_latent.csv")
        assert [r[2] for r in rows[1:]] == ["0", "1"] * 4


class TestNegsampleDump:
    def test_row_count_contract(self, workspace, tmp_path):
        config = {"schema": str(workspace / "schema.json"),
                  "data": str(workspace / "train.csv"),
                  "rows": 3, "negatives": {"m": 5},
                  "out_dir": str(tmp_path / "dump")}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["negsample-dump", "--config", str(tmp_path / "cfg.json")]) == 0
        rows = read_csv(tmp_path / "dump/negatives.csv")
        assert len(rows) == 16  # header + 3 * 5
        header = rows[0]
        assert header[:2] == ["source_id", "sample"]

    def test_decoded_values_stay_in_vocabulary(self, workspace, tmp_path):
        config = {"schema": str(workspace / "schema.json"),
                  "data": str(workspace / "train.csv"),
                  "rows": 2, "negatives": {"m": 4},
                  "out_dir": str(tmp_path / "dump2")}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["negsample-dump", "--config", str(tmp_path / "cfg.json")]) == 0
        rows = read_csv(tmp_path / "dump2/negatives.csv")
        for row in rows[1:]:
            assert row[2].startswith("v0_") and row[3].startswith("v1_")


class TestNumericFailure:
    def test_diverging_training_exits_4(self, workspace, tmp_path, capsys):
        # valid input; steps of 1e300 overflow the reconstruction loss
        config = json.loads((workspace / "train_cfg.json").read_text())
        config["train"]["learning_rate"] = 1e300
        config["out_dir"] = str(tmp_path / "out")
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 4
        assert "numeric failure: non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out/model.chad").exists()
