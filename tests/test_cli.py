import builtins
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from chadkit.cli import main
from chadkit.data import NormalizationStats, RecordSchema
from chadkit.model import ChadModel, ModelConfig
from chadkit.persist import load_model, save_model
from chadkit.synthdata import make_clustered_dataset

from conftest import read_csv, write_csv, write_schema_json


def _quiet_main(argv) -> int:
    """``main(argv)``, failing on any warning it emits."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


@pytest.fixture(scope="module")
def overflowing_scores(tmp_path_factory):
    """A model file, a CSV of finite rows, and the rows' in-process scores,
    some of them nan. Each row holds one cell 1.7e308 and one -1.7e308. With
    the first layer's weights scaled past 1, the continuous block's matmul
    overflows to +inf on one and -inf on the other, and the BLAS adds them
    to nan when the two cells fall in different blocks of its inner loop,
    which takes more continuous fields than the BLAS's block length."""
    root = tmp_path_factory.mktemp("overflow")
    n, r = 200, 600
    schema = RecordSchema(["c"], [f"x{j}" for j in range(r)], [{"a": 0, "b": 1}])
    model = ChadModel(schema, ModelConfig(encoder_sizes=(8, 4)), np.random.default_rng(0))
    model.autoencoder.encoder.layers[0].W[...] *= 50
    # unit spans: normalizing leaves every cell as it is, and finite
    save_model(root / "model.chad", model, NormalizationStats(np.zeros(r), np.ones(r)))
    rng = np.random.default_rng(1)
    cat = rng.integers(0, 2, (n, 1))
    cont = np.full((n, r), 0.5)
    cont[np.arange(n), rng.integers(0, r, n)] = 1.7e308
    cont[np.arange(n), rng.integers(0, r, n)] = -1.7e308
    write_csv(root / "data.csv", schema, cat, cont)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = model.score_records(cat, cont)
    if not np.isnan(scores).any():
        pytest.skip("this BLAS sums the overflowing products without a nan")
    assert np.isfinite(scores).any()
    return root, scores


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
    def test_produces_three_checkpoint_files(self, workspace):
        # phase 3's checkpoint is model.chad itself
        names = {p.name for p in (workspace / "run").iterdir()}
        assert {"checkpoint_phase1.chad", "checkpoint_phase2.chad", "model.chad"} <= names
        assert "checkpoint_phase3.chad" not in names
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

    def test_nothing_to_perturb_exits_2_before_phase_1(self, tmp_path, capsys):
        ds = make_clustered_dataset(200, arities=(1, 1), n_cont=3, n_clusters=3, seed=3)
        write_schema_json(tmp_path / "schema.json", ds.schema)
        write_csv(tmp_path / "train.csv", ds.schema, ds.cat, ds.cont)
        config = {"schema": str(tmp_path / "schema.json"),
                  "train_data": str(tmp_path / "train.csv"), "min_count": 1,
                  "train": {"phase_epochs": [30, 5, 5]}, "out_dir": str(tmp_path / "run")}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 2
        assert "categorical arities [1, 1], r=3" in capsys.readouterr().err
        assert not (tmp_path / "run/checkpoint_phase1.chad").exists()

    @pytest.mark.parametrize("arities, cell", [((6, 8), "nan"), ((1, 1), "0.5")],
                             ids=["nonfinite_cell", "nothing_to_perturb"])
    def test_input_error_leaves_no_out_dir(self, tmp_path, arities, cell):
        ds = make_clustered_dataset(40, arities=arities, n_cont=3, n_clusters=2, seed=3)
        write_schema_json(tmp_path / "schema.json", ds.schema)
        write_csv(tmp_path / "train.csv", ds.schema, ds.cat, ds.cont)
        lines = (tmp_path / "train.csv").read_text().splitlines()
        lines[5] = ",".join([*lines[5].split(",")[:-1], cell])
        (tmp_path / "train.csv").write_text("\n".join(lines) + "\n")
        config = {"schema": str(tmp_path / "schema.json"),
                  "train_data": str(tmp_path / "train.csv"), "min_count": 1}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        out = tmp_path / "run" / "nested"
        assert main(["train", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(out)]) == 2
        assert not (tmp_path / "run").exists()

    def test_uncreatable_out_exits_2(self, workspace, tmp_path, capsys):
        (tmp_path / "afile").write_text("x")
        rc = main(["train", "--config", str(workspace / "train_cfg.json"),
                   "--out", str(tmp_path / "afile" / "run")])
        assert rc == 2
        assert "cannot create output directory" in capsys.readouterr().err

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


    def test_range_wider_than_float64_exits_2_naming_it(self, workspace, tmp_path, capsys):
        # max - min of the column overflows, which used to warn three times and
        # then fail phase 1 with a nan loss (exit 4)
        src = (workspace / "train.csv").read_text().splitlines()
        column = src[0].split(",")[3]
        rows = [line.split(",") for line in src[1:]]
        rows[0][3], rows[1][3] = "1.7e308", "-1.7e308"
        data = tmp_path / "wide.csv"
        data.write_text("\n".join([src[0], *map(",".join, rows)]) + "\n")
        config = json.loads((workspace / "train_cfg.json").read_text())
        config.update(train_data=str(data), out_dir=str(tmp_path / "out"))
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert _quiet_main(["train", "--config", str(tmp_path / "cfg.json")]) == 2
        assert f"continuous field {column!r} spans -1.7e+308 to 1.7e+308," \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_header_column_exits_2_naming_it(self, workspace, tmp_path, capsys):
        # a second num_0 column, which used to be ignored in favour of the first
        rows = read_csv(workspace / "train.csv")
        data = tmp_path / "repeated.csv"
        with open(data, "w", newline="") as f:
            csv.writer(f).writerows([rows[0] + ["num_0"], *(row + [row[0]] for row in rows[1:])])
        config = json.loads((workspace / "train_cfg.json").read_text())
        config.update(train_data=str(data), out_dir=str(tmp_path / "out"))
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 2
        assert "header repeats columns ['num_0']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_byte_order_mark_trains_and_scores_like_the_plain_file(self, workspace, tmp_path):
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbf" + (workspace / "train.csv").read_bytes())
        config = json.loads((workspace / "train_cfg.json").read_text())
        config.update(train_data=str(data), out_dir=str(tmp_path / "run"))
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 0
        model = workspace / "run/model.chad"
        assert (tmp_path / "run/model.chad").read_bytes() == model.read_bytes()
        scores = []
        for src in (data, workspace / "train.csv"):
            out = tmp_path / f"{src.stem}_scores.csv"
            assert main(["score", "--model", str(model), "--data", str(src),
                         "--out", str(out)]) == 0
            scores.append(out.read_bytes())
        assert scores[0] == scores[1]


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

    def test_finite_cell_that_normalizes_past_float64_is_dropped(self, tmp_path):
        # training spans of 0.01 send the finite cells +-1.7e308 past the
        # float64 range once normalized
        u = np.random.default_rng(0).random((200, 2)).tolist()
        (tmp_path / "train.csv").write_text("c,x,y\n" + "".join(
            f"{'ab'[i % 2]},{1 + 0.01 * a!r},{2 + 0.01 * b!r}\n" for i, (a, b) in enumerate(u)))
        write_schema_json(tmp_path / "schema.json", RecordSchema(["c"], ["x", "y"]))
        config = {"schema": str(tmp_path / "schema.json"),
                  "train_data": str(tmp_path / "train.csv"), "min_count": 1,
                  "model": {"encoder_sizes": [4, 2]},
                  "train": {"phase_epochs": [1, 1, 1], "batch_size": 64},
                  "out_dir": str(tmp_path / "run")}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(tmp_path / "cfg.json")]) == 0
        data = tmp_path / "score.csv"
        data.write_text("c,x,y\na,1.005,2.005\na,1.7e308,-1.7e308\nb,1.002,2.009\n")
        out = tmp_path / "scores.csv"
        rc = main(["score", "--model", str(tmp_path / "run/model.chad"),
                   "--data", str(data), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)[1:]
        assert sorted(int(r[0]) for r in rows) == [0, 1]
        assert all(math.isfinite(float(r[1])) for r in rows)
        report = json.loads(out.with_suffix(".csv.report.json").read_text())
        assert report["rows_dropped_nonfinite"] == 1 and report["rows_kept"] == 2

    def test_row_whose_score_overflows_is_dropped(self, overflowing_scores, tmp_path):
        root, scores = overflowing_scores
        finite = np.isfinite(scores)
        out = tmp_path / "scores.csv"
        assert _quiet_main(["score", "--model", str(root / "model.chad"),
                            "--data", str(root / "data.csv"), "--out", str(out)]) == 0
        written = {int(i): float(s) for i, s in read_csv(out)[1:]}
        # the kept rows are numbered afresh, in file order
        assert sorted(written) == list(range(finite.sum()))
        assert np.allclose([written[i] for i in range(finite.sum())], scores[finite],
                           rtol=1e-11, atol=0)
        report = json.loads(out.with_suffix(".csv.report.json").read_text())
        assert report["rows_dropped_nonfinite"] == (~finite).sum()
        assert report["rows_kept"] == finite.sum()

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe", "line 1 is not valid UTF-8"),
        (b"\r", "line 3 is not valid UTF-8"),
        (None, "line 3: field larger than field limit"),
    ])
    def test_hostile_csv_bytes_exit_2(self, workspace, tmp_path, capsys, content, message):
        data = tmp_path / "hostile.csv"
        lines = (workspace / "train.csv").read_text().splitlines()
        if content == b"\r":   # lone-CR line ends, a Latin-1 byte on line 3
            content = "\r".join(lines[:2]).encode() + b"\r\xe9" + lines[2].encode() + b"\r"
        elif content is None:
            huge = "x" * (csv.field_size_limit() + 1)
            content = "\n".join([*lines[:2], huge + lines[2]]).encode() + b"\n"
        data.write_bytes(content)
        rc = main(["score", "--model", str(workspace / "run/model.chad"),
                   "--data", str(data), "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_nan_weight_model_exits_2_naming_it(self, workspace, tmp_path, capsys):
        model, stats = load_model(workspace / "run/model.chad")
        model.params()["ae.enc.0.W"][0, 0] = math.nan
        save_model(tmp_path / "nan.chad", model, stats)
        out = tmp_path / "s.csv"
        rc = main(["score", "--model", str(tmp_path / "nan.chad"),
                   "--data", str(workspace / "train.csv"), "--out", str(out)])
        assert rc == 2
        assert "parameter ae.enc.0.W holds a non-finite value" in capsys.readouterr().err
        assert not out.exists()

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

    def test_lf_crlf_and_quote_all_files_score_alike(self, workspace, tmp_path):
        # split at commas, split after CRLF endings, and read by csv.reader
        rows = read_csv(workspace / "train.csv")
        rows[3][2], rows[5][0] = "", "unseen"
        written = set()
        for name, form in (("lf", {"lineterminator": "\n"}),
                           ("crlf", {"lineterminator": "\r\n"}),
                           ("quote_all", {"lineterminator": "\n", "quoting": csv.QUOTE_ALL})):
            data, out = tmp_path / f"{name}.csv", tmp_path / f"{name}_scores.csv"
            with open(data, "w", newline="") as f:
                csv.writer(f, **form).writerows(rows)
            model = str(workspace / "run/model.chad")
            assert main(["score", "--model", model, "--data", str(data), "--out", str(out)]) == 0
            # the report embeds the paths of its run; the rest is the same
            report = json.loads(out.with_suffix(".csv.report.json").read_text())
            assert report.pop("config") == {"model": model, "data": str(data), "out": str(out)}
            written.add((out.read_bytes(), json.dumps(report, sort_keys=True)))
        assert len(written) == 1
        report = json.loads(written.pop()[1])
        assert (report["rows_dropped_missing"], report["rows_dropped_unseen"]) == (1, 1)

    def test_report_gives_score_quantiles(self, workspace, tmp_path):
        out = tmp_path / "scores.csv"
        assert main(["score", "--model", str(workspace / "run/model.chad"),
                     "--data", str(workspace / "train.csv"), "--out", str(out)]) == 0
        scores = np.array([float(r[1]) for r in read_csv(out)[1:]])
        quantiles = json.loads(out.with_suffix(".csv.report.json").read_text())["score_quantiles"]
        assert list(quantiles) == ["max", "min", "p1", "p5", "p50"]
        for name, q in (("min", 0), ("p1", 0.01), ("p5", 0.05), ("p50", 0.5), ("max", 1)):
            # the CSV holds 12 significant digits, the report every bit
            assert quantiles[name] == pytest.approx(np.quantile(scores, q, method="lower"),
                                                    rel=1e-11)

    def test_no_kept_row_gives_null_quantiles(self, workspace, tmp_path):
        rows = read_csv(workspace / "train.csv")[:4]
        for row in rows[1:]:
            row[0] = "unseen"
        data, out = tmp_path / "unseen.csv", tmp_path / "scores.csv"
        with open(data, "w", newline="") as f:
            csv.writer(f).writerows(rows)
        assert main(["score", "--model", str(workspace / "run/model.chad"),
                     "--data", str(data), "--out", str(out)]) == 0
        report = json.loads(out.with_suffix(".csv.report.json").read_text())
        assert report["rows_kept"] == 0 and report["score_quantiles"] is None
        assert read_csv(out) == [["record_id", "score"]]


@pytest.fixture(scope="module")
def span_models(tmp_path_factory):
    """Model files trained on two continuous columns spanning about 1, 1e-2
    and 1e-300."""
    root = tmp_path_factory.mktemp("spans")
    write_schema_json(root / "schema.json", RecordSchema(["c"], ["x", "y"]))
    u = np.random.default_rng(0).random((200, 2)).tolist()
    models = []
    for i, span in enumerate((1.0, 1e-2, 1e-300)):
        (root / f"train{i}.csv").write_text("c,x,y\n" + "".join(
            f"{'ab'[j % 2]},{span * a!r},{span * b!r}\n" for j, (a, b) in enumerate(u)))
        config = {"schema": str(root / "schema.json"), "train_data": str(root / f"train{i}.csv"),
                  "min_count": 1, "model": {"encoder_sizes": [4, 2]},
                  "train": {"phase_epochs": [1, 1, 1], "batch_size": 64},
                  "out_dir": str(root / f"run{i}")}
        (root / f"cfg{i}.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(root / f"cfg{i}.json")]) == 0
        models.append(root / f"run{i}" / "model.chad")
    return models


# continuous cells from the whole float64 range, its ends and zeros included
FLOAT64_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1.7e308", "-1.7e308", repr(sys.float_info.max),
                     repr(-sys.float_info.max), "5e-324", "-5e-324", "0.0", "-0.0", "0.5"]))


@settings(max_examples=40, deadline=None)
@given(model=st.integers(0, 2),
       cells=st.lists(st.tuples(st.sampled_from("ab"), FLOAT64_CELLS, FLOAT64_CELLS),
                      min_size=1, max_size=6))
def test_any_float64_cells_score_finite(span_models, model, cells):
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "score.csv", Path(tmp) / "scores.csv"
        data.write_text("c,x,y\n" + "".join(",".join(row) + "\n" for row in cells))
        rc = _quiet_main(["score", "--model", str(span_models[model]),
                          "--data", str(data), "--out", str(out)])
        assert rc in (0, 2)
        if rc == 0:
            rows = read_csv(out)[1:]
            assert all(math.isfinite(float(score)) for _, score in rows)
            report = json.loads(out.with_suffix(".csv.report.json").read_text())
            assert len(rows) == report["rows_kept"]


# the training schema of the test below: a categorical field and four
# continuous ones, so the negative sampler has something to perturb even when
# the categorical column is constant
TRAIN_FIELDS = {"c": "categorical", "x0": "continuous", "x1": "continuous",
                "x2": "continuous", "x3": "continuous"}


@st.composite
def training_csvs(draw) -> str:
    """A training CSV over TRAIN_FIELDS with hostile headers and columns: a
    byte-order mark, extra columns with empty or repeated names, and columns
    that are constant, subnormal-span, near-overflow or any float64, down to
    a single row."""
    n = draw(st.integers(1, 6))
    cells = {"c": draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))}
    for name in list(TRAIN_FIELDS)[1:]:
        column = st.lists(st.one_of(
            st.sampled_from(["0.0", "5e-324", "-5e-324", "1e-323"]),          # subnormal span
            st.sampled_from(["1.7e308", "-1.7e308", "1.6e308", repr(sys.float_info.max)]),
            FLOAT64_CELLS), min_size=n, max_size=n)
        constant = FLOAT64_CELLS.map(lambda v: [v] * n)
        cells[name] = draw(st.one_of(constant, column))
    extras = draw(st.lists(st.sampled_from(["", "c", "x1", "note"]), max_size=2))
    header = draw(st.permutations([*TRAIN_FIELDS, *extras]))
    rows = [",".join(cells[name][i] if name in cells else "z" for name in header)
            for i in range(n)]
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "\n".join([",".join(header), *rows]) + "\n"


@settings(max_examples=60, deadline=None)
@given(text=training_csvs())
def test_any_training_csv_trains_finite_or_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "schema.json").write_text(json.dumps(TRAIN_FIELDS))
        (root / "train.csv").write_text(text, encoding="utf-8")
        config = {"schema": str(root / "schema.json"), "train_data": str(root / "train.csv"),
                  "min_count": 1, "model": {"encoder_sizes": [4, 2]},
                  "train": {"phase_epochs": [1, 1, 1], "batch_size": 4},
                  "out_dir": str(root / "run")}
        (root / "cfg.json").write_text(json.dumps(config))
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "continuous field .* is constant")
            rc = main(["train", "--config", str(root / "cfg.json")])
        event(f"exit {rc}")
        assert rc in (0, 2, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if rc == 0:
            model, stats = load_model(root / "run" / "model.chad")
            assert np.isfinite(model.flat).all()
            assert np.isfinite(stats.mins).all() and np.isfinite(stats.maxs).all()


@pytest.mark.parametrize("command", ["score", "viz-latent"])
def test_model_with_empty_vocabulary_exits_3(tmp_path, capsys, command):
    # with every vocabulary empty, load_csv builds one from the file, and the
    # model refuses the dataset's schema
    schema = RecordSchema(["c"], ["x"])
    model = ChadModel(schema, ModelConfig(encoder_sizes=(4, 2)), np.random.default_rng(0))
    save_model(tmp_path / "model.chad", model, NormalizationStats(np.zeros(1), np.ones(1)))
    (tmp_path / "data.csv").write_text("c,x\na,0.5\nb,0.2\n")
    assert main([command, "--model", str(tmp_path / "model.chad"),
                 "--data", str(tmp_path / "data.csv"), "--out", str(tmp_path / "out")]) == 3
    assert "schema mismatch" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _argv_on_data(ws, tmp_path, command, data) -> list[str]:
    """argv running ``command`` on the CSV ``data``: ``train`` with the
    workspace's config, the others with its model."""
    model, out = str(ws / "run/model.chad"), str(tmp_path / "out")
    if command == "train":
        config = json.loads((ws / "train_cfg.json").read_text())
        config.update(train_data=str(data), out_dir=out)
    elif command == "eval":
        config = {"model": model, "test_data": str(data), "out_dir": out}
    else:
        return [command, "--model", model, "--data", str(data), "--out", out]
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    return [command, "--config", str(tmp_path / "cfg.json")]


@pytest.mark.parametrize("command, code", [("train", 2), ("score", 3), ("eval", 3),
                                           ("viz-latent", 3)])
@pytest.mark.parametrize("empty", [False, True], ids=["missing-column", "empty-file"])
def test_data_lacking_schema_columns_exits(workspace, tmp_path, capsys, command, code,
                                           empty):
    # a training schema fixes no vocabulary (exit 2), a trained model's does (exit 3)
    lines = (workspace / "train.csv").read_text().splitlines()
    first = lines[0].split(",")[0]
    data = tmp_path / "data.csv"
    data.write_text("" if empty else
                    "".join(line.split(",", 1)[1] + "\n" for line in lines[:20]))
    assert main(_argv_on_data(workspace, tmp_path, command, data)) == code
    err = capsys.readouterr().err
    assert err.startswith("schema mismatch: " if code == 3 else "error: ")
    assert ("empty file" if empty else f"missing columns ['{first}']") in err
    assert not (tmp_path / "out").exists()


def test_missing_label_column_exits_2(workspace, tmp_path, capsys):
    config = {"model": str(workspace / "run/model.chad"), "data": str(workspace / "train.csv"),
              "label_field": "label", "out_dir": str(tmp_path / "out")}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(["viz-latent", "--config", str(tmp_path / "cfg.json")]) == 2
    assert "missing label column 'label'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["score", "viz-latent"])
@pytest.mark.parametrize("cat_fields", [["c"], []], ids=["empty-vocabulary", "continuous-only"])
def test_model_fixing_no_vocabulary_on_data_lacking_a_column_exits_2(tmp_path, capsys,
                                                                     command, cat_fields):
    # such a model's schema looks like a training schema to load_csv: before
    # the header was read once, these exited 3
    schema = RecordSchema(cat_fields, ["x", "y"])
    model = ChadModel(schema, ModelConfig(encoder_sizes=(4, 2)), np.random.default_rng(0))
    save_model(tmp_path / "model.chad", model, NormalizationStats(np.zeros(2), np.ones(2)))
    (tmp_path / "data.csv").write_text("c,x\na,0.5\nb,0.2\n")
    assert main([command, "--model", str(tmp_path / "model.chad"),
                 "--data", str(tmp_path / "data.csv"), "--out", str(tmp_path / "out")]) == 2
    assert "missing columns ['y']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_score_opens_the_data_file_once(workspace, tmp_path, monkeypatch):
    data, opened, real = workspace / "train.csv", [], builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(data):
            opened.append(file)
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["score", "--model", str(workspace / "run/model.chad"), "--data", str(data),
                 "--out", str(tmp_path / "scores.csv")]) == 0
    assert len(opened) == 1


@pytest.mark.parametrize("command, flag", [
    *[(command, flag) for command in ("train", "eval", "bench-concept", "negsample-dump")
      for flag in ("--model", "--data")],
    ("score", "--config"), ("score", "--seed"), ("viz-latent", "--seed"),
])
def test_flag_the_subcommand_ignores_exits_2(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_cli_import_leaves_out_scipy_stats():
    # no scipy module at all: numpy is chadkit's only runtime dependency
    src = Path(__file__).resolve().parents[1] / "src"
    scipy = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    code = (f"import sys, chadkit; print({scipy}); import chadkit.cli; print({scipy}); "
            f"import chadkit.conceptbench; print({scipy})")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert out.stdout.split() == ["[]", "[]", "[]"]


def _replay_cases(ws):
    """subcommand -> (its --config object or None, its other flags, the report
    that embeds its config, the outputs a replay must reproduce byte for byte)."""
    model, data = str(ws / "run/model.chad"), str(ws / "train.csv")
    train = json.loads((ws / "train_cfg.json").read_text())
    del train["seed"], train["out_dir"]
    seed = ["--seed", "7"]
    return {
        "train": (train, seed, "resolved_config.json", ["model.chad"]),
        "eval": ({"model": model, "test_data": data, "seeds": [0, 1], "percentages": [5]},
                 seed, "eval_report.json", ["vary_anomaly.csv"]),
        "bench-concept": ({"concept": {"n_per_cluster": 40, "n_per_blob": 4}, "seeds": [0]},
                          seed, "concept_summary.json",
                          ["concept_bench.csv", "concept_data.csv"]),
        "viz-latent": (None, ["--model", model, "--data", data], "projection_config.json",
                       ["projection_latent.csv"]),
        "negsample-dump": ({"schema": str(ws / "schema.json"), "data": data, "rows": 3},
                           seed, "negsample_config.json", ["negatives.csv"]),
    }


@pytest.mark.parametrize("command", ["train", "eval", "bench-concept", "viz-latent",
                                     "negsample-dump"])
def test_run_replays_from_the_config_its_report_embeds(workspace, tmp_path, command):
    config, flags, report, outputs = _replay_cases(workspace)[command]
    first, again = tmp_path / "first", tmp_path / "again"
    argv = [command, *flags, "--out", str(first)]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 0
    embedded = json.loads((first / report).read_text())
    embedded = embedded.get("config", embedded)   # eval and bench-concept nest it
    assert embedded["out_dir"] == str(first)
    for flag, value in zip(flags[::2], flags[1::2]):
        assert str(embedded[flag[2:]]) == value
    (tmp_path / "replay.json").write_text(json.dumps(embedded))
    assert main([command, "--config", str(tmp_path / "replay.json"),
                 "--out", str(again)]) == 0
    for name in outputs:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name
    if command == "eval":
        assert json.loads((again / report).read_text())["ap_per_seed"] == \
            json.loads((first / report).read_text())["ap_per_seed"]


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

    def test_row_whose_score_overflows_is_not_ranked(self, overflowing_scores, tmp_path):
        root, scores = overflowing_scores
        config = {"model": str(root / "model.chad"), "test_data": str(root / "data.csv"),
                  "anomaly_fraction": 1.0, "seeds": [0, 1], "out_dir": str(tmp_path / "eval")}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert _quiet_main(["eval", "--config", str(tmp_path / "cfg.json")]) == 0
        report = json.loads((tmp_path / "eval/eval_report.json").read_text())
        assert report["load_report"]["rows_dropped_nonfinite"] == np.isnan(scores).sum()
        assert report["load_report"]["rows_kept"] == np.isfinite(scores).sum()
        # a row's overflows depend on the batch the BLAS sums it in, so an
        # anomaly can score nan where its source row did not; it is counted
        assert "anomalies_dropped_nonfinite" in report
        assert all(0.0 <= row["ap"] <= 1.0 for row in report["ap_per_seed"])

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


    def test_rows_that_encode_to_nan_are_left_out(self, overflowing_scores, tmp_path):
        root, _ = overflowing_scores
        assert _quiet_main(["viz-latent", "--model", str(root / "model.chad"),
                            "--data", str(root / "data.csv"),
                            "--out", str(tmp_path / "viz")]) == 0
        rows = read_csv(tmp_path / "viz/projection_latent.csv")[1:]
        assert len(rows) >= 2
        assert all(math.isfinite(float(r[0])) and math.isfinite(float(r[1])) for r in rows)

    def test_fewer_than_two_rows_exits_2(self, workspace, tmp_path, capsys):
        src = (workspace / "train.csv").read_text().splitlines()
        data = tmp_path / "one_row.csv"
        data.write_text("\n".join(src[:2]) + "\n")
        assert main(["viz-latent", "--model", str(workspace / "run/model.chad"),
                     "--data", str(data), "--out", str(tmp_path / "viz")]) == 2
        assert "one_row.csv: 1 rows left to project, need 2" in capsys.readouterr().err
        assert not (tmp_path / "viz").exists()


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
