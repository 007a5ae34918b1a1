"""The declarative config tables of the CLI: every malformed config exits 2
naming its key or file, whatever JSON a value holds."""
import copy
import dataclasses
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chadkit import cli
from chadkit.cli import CONFIG_TABLES, main
from chadkit.conceptbench import ConceptConfig, GammaClusterSpec, GaussianBlobSpec
from chadkit.data import RecordSchema, fit_normalize, load_csv, read_schema_file
from chadkit.errors import ConfigError
from chadkit.model import ChadModel, ModelConfig
from chadkit.negsampler import NegSamplerConfig
from chadkit.persist import save_model
from chadkit.synthdata import make_clustered_dataset
from chadkit.trainer import TrainSchedule

from conftest import write_csv, write_schema_json


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A 40-row labelled CSV, its schema, an untrained model, and a valid
    config using every key of each subcommand."""
    root = tmp_path_factory.mktemp("cfg")
    ds = make_clustered_dataset(40, arities=(3, 4), n_cont=4, n_clusters=2, seed=1,
                                prefer=0.5)
    labels = np.arange(40) % 2
    write_schema_json(root / "schema.json", ds.schema)
    write_csv(root / "data.csv", ds.schema, ds.cat, ds.cont, label=labels)
    schema = RecordSchema(*read_schema_file(root / "schema.json"))
    dataset, _ = load_csv(root / "data.csv", schema)
    model = ChadModel(dataset.schema, ModelConfig(encoder_sizes=(6, 4)),
                      np.random.default_rng(0))
    save_model(root / "model.chad", model, fit_normalize(dataset))
    files = {name: str(root / name) for name in ("schema.json", "data.csv", "model.chad")}
    negatives = {"m": 2, "delta": 0.5}
    run = {"seed": 3, "out_dir": str(root / "out")}
    configs = {
        "train": {
            "schema": files["schema.json"], "train_data": files["data.csv"],
            "min_count": 1, "secondary_noise": True, "negatives": negatives,
            "model": {"encoder_sizes": [6, 4], "embed_cap": 4, "cont_threshold": 32,
                      "g_dim": 4, "dropout_ae": 0.2, "dropout_est": 0.1},
            "train": {"phase_epochs": [1, 0, 1], "learning_rate": 5e-3,
                      "batch_size": 16, "gamma_start": 1.0, "gamma_max": 2.0},
            **run},
        "eval": {"model": files["model.chad"], "test_data": files["data.csv"],
                 "anomaly_fraction": 0.2, "seeds": [0, 1], "percentages": [10], **run},
        "bench-concept": {
            "concept": {"clusters": [{"shape": [2, 2], "scale": [1, 1], "offset": [0, 0]}],
                        "blobs": [{"mean": [4, 4], "cov": 0.25}],
                        "n_per_cluster": 30, "n_per_blob": 4, "eps_factor": 1e-3,
                        "box_expand": 0.1},
            "seeds": [0], **run},
        "score": {"model": files["model.chad"], "data": files["data.csv"],
                  "out": str(root / "scores.csv")},
        "viz-latent": {"model": files["model.chad"], "data": files["data.csv"],
                       "source": "estimator", "label_field": "label",
                       "out_dir": run["out_dir"]},
        "negsample-dump": {"schema": files["schema.json"], "data": files["data.csv"],
                           "rows": 3, "negatives": negatives, "min_count": 1, **run},
    }
    return root, configs


def _run(root, command, config, *flags):
    path = Path(root) / "cfg.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(json.dumps(config))
    return main([command, "--config", str(path), *flags])


def test_every_key_of_every_table_is_accepted(ws):
    root, configs = ws
    assert set(configs) == set(CONFIG_TABLES)
    for command, config in configs.items():
        if command == "score":   # no --config: its flags set all its keys
            flags = [arg for key, value in config.items() for arg in (f"--{key}", value)]
            assert main([command, *flags]) == 0
            report = json.loads(Path(config["out"] + ".report.json").read_text())
            assert report["config"] == config
        else:
            assert _run(root, command, config) == 0, command


def test_nested_tables_match_the_dataclasses_they_build():
    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}
    train = CONFIG_TABLES["train"]
    concept = CONFIG_TABLES["bench-concept"]["concept"]
    assert set(train["model"]) == names(ModelConfig)
    assert set(train["train"]) == names(TrainSchedule) - {"seed"}
    assert set(train["negatives"]) == names(NegSamplerConfig)
    assert CONFIG_TABLES["negsample-dump"]["negatives"] == train["negatives"]
    assert set(concept) == names(ConceptConfig)
    assert set(concept["clusters"][0]) == names(GammaClusterSpec)
    assert set(concept["blobs"][0]) == names(GaussianBlobSpec)


def _set(command, value, *path):
    """A valid config of ``command`` with the value at ``path`` replaced."""
    def make(configs, root):
        config = copy.deepcopy(configs[command])
        obj = config
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
        return config
    return make


def _schema_bytes(content):
    def make(configs, root):
        (root / "bad_schema.json").write_bytes(content)
        return {**configs["train"], "schema": str(root / "bad_schema.json")}
    return make


MALFORMED = [
    ("train", lambda configs, root: [], "config must be a JSON object"),
    ("train", lambda configs, root: b"\xff\xfe{}", "cfg.json is not UTF-8 JSON"),
    ("train", lambda configs, root: b"[" * 100000, "cfg.json is not UTF-8 JSON"),
    ("train", _schema_bytes(b"\xff\xfe{}"), "bad_schema.json is not UTF-8 JSON"),
    ("train", _schema_bytes(b"{not json"), "bad_schema.json is not UTF-8 JSON"),
    ("train", _set("train", "x", "model"), "model must be a JSON object"),
    ("train", _set("train", [], "negatives"), "negatives must be a JSON object"),
    ("train", _set("train", "x", "train", "batch_size"), "train.batch_size must be"),
    ("train", _set("train", "x", "train", "learning_rate"), "train.learning_rate must"),
    ("train", _set("train", 0, "train", "learning_rate"), "train: learning_rate must be > 0"),
    ("train", _set("train", [1, "x", 2], "train", "phase_epochs"), "train.phase_epochs"),
    ("train", _set("train", 5, "model", "encoder_sizes"), "model.encoder_sizes must"),
    ("train", _set("train", 2, "model", "dropout_ae"), "model: dropout rates"),
    ("train", _set("train", 0, "model", "g_dim"), "model: embed_cap and g_dim"),
    ("train", _set("train", [2**40], "model", "encoder_sizes"), "model.encoder_sizes"),
    ("train", _set("train", "abc", "seed"), "seed must be an integer"),
    ("train", _set("train", -1, "seed"), "seed must be >= 0"),
    ("train", _set("train", True, "min_count"), "min_count must be an integer"),
    ("train", _set("train", "cfg.json", "out_dir"), "cannot create output directory"),
    ("train", _set("train", "", "out_dir"), "out_dir must be a non-empty string"),
    # keys that changed nothing and were deleted
    ("train", _set("train", False, "clamp"), "config: unknown key 'clamp'"),
    ("train", _set("train", "label", "label_field"), "config: unknown key 'label_field'"),
    ("train", _set("train", 0.75, "negatives", "dampening"),
     "negatives: unknown key 'dampening'"),
    ("eval", _set("eval", "x", "anomaly_fraction"), "anomaly_fraction must be"),
    ("eval", _set("eval", [-1], "seeds"), "seeds must be a non-empty list"),
    ("negsample-dump", _set("negsample-dump", "3", "rows"), "rows must be an integer"),
    ("negsample-dump", _set("negsample-dump", -5, "rows"), "rows must be >= 1, got -5"),
    ("bench-concept", _set("bench-concept", [1], "concept", "blobs", 0, "mean"),
     "concept.blobs[0]: a blob needs a two-value mean"),
    # below shape 1 the mode density is infinite, so no negative is rejected
    ("bench-concept", _set("bench-concept", [0.5, 2.0], "concept", "clusters", 0, "shape"),
     "concept.clusters[0]: Gamma shape must be >= 1"),
    ("viz-latent", _set("viz-latent", "pca", "source"),
     "source must be 'latent' or 'estimator', got \"pca\""),
]


@pytest.mark.parametrize("command, make, message", MALFORMED,
                         ids=[m[2] for m in MALFORMED])
def test_malformed_config_exits_2_naming_key_or_file(ws, command, make, message,
                                                     capsys, monkeypatch):
    root, configs = ws
    monkeypatch.chdir(root)
    assert _run(root, command, make(configs, root)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, config, problems", [
    (["train"], None, ["config: missing required key 'schema'",
                       "config: missing required key 'train_data'",
                       "config: missing required key 'min_count'",
                       "config: missing required key 'out_dir' (or pass --out)"]),
    # eval takes no --model or --data flag to name
    (["eval", "--out", "o"], None, ["config: missing required key 'model'",
                                    "config: missing required key 'test_data'"]),
    (["score"], None, ["config: missing required key 'model' (or pass --model)",
                       "config: missing required key 'data' (or pass --data)",
                       "config: missing required key 'out' (or pass --out)"]),
    (["score", "--model", "no.chad", "--data", "no.csv", "--out", ""], None,
     ["model file not found: no.chad", "data file not found: no.csv",
      'out must be a non-empty string, got ""']),
    (["viz-latent", "--data", "no.csv"], {"source": "pca", "out_dir": "v"},
     ["config: missing required key 'model' (or pass --model)",
      "data file not found: no.csv", "source must be 'latent' or 'estimator', got \"pca\""]),
], ids=["train", "eval", "score", "score_paths", "viz-latent"])
def test_every_problem_of_flags_and_config_is_reported_at_once(argv, config, problems,
                                                                tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", "cfg.json"]
    with pytest.raises(ConfigError) as exc:
        cli._config(cli.build_parser().parse_args(argv))
    assert exc.value.problems == problems


def test_a_flag_sets_the_key_of_its_name(ws, tmp_path):
    root, configs = ws
    # the values the flags replace are never used, so they are not checked
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**configs["viz-latent"], "model": 5, "out_dir": ["x"]}))
    args = cli.build_parser().parse_args(["viz-latent", "--config", str(path), "--model",
                                          configs["train"]["schema"], "--out", "v"])
    assert cli._config(args) == {**configs["viz-latent"], "model": configs["train"]["schema"],
                                 "out_dir": "v"}
    path.write_text(json.dumps({**configs["train"], "seed": "x"}))
    args = cli.build_parser().parse_args(["train", "--config", str(path), "--seed", "4"])
    assert cli._config(args) == {**configs["train"], "seed": 4}


# Integers stay small: a huge layer width or count of negatives is a
# well-formed request for a long run. Edge values are drawn often, not left
# to the tails of the strategies.
JSON_VALUES = st.sampled_from([math.inf, -math.inf, math.nan, -1, 0, "", [], {}]) \
    | st.integers(-3, 300) | st.recursive(
        st.none() | st.booleans() | st.integers(-3, 300) | st.floats()
        | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6)


def _paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


@pytest.mark.parametrize("command", ["train", "negsample-dump"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_json_value_exits_0_or_2(ws, command, data):
    root, configs = ws
    config = copy.deepcopy(configs[command])
    paths = sorted(_paths(config))
    chosen = data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3,
                                unique=True))
    # deepest first, so a replaced parent is not indexed into afterwards
    for path in sorted(chosen, key=len, reverse=True):
        obj = config
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = data.draw(JSON_VALUES, label="/".join(path))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "train"):
        # --out keeps the outputs in tmp whatever out_dir now holds
        assert _run(tmp, command, config, "--out", tmp) in (0, 2)
