"""Command-line entry point.

Subcommands: train, score, eval, bench-concept, viz-latent, negsample-dump.
Every run is driven by one config: the --config JSON, when the subcommand
takes one, with each flag given set over the key of its name. ``main`` builds
it once and checks it in one pass against the subcommand's entry in
CONFIG_TABLES, which reports every unknown, missing or mistyped key and every
value out of its range. The ``model``, ``train``, ``negatives`` and
``concept`` objects then check their own rules when they are built, and the
first that fails is reported. Every report embeds the config, so a run can be
reproduced from its outputs alone.

Inputs are validated once, where they enter: configs here, CSV cells and
vocabularies in ``load_csv`` (a training CSV must hold finite numbers), model
files in ``load_model``, and the model's size against MAX_PARAMETERS before
it is built. The training and scoring code below trusts what it is given.

Exit codes: 0 success, 2 config or input error, 3 model/schema mismatch,
4 numeric failure during training.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .conceptbench import (ConceptConfig, GammaClusterSpec, GaussianBlobSpec,
                           gen_concept_data, run_concept_bench)
from .data import (RecordSchema, apply_normalize, filter_rare_entities, fit_normalize,
                   load_csv, read_schema_file)
from .errors import (ChadkitError, ConfigError, DataError, MetricError, SchemaError,
                     TrainingDiverged)
from .estimator import SecondaryNoiseSpec
from .evaluate import (ScoredRecords, anomaly_ratio_sweep, average_precision,
                       latent_projection, score_dataset, synth_anomalies,
                       write_projection_csv)
from .model import ChadModel, ModelConfig, parameter_count
from .negsampler import NegSamplerConfig, check_sampler_schema, generate_negatives_batch
from .persist import load_model, save_model
from .seeds import named_streams
from .trainer import TrainLog, TrainSchedule, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCHEMA = 3
EXIT_NUMERIC = 4

# The largest model `train` builds: 2**27 float64 parameters are 1 GiB, before
# Adam's two moment buffers of the same size.
MAX_PARAMETERS = 2**27


# ---- config plumbing -------------------------------------------------------

# The config keys of each subcommand and the JSON value each key takes. A dict
# is the table of a nested JSON object, a one-item list the table of every
# object in a JSON list; a kind ending in "!" marks a required key. A "file"
# is a path string naming an existing file. The kinds hold the ranges of the
# keys that only the CLI reads; the objects built from the nested tables
# check their own. A flag sets the key of its name
# (``_config``); `score` takes no --config, so its table holds only the keys
# its flags set.
_NEGATIVES = {"m": "int", "delta": "number"}
_RUN = {"seed": "seed", "out_dir": "str!"}
CONFIG_TABLES = {
    "train": {
        "schema": "file!", "train_data": "file!", "min_count": "count!",
        "secondary_noise": "bool", "negatives": _NEGATIVES,
        "model": {"encoder_sizes": "ints", "embed_cap": "int", "cont_threshold": "int",
                  "g_dim": "int", "dropout_ae": "number", "dropout_est": "number"},
        "train": {"phase_epochs": "ints", "learning_rate": "number", "batch_size": "int",
                  "gamma_start": "number", "gamma_max": "number"},
        **_RUN},
    "eval": {"model": "file!", "test_data": "file!", "anomaly_fraction": "fraction",
             "seeds": "seeds", "percentages": "percentages", **_RUN},
    "bench-concept": {
        "concept": {"clusters": [{"shape": "numbers", "scale": "numbers",
                                  "offset": "numbers"}],
                    "blobs": [{"mean": "numbers!", "cov": "number"}],
                    "n_per_cluster": "int", "n_per_blob": "int", "eps_factor": "number",
                    "box_expand": "number"},
        "seeds": "seeds", **_RUN},
    "score": {"model": "file!", "data": "file!", "out": "str!"},
    "viz-latent": {"model": "file!", "data": "file!", "source": "source",
                   "label_field": "str", "out_dir": "str!"},
    "negsample-dump": {"schema": "file!", "data": "file!", "rows": "count",
                       "negatives": _NEGATIVES, "min_count": "count", **_RUN},
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float) and math.isfinite(v)


def _is_seed(v) -> bool:
    return _is_int(v) and v >= 0


_KINDS = {  # kind -> (what a value must be, its test)
    "file": ("a path string", lambda v: isinstance(v, str)),
    "str": ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "int": ("an integer", _is_int),
    "seed": ("an integer >= 0", _is_seed),
    "count": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
    "number": ("a finite number", _is_number),
    "fraction": ("a number in (0, 1]", lambda v: _is_number(v) and 0 < v <= 1),
    "ints": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "numbers": ("a list of finite numbers",
                lambda v: isinstance(v, list) and all(map(_is_number, v))),
    "seeds": ("a non-empty list of integers >= 0",
              lambda v: isinstance(v, list) and v and all(map(_is_seed, v))),
    "percentages": ("a list of numbers in (0, 100)",
                    lambda v: isinstance(v, list)
                    and all(_is_number(p) and 0 < p < 100 for p in v)),
    "source": ("'latent' or 'estimator'", lambda v: v in ("latent", "estimator")),
}


def _problems(obj, table: dict, where: str, flags: dict = {}) -> list[str]:
    """Every unknown, missing, mistyped, out-of-range or missing-file key of
    ``obj``; a missing key that ``flags`` maps to a flag names that flag."""
    if not isinstance(obj, dict):
        return [f"{where} must be a JSON object"]
    problems = [f"{where}: unknown key {key!r}" for key in obj if key not in table]
    for key, kind in table.items():
        name = key if where == "config" else f"{where}.{key}"
        value = obj.get(key)
        if key not in obj:
            if isinstance(kind, str) and kind.endswith("!"):
                hint = f" (or pass --{flags[key]})" if key in flags else ""
                problems.append(f"{where}: missing required key {key!r}{hint}")
        elif isinstance(kind, dict):
            problems += _problems(value, kind, name)
        elif isinstance(kind, list):
            if not isinstance(value, list):
                problems.append(f"{name} must be a list of JSON objects")
            else:
                for i, item in enumerate(value):
                    problems += _problems(item, kind[0], f"{name}[{i}]")
        else:
            what, test = _KINDS[kind.rstrip("!")]
            if not test(value):
                problems.append(f"{name} must be {what}, got {json.dumps(value)[:40]}")
            elif kind.startswith("file") and not os.path.isfile(value):
                problems.append(f"{name} file not found: {value}")
    return problems


def _config(args) -> dict:
    """The subcommand's config: the --config file's object with each flag
    given set over the key of its name, checked once against the
    subcommand's table. Where the table has a seed, "seed" holds the run's
    seed (0 when neither sets it), so the returned config reproduces the run."""
    table = CONFIG_TABLES[args.command]
    config = {}
    if getattr(args, "config", None):
        if not os.path.isfile(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        try:
            with open(args.config, encoding="utf-8") as f:
                config = json.load(f)
        except (ValueError, RecursionError) as err:   # not UTF-8, not JSON, too deep
            raise ConfigError(f"config file {args.config} is not UTF-8 JSON: {err}") \
                from None
    # each flag of the subcommand but --config sets the key of its name, and
    # --out sets out_dir, except score's, which names the scores CSV
    flags = {("out_dir" if flag == "out" and args.command != "score" else flag): flag
             for flag in ("seed", "model", "data", "out") if hasattr(args, flag)}
    if isinstance(config, dict):
        config.update({key: getattr(args, flag) for key, flag in flags.items()
                       if getattr(args, flag) is not None})
    problems = _problems(config, table, "config", flags)
    if problems:
        raise ConfigError(problems)
    if "seed" in table:
        config.setdefault("seed", 0)
    return config


def _build(cls, obj: dict, where: str):
    """``cls`` from a checked config object; its range checks exit 2 naming ``where``."""
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()})
    except (ValueError, TypeError, ConfigError) as err:
        raise ConfigError(f"{where}: {err}") from None


def _make_dir(path) -> Path:
    """The output directory ``path``, created. A command makes it once its
    inputs have passed their checks, so an input error leaves no empty
    directory behind."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot create output directory {path}: {err}") from None
    return path


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _rows_summary(report) -> str:
    """What ``load_csv`` kept and dropped, for error messages."""
    return (f"{report.rows_read} read, {report.rows_kept} kept after loading "
            f"({report.rows_dropped_missing} with empty cells, {report.rows_dropped_unseen} "
            f"unseen, {report.rows_dropped_nonfinite} non-finite dropped)")


# ---- train -----------------------------------------------------------------


def _load_training(config: dict, data_key: str):
    """(normalized dataset, stats, load report) from the config's schema file
    and ``data_key`` CSV, pruned at its min_count, whose schema the negative
    sampler can perturb."""
    min_count = config.get("min_count", 1)
    path = config[data_key]
    dataset, report = load_csv(path, RecordSchema(*read_schema_file(config["schema"])))
    if report.first_nonfinite:
        raise DataError(f"{path}: {report.first_nonfinite} is not a finite number; "
                        f"training data must be finite")
    dataset = filter_rare_entities(dataset, min_count)
    if dataset.n == 0:
        raise DataError(f"{path}: no training rows left: {_rows_summary(report)}, "
                        f"0 after min_count {min_count} pruning")
    check_sampler_schema(dataset.schema)   # as train() does, but before out is made
    stats = fit_normalize(dataset)
    return apply_normalize(stats, dataset), stats, report


def cmd_train(config: dict) -> int:
    seed = config["seed"]
    model_config = _build(ModelConfig, config.get("model", {}), "model")
    schedule = _build(TrainSchedule, {**config.get("train", {}), "seed": seed}, "train")
    neg_config = _build(NegSamplerConfig, config.get("negatives", {}), "negatives")
    noise_spec = SecondaryNoiseSpec(config.get("secondary_noise", True))
    dataset, stats, report = _load_training(config, "train_data")
    count = parameter_count(dataset.schema, model_config)
    if count > MAX_PARAMETERS:
        raise ConfigError(f"model: {count} parameters exceed the limit of {MAX_PARAMETERS}; "
                          f"reduce model.encoder_sizes, model.embed_cap or model.g_dim")
    out = _make_dir(config["out_dir"])

    model = ChadModel(dataset.schema, model_config, named_streams(seed)["init"])
    log = TrainLog()

    def checkpoint(phase, mdl):
        # the phase-3 checkpoint is the trained model
        save_model(out / ("model.chad" if phase == 3 else f"checkpoint_phase{phase}.chad"),
                   mdl, stats)

    train(model, dataset, schedule, neg_config, noise_spec, log, checkpoint)
    log.write_jsonl(out / "train_log.jsonl")
    _write_json(out / "load_report.json", report.to_json())
    _write_json(out / "vocab.json", {"vocabs": dataset.schema.to_json()["vocabs"]})
    _write_json(out / "normalization.json", stats.to_json())
    _write_json(out / "resolved_config.json", config)
    print(f"trained model written to {out / 'model.chad'}")
    return EXIT_OK


# ---- score -----------------------------------------------------------------


def _load_for_model(model: ChadModel, stats, data_path, label_field=None):
    """(dataset, scores, load report) of the CSV rows the model scores, the
    one rule of ``score``, ``eval`` and ``viz-latent``. The rows are
    normalized with the model's ranges and scored; a row whose normalized
    values or score are not all finite (a finite cell can overflow in either
    step) is dropped and counted as non-finite, and the kept rows are
    numbered afresh, as load_csv numbers them. A file lacking one of the
    model's columns raises load_csv's SchemaError, or its DataError for a
    model that fixes no vocabulary."""
    dataset, report = load_csv(data_path, model.schema, label_field=label_field)
    with np.errstate(over="ignore", invalid="ignore"):
        dataset = apply_normalize(stats, dataset)
        scores = score_dataset(model, dataset).scores
    bad = ~(np.isfinite(dataset.cont).all(axis=1) & np.isfinite(scores))
    if bad.any():
        report.rows_dropped_nonfinite += int(bad.sum())
        report.rows_kept -= int(bad.sum())
        dataset, scores = dataset.subset(np.flatnonzero(~bad)), scores[~bad]
        dataset.ids = np.arange(dataset.n)
    return dataset, scores, report


def cmd_score(config: dict) -> int:
    model, stats = load_model(config["model"])
    dataset, scores, report = _load_for_model(model, stats, config["data"])
    scored = ScoredRecords(dataset.ids, scores).sorted_ascending()
    quantiles = None if dataset.n == 0 else {   # numpy's "lower" quantiles of the scores
        name: float(scored.scores[int(q * (dataset.n - 1))])
        for name, q in (("min", 0), ("p1", .01), ("p5", .05), ("p50", .5), ("max", 1))}
    out_path = Path(config["out"])
    # the bytes csv.writer would write, in one % and one write
    cells = [None] * (2 * len(scored.ids))
    cells[::2], cells[1::2] = scored.ids.tolist(), scored.scores.tolist()
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", newline="") as f:
            f.write("record_id,score\r\n" + ("%d,%.12g\r\n" * len(scored.ids)) % tuple(cells))
        _write_json(out_path.with_suffix(out_path.suffix + ".report.json"),
                    {**report.to_json(), "score_quantiles": quantiles, "config": config})
    except OSError as err:
        raise ConfigError(f"cannot write scores to {out_path}: {err}") from None
    print(f"{len(scored.ids)} scores written to {out_path}")
    return EXIT_OK


# ---- eval ------------------------------------------------------------------


def _synthetic_eval(model, test_set, nominal_scores, fraction: float, percentages, seeds,
                    seed: int) -> dict:
    """AP per seed on ``test_set``, whose scores are given, plus synthetic
    anomalies, and the anomaly-ratio sweep when ``percentages`` are given. An
    anomaly whose score is not finite is left out of the ranking and counted."""
    # synth_anomalies appends the anomalies after the unchanged test rows, so
    # the test rows are scored once and each seed scores only its anomalies
    n, aps, dropped = test_set.n, [], 0

    def anomaly_scores(labeled):
        nonlocal dropped
        scores = model.score_records(labeled.cat[n:], labeled.cont[n:])
        finite = np.isfinite(scores)
        dropped += int((~finite).sum())
        return scores[finite]

    for s in seeds:
        labeled = synth_anomalies(test_set, fraction, np.random.default_rng(s))
        if labeled.n == n:
            raise MetricError(f"anomaly_fraction {fraction:g} of {n} test rows "
                              f"gives no anomalies")
        scores = anomaly_scores(labeled)
        aps.append(average_precision(np.concatenate([nominal_scores, scores]),
                                     labeled.labels[:n + len(scores)]))
    report = {
        "anomaly_fraction": fraction,
        "ap_per_seed": [{"seed": int(s), "ap": float(a)} for s, a in zip(seeds, aps)],
        "ap_mean": float(np.mean(aps)),
        "ap_sd": float(np.std(aps, ddof=1)) if len(aps) > 1 else 0.0,
    }
    if percentages:
        pool_frac = max(percentages) / 100.0
        pool_frac = pool_frac / (1.0 - pool_frac) * 1.5
        pool = synth_anomalies(test_set, pool_frac, np.random.default_rng(seed + 7919))
        report["vary_anomaly"] = anomaly_ratio_sweep(nominal_scores, anomaly_scores(pool),
                                                     percentages, seeds)
    report["anomalies_dropped_nonfinite"] = dropped
    return report


def cmd_eval(config: dict) -> int:
    seed = config["seed"]
    fraction = float(config.get("anomaly_fraction", 0.1))
    percentages = config.get("percentages", [])
    seeds = config.get("seeds", [seed + i for i in range(5)])

    model, stats = load_model(config["model"])
    test_set, nominal_scores, load_report = _load_for_model(model, stats,
                                                            config["test_data"])
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            report = _synthetic_eval(model, test_set, nominal_scores, fraction, percentages,
                                     seeds, seed)
    except MetricError as err:
        raise MetricError(f"{err}; {config['test_data']}: "
                          f"{_rows_summary(load_report)}") from None
    out = _make_dir(config["out_dir"])
    report.update(config=config, load_report=load_report.to_json())

    if percentages:
        _write_csv(out / "vary_anomaly.csv", ["percent", "ap_mean", "ap_sd", "runs"],
                   ([row["percent"], f"{row['ap_mean']:.6f}", f"{row['ap_sd']:.6f}",
                     row["runs"]] for row in report["vary_anomaly"]))

    _write_json(out / "eval_report.json", report)
    print(f"AP {report['ap_mean']:.4f} +/- {report['ap_sd']:.4f} "
          f"({len(seeds)} seeds); report in {out}")
    return EXIT_OK


# ---- bench-concept ---------------------------------------------------------


def cmd_bench_concept(config: dict) -> int:
    seed = config["seed"]
    concept = dict(config.get("concept", {}))
    for key, spec in (("clusters", GammaClusterSpec), ("blobs", GaussianBlobSpec)):
        if key in concept:
            concept[key] = [_build(spec, item, f"concept.{key}[{i}]")
                            for i, item in enumerate(concept[key])]
    concept = _build(ConceptConfig, concept, "concept")
    out = _make_dir(config["out_dir"])
    seeds = config.get("seeds", list(range(seed, seed + 10)))

    result = run_concept_bench(concept, seeds)
    summary = result["summary"]

    _write_csv(out / "concept_bench.csv", ["method", "seed", "ap"],
               ([row["method"], row["seed"], f"{row['ap']:.6f}"] for row in result["rows"]))
    points, labels = gen_concept_data(concept, np.random.default_rng(seeds[0]))
    _write_csv(out / "concept_data.csv", ["x", "y", "label"],
               ([f"{x:.6f}", f"{y:.6f}", int(lab)] for (x, y), lab in zip(points, labels)))
    _write_json(out / "concept_summary.json",
                {"config": config, "seeds": [int(s) for s in seeds],
                 "summary": summary})
    for method, row in sorted(summary.items()):
        print(f"{method:12s} AP {row['ap_mean']:.4f} +/- {row['ap_sd']:.4f}")
    return EXIT_OK


# ---- viz-latent ------------------------------------------------------------


def cmd_viz_latent(config: dict) -> int:
    source = config.get("source", "latent")
    model, stats = load_model(config["model"])
    dataset, _, _ = _load_for_model(model, stats, config["data"],
                                    label_field=config.get("label_field"))
    with np.errstate(over="ignore", invalid="ignore"):
        vectors = model.encode(dataset.cat, dataset.cont)
        if source == "estimator":
            vectors = model.estimator.penultimate(vectors)
    # a row that scored finite can still encode to nan here: the BLAS may sum
    # its products differently among the rows of another block
    keep = np.isfinite(vectors).all(axis=1)
    if keep.sum() < 2:
        raise DataError(f"{config['data']}: {keep.sum()} rows left to project, need 2")
    out = _make_dir(config["out_dir"])
    points, _ = latent_projection(vectors[keep])
    path = out / f"projection_{source}.csv"
    write_projection_csv(path, points, None if dataset.labels is None else dataset.labels[keep])
    _write_json(out / "projection_config.json", config)
    print(f"projection written to {path}")
    return EXIT_OK


# ---- negsample-dump --------------------------------------------------------


def cmd_negsample_dump(config: dict) -> int:
    neg_config = _build(NegSamplerConfig, config.get("negatives", {}), "negatives")
    dataset, _, _ = _load_training(config, "data")
    out = _make_dir(config["out_dir"])
    head = dataset.subset(np.arange(min(config.get("rows", 3), dataset.n)))

    rng = named_streams(config["seed"])["negsampler"]
    neg_cat, neg_cont = generate_negatives_batch(head.cat, head.cont, neg_config,
                                                 dataset.schema, rng)
    schema, m = dataset.schema, neg_config.m
    path = out / "negatives.csv"
    _write_csv(path, ["source_id", "sample", *schema.cat_fields, *schema.cont_fields],
               ([int(head.ids[i // m]), i % m,
                 *(schema.decode_value(w, int(neg_cat[i, w])) for w in range(schema.k)),
                 *(f"{v:.6f}" for v in neg_cont[i])] for i in range(neg_cat.shape[0])))
    _write_json(out / "negsample_config.json", config)
    print(f"{neg_cat.shape[0]} negatives written to {path}")
    return EXIT_OK


# ---- entry point -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chadkit",
                                     description="contrastive anomaly detection "
                                                 "for heterogeneous tabular data")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "config": {"help": "JSON config path"},
        "seed": {"type": int, "help": "root random seed (sets seed)"},
        "model": {"help": "model file path"},
        "data": {"help": "data CSV path"},
    }

    def add(name, fn, help_text, names, out_help="output directory (sets out_dir)"):
        # a subcommand takes only the flags it reads, so an ignored one exits 2
        p = sub.add_parser(name, help=help_text)
        for flag in names.split():
            p.add_argument(f"--{flag}", **flags[flag])
        p.add_argument("--out", help=out_help)
        p.set_defaults(fn=fn)

    add("train", cmd_train, "train a detector from a config", "config seed")
    add("score", cmd_score, "score a CSV with a trained model", "model data",
        "scores CSV path")
    add("eval", cmd_eval, "synthetic-anomaly evaluation of a trained model", "config seed")
    add("bench-concept", cmd_bench_concept, "run the 2-D concept benchmark", "config seed")
    add("viz-latent", cmd_viz_latent, "project latent vectors to 2-D CSV",
        "config model data")
    add("negsample-dump", cmd_negsample_dump, "dump generated negatives as CSV",
        "config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(_config(args))
    except (ConfigError, DataError, MetricError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SchemaError as err:
        print(f"schema mismatch: {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except TrainingDiverged as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ChadkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
