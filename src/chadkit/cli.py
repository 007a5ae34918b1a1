"""Command-line entry point.

Subcommands: train, score, eval, bench-concept, viz-latent, negsample-dump.
Every run is driven by a JSON config validated against a full key list
(unknown keys are rejected), and every report embeds the resolved config,
so a run can be reproduced from its outputs alone.

Exit codes: 0 success, 2 config or input error, 3 model/schema mismatch,
4 numeric failure during training. The CHADKIT_THREADS environment variable
caps how many seeds the multi-seed commands evaluate concurrently.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .data import (RecordSchema, apply_normalize, filter_rare_entities, fit_normalize,
                   load_csv, read_csv_header, read_schema_file)
from .errors import (ChadkitError, ConfigError, DataError, MetricError, SchemaError,
                     TrainingDiverged)
from .estimator import SecondaryNoiseSpec
from .evaluate import (average_precision, latent_projection, score_dataset,
                       synth_anomalies, vary_anomaly_harness, write_projection_csv)
from .model import ChadModel, ModelConfig
from .negsampler import NegSamplerConfig, generate_negatives_batch
from .persist import load_model, save_model
from .seeds import named_streams
from .trainer import TrainLog, TrainSchedule, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCHEMA = 3
EXIT_NUMERIC = 4


def max_workers() -> int:
    raw = os.environ.get("CHADKIT_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"CHADKIT_THREADS must be an integer, got {raw!r}")
    return max(1, value)


def _seed_map(fn, seeds):
    """Run fn(seed) for each seed, possibly in parallel; order preserved."""
    workers = max_workers()
    if workers == 1:
        return [fn(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seeds))


# ---- config plumbing -------------------------------------------------------


def _load_config(path) -> dict:
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file {path} is not valid JSON: {err}") from None


def _check_keys(obj: dict, where: str, allowed, required, problems: list):
    for key in obj:
        if key not in allowed:
            problems.append(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            problems.append(f"{where}: missing required key {key!r}")


def _require_file(path, what: str, problems: list):
    if path is not None and not Path(path).is_file():
        problems.append(f"{what} file not found: {path}")


def _check_seed_list(config: dict, problems: list):
    if "seeds" in config:
        seeds = config["seeds"]
        if not isinstance(seeds, list) or not seeds or \
                not all(isinstance(s, int) for s in seeds):
            problems.append("seeds must be a non-empty list of integers")


MODEL_KEYS = ("encoder_sizes", "embed_cap", "cont_threshold", "g_dim",
              "dropout_ae", "dropout_est")
NEG_KEYS = ("m", "delta", "dampening")
TRAIN_KEYS = ("phase_epochs", "learning_rate", "batch_size", "gamma_start", "gamma_max")


def _model_config(obj: dict) -> ModelConfig:
    return ModelConfig(**{k: tuple(v) if k == "encoder_sizes" else v
                          for k, v in obj.items()})


def _out_dir(config: dict, args) -> Path:
    out = args.out or config.get("out_dir")
    if not out:
        raise ConfigError("no output directory: set out_dir in the config or pass --out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resolved(config: dict, seed: int) -> dict:
    resolved = dict(config)
    resolved["seed"] = seed
    return resolved


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


# ---- train -----------------------------------------------------------------


def cmd_train(args) -> int:
    config = _load_config(args.config)
    problems: list[str] = []
    _check_keys(config, "config",
                allowed=("schema", "train_data", "min_count", "clamp",
                         "label_field", "model", "negatives", "train",
                         "secondary_noise", "seed", "out_dir"),
                required=("schema", "train_data", "min_count"), problems=problems)
    for section, keys in (("model", MODEL_KEYS), ("negatives", NEG_KEYS),
                          ("train", TRAIN_KEYS)):
        if isinstance(config.get(section), dict):
            _check_keys(config[section], section, keys, (), problems)
    _require_file(config.get("schema"), "schema", problems)
    _require_file(config.get("train_data"), "training data", problems)
    if "min_count" in config and not (isinstance(config["min_count"], int)
                                      and config["min_count"] >= 1):
        problems.append("min_count must be an integer >= 1")
    if problems:
        raise ConfigError(problems)

    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    out = _out_dir(config, args)
    streams = named_streams(seed)

    cat_fields, cont_fields = read_schema_file(config["schema"])
    schema = RecordSchema(cat_fields, cont_fields)
    dataset, report = load_csv(config["train_data"], schema,
                               label_field=config.get("label_field"))
    dataset = filter_rare_entities(dataset, config["min_count"])
    if dataset.n == 0:
        raise DataError(
            f"{config['train_data']}: no training rows left: {report.rows_read} read, "
            f"{report.rows_kept} kept after loading ({report.rows_dropped_missing} with "
            f"empty cells, {report.rows_dropped_unseen} unseen, "
            f"{report.rows_dropped_nonfinite} non-finite dropped), 0 after "
            f"min_count {config['min_count']} pruning")
    stats = fit_normalize(dataset)
    dataset = apply_normalize(stats, dataset, clamp=bool(config.get("clamp", False)))

    model_config = _model_config(config.get("model", {}))
    schedule = TrainSchedule(**config.get("train", {}), seed=seed)
    neg_config = NegSamplerConfig(**config.get("negatives", {}))
    noise_spec = SecondaryNoiseSpec(bool(config.get("secondary_noise", True)))

    model = ChadModel(dataset.schema, model_config, streams["init"])
    log = TrainLog()

    def checkpoint(phase, mdl):
        save_model(out / f"checkpoint_phase{phase}.chad", mdl, stats)

    train(model, dataset, schedule, neg_config, noise_spec, log, checkpoint)

    save_model(out / "model.chad", model, stats)
    log.write_jsonl(out / "train_log.jsonl")
    _write_json(out / "load_report.json", report.to_json())
    _write_json(out / "vocab.json", {"vocabs": dataset.schema.to_json()["vocabs"]})
    _write_json(out / "normalization.json", stats.to_json())
    _write_json(out / "resolved_config.json", _resolved(config, seed))
    print(f"trained model written to {out / 'model.chad'}")
    return EXIT_OK


# ---- score -----------------------------------------------------------------


def _load_for_model(model: ChadModel, stats, data_path, label_field=None):
    header = read_csv_header(data_path)
    wanted = set(model.schema.cat_fields) | set(model.schema.cont_fields)
    missing = wanted - set(header)
    if missing:
        raise SchemaError(f"{data_path} lacks model schema columns {sorted(missing)}")
    dataset, report = load_csv(data_path, model.schema, label_field=label_field,
                               drop_nonfinite=True)
    if dataset.schema.hash() != model.schema.hash():
        raise SchemaError(f"{data_path} introduced categories not in the model schema")
    return apply_normalize(stats, dataset), report


def cmd_score(args) -> int:
    for path, what in ((args.model, "model"), (args.data, "data")):
        if not path or not Path(path).is_file():
            raise ConfigError(f"{what} file not found: {path}")
    if not args.out:
        raise ConfigError("score needs --out for the CSV path")
    model, stats = load_model(args.model)
    dataset, report = _load_for_model(model, stats, args.data)
    scored = score_dataset(model, dataset).sorted_ascending()
    out_path = Path(args.out)
    if out_path.parent != Path(""):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    # the bytes csv.writer would write, in one write
    lines = map("{},{:.12g}\r\n".format, scored.ids.tolist(), scored.scores.tolist())
    with open(out_path, "w", newline="") as f:
        f.write("record_id,score\r\n" + "".join(lines))
    _write_json(out_path.with_suffix(out_path.suffix + ".report.json"),
                report.to_json())
    print(f"{len(scored.ids)} scores written to {out_path}")
    return EXIT_OK


# ---- eval ------------------------------------------------------------------


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    problems: list[str] = []
    _check_keys(config, "config",
                allowed=("model", "test_data", "anomaly_fraction", "seeds",
                         "percentages", "seed", "out_dir"),
                required=("model", "test_data"), problems=problems)
    _require_file(config.get("model"), "model", problems)
    _require_file(config.get("test_data"), "test data", problems)
    _check_seed_list(config, problems)
    if problems:
        raise ConfigError(problems)

    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    out = _out_dir(config, args)
    fraction = float(config.get("anomaly_fraction", 0.1))
    seeds = config.get("seeds", [seed + i for i in range(5)])

    model, stats = load_model(config["model"])
    test_set, _ = _load_for_model(model, stats, config["test_data"])

    def one_seed(s):
        labeled = synth_anomalies(test_set, fraction, np.random.default_rng(s))
        scored = score_dataset(model, labeled)
        return average_precision(scored.scores, scored.labels)

    aps = _seed_map(one_seed, seeds)
    report = {
        "config": _resolved(config, seed),
        "anomaly_fraction": fraction,
        "ap_per_seed": [{"seed": int(s), "ap": float(a)} for s, a in zip(seeds, aps)],
        "ap_mean": float(np.mean(aps)),
        "ap_sd": float(np.std(aps, ddof=1)) if len(aps) > 1 else 0.0,
    }

    if config.get("percentages"):
        pool_frac = max(config["percentages"]) / 100.0
        pool_frac = pool_frac / (1.0 - pool_frac) * 1.5
        pool = synth_anomalies(test_set, pool_frac, np.random.default_rng(seed + 7919))
        pool = pool.subset(np.nonzero(pool.labels == 1)[0])
        rows = vary_anomaly_harness(model, test_set, pool, config["percentages"], seeds)
        report["vary_anomaly"] = rows
        with open(out / "vary_anomaly.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["percent", "ap_mean", "ap_sd", "runs"])
            for row in rows:
                writer.writerow([row["percent"], f"{row['ap_mean']:.6f}",
                                 f"{row['ap_sd']:.6f}", row["runs"]])

    _write_json(out / "eval_report.json", report)
    print(f"AP {report['ap_mean']:.4f} +/- {report['ap_sd']:.4f} "
          f"({len(seeds)} seeds); report in {out}")
    return EXIT_OK


# ---- bench-concept ---------------------------------------------------------


def _concept_config(obj: dict, problems: list):
    from .conceptbench import ConceptConfig, GammaClusterSpec, GaussianBlobSpec

    allowed = ("clusters", "blobs", "n_per_cluster", "n_per_blob", "eps_factor",
               "box_expand")
    _check_keys(obj, "concept", allowed, (), problems)
    kwargs = {}
    if "clusters" in obj:
        kwargs["clusters"] = tuple(
            GammaClusterSpec(tuple(c.get("shape", (2.0, 2.0))),
                             tuple(c.get("scale", (1.0, 1.0))),
                             tuple(c.get("offset", (0.0, 0.0))))
            for c in obj["clusters"])
    if "blobs" in obj:
        blobs = []
        for i, b in enumerate(obj["blobs"]):
            if "mean" not in b:
                problems.append(f"concept.blobs[{i}]: missing 'mean'")
                continue
            blobs.append(GaussianBlobSpec(tuple(b["mean"]), float(b.get("cov", 0.25))))
        kwargs["blobs"] = tuple(blobs)
    for key in ("n_per_cluster", "n_per_blob", "eps_factor", "box_expand"):
        if key in obj:
            kwargs[key] = obj[key]
    if problems:
        raise ConfigError(problems)
    return ConceptConfig(**kwargs)


def cmd_bench_concept(args) -> int:
    # scipy.stats and scipy.linalg load here, not on every CLI call
    from .conceptbench import gen_concept_data, run_concept_bench

    config = _load_config(args.config) if args.config else {}
    problems: list[str] = []
    _check_keys(config, "config", ("concept", "seeds", "seed", "out_dir"), (),
                problems)
    _check_seed_list(config, problems)
    concept = _concept_config(config.get("concept", {}), problems)
    if problems:
        raise ConfigError(problems)

    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    out = _out_dir(config, args)
    seeds = config.get("seeds", list(range(seed, seed + 10)))

    results = _seed_map(lambda s: run_concept_bench(concept, [s]), seeds)
    rows = [row for result in results for row in result["rows"]]
    methods = sorted({row["method"] for row in rows})
    summary = {}
    for method in methods:
        aps = [r["ap"] for r in rows if r["method"] == method]
        summary[method] = {"ap_mean": float(np.mean(aps)),
                           "ap_sd": float(np.std(aps, ddof=1)) if len(aps) > 1 else 0.0}

    with open(out / "concept_bench.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["method", "seed", "ap"])
        for row in rows:
            writer.writerow([row["method"], row["seed"], f"{row['ap']:.6f}"])
    points, labels = gen_concept_data(concept, np.random.default_rng(seeds[0]))
    with open(out / "concept_data.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["x", "y", "label"])
        for (x, y), lab in zip(points, labels):
            writer.writerow([f"{x:.6f}", f"{y:.6f}", int(lab)])
    _write_json(out / "concept_summary.json",
                {"config": _resolved(config, seed), "seeds": [int(s) for s in seeds],
                 "summary": summary})
    for method in methods:
        print(f"{method:12s} AP {summary[method]['ap_mean']:.4f} "
              f"+/- {summary[method]['ap_sd']:.4f}")
    return EXIT_OK


# ---- viz-latent ------------------------------------------------------------


def cmd_viz_latent(args) -> int:
    config = _load_config(args.config) if args.config else {}
    problems: list[str] = []
    _check_keys(config, "config",
                ("model", "data", "source", "label_field", "seed", "out_dir"), (),
                problems)
    model_path = args.model or config.get("model")
    data_path = args.data or config.get("data")
    if not model_path:
        problems.append("no model path: set model in the config or pass --model")
    if not data_path:
        problems.append("no data path: set data in the config or pass --data")
    source = config.get("source", "latent")
    if source not in ("latent", "estimator"):
        problems.append(f"source must be 'latent' or 'estimator', got {source!r}")
    if problems:
        raise ConfigError(problems)
    _require_file(model_path, "model", problems)
    _require_file(data_path, "data", problems)
    if problems:
        raise ConfigError(problems)

    out = _out_dir(config, args)
    model, stats = load_model(model_path)
    dataset, _ = _load_for_model(model, stats, data_path,
                                 label_field=config.get("label_field"))
    vectors = model.encode(dataset.cat, dataset.cont)
    if source == "estimator":
        vectors = model.estimator.penultimate(vectors)
    points, _ = latent_projection(vectors)
    path = out / f"projection_{source}.csv"
    write_projection_csv(path, points, dataset.labels)
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    _write_json(out / "projection_config.json", _resolved(config, seed))
    print(f"projection written to {path}")
    return EXIT_OK


# ---- negsample-dump --------------------------------------------------------


def cmd_negsample_dump(args) -> int:
    config = _load_config(args.config)
    problems: list[str] = []
    _check_keys(config, "config",
                allowed=("schema", "data", "rows", "negatives", "min_count",
                         "seed", "out_dir"),
                required=("schema", "data"), problems=problems)
    if isinstance(config.get("negatives"), dict):
        _check_keys(config["negatives"], "negatives", NEG_KEYS, (), problems)
    _require_file(config.get("schema"), "schema", problems)
    _require_file(config.get("data"), "data", problems)
    if problems:
        raise ConfigError(problems)

    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    out = _out_dir(config, args)
    n_rows = int(config.get("rows", 3))
    neg_config = NegSamplerConfig(**config.get("negatives", {}))

    cat_fields, cont_fields = read_schema_file(config["schema"])
    dataset, _ = load_csv(config["data"], RecordSchema(cat_fields, cont_fields))
    if "min_count" in config:
        dataset = filter_rare_entities(dataset, config["min_count"])
    stats = fit_normalize(dataset)
    dataset = apply_normalize(stats, dataset)
    head = dataset.subset(np.arange(min(n_rows, dataset.n)))

    rng = named_streams(seed)["negsampler"]
    neg_cat, neg_cont = generate_negatives_batch(head.cat, head.cont, neg_config,
                                                 dataset.schema, rng)
    schema = dataset.schema
    path = out / "negatives.csv"
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["source_id", "sample",
                         *schema.cat_fields, *schema.cont_fields])
        for i in range(neg_cat.shape[0]):
            src = int(head.ids[i // neg_config.m])
            cats = [schema.decode_value(w, int(neg_cat[i, w]))
                    for w in range(schema.k)]
            conts = [f"{v:.6f}" for v in neg_cont[i]]
            writer.writerow([src, i % neg_config.m, *cats, *conts])
    _write_json(out / "negsample_config.json", _resolved(config, seed))
    print(f"{neg_cat.shape[0]} negatives written to {path}")
    return EXIT_OK


# ---- entry point -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chadkit",
                                     description="contrastive anomaly detection "
                                                 "for heterogeneous tabular data")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--seed", type=int, help="root random seed (overrides config)")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--model", help="model file path")
        p.add_argument("--data", help="data CSV path")
        p.set_defaults(fn=fn)
        return p

    add("train", cmd_train, "train a detector from a config")
    add("score", cmd_score, "score a CSV with a trained model")
    add("eval", cmd_eval, "synthetic-anomaly evaluation of a trained model")
    add("bench-concept", cmd_bench_concept, "run the 2-D concept benchmark")
    add("viz-latent", cmd_viz_latent, "project latent vectors to 2-D CSV")
    add("negsample-dump", cmd_negsample_dump, "dump generated negatives as CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("train", "eval", "negsample-dump") and not args.config:
            raise ConfigError(f"{args.command} requires --config")
        return args.fn(args)
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
