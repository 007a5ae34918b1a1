"""The benchmark's workloads: desk_train, wide_train and bulk_score.

Every workload makes its inputs from the workload seed in set-up and then
runs as a closed loop: one caller, and the next timed call starts when the
previous one returns. NOTES.md says why each workload was chosen and which
per-layer metric should move which end-to-end metric.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import chadkit as ck
from chadkit import cli, evaluate, persist, synthdata, trainer

from tracing import Tracer

# Acceptance gate 7's desk-scale run.
DESK_DATA = {"n_rows": 6000, "arities": (10, 20, 35, 50), "n_cont": 6}
# Intrusion-table shape: two fields hit the 32-wide embedding cap, and 38
# continuous fields exceed the 32-field threshold, so the linear map g.W runs.
WIDE_DATA = {"n_rows": 6000, "arities": (3, 11, 70, 300, 1000, 2000), "n_cont": 38,
             "values_per_cluster": 20, "n_clusters": 8}
# Fresh rows from the same clusters added to wide_train's test split: with the
# split's 111 anomalies alone, its AP varies by about 13% from seed to seed.
WIDE_EXTRA_TEST_ROWS = 20_000
PHASE_EPOCHS = (20, 8, 15)
SHORT_EPOCHS = (8, 4, 6)          # bulk_score's model only has to score
LEARNING_RATE = 5e-3
BATCH_SIZE = 256
NEGATIVES = 10
TEST_FRACTION = 1 / 6
ANOMALY_FRACTION = 1 / 9
ANOMALY_SEED_OFFSET = 99          # gate 7 draws anomalies from default_rng(99 + seed)
BULK_NOMINAL_ROWS = 180_000       # plus 1/9 anomalies: 200k rows, about 28 MB
HOSTILE_SHARE = 0.005             # per kind: empty cell, unseen category, non-finite cell
TRAIN_SETUP_REPEATS = 15
BULK_SETUP_REPEATS = 5
SCORE_PASS_SECONDS = 0.5          # in-process scoring after each training: at least
MIN_SCORE_PASSES = 10             # this many passes, and passes for this long
MIN_TRAIN_CALLS = 2               # the model hash is compared across repeats
MIN_SCORE_CALLS = 3
CHILD_TIMEOUT_S = 150

CLEAN, EMPTY, UNSEEN, NONFINITE = range(4)


@dataclass
class Outcome:
    """Samples, output checks and operation counts of one benchmark run."""

    samples: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    info: dict = field(default_factory=dict)

    def add(self, name: str, value: float):
        self.samples.setdefault(name, []).append(float(value))

    def check(self, name: str, ok):
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def metrics(self) -> dict[str, float]:
        return {name: statistics.median(v) for name, v in self.samples.items()}


def closed_loop(step, seconds: float, min_calls: int):
    """Call ``step(i)`` back to back until ``seconds`` are used up.

    Another call starts while it is expected to end less than half a call
    past ``seconds``, so a run lasts ``seconds`` on average.
    """
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_calls and elapsed + statistics.median(durations) / 2 > seconds:
            return


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _file_sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _repeated_setup(make, repeats: int, out: Outcome):
    """Run ``make()`` ``repeats`` times; each must give the same inputs."""
    results, prints = None, set()
    for _ in range(repeats):
        t0 = time.perf_counter()
        results, fingerprint = make()
        out.add("setup_s", time.perf_counter() - t0)
        prints.add(fingerprint)
    out.check("setup_inputs_repeat", len(prints) == 1)
    return results


def schedule(seed: int, epochs=PHASE_EPOCHS) -> trainer.TrainSchedule:
    return trainer.TrainSchedule(phase_epochs=epochs, learning_rate=LEARNING_RATE,
                                 batch_size=BATCH_SIZE, seed=seed)


def _train_model(train_set, seed: int, epochs=PHASE_EPOCHS):
    """Train a fresh model; returns (model, seconds of phases 1-3)."""
    model = ck.ChadModel(train_set.schema, ck.ModelConfig(), np.random.default_rng(seed))
    marks = []
    start = time.perf_counter()
    trainer.train(model, train_set, schedule(seed, epochs), ck.NegSamplerConfig(m=NEGATIVES),
                  ck.SecondaryNoiseSpec(True),
                  checkpoint_fn=lambda phase, _model: marks.append(time.perf_counter()))
    if len(marks) != 3:
        raise RuntimeError(f"training reported {len(marks)} of 3 phases")
    return model, np.diff([start, *marks])


def _add_phases(out: Outcome, phases):
    out.add("train_s", phases.sum())
    for i, seconds in enumerate(phases, start=1):
        out.add(f"phase{i}_s", seconds)


# ---- desk_train and wide_train ----------------------------------------------


def _concat(a, b):
    return ck.Dataset(a.schema, np.concatenate([a.cat, b.cat]), np.concatenate([a.cont, b.cont]))


def train_inputs(spec: dict, extra_test_rows: int, seed: int):
    """(train set, labelled held-out set, both together, normalization), fingerprint."""
    ds = synthdata.make_clustered_dataset(seed=seed, **spec)
    train_raw, test_raw = synthdata.split_train_test(ds, TEST_FRACTION, seed=seed)
    if extra_test_rows:
        fresh = synthdata.make_clustered_dataset(seed=seed, **{**spec, "n_rows": extra_test_rows})
        test_raw = _concat(test_raw, fresh)
    stats = ck.fit_normalize(train_raw)
    train_set = ck.apply_normalize(stats, train_raw)
    test_set = ck.apply_normalize(stats, test_raw)
    labeled = ck.synth_anomalies(test_set, ANOMALY_FRACTION,
                                 np.random.default_rng(ANOMALY_SEED_OFFSET + seed))
    everything = _concat(train_set, labeled)
    fingerprint = _digest(train_set.cat, train_set.cont, labeled.cat, labeled.cont,
                          labeled.labels)
    return (train_set, labeled, everything, stats), fingerprint


def run_train(spec: dict, extra_test_rows: int, seed: int, seconds: float, work: Path,
              tracer: Tracer | None) -> Outcome:
    out = Outcome()
    repeats = 1 if tracer else TRAIN_SETUP_REPEATS
    train_set, labeled, everything, stats = _repeated_setup(
        lambda: train_inputs(spec, extra_test_rows, seed), repeats, out)
    model_path = work / "model.chad"
    hashes, aps, layers = [], [], []

    def step(i):
        traced = tracer is not None and i % 2 == 1
        out.attempted += 1
        try:
            with tracer.recording(f"iteration-{i}") if traced else contextlib.nullcontext():
                model, phases = _train_model(train_set, seed)
                held_out = evaluate.score_dataset(model, labeled).scores
        except ck.ChadkitError as err:
            print(f"iteration {i}: {type(err).__name__}: {err}", file=sys.stderr)
            out.failed += 1
            return
        if tracer is not None:
            out.add("traced_s" if traced else "untraced_s", phases.sum())
            if traced:
                layers.append(tracer.layer_metrics(train_set.n, PHASE_EPOCHS[2]))
            return
        _add_phases(out, phases)
        out.check("held_out_scores_in_open_unit_interval",
                  np.all(np.isfinite(held_out) & (held_out > 0) & (held_out < 1)))
        ap = ck.average_precision(held_out, labeled.labels)
        out.check("ap_in_unit_interval", 0.0 <= ap <= 1.0)
        aps.append(ap)
        out.add("ap", ap)
        persist.save_model(model_path, model, stats)
        hashes.append(_file_sha256(model_path))
        # every pass is a sample: the median pools the passes after all trainings
        spent, passes = 0.0, 0
        while passes < MIN_SCORE_PASSES or spent < SCORE_PASS_SECONDS:
            t0 = time.perf_counter()
            scores = evaluate.score_dataset(model, everything).scores
            score_s = time.perf_counter() - t0
            spent, passes = spent + score_s, passes + 1
            out.add("score_s", score_s)
            out.add("score_rows_per_s", everything.n / score_s)
        out.add("ok_share", np.mean(np.isfinite(scores) & (scores > 0) & (scores < 1)))

    closed_loop(step, seconds, MIN_TRAIN_CALLS)
    if tracer is not None:
        _finish_trace(out, layers)
        return out
    out.check("model_sha256_repeats", len(set(hashes)) == 1)
    out.check("ap_repeats", len(set(aps)) == 1)
    out.info["model_sha256"] = hashes[0] if hashes else None
    out.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return out


def _finish_trace(out: Outcome, layers):
    """Per-layer medians over traced iterations, plus the tracing overhead."""
    traced, untraced = out.samples.pop("traced_s", []), out.samples.pop("untraced_s", [])
    out.samples.clear()
    for name in (layers[0] if layers else {}):
        out.samples[name] = [layer[name] for layer in layers]
    if traced and untraced:
        out.add("trace.overhead_share",
                statistics.median(traced) / statistics.median(untraced) - 1.0)


# ---- bulk_score ---------------------------------------------------------------


@dataclass
class BulkInputs:
    model_path: Path
    csv_path: Path
    kind: np.ndarray        # CLEAN / EMPTY / UNSEEN / NONFINITE per CSV row
    labels: np.ndarray      # 1 for synthetic anomalies
    expected: np.ndarray    # in-process scores of the rows without a dropped cell
    model_sha256: str


def _bulk_rows(stats, seed: int):
    """Normalized-space rows with gate-7 style anomalies, back in raw units."""
    nominal = synthdata.make_clustered_dataset(BULK_NOMINAL_ROWS, arities=DESK_DATA["arities"],
                                               n_cont=DESK_DATA["n_cont"], seed=seed)
    nominal = ck.apply_normalize(stats, nominal)
    labeled = ck.synth_anomalies(nominal, ANOMALY_FRACTION,
                                 np.random.default_rng(ANOMALY_SEED_OFFSET + seed))
    order = np.random.default_rng((seed, 1)).permutation(labeled.n)
    cont = labeled.cont[order] * (stats.maxs - stats.mins) + stats.mins
    return labeled.cat[order], cont, labeled.labels[order]


def _hostile(cat, cont, seed: int):
    """Seeded share of rows with an empty cell, an unseen category or a nan/inf."""
    rng = np.random.default_rng((seed, 2))
    n, k = cat.shape
    r = cont.shape[1]
    kind = rng.choice(4, size=n, p=[1 - 3 * HOSTILE_SHARE] + [HOSTILE_SHARE] * 3)
    pick = rng.integers(0, 1 << 30, size=n)     # which cell of the row, modulo its range
    bad_values = rng.choice([np.nan, np.inf, -np.inf], size=n)
    nonfinite = np.nonzero(kind == NONFINITE)[0]
    cont = cont.copy()
    cont[nonfinite, pick[nonfinite] % r] = bad_values[nonfinite]
    empty_cells = {int(i): int(pick[i] % (k + r)) for i in np.nonzero(kind == EMPTY)[0]}
    unseen_cells = {int(i): int(pick[i] % k) for i in np.nonzero(kind == UNSEEN)[0]}
    return kind, cont, empty_cells, unseen_cells


def _write_csv(path, schema, cat, cont, empty_cells, unseen_cells):
    columns = []
    for w in range(schema.k):
        names = np.array([schema.decode_value(w, i) for i in range(schema.arities[w])],
                         dtype=object)
        columns.append(names[cat[:, w]])
    columns += [np.array([repr(v) for v in cont[:, j].tolist()], dtype=object)
                for j in range(schema.r)]
    for row, col in unseen_cells.items():
        columns[col][row] = f"unseen_{row}"
    for row, col in empty_cells.items():
        columns[col][row] = ""
    header = ",".join((*schema.cat_fields, *schema.cont_fields))
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        f.write("\n".join(map(",".join, zip(*columns))))
        f.write("\n")


def _bulk_setup(seed: int, work: Path, out: Outcome):
    """Train and save a short desk model, then write the 200k-row CSV."""
    desk = synthdata.make_clustered_dataset(seed=seed, **DESK_DATA)
    stats = ck.fit_normalize(desk)
    train_set = ck.apply_normalize(stats, desk)
    model, phases = _train_model(train_set, seed, SHORT_EPOCHS)
    _add_phases(out, phases)
    model_path, csv_path = work / "model.chad", work / "bulk.csv"
    persist.save_model(model_path, model, stats)
    cat, cont, labels = _bulk_rows(stats, seed)
    kind, cont, empty_cells, unseen_cells = _hostile(cat, cont, seed)
    _write_csv(csv_path, model.schema, cat, cont, empty_cells, unseen_cells)
    state = (model, stats, model_path, csv_path, cat, cont, kind, labels)
    return state, (_file_sha256(model_path), _file_sha256(csv_path))


def _bulk_inputs(seed: int, work: Path, out: Outcome, repeats: int) -> BulkInputs:
    model, stats, model_path, csv_path, cat, cont, kind, labels = _repeated_setup(
        lambda: _bulk_setup(seed, work, out), repeats, out)
    kept = (kind == CLEAN) | (kind == NONFINITE)
    rows = ck.apply_normalize(stats, ck.Dataset(model.schema, cat[kept], cont[kept]))
    expected = model.score_records(rows.cat, rows.cont)
    return BulkInputs(model_path, csv_path, kind, labels, expected,
                      _file_sha256(model_path))


def _read_scores(path):
    with open(path) as f:
        header = f.readline().strip()
        ids, scores = [], []
        for line in f:
            rid, score = line.strip().split(",")
            ids.append(int(rid))
            scores.append(float(score))
    return header, np.array(ids, dtype=np.int64), np.array(scores)


def _check_scored(out: Outcome, inputs: BulkInputs, out_csv: Path):
    """Check the score CSV and its load report; returns AP and the ok share."""
    kind = inputs.kind
    with open(str(out_csv) + ".report.json") as f:
        report = json.load(f)
    out.check("report_counts_rows", report["rows_read"] == kind.size)
    out.check("empty_cells_dropped", report["rows_dropped_missing"] == np.sum(kind == EMPTY))
    out.check("unseen_rows_dropped", report["rows_dropped_unseen"] == np.sum(kind == UNSEEN))
    # non-finite rows are scored today; dropping them is also a documented outcome
    nonfinite_kept = report["rows_kept"] == np.sum((kind == CLEAN) | (kind == NONFINITE))
    out.check("kept_rows_counted", nonfinite_kept or report["rows_kept"] == np.sum(kind == CLEAN))
    header, ids, scores = _read_scores(out_csv)
    out.check("header", header == "record_id,score")
    out.check("one_row_per_kept_record", ids.size == report["rows_kept"])
    complete = np.array_equal(np.sort(ids), np.arange(report["rows_kept"]))
    out.check("ids_unique_and_complete", complete)
    finite = np.isfinite(scores)
    out.check("sorted_ascending", np.all(np.diff(scores[finite]) >= 0)
              and np.all(finite[:finite.sum()]))
    if not (complete and out.checks["kept_rows_counted"]):
        return None, None
    kept = (kind == CLEAN) | (kind == NONFINITE) if nonfinite_kept else kind == CLEAN
    expected = inputs.expected if nonfinite_kept else \
        inputs.expected[kind[(kind == CLEAN) | (kind == NONFINITE)] == CLEAN]
    out.check("scores_match_in_process",
              np.allclose(scores, expected[ids], rtol=1e-9, atol=0.0, equal_nan=True))
    labels = inputs.labels[kept][ids]
    ap = ck.average_precision(scores[finite], labels[finite])
    out.check("ap_in_unit_interval", 0.0 <= ap <= 1.0)
    return ap, 1.0 - np.sum(~finite) / kind.size


def _score_in_child(inputs: BulkInputs, out_csv: Path, work: Path, src: Path):
    """``chadkit score`` as a user runs it; returns (exit code, wall s, peak RSS MB)."""
    cmd = [sys.executable, "-m", "chadkit.cli", "score", "--model", str(inputs.model_path),
           "--data", str(inputs.csv_path), "--out", str(out_csv)]
    env = dict(os.environ, PYTHONPATH=str(src))
    with open(work / "score.log", "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=work)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024


def _score_in_process(inputs: BulkInputs, out_csv: Path):
    argv = ["score", "--model", str(inputs.model_path), "--data", str(inputs.csv_path),
            "--out", str(out_csv)]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, time.perf_counter() - start


def run_bulk(seed: int, seconds: float, work: Path, tracer: Tracer | None,
             src: Path) -> Outcome:
    out = Outcome()
    inputs = _bulk_inputs(seed, work, out, 1 if tracer else BULK_SETUP_REPEATS)
    out.info["model_sha256"] = inputs.model_sha256
    out_csv = work / "scores.csv"
    layers = []

    def step(i):
        out.attempted += 1
        out_csv.unlink(missing_ok=True)
        traced = tracer is not None and i % 2 == 1
        if tracer is None:
            code, score_s, rss_mb = _score_in_child(inputs, out_csv, work, src)
        else:
            with tracer.recording(f"iteration-{i}") if traced else contextlib.nullcontext():
                code, score_s = _score_in_process(inputs, out_csv)
        if code != 0:
            print(f"iteration {i}: chadkit score exited {code}", file=sys.stderr)
            out.failed += 1
            return
        ap, ok_share = _check_scored(out, inputs, out_csv)
        if tracer is not None:
            out.add("traced_s" if traced else "untraced_s", score_s)
            if traced:
                layers.append(tracer.layer_metrics(0, 0))
            return
        out.add("score_s", score_s)
        out.add("score_rows_per_s", inputs.kind.size / score_s)
        out.add("peak_rss_mb", rss_mb)
        if ap is not None:
            out.add("ap", ap)
            out.add("ok_share", ok_share)

    closed_loop(step, seconds, MIN_SCORE_CALLS if tracer is None else 2)
    if tracer is not None:
        _finish_trace(out, layers)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        src: Path, trace_path: Path) -> Outcome:
    tracer = Tracer() if trace else None
    if workload == "desk_train":
        out = run_train(DESK_DATA, 0, seed, seconds, work, tracer)
    elif workload == "wide_train":
        out = run_train(WIDE_DATA, WIDE_EXTRA_TEST_ROWS, seed, seconds, work, tracer)
    elif workload == "bulk_score":
        out = run_bulk(seed, seconds, work, tracer, src)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if tracer is not None:
        tracer.write_spans(trace_path)
        out.info["untraced_targets"] = sorted(set(tracer.missing))
    return out
