"""Acceptance suite.

Each test exercises one gate of the build at its stated tolerance and time
budget, and prints a single PASS line with the measured values (visible
with ``pytest -v -s`` or in failure output). The desk-scale detector run is
shared between the detection gate and the anomaly-ratio harness gate.
"""
import contextlib
import hashlib
import io
import json
import math
import time

import numpy as np
import pytest
from scipy import stats as sps

import chadkit as ck
from chadkit.cli import main
from chadkit.conceptbench import run_concept_bench
from chadkit.estimator import SecondaryNoiseSpec
from chadkit.negsampler import (NegSamplerConfig, category_probs,
                                generate_negatives_batch, perturb_continuous)
from chadkit.synthdata import make_clustered_dataset, split_train_test
from chadkit.trainer import TrainLog, TrainSchedule, train

from conftest import copy_params, grad_check, pinned_hash, report_pin, write_csv


def _report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


def schema_with(arities, r):
    from chadkit.data import RecordSchema
    vocabs = [{f"v{i}": i for i in range(a)} for a in arities]
    return RecordSchema([f"c{w}" for w in range(len(arities))],
                        [f"x{j}" for j in range(r)], vocabs)


# ---- desk-scale training shared by criteria 7 and 8 -------------------------

DESK_SEEDS = (1, 2, 3, 4, 5)


def _desk_split(seed):
    ds = make_clustered_dataset(6000, arities=(10, 20, 35, 50), n_cont=6, seed=seed)
    return split_train_test(ds, 1 / 6, seed=seed)


def _desk_run(seed):
    train_set, test_set = _desk_split(seed)
    stats = ck.fit_normalize(train_set)
    train_n = ck.apply_normalize(stats, train_set)
    test_n = ck.apply_normalize(stats, test_set)
    schedule = TrainSchedule(phase_epochs=(20, 8, 15), learning_rate=5e-3,
                             batch_size=256, seed=seed)
    model = ck.ChadModel(train_n.schema, ck.ModelConfig(),
                         np.random.default_rng(seed))
    train(model, train_n, schedule, NegSamplerConfig(m=10), SecondaryNoiseSpec(True))
    return model, test_n


@pytest.fixture(scope="module")
def desk_models():
    return {seed: _desk_run(seed) for seed in DESK_SEEDS}


# ---- criterion 1: gradient suite --------------------------------------------


def test_criterion_1_gradient_suite():
    start = time.time()
    ds = make_clustered_dataset(300, arities=(5, 7), n_cont=6, n_clusters=3, seed=1)
    model = ck.ChadModel(ds.schema, ck.ModelConfig(encoder_sizes=(16, 8)),
                         np.random.default_rng(0))
    cat, cont = ds.cat[:16], ds.cont[:16]
    neg_cat, neg_cont = generate_negatives_batch(
        cat, cont, NegSamplerConfig(m=4), ds.schema, np.random.default_rng(2))
    noise = np.random.default_rng(3).standard_normal((64, model.latent_dim))
    params = model.params()

    def recon():
        model.grad.fill(0.0)   # the estimator's gradient is zero
        return model.autoencoder.reconstruction_loss(cat, cont)

    def contrastive():
        return model.loss_estimator(cat, cont, neg_cat, neg_cont, noise, gamma=1.3)

    def gated_joint():
        total, _, _ = model.loss_joint(cat, cont, neg_cat, neg_cont, noise,
                                       (1, 1), lam=0.4, gamma=1.3)
        return total

    errs = {}
    for name, fn, seed in (("reconstruction", recon, 5),
                           ("contrastive", contrastive, 6),
                           ("joint", gated_joint, 7)):
        errs[name] = grad_check(fn, params, model.grads(), probe_count=25, h=1e-5,
                                rng=np.random.default_rng(seed))
        assert errs[name] < 1e-4, f"{name} gradient error {errs[name]}"
    elapsed = time.time() - start
    assert elapsed < 60
    _report("1 gradient-suite",
            f"max rel errors: recon {errs['reconstruction']:.2e}, "
            f"contrastive {errs['contrastive']:.2e}, joint {errs['joint']:.2e}; "
            f"{elapsed:.1f}s")


# ---- criterion 2: concept benchmark -----------------------------------------


def test_criterion_2_concept_benchmark():
    start = time.time()
    out = run_concept_bench(seeds=range(10))
    s = {m: v["ap_mean"] for m, v in out["summary"].items()}
    assert s["NCE"] >= 0.85, s
    assert s["K-means k=1"] <= 0.40, s
    assert s["NCE"] > s["K-means k=2"], s
    assert s["NCE"] > s["GMM k=2"], s
    elapsed = time.time() - start
    assert elapsed < 120
    _report("2 concept-benchmark",
            f"NCE {s['NCE']:.3f}, GMM k=2 {s['GMM k=2']:.3f}, "
            f"K-means k=2 {s['K-means k=2']:.3f}, K-means k=1 "
            f"{s['K-means k=1']:.3f}; {elapsed:.1f}s")


# ---- criterion 3: negative-sampler statistics --------------------------------


def test_criterion_3_negative_sampler_statistics():
    start = time.time()
    draws = 10_000
    arities = (100, 10, 50)
    schema = schema_with(arities, 8)
    rng = np.random.default_rng(11)

    # field-selection frequencies: with floor(k/2) = 1 exactly one field is
    # perturbed per sample, so counts follow the dampened-arity distribution
    base_cat = np.tile(np.array([[7, 3, 9]], dtype=np.int64), (draws, 1))
    base_cont = np.full((draws, 8), 0.5)
    neg_cat, neg_cont = generate_negatives_batch(
        base_cat, base_cont, NegSamplerConfig(m=1), schema, rng)
    observed = (neg_cat != base_cat).sum(axis=0)
    probs = category_probs(arities)
    assert observed.sum() == draws
    chi2 = float(((observed - draws * probs) ** 2 / (draws * probs)).sum())
    crit = float(sps.chi2.ppf(0.99, df=len(arities) - 1))
    assert chi2 < crit, (chi2, crit)

    # continuous pass: exactly floor(r/4) per direction, disjoint, and every
    # increment inside its stated open interval
    delta = 0.5
    values = np.random.default_rng(12).random((draws, 8))
    for i in range(0, draws, 1000):
        block = values[i:i + 1000]
        for row in range(0, len(block), 250):
            v = block[row]
            out, up, down = perturb_continuous(v, delta, rng)
            assert len(up) == 2 and len(down) == 2
            assert set(up.tolist()).isdisjoint(down.tolist())
    # vectorized interval check over the full set
    from chadkit.negsampler import _perturb_cont_batch
    out, j_up, j_down = _perturb_cont_batch(values.copy(), delta, rng)
    assert j_up.shape == (draws, 2) and j_down.shape == (draws, 2)
    rows = np.arange(draws)[:, None]
    inc_up = out[rows, j_up] - values[rows, j_up]
    inc_down = out[rows, j_down] - values[rows, j_down]
    assert np.all((inc_up > delta) & (inc_up < 1.0 + delta))
    assert np.all((inc_down > -delta) & (inc_down < 1.0 - delta))
    for i in range(draws):
        assert set(j_up[i].tolist()).isdisjoint(j_down[i].tolist())
    elapsed = time.time() - start
    assert elapsed < 10
    _report("3 negative-sampler-statistics",
            f"chi2 {chi2:.2f} < {crit:.2f}; intervals and disjointness exact "
            f"on {draws} samples; {elapsed:.1f}s")


# ---- criterion 4: phase gating ----------------------------------------------


def test_criterion_4_phase_gating_contract():
    start = time.time()
    ds = make_clustered_dataset(200, arities=(5, 6), n_cont=4, n_clusters=3, seed=4)
    model = ck.ChadModel(ds.schema, ck.ModelConfig(encoder_sizes=(12, 6)),
                         np.random.default_rng(4))
    schedule = TrainSchedule(phase_epochs=(1, 3, 1), learning_rate=2e-3,
                             batch_size=64, seed=13)
    log = TrainLog()

    est_keys = list(model.group("est.")[2])
    enc_keys = list(model.group("ae.")[2])
    est_before = copy_params(model, "est.")

    from chadkit.seeds import named_streams
    from chadkit.trainer import run_phase1, run_phase2, run_phase3
    streams = named_streams(schedule.seed)
    run_phase1(model, ds, schedule, log, streams)
    est_after_p1 = copy_params(model, "est.")
    assert all(np.array_equal(est_before[k], est_after_p1[k]) for k in est_keys)

    run_phase2(model, ds, schedule, NegSamplerConfig(m=3), log=log, streams=streams)
    enc_before_p3 = copy_params(model, "ae.")
    run_phase3(model, ds, schedule, NegSamplerConfig(m=3), log=log, streams=streams)
    enc_after_p3 = copy_params(model, "ae.")
    assert all(np.array_equal(enc_before_p3[k], enc_after_p3[k]) for k in enc_keys)

    for e in log.entries:
        expected = {1: (1, 0), 3: (0, 1)}.get(e["phase"])
        if expected is None:
            expected = (1, 1) if e["batch"] % 2 == 0 else (1, 0)
        assert tuple(e["gates"]) == expected, e

    lambdas = sorted({e["lambda"] for e in log.entries if e["phase"] == 2},
                     reverse=True)
    assert lambdas == pytest.approx([1.0, math.exp(-1), math.exp(-2)])
    elapsed = time.time() - start
    assert elapsed < 60
    _report("4 phase-gating",
            f"gate table exact over {len(log.entries)} batches; estimator and "
            f"encoder freezes bitwise; lambda = 1, e^-1, e^-2; {elapsed:.1f}s")


# ---- criterion 5: average-precision oracle -----------------------------------


def test_criterion_5_ap_oracle_equivalence():
    from test_evaluate import brute_force_ap
    start = time.time()
    rng = np.random.default_rng(5)
    checked = 0
    for trial in range(100):
        n = int(rng.integers(5, 201))
        scores = rng.random(n)
        if trial % 4 == 0:
            scores = np.round(scores, 1)  # tied scores
        labels = (rng.random(n) < rng.uniform(0.1, 0.6)).astype(int)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        low = bool(rng.integers(2))
        got = ck.average_precision(scores, labels, low)
        want = brute_force_ap(scores, labels, low)
        assert abs(got - want) <= 1e-12, (trial, got, want)

        shifted = 2.5 * scores + 1.0
        cubed = scores ** 3 + 0.5 * scores
        assert abs(ck.average_precision(shifted, labels, low) - got) <= 1e-12
        assert abs(ck.average_precision(cubed, labels, low) - got) <= 1e-12
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 10
    _report("5 ap-oracle",
            f"{checked} instances equal to brute force at 1e-12, monotone "
            f"transforms invariant; {elapsed:.1f}s")


# ---- criterion 6: secondary-noise latent spread -------------------------------


def test_criterion_6_secondary_noise_latent_spread():
    start = time.time()
    ds = make_clustered_dataset(500, arities=(8, 12), n_cont=6, n_clusters=4, seed=6)
    stats = ck.fit_normalize(ds)
    ds = ck.apply_normalize(stats, ds)
    model = ck.ChadModel(ds.schema, ck.ModelConfig(encoder_sizes=(24, 12)),
                         np.random.default_rng(6))

    # frozen encoder, one fixed set of negatives
    neg_cat, neg_cont = generate_negatives_batch(
        ds.cat, ds.cont, NegSamplerConfig(m=4), ds.schema, np.random.default_rng(7))
    z = model.encode(neg_cat, neg_cont)

    draws = 100_000
    reps = int(np.ceil(draws / z.shape[0]))
    pool = np.tile(z, (reps, 1))[:draws]
    noisy = pool + np.random.default_rng(8).standard_normal(pool.shape)

    base_var = pool.var(axis=0)
    got_var = noisy.var(axis=0)
    # Monte-Carlo tolerance: 3 standard errors of the variance estimator,
    # using the pool's own fourth central moment
    centered = noisy - noisy.mean(axis=0)
    m4 = (centered ** 4).mean(axis=0)
    se = np.sqrt(np.maximum(m4 - got_var ** 2, 0.0) / draws)
    diff = np.abs(got_var - (base_var + 1.0))
    assert np.all(diff < 3 * se), (diff, 3 * se)
    elapsed = time.time() - start
    assert elapsed < 30
    _report("6 noise-latent-spread",
            f"max |variance - (base+1)| = {diff.max():.4f} within 3se "
            f"({(3 * se).min():.4f}..{(3 * se).max():.4f}) on {draws} draws; "
            f"{elapsed:.1f}s")


# ---- criterion 7: end-to-end detection ----------------------------------------


def test_criterion_7_desk_scale_detection(desk_models):
    start = time.time()
    aps = []
    for seed in DESK_SEEDS:
        model, test_n = desk_models[seed]
        labeled = ck.synth_anomalies(test_n, 1.0 / 9.0,
                                     np.random.default_rng(99 + seed))
        scored = ck.score_dataset(model, labeled)
        aps.append(ck.average_precision(scored.scores, scored.labels))
    mean_ap = float(np.mean(aps))
    assert mean_ap >= 0.80, aps
    elapsed = time.time() - start
    _report("7 desk-scale-detection",
            f"mean AP {mean_ap:.4f} over seeds {list(DESK_SEEDS)} "
            f"(per-seed {[round(a, 3) for a in aps]}); {elapsed:.1f}s eval")


# ---- criterion 8: varying-anomaly harness -------------------------------------


def test_criterion_8_vary_anomaly_harness(desk_models):
    start = time.time()
    model, test_n = desk_models[DESK_SEEDS[0]]
    pool = ck.synth_anomalies(test_n, 0.25, np.random.default_rng(17))
    pool = pool.subset(np.nonzero(pool.labels == 1)[0])
    percentages = [2, 4, 6, 8, 10]
    rows = ck.vary_anomaly_harness(model, test_n, pool, percentages,
                                   seeds=[0, 1, 2, 3, 4])
    assert [r["percent"] for r in rows] == percentages
    for row in rows:
        assert set(row) == {"percent", "ap_mean", "ap_sd", "runs"}
        assert row["runs"] == 5
        assert 0.0 <= row["ap_mean"] <= 1.0
        assert row["ap_sd"] >= 0.0
    trend = " ".join(f"{r['percent']}%={r['ap_mean']:.3f}+/-{r['ap_sd']:.3f}"
                     for r in rows)
    monotone = all(b["ap_mean"] >= a["ap_mean"] - 0.05
                   for a, b in zip(rows, rows[1:]))
    elapsed = time.time() - start
    _report("8 vary-anomaly-harness",
            f"{trend}; trend-monotone-ish={monotone} (logged, not asserted); "
            f"{elapsed:.1f}s")


# ---- reproducibility: the pinned model file ------------------------------------

def test_pinned_model_hash(desk_models, tmp_path):
    ds = make_clustered_dataset(300, arities=(5, 7), n_cont=6, n_clusters=3, seed=9)
    ds = ck.apply_normalize(ck.fit_normalize(ds), ds)
    files = []
    for run in range(2):
        model = ck.ChadModel(ds.schema, ck.ModelConfig(encoder_sizes=(8, 4)),
                             np.random.default_rng(9))
        train(model, ds, TrainSchedule(phase_epochs=(2, 1, 2), batch_size=64, seed=9),
              NegSamplerConfig(m=3), SecondaryNoiseSpec(True))
        ck.save_model(tmp_path / f"short{run}.chad", model, ck.fit_normalize(ds))
        files.append((tmp_path / f"short{run}.chad").read_bytes())
    assert files[0] == files[1]

    model, _ = desk_models[1]
    ck.save_model(tmp_path / "desk1.chad", model, ck.fit_normalize(_desk_split(1)[0]))
    digest = hashlib.sha256((tmp_path / "desk1.chad").read_bytes()).hexdigest()
    pin, key = pinned_hash("desk_model")
    if pin:
        assert digest == pin
    report_pin("pinned-model-hash", "two same-seed trainings wrote identical bytes; "
               "desk seed-1", digest, pin, key)


def test_pinned_desk_scores(desk_models):
    # scoring runs in blocks of SCORE_CHUNK_ROWS rows: a block size, or any
    # other change to the scoring path, that moves a score's bits shows here
    model, test_n = desk_models[1]
    scores = model.score_records(test_n.cat, test_n.cont)
    assert scores.shape == (1000,) and np.all(np.isfinite(scores))
    digest = hashlib.sha256(scores.astype("<f8").tobytes()).hexdigest()
    assert model.score_records(test_n.cat, test_n.cont).tobytes() == scores.tobytes()
    pin, key = pinned_hash("desk_scores")
    if pin:
        assert digest == pin
    report_pin("pinned-desk-scores", "desk seed-1 held-out scores", digest, pin, key)


# the CLI pin scores the desk seed-1 model's raw held-out rows plus one
# empty-cell, one unseen-category and one nan row: the whole CLI path, from
# CSV bytes to output bytes
def test_pinned_cli_scores(desk_models, tmp_path):
    model, _ = desk_models[1]
    train_set, test_set = _desk_split(1)
    ck.save_model(tmp_path / "desk1.chad", model, ck.fit_normalize(train_set))
    data = tmp_path / "held_out.csv"
    write_csv(data, test_set.schema, test_set.cat, test_set.cont)
    first = data.read_text().splitlines()[1].split(",")
    hostile = [["", *first[1:]], ["unseen", *first[1:]], [*first[:-1], "nan"]]
    with open(data, "a") as f:
        f.write("".join(",".join(row) + "\n" for row in hostile))
    outputs = []
    for run in range(2):
        out = tmp_path / f"scores{run}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["score", "--model", str(tmp_path / "desk1.chad"), "--data", str(data),
                         "--out", str(out)])
        assert code == 0
        report = json.loads(out.with_suffix(".csv.report.json").read_text())
        assert (report["rows_read"], report["rows_kept"]) == (1003, 1000)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    digest = hashlib.sha256(outputs[0]).hexdigest()
    pin, key = pinned_hash("cli_scores")
    if pin:
        assert digest == pin
    report_pin("pinned-cli-scores", "desk seed-1 `chadkit score` CSV", digest, pin, key)
