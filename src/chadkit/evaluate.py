"""Scoring, the average-precision metric, synthetic anomalies, and the
evaluation harnesses (anomaly-ratio sweep, noise ablation, 2-D projection).
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import MetricError
from .estimator import SecondaryNoiseSpec
from .model import ChadModel, ModelConfig
from .negsampler import NegSamplerConfig, generate_negatives_batch
from .nn import Array
from .seeds import named_streams
from .trainer import TrainSchedule, train


@dataclass
class ScoredRecords:
    """Scores aligned with record ids; lower score means more anomalous."""

    ids: Array
    scores: Array
    labels: Array | None = None

    def sorted_ascending(self) -> "ScoredRecords":
        order = np.argsort(self.scores, kind="stable")
        labels = None if self.labels is None else self.labels[order]
        return ScoredRecords(self.ids[order], self.scores[order], labels)


def score_dataset(model: ChadModel, dataset: Dataset) -> ScoredRecords:
    """Likelihood score per record, dropout disabled, deterministic."""
    model.check_schema(dataset)
    scores = model.score_records(dataset.cat, dataset.cont)
    return ScoredRecords(dataset.ids.copy(), scores, None if dataset.labels is None
                         else dataset.labels.copy())


def average_precision(scores, labels, anomaly_is_low_score: bool = True) -> float:
    """Area under the precision-recall curve as a step-interpolated sum.

    ``labels`` marks anomalies with 1; anomalies are ranked first (lowest
    score first by default). Tied scores keep the input position order.
    Requires both classes to be present.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == len(labels):
        raise MetricError("precision-recall analysis needs both classes present")
    keys = scores if anomaly_is_low_score else -scores
    order = np.argsort(keys, kind="stable")
    hits = labels[order] == 1
    tp = np.cumsum(hits)
    ranks = np.arange(1, len(hits) + 1)
    precision_at_hit = tp[hits] / ranks[hits]
    return float(precision_at_hit.sum() / n_pos)


def synth_anomalies(test_set: Dataset, fraction: float, rng: np.random.Generator) -> Dataset:
    """Append perturbed copies of random test rows, labelled as anomalies.

    Each copy gets one random categorical field redrawn from the same
    vocabulary and one random continuous field shifted away from its value:
    upward by (0.25, 0.75) when below 0.5, downward otherwise. Continuous
    results are intentionally left unclamped.
    """
    schema = test_set.schema
    if schema.k < 1 or schema.r < 1:
        raise MetricError("synthetic anomalies need at least one categorical and "
                          "one continuous field")
    if fraction <= 0:
        raise ValueError(f"fraction must be > 0, got {fraction}")
    n = test_set.n
    count = int(np.floor(fraction * n + 0.5))
    src = rng.integers(0, n, size=count)
    cat = test_set.cat[src].copy()
    cont = test_set.cont[src].copy()

    which_cat = rng.integers(0, schema.k, size=count)
    arities = np.asarray(schema.arities)
    for w in range(schema.k):
        rows = which_cat == w
        if rows.any():
            cat[rows, w] = rng.integers(0, arities[w], size=int(rows.sum()))

    which_cont = rng.integers(0, schema.r, size=count)
    rows = np.arange(count)
    v = cont[rows, which_cont]
    shift = rng.uniform(0.25, 0.75, size=count)
    cont[rows, which_cont] = np.where(v < 0.5, v + shift, v - shift)

    all_cat = np.concatenate([test_set.cat, cat])
    all_cont = np.concatenate([test_set.cont, cont])
    labels = np.concatenate([np.zeros(n, dtype=np.int8), np.ones(count, dtype=np.int8)])
    base = int(test_set.ids.max()) + 1 if n else 0
    ids = np.concatenate([test_set.ids, base + np.arange(count, dtype=np.int64)])
    return Dataset(schema, all_cat, all_cont, labels, ids)


def vary_anomaly_harness(model: ChadModel, nominal_test: Dataset, anomaly_pool: Dataset,
                         percentages, seeds) -> list[dict]:
    """Average precision at several anomaly percentages of the combined set.

    For each percentage, anomalies are subsampled from the pool (fresh per
    seed), mixed with the nominal test rows, scored, and summarized as
    mean +/- sd over the seeds.
    """
    n = nominal_test.n
    nominal_scores = score_dataset(model, nominal_test).scores
    pool_scores = score_dataset(model, anomaly_pool).scores
    rows = []
    for pct in percentages:
        frac = pct / 100.0
        need = int(round(n * frac / (1.0 - frac)))
        if need == 0:
            raise MetricError(f"{pct}% of {n} nominal rows gives no anomalies")
        if need > anomaly_pool.n:
            raise MetricError(f"anomaly pool too small for {pct}% "
                              f"({need} needed, {anomaly_pool.n} available)")
        aps = []
        for seed in seeds:
            pick = np.random.default_rng(seed).choice(anomaly_pool.n, size=need,
                                                      replace=False)
            scores = np.concatenate([nominal_scores, pool_scores[pick]])
            labels = np.concatenate([np.zeros(n, dtype=int), np.ones(need, dtype=int)])
            aps.append(average_precision(scores, labels))
        rows.append({"percent": pct, "ap_mean": float(np.mean(aps)),
                     "ap_sd": float(np.std(aps, ddof=1)) if len(aps) > 1 else 0.0,
                     "runs": len(aps)})
    return rows


def latent_projection(latents: Array):
    """Project vectors to the plane of the top-2 right singular directions.

    The input is mean-centered first. Rank-deficient inputs keep only the
    first coordinate (second set to zero, with a warning). Returns
    (points (n, 2), axes (2, d)).
    """
    latents = np.asarray(latents, dtype=float)
    if latents.ndim != 2 or latents.shape[0] < 2:
        raise ValueError("need at least two vectors to project")
    centered = latents - latents.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    axes = np.zeros((2, latents.shape[1]))
    axes[0] = vt[0]
    rank2 = len(s) > 1 and s[1] > max(centered.shape) * np.finfo(float).eps * s[0]
    if rank2:
        axes[1] = vt[1]
    else:
        warnings.warn("input has rank < 2; second projection coordinate is zero")
    return centered @ axes.T, axes


def write_projection_csv(path, points: Array, labels=None):
    """CSV with header x,y,label (label blank when unknown)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["x", "y", "label"])
        for i, (x, y) in enumerate(points):
            label = "" if labels is None else int(labels[i])
            writer.writerow([f"{x:.10g}", f"{y:.10g}", label])


def negative_latent_spread(model: ChadModel, dataset: Dataset,
                           neg_config: NegSamplerConfig, noise_spec: SecondaryNoiseSpec,
                           rng: np.random.Generator) -> dict:
    """Per-dimension variance of (optionally noise-injected) negative latents."""
    neg_cat, neg_cont = generate_negatives_batch(dataset.cat, dataset.cont, neg_config,
                                                 dataset.schema, rng)
    z = model.encode(neg_cat, neg_cont)
    noise = noise_spec.draw(rng, *z.shape)
    if noise is not None:
        z += noise
    var = z.var(axis=0)
    return {"per_dim_variance": var.tolist(), "mean_variance": float(var.mean())}


def noise_ablation(train_set: Dataset, test_set: Dataset, schedule: TrainSchedule,
                   neg_config: NegSamplerConfig, seeds, anomaly_fraction: float = 0.1,
                   model_config=None) -> list[dict]:
    """Paired runs with the secondary noise on and off.

    For every seed the model is trained twice from the same streams, scored
    on the test set mixed with synthetic anomalies, and the latent spread of
    a fresh negative batch is recorded for both settings.
    """
    if model_config is None:
        model_config = ModelConfig()
    results = []
    for seed in seeds:
        row = {"seed": seed}
        for enabled in (True, False):
            sched = replace(schedule, seed=seed)
            streams = named_streams(seed)
            model = ChadModel(train_set.schema, model_config, streams["init"])
            train(model, train_set, sched, neg_config, SecondaryNoiseSpec(enabled))
            eval_rng = np.random.default_rng(seed + 1)
            labeled = synth_anomalies(test_set, anomaly_fraction, eval_rng)
            scored = score_dataset(model, labeled)
            ap = average_precision(scored.scores, scored.labels)
            spread = negative_latent_spread(model, test_set, neg_config,
                                            SecondaryNoiseSpec(enabled),
                                            np.random.default_rng(seed + 2))
            key = "with_noise" if enabled else "without_noise"
            row[key] = {"ap": ap, "latent_mean_variance": spread["mean_variance"]}
        results.append(row)
    return results
