"""Desk-scale synthetic heterogeneous data with learnable structure.

Rows are drawn from a small number of latent clusters. Each cluster carries
a categorical signature (one preferred value per field, with a small
uniform background) and concentrates each continuous field around a
cluster-specific level. Continuous fields additionally have a sparse heavy
upper tail, as positive-valued numeric attributes (weights, quantities,
values) typically do; after min-max normalization the nominal bulk then
occupies a narrow band, which is what makes single-field perturbations
stand out.
"""
from __future__ import annotations

import numpy as np

from .data import Dataset, RecordSchema

# spread of a continuous cell around its cluster's level
CONT_SIGMA = 0.03
# share of continuous cells in the heavy tail, and the range of the factor
# each of them is multiplied by
TAIL_FRACTION = 0.01
TAIL_SCALE = (2.0, 8.0)


def make_clustered_dataset(n_rows: int, arities=(10, 20, 35, 50), n_cont: int = 6,
                           n_clusters: int = 6, seed: int = 0, prefer: float = 0.99,
                           values_per_cluster: int = 1) -> Dataset:
    """Generate a schema and dataset of correlated categorical/continuous rows.

    ``prefer`` is the probability a categorical cell follows its cluster's
    signature rather than a uniform background draw. ``TAIL_FRACTION`` of
    continuous cells are multiplied by a factor drawn from ``TAIL_SCALE``.
    Values are raw (unnormalized); fit normalization on a training split.
    """
    rng = np.random.default_rng(seed)
    k, r = len(arities), n_cont

    cat_fields = [f"cat_{w}" for w in range(k)]
    cont_fields = [f"num_{j}" for j in range(r)]
    vocabs = [{f"v{w}_{i}": i for i in range(a)} for w, a in enumerate(arities)]
    schema = RecordSchema(cat_fields, cont_fields, vocabs)

    # per (cluster, field): preferred categorical values and continuous level
    preferred = [
        np.stack([rng.choice(a, size=min(values_per_cluster, a), replace=False)
                  for _ in range(n_clusters)])
        for a in arities
    ]
    levels = rng.uniform(0.2, 0.8, size=(n_clusters, r))

    cluster = rng.integers(0, n_clusters, size=n_rows)
    cat = np.empty((n_rows, k), dtype=np.int64)
    for w, a in enumerate(arities):
        choice_idx = rng.integers(0, preferred[w].shape[1], size=n_rows)
        from_pref = preferred[w][cluster, choice_idx]
        uniform = rng.integers(0, a, size=n_rows)
        cat[:, w] = np.where(rng.random(n_rows) < prefer, from_pref, uniform)

    cont = np.maximum(levels[cluster] + rng.normal(0.0, CONT_SIGMA, size=(n_rows, r)),
                      0.001)
    tail = rng.random((n_rows, r)) < TAIL_FRACTION
    cont = np.where(tail, cont * rng.uniform(*TAIL_SCALE, size=(n_rows, r)), cont)
    return Dataset(schema, cat, cont)


def split_train_test(dataset: Dataset, test_fraction: float, seed: int):
    """Deterministic shuffled split into (train, test)."""
    order = np.random.default_rng(seed).permutation(dataset.n)
    n_test = int(round(dataset.n * test_fraction))
    return dataset.subset(order[n_test:]), dataset.subset(order[:n_test])
