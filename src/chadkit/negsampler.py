"""Negative-sample generation for heterogeneous records.

Each negative is built from a real record by two perturbation passes:

* categorical: a per-sample count of fields (at most half of them) is
  drawn without replacement, fields weighted by an arity-dampened
  probability; each chosen field's value is replaced by a different value
  from the same vocabulary.
* continuous: floor(r/4) fields are shifted up by a draw from
  (delta, 1 + delta) and a disjoint floor(r/4) fields are shifted by a
  draw from (-delta, 1 - delta). Results are deliberately not clamped to
  the unit range, so negatives spill beyond the observed value range.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import RecordSchema
from .errors import ConfigError, SchemaError

Array = np.ndarray


# exponent flattening the arity-weighted field-selection probabilities
DAMPENING = 0.75


@dataclass
class NegSamplerConfig:
    m: int = 10
    delta: float = 0.5

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError(f"negatives per record must be >= 1, got {self.m}")
        if self.delta <= 0:
            raise ConfigError(f"noise deviation must be > 0, got {self.delta}")


def category_probs(arities) -> Array:
    """Field-selection probabilities: normalized (a_w / sum a)^DAMPENING.

    The exponent flattens the distribution so perturbation is not dominated
    by the highest-arity fields.
    """
    arities = np.asarray(arities, dtype=float)
    if arities.size == 0:
        raise SchemaError("no categorical fields to build selection probabilities for")
    if np.any(arities < 1):
        raise SchemaError("arities must be >= 1")
    q = (arities / arities.sum()) ** DAMPENING
    return q / q.sum()


def check_sampler_schema(schema: RecordSchema):
    """A sampler needs something to perturb: a categorical field with at least
    two values, or at least four continuous fields (below that the floor(r/4)
    selection is empty)."""
    if max(schema.arities, default=0) < 2 and schema.r < 4:
        raise ConfigError(
            "negative sampling needs a categorical field with at least 2 values or "
            f"at least 4 continuous fields (categorical arities {list(schema.arities)}, "
            f"r={schema.r})")


def _perturb_cat_batch(cat: Array, counts: Array, probs: Array, arities: Array,
                       rng: np.random.Generator):
    """Vectorized categorical pass for S rows, in place: ``cat`` is a fresh
    array of the caller's, changed and returned with the selection mask.

    Fields are drawn without replacement proportionally to ``probs``;
    arity-1 fields are skipped (there is no different value to swap in).
    Replacement values are uniform over the field's vocabulary excluding
    the original value.
    """
    s, k = cat.shape
    eligible = arities >= 2
    counts = np.minimum(counts, int(eligible.sum()))

    # weighted sampling without replacement via exponential race: the fields
    # with the smallest Exp(1)/p_w keys are the chosen ones
    keys = rng.exponential(size=(s, k)) / np.where(eligible, probs, 1.0)
    keys[:, ~eligible] = np.inf
    # each row's ranks: the inverse of the permutation that sorts its keys
    order = np.argsort(keys, axis=1)
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(k), axis=1)
    selected = ranks < counts[:, None]

    for w in range(k):
        if not eligible[w]:
            continue
        draws = rng.integers(0, arities[w] - 1, size=s)
        draws += draws >= cat[:, w]
        col = selected[:, w]
        cat[col, w] = draws[col]
    return cat, selected


def perturb_continuous(values: Array, delta: float, rng: np.random.Generator):
    """Shift floor(r/4) fields up and a disjoint floor(r/4) fields down.

    Up-shifts add a draw from (delta, 1 + delta); down-shifts add a draw
    from (-delta, 1 - delta). Returns (new_values, up_indices, down_indices);
    no clamping is applied.
    """
    # a copy: the batch pass changes its rows in place
    values = np.array(values, dtype=float)
    new_vals, j_up, j_down = _perturb_cont_batch(values[None, :], delta, rng)
    return new_vals[0], j_up[0], j_down[0]


def _perturb_cont_batch(values: Array, delta: float, rng: np.random.Generator):
    """The continuous pass over S rows, in place: ``values`` is a fresh
    C-contiguous (S, r) array of the caller's, changed and returned with the
    up and down indices."""
    s, r = values.shape
    q = r // 4
    if q == 0:
        empty = np.zeros((s, 0), dtype=np.int64)
        return values, empty, empty
    perm = np.argsort(rng.random((s, r)), axis=1)
    j_up = perm[:, :q]
    j_down = perm[:, q:2 * q]
    # one flat index per cell adds faster than a (row, column) pair of indices
    flat = values.reshape(-1)
    rows = np.arange(0, s * r, r)[:, None]
    flat[rows + j_up] += rng.random((s, q)) + delta
    flat[rows + j_down] += rng.random((s, q)) - delta
    return values, j_up, j_down


def generate_negatives_batch(cat: Array, cont: Array, config: NegSamplerConfig,
                             schema: RecordSchema, rng: np.random.Generator):
    """m negatives for each of n records; returns ((n*m, k), (n*m, r)).

    ``cat`` and ``cont`` are an in-range (n, k) int64 and (n, r) float64
    batch, such as a ``Dataset``'s rows, and are trusted like the losses'
    inputs; only the schema is checked, for something to perturb. The
    per-sample categorical count is drawn uniformly from
    {1, ..., max(1, floor(k/2))}, fresh for every negative; the categorical
    pass runs only when some field has at least two values.
    """
    check_sampler_schema(schema)
    n = cat.shape[0]
    s = n * config.m
    rep_cat = np.repeat(cat, config.m, axis=0)
    rep_cont = np.repeat(cont, config.m, axis=0)

    if max(schema.arities, default=0) >= 2:
        arities = np.asarray(schema.arities)
        counts = rng.integers(1, max(1, schema.k // 2) + 1, size=s)
        neg_cat, _ = _perturb_cat_batch(rep_cat, counts, category_probs(arities),
                                        arities, rng)
    else:
        neg_cat = rep_cat
    neg_cont, _, _ = _perturb_cont_batch(rep_cont, config.delta, rng)
    return neg_cat, neg_cont

