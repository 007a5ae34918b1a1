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

from .data import Record, RecordSchema, as_batch
from .errors import ConfigError, SchemaError

Array = np.ndarray


# exponent flattening the arity-weighted field-selection probabilities
DAMPENING = 0.75


@dataclass
class NegSamplerConfig:
    m: int = 10
    delta: float = 0.5
    dampening: float = DAMPENING

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError(f"negatives per record must be >= 1, got {self.m}")
        if self.delta <= 0:
            raise ConfigError(f"noise deviation must be > 0, got {self.delta}")


def category_probs(arities, dampening: float = DAMPENING) -> Array:
    """Field-selection probabilities: normalized (a_w / sum a)^dampening.

    The exponent flattens the distribution so perturbation is not dominated
    by the highest-arity fields.
    """
    arities = np.asarray(arities, dtype=float)
    if arities.size == 0:
        raise SchemaError("no categorical fields to build selection probabilities for")
    if np.any(arities < 1):
        raise SchemaError("arities must be >= 1")
    q = (arities / arities.sum()) ** dampening
    return q / q.sum()


def check_sampler_schema(schema: RecordSchema):
    """A sampler needs something to perturb: categorical fields, or at least
    four continuous ones (below that the floor(r/4) selection is empty)."""
    if schema.k == 0 and schema.r < 4:
        raise ConfigError(
            "negative sampling needs at least one categorical field or at "
            f"least 4 continuous fields (schema has k={schema.k}, r={schema.r})")


def max_cat_perturb(k: int) -> int:
    """Upper bound of the per-sample categorical perturbation count."""
    return max(1, k // 2)


def perturb_categoricals(cat: Array, count: int, probs: Array, arities,
                         rng: np.random.Generator) -> Array:
    """Replace ``count`` distinct categorical values of one record.

    Fields are drawn without replacement proportionally to ``probs``;
    arity-1 fields are skipped (there is no different value to swap in).
    Replacement values are uniform over the field's vocabulary excluding
    the original value.
    """
    cat = np.asarray(cat, dtype=np.int64)
    k = cat.shape[0]
    if not (1 <= count <= max_cat_perturb(k)):
        raise ValueError(f"count must be in [1, {max_cat_perturb(k)}], got {count}")
    new_cat, _ = _perturb_cat_batch(cat[None, :], np.array([count]), probs,
                                    np.asarray(arities), rng)
    return new_cat[0]


def _perturb_cat_batch(cat: Array, counts: Array, probs: Array, arities: Array,
                       rng: np.random.Generator):
    """Vectorized categorical pass for S rows; returns (new_cat, selection mask)."""
    s, k = cat.shape
    eligible = arities >= 2
    if not eligible.any():
        raise ConfigError("every categorical field has arity 1; nothing to perturb")
    counts = np.minimum(counts, int(eligible.sum()))

    # weighted sampling without replacement via exponential race: the fields
    # with the smallest Exp(1)/p_w keys are the chosen ones
    keys = rng.exponential(size=(s, k)) / np.where(eligible, probs, 1.0)
    keys[:, ~eligible] = np.inf
    ranks = np.argsort(np.argsort(keys, axis=1), axis=1)
    selected = ranks < counts[:, None]

    new_cat = cat.copy()
    for w in range(k):
        if not eligible[w]:
            continue
        draws = rng.integers(0, arities[w] - 1, size=s)
        draws += draws >= cat[:, w]
        col = selected[:, w]
        new_cat[col, w] = draws[col]
    return new_cat, selected


def perturb_continuous(values: Array, delta: float, rng: np.random.Generator):
    """Shift floor(r/4) fields up and a disjoint floor(r/4) fields down.

    Up-shifts add a draw from (delta, 1 + delta); down-shifts add a draw
    from (-delta, 1 - delta). Returns (new_values, up_indices, down_indices);
    no clamping is applied.
    """
    values = np.asarray(values, dtype=float)
    new_vals, j_up, j_down = _perturb_cont_batch(values[None, :], delta, rng)
    return new_vals[0], j_up[0], j_down[0]


def _perturb_cont_batch(values: Array, delta: float, rng: np.random.Generator):
    s, r = values.shape
    q = r // 4
    new_vals = values.copy()
    if q == 0:
        empty = np.zeros((s, 0), dtype=np.int64)
        return new_vals, empty, empty
    perm = np.argsort(rng.random((s, r)), axis=1)
    j_up = perm[:, :q]
    j_down = perm[:, q:2 * q]
    rows = np.arange(s)[:, None]
    new_vals[rows, j_up] += rng.random((s, q)) + delta
    new_vals[rows, j_down] += rng.random((s, q)) - delta
    return new_vals, j_up, j_down


def generate_negatives_batch(cat: Array, cont: Array, config: NegSamplerConfig,
                             schema: RecordSchema, rng: np.random.Generator):
    """m negatives for each of n records; returns ((n*m, k), (n*m, r)).

    The per-sample categorical count is drawn uniformly from
    {1, ..., max(1, floor(k/2))}, fresh for every negative.
    """
    check_sampler_schema(schema)
    cat, cont = as_batch(schema, cat, cont)
    n = cat.shape[0]
    s = n * config.m
    rep_cat = np.repeat(cat, config.m, axis=0)
    rep_cont = np.repeat(cont, config.m, axis=0)

    if schema.k > 0:
        arities = np.asarray(schema.arities)
        probs = category_probs(arities, config.dampening)
        counts = rng.integers(1, max_cat_perturb(schema.k) + 1, size=s)
        neg_cat, _ = _perturb_cat_batch(rep_cat, counts, probs, arities, rng)
    else:
        neg_cat = rep_cat
    neg_cont, _, _ = _perturb_cont_batch(rep_cont, config.delta, rng)
    return neg_cat, neg_cont


def generate_negatives(record: Record, config: NegSamplerConfig,
                       schema: RecordSchema, rng: np.random.Generator) -> list[Record]:
    """m independent negatives for one record; each differs from the source."""
    neg_cat, neg_cont = generate_negatives_batch(
        record.cat[None, :], record.cont[None, :], config, schema, rng)
    return [Record(neg_cat[i], neg_cont[i], label=1, record_id=record.record_id)
            for i in range(config.m)]
