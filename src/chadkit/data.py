"""Schema-typed tabular data: CSV ingestion, vocabularies, rare-entity
filtering, min-max normalization, and seeded batch iteration.

A dataset keeps categorical fields as integer index columns and continuous
fields as a float matrix. Category vocabularies map the raw string values
to indices and are rebuilt whenever filtering changes which values survive.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, SchemaError

Array = np.ndarray


def as_matrix(x, width: int, rows: int | None = None, dtype=float) -> Array:
    """View ``x`` as a (n, width) matrix; zero-width blocks need ``rows``."""
    x = np.asarray(x, dtype=dtype)
    if width == 0:
        n = x.shape[0] if x.ndim == 2 else (rows if rows is not None else 0)
        return x.reshape(n, 0)
    return x.reshape(-1, width)


class RecordSchema:
    """Field layout plus per-categorical-field vocabulary.

    ``cat_fields`` and ``cont_fields`` are ordered tuples of names; ``vocabs``
    holds one value->index dict per categorical field.
    """

    def __init__(self, cat_fields, cont_fields, vocabs=None):
        self.cat_fields = tuple(cat_fields)
        self.cont_fields = tuple(cont_fields)
        names = self.cat_fields + self.cont_fields
        if len(set(names)) != len(names):
            raise SchemaError("field names must be unique")
        if len(names) == 0:
            raise SchemaError("schema needs at least one field")
        if vocabs is None:
            vocabs = [dict() for _ in self.cat_fields]
        if len(vocabs) != len(self.cat_fields):
            raise SchemaError("need one vocabulary per categorical field")
        self.vocabs = [dict(v) for v in vocabs]
        self._inverse = [None] * len(self.vocabs)

    @property
    def k(self) -> int:
        return len(self.cat_fields)

    @property
    def r(self) -> int:
        return len(self.cont_fields)

    @property
    def d(self) -> int:
        return self.k + self.r

    @property
    def arities(self) -> tuple[int, ...]:
        return tuple(len(v) for v in self.vocabs)

    def encode_value(self, field_idx: int, value: str) -> int:
        return self.vocabs[field_idx][value]

    def decode_value(self, field_idx: int, index: int) -> str:
        inv = self._inverse[field_idx]
        if inv is None or len(inv) != len(self.vocabs[field_idx]):
            inv = [None] * len(self.vocabs[field_idx])
            for value, i in self.vocabs[field_idx].items():
                inv[i] = value
            self._inverse[field_idx] = inv
        return inv[index]

    def to_json(self) -> dict:
        return {
            "cat_fields": list(self.cat_fields),
            "cont_fields": list(self.cont_fields),
            "vocabs": [dict(v) for v in self.vocabs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RecordSchema":
        return cls(obj["cat_fields"], obj["cont_fields"], obj["vocabs"])

    def hash(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Record:
    """A single row view: categorical indices, continuous values, optional label."""

    cat: Array
    cont: Array
    label: int | None = None
    record_id: int = 0


@dataclass
class Dataset:
    schema: RecordSchema
    cat: Array                 # (n, k) int64
    cont: Array                # (n, r) float64
    labels: Array | None = None  # (n,) int8, 1 = anomaly
    ids: Array | None = None     # (n,) int64

    def __post_init__(self):
        self.cat = np.asarray(self.cat, dtype=np.int64).reshape(len(self.cat), self.schema.k)
        self.cont = np.asarray(self.cont, dtype=float).reshape(len(self.cont), self.schema.r)
        if self.cat.shape[0] != self.cont.shape[0]:
            raise SchemaError("categorical and continuous row counts differ")
        if self.ids is None:
            self.ids = np.arange(self.n, dtype=np.int64)
        else:
            self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int8)
        for w, a in enumerate(self.schema.arities):
            if self.n and self.schema.k and (self.cat[:, w].min() < 0 or self.cat[:, w].max() >= a):
                raise SchemaError(f"category index out of range for field "
                                  f"{self.schema.cat_fields[w]!r} (arity {a})")

    @property
    def n(self) -> int:
        return self.cat.shape[0]

    def record(self, i: int) -> Record:
        label = None if self.labels is None else int(self.labels[i])
        return Record(self.cat[i].copy(), self.cont[i].copy(), label, int(self.ids[i]))

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        labels = None if self.labels is None else self.labels[indices]
        return Dataset(self.schema, self.cat[indices], self.cont[indices],
                       labels, self.ids[indices])


@dataclass
class LoadReport:
    """What happened while reading a CSV: kept/dropped row counts and arities."""

    rows_read: int = 0
    rows_kept: int = 0
    rows_dropped_missing: int = 0
    rows_dropped_unseen: int = 0
    rows_dropped_nonfinite: int = 0
    arities: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "rows_kept": self.rows_kept,
            "rows_dropped_missing": self.rows_dropped_missing,
            "rows_dropped_unseen": self.rows_dropped_unseen,
            "rows_dropped_nonfinite": self.rows_dropped_nonfinite,
            "arities": dict(self.arities),
        }


def read_schema_file(path) -> tuple[list[str], list[str]]:
    """Schema file: JSON object mapping field name -> "categorical" | "continuous"."""
    with open(path) as f:
        obj = json.load(f)
    if not isinstance(obj, dict) or not obj:
        raise DataError(f"schema file {path} must be a non-empty JSON object")
    cats, conts = [], []
    for name, kind in obj.items():
        if kind == "categorical":
            cats.append(name)
        elif kind == "continuous":
            conts.append(name)
        else:
            raise DataError(f"schema file {path}: field {name!r} has unknown kind {kind!r}")
    return cats, conts


RESERVED_UNSEEN = "<unseen>"


def load_csv(path, schema: RecordSchema, unseen_policy: str = "reject",
             label_field: str | None = None, drop_nonfinite: bool = False):
    """Read an RFC-4180 CSV into a Dataset.

    When the schema has empty vocabularies they are built from the file
    (training mode). Otherwise values missing from the vocabulary follow
    ``unseen_policy``: "reject" drops the row, "reserve" maps it to a
    reserved index appended to the vocabulary.

    Returns (dataset, report). Rows with empty cells are dropped and counted;
    a non-numeric continuous cell is an error naming the row and column.
    With ``drop_nonfinite`` (scoring input), a row with a nan or infinite
    continuous cell is dropped and counted too, so it is never scored.
    """
    if unseen_policy not in ("reject", "reserve"):
        raise DataError(f"unknown unseen_policy {unseen_policy!r}")

    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = list(reader)

    wanted = set(schema.cat_fields) | set(schema.cont_fields)
    if label_field is not None:
        wanted.add(label_field)
    missing = wanted - set(header)
    if missing:
        raise DataError(f"{path}: missing columns {sorted(missing)}")

    col = {name: header.index(name) for name in header}
    cat_cols = [col[name] for name in schema.cat_fields]
    cont_cols = [col[name] for name in schema.cont_fields]
    label_col = col[label_field] if label_field is not None else None

    building = all(len(v) == 0 for v in schema.vocabs) and schema.k > 0
    vocabs = [dict(v) for v in schema.vocabs]
    if unseen_policy == "reserve" and not building:
        for v in vocabs:
            v.setdefault(RESERVED_UNSEEN, len(v))

    report = LoadReport(rows_read=len(rows))
    cat_rows, cont_rows, label_rows = [], [], []
    for line_no, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: row {line_no} has {len(row)} cells, expected {len(header)}")
        cells = [row[c] for c in cat_cols] + [row[c] for c in cont_cols]
        if "" in cells:
            report.rows_dropped_missing += 1
            continue

        cat_out = [0] * len(cat_cols)
        unseen = False
        for w, c in enumerate(cat_cols):
            value = row[c]
            if value in vocabs[w]:
                cat_out[w] = vocabs[w][value]
            elif building:
                vocabs[w][value] = len(vocabs[w])
                cat_out[w] = vocabs[w][value]
            elif unseen_policy == "reserve":
                cat_out[w] = vocabs[w][RESERVED_UNSEEN]
            else:
                unseen = True
                break
        if unseen:
            report.rows_dropped_unseen += 1
            continue

        try:
            cont_out = [float(row[c]) for c in cont_cols]
        except ValueError:
            _raise_unparsable(path, line_no, row, cont_cols, schema.cont_fields)
        if drop_nonfinite and not all(map(math.isfinite, cont_out)):
            report.rows_dropped_nonfinite += 1
            continue

        if label_col is not None:
            label_rows.append(_parse_label(row[label_col], path, line_no))
        cat_rows.append(cat_out)
        cont_rows.extend(cont_out)

    out_schema = RecordSchema(schema.cat_fields, schema.cont_fields, vocabs)
    n = len(cat_rows)
    dataset = Dataset(
        out_schema,
        np.array(cat_rows, dtype=np.int64).reshape(n, schema.k),
        np.array(cont_rows, dtype=float).reshape(n, schema.r),
        labels=np.array(label_rows, dtype=np.int8) if label_col is not None else None,
    )
    report.rows_kept = n
    report.arities = {name: len(v) for name, v in zip(out_schema.cat_fields, vocabs)}
    return dataset, report


def _raise_unparsable(path, line_no: int, row, cont_cols, cont_fields):
    """Raise the DataError naming the first continuous cell that is not a number."""
    for c, name in zip(cont_cols, cont_fields):
        try:
            float(row[c])
        except ValueError:
            raise DataError(f"{path}: row {line_no}, column {name!r}: "
                            f"cannot parse {row[c]!r} as a number") from None


def _parse_label(cell: str, path, line_no: int) -> int:
    norm = cell.strip().lower()
    if norm in ("0", "nominal", "normal"):
        return 0
    if norm in ("1", "anomaly", "anomalous"):
        return 1
    raise DataError(f"{path}: row {line_no}: unknown label {cell!r}")


def filter_rare_entities(dataset: Dataset, min_count: int) -> Dataset:
    """Drop rows containing any categorical value seen fewer than ``min_count``
    times, then rebuild the vocabularies over the survivors.

    Dropping rows can push other values below the threshold, so the pruning
    repeats until stable; the result is idempotent at fixed ``min_count``.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    schema = dataset.schema
    cat = dataset.cat
    if schema.k == 0 or min_count == 1:
        return dataset

    keep = np.ones(cat.shape[0], dtype=bool)
    while True:
        dropped = False
        for w in range(schema.k):
            values = cat[keep, w]
            counts = np.bincount(values, minlength=len(schema.vocabs[w]))
            rare = counts[cat[:, w]] < min_count
            newly = keep & rare
            if newly.any():
                keep &= ~rare
                dropped = True
        if not dropped:
            break
    return _rebuild_vocab(dataset, keep)


def _rebuild_vocab(dataset: Dataset, keep: Array) -> Dataset:
    schema = dataset.schema
    cat = dataset.cat[keep]
    new_vocabs = []
    new_cat = np.empty_like(cat)
    for w in range(schema.k):
        surviving = np.unique(cat[:, w])
        remap = {}
        vocab = {}
        for old_idx in sorted(surviving.tolist()):
            value = schema.decode_value(w, old_idx)
            remap[old_idx] = len(vocab)
            vocab[value] = remap[old_idx]
        new_vocabs.append(vocab)
        lut = np.full(len(schema.vocabs[w]), -1, dtype=np.int64)
        for old_idx, new_idx in remap.items():
            lut[old_idx] = new_idx
        new_cat[:, w] = lut[cat[:, w]]
    new_schema = RecordSchema(schema.cat_fields, schema.cont_fields, new_vocabs)
    labels = None if dataset.labels is None else dataset.labels[keep]
    return Dataset(new_schema, new_cat, dataset.cont[keep], labels, dataset.ids[keep])


@dataclass
class NormalizationStats:
    """Per-continuous-field min/max observed on the training data."""

    mins: Array
    maxs: Array

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=float)
        self.maxs = np.asarray(self.maxs, dtype=float)
        if np.any(self.maxs < self.mins):
            raise ValueError("normalization max < min")

    def to_json(self) -> dict:
        return {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()}

    @classmethod
    def from_json(cls, obj) -> "NormalizationStats":
        return cls(np.array(obj["mins"]), np.array(obj["maxs"]))


def fit_normalize(train: Dataset) -> NormalizationStats:
    """Fit min-max ranges on training data only."""
    if train.schema.r == 0:
        return NormalizationStats(np.zeros(0), np.zeros(0))
    if train.n == 0:
        raise ValueError("cannot fit normalization on an empty dataset")
    mins = train.cont.min(axis=0)
    maxs = train.cont.max(axis=0)
    for j in np.nonzero(maxs == mins)[0]:
        warnings.warn(
            f"continuous field {train.schema.cont_fields[j]!r} is constant on the "
            f"training data; it will map to 0.5")
    return NormalizationStats(mins, maxs)


def apply_normalize(stats: NormalizationStats, dataset: Dataset, clamp: bool = False) -> Dataset:
    """Map continuous values onto the unit range fitted by ``fit_normalize``.

    Values outside the training range land outside [0, 1] unless ``clamp``.
    Constant training fields map to 0.5 everywhere.
    """
    if dataset.schema.r == 0:
        return dataset
    span = stats.maxs - stats.mins
    constant = span == 0
    safe_span = np.where(constant, 1.0, span)
    cont = (dataset.cont - stats.mins) / safe_span
    cont[:, constant] = 0.5
    if clamp:
        cont = np.clip(cont, 0.0, 1.0)
    return Dataset(dataset.schema, dataset.cat.copy(), cont, dataset.labels, dataset.ids)


def batch_iter(n_or_dataset, batch_size: int, seed: int):
    """Yield index arrays covering one shuffled epoch; final partial batch kept."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = n_or_dataset.n if isinstance(n_or_dataset, Dataset) else int(n_or_dataset)
    order = np.random.default_rng(seed).permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]
