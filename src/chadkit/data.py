"""Schema-typed tabular data: CSV ingestion, vocabularies, rare-entity
filtering, min-max normalization, and seeded batch iteration.

A dataset keeps categorical fields as integer index columns and continuous
fields as a float matrix. Category vocabularies map the raw string values
to indices and are rebuilt whenever filtering changes which values survive.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import json
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError, SchemaError

Array = np.ndarray


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


def check_batch(schema: RecordSchema, cat, cont) -> tuple[Array, Array]:
    """A batch of records as (n, k) int64 and (n, r) float64 arrays, checked
    against ``schema``: both blocks 2-D and as wide as its fields, with equal
    row counts and every category index inside its field's vocabulary.

    This is the one check of raw record arrays; below it, the training and
    scoring code trusts them.
    """
    cat = np.asarray(cat, dtype=np.int64)
    cont = np.asarray(cont, dtype=float)
    for name, block, width in (("categorical", cat, schema.k), ("continuous", cont, schema.r)):
        if block.ndim != 2 or block.shape[1] != width:
            raise SchemaError(f"{name} block has shape {block.shape}, expected "
                              f"(rows, {width}) for the schema's {width} {name} fields")
    if cat.shape[0] != cont.shape[0]:
        raise SchemaError(f"categorical and continuous row counts differ "
                          f"({cat.shape[0]} and {cont.shape[0]})")
    arities = np.asarray(schema.arities)
    # whole-block reductions are several times faster than per-field ones at
    # a handful of fields; the field is looked up only once a check failed
    if cat.size and (cat.min() < 0 or (cat >= arities).any()):
        w = int(np.argmax(((cat < 0) | (cat >= arities)).any(axis=0)))
        raise SchemaError(f"category index out of range for field "
                          f"{schema.cat_fields[w]!r} (arity {arities[w]})")
    return cat, cont


@dataclass
class Dataset:
    schema: RecordSchema
    cat: Array                 # (n, k) int64
    cont: Array                # (n, r) float64
    labels: Array | None = None  # (n,) int8, 1 = anomaly
    ids: Array | None = None     # (n,) int64

    def __post_init__(self):
        self.cat, self.cont = check_batch(self.schema, self.cat, self.cont)
        if self.ids is None:
            self.ids = np.arange(self.n, dtype=np.int64)
        else:
            self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int8)
        for name, column in (("ids", self.ids), ("labels", self.labels)):
            if column is not None and column.shape != (self.n,):
                raise SchemaError(f"{name} has shape {column.shape}, expected ({self.n},) "
                                  f"for {self.n} records")

    @property
    def n(self) -> int:
        return self.cat.shape[0]

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
    # where the first dropped nan or infinite cell is, as "row N, column
    # 'name': 'cell'"; not part of the JSON report
    first_nonfinite: str | None = None

    def to_json(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "first_nonfinite"}


def read_schema_file(path) -> tuple[list[str], list[str]]:
    """Schema file: JSON object mapping field name -> "categorical" | "continuous"."""
    try:
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
    except (ValueError, RecursionError) as err:   # not UTF-8, not JSON, too deep
        raise DataError(f"schema file {path} is not UTF-8 JSON: {err}") from None
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


# Lines read and converted at a time: the loader never holds more of the file
# as Python strings than one block.
LOAD_BLOCK_ROWS = 16384

_LABELS = {"0": 0, "nominal": 0, "normal": 0, "1": 1, "anomaly": 1, "anomalous": 1}


def read_csv_header(path) -> list[str]:
    """The first row of a CSV file, or [] when the file is empty."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        rows, fault = _read_rows(csv.reader(f), path, 1)
    if fault is not None:
        raise fault
    return rows[0] if rows else []


def load_csv(path, schema: RecordSchema, label_field: str | None = None):
    """Read an RFC-4180 UTF-8 CSV into a Dataset.

    A leading byte-order mark is dropped. A header that names a column twice
    is an error naming it.

    When the schema has empty vocabularies they are built from the file
    (training mode); otherwise a row holding a value missing from the
    vocabulary is dropped and counted as unseen.

    Returns (dataset, report). Rows with empty cells are dropped and counted;
    a non-numeric continuous cell is an error naming the row and column. A
    row with a nan or infinite continuous cell is dropped and counted too, so
    it is never scored, and ``report.first_nonfinite`` names the first such
    cell, for a caller that turns non-finite input into an error.

    The file is read ``LOAD_BLOCK_ROWS`` lines at a time and converted column
    by column. A block of plain lines (no ``"``, NUL or ``\\r`` but a CRLF
    ending, not blank, as many commas as the header, no longer than
    ``csv.field_size_limit()``) is split at its commas; csv.reader reads the
    rest of the file from the first block that is not, with the same rows,
    counts and errors. A row's fate is decided in this order: wrong cell
    count (error), empty cell, unseen category, unparsable number (error),
    non-finite value, unknown label (error). When a file has several errors,
    the one of the first faulty row is raised.
    """
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        header, fault = _read_rows(reader, path, 1)
        if fault is not None:
            raise fault
        if not header:
            raise DataError(f"{path}: empty file")
        converter = _BlockConverter(path, schema, header[0], label_field)
        converter.read(f, reader.line_num)
    return converter.finish()


def _split_plain(lines: list, width: int):
    """The ``width`` cell columns of ``lines``, split at their commas, or None
    when a line is not plain, so csv.reader might read it otherwise."""
    text = "".join(lines)
    if ('"' in text or "\0" in text
            or "\r" in text and text.count("\r") != text.count("\r\n")
            or "\n" in lines or "\r\n" in lines
            or list(map(str.count, lines, itertools.repeat(","))).count(width - 1) < len(lines)
            or max(map(len, lines), default=0) > csv.field_size_limit()):
        return None
    cells = text.replace("\r", "").replace("\n", ",").split(",")    # every \r ends a CRLF
    del cells[len(lines) * width:]    # the empty cell after the last newline
    return [cells[j::width] for j in range(width)]


def _read_rows(reader, path, count: int, lines_before: int = 0):
    """Up to ``count`` rows, plus the DataError to raise once they are handled
    when the file is not valid UTF-8 or CSV, lines counted from ``lines_before``."""
    rows: list = []
    try:
        # list.extend keeps the rows read before an exception
        rows.extend(itertools.islice(reader, count))
    except csv.Error as err:
        return rows, DataError(f"{path}: line {lines_before + reader.line_num}: {err}")
    except UnicodeDecodeError:
        return rows, DataError(f"{path}: line {_undecodable_line(path)} is not valid UTF-8")
    return rows, None


def _undecodable_line(path) -> int:
    """1-based number of the first line of ``path`` that is not valid UTF-8,
    with lines ended by LF, CRLF or a lone CR, as csv.reader counts them."""
    line_no = 0
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as f:
        for line_no, line in enumerate(f, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:   # a byte decoded to a lone surrogate
                break
    return line_no


class _BlockConverter:
    """Turns the rows of a CSV file into the int64/float64 arrays of a Dataset."""

    def __init__(self, path, schema: RecordSchema, header: list[str],
                 label_field: str | None):
        repeated = sorted(name for name, n in Counter(header).items() if n > 1)
        if repeated:
            raise DataError(f"{path}: header repeats columns {repeated}")
        wanted = set(schema.cat_fields) | set(schema.cont_fields)
        if label_field is not None:
            wanted.add(label_field)
        missing = wanted - set(header)
        if missing:
            raise DataError(f"{path}: missing columns {sorted(missing)}")
        col = {name: j for j, name in enumerate(header)}
        self.path = path
        self.schema = schema
        self.width = len(header)
        self.cat_cols = [col[name] for name in schema.cat_fields]
        self.cont_cols = [col[name] for name in schema.cont_fields]
        self.label_col = col[label_field] if label_field is not None else None
        self.building = all(len(v) == 0 for v in schema.vocabs) and schema.k > 0
        self.vocabs = [dict(v) for v in schema.vocabs]
        self.report = LoadReport()
        self.cats: list[Array] = []
        self.conts: list[Array] = []
        self.labels: list[Array] = []

    def read(self, f, lines_read: int):
        """Convert the rows of ``f`` after a header of ``lines_read`` lines."""
        while True:
            lines: list = []
            try:
                lines.extend(itertools.islice(f, LOAD_BLOCK_ROWS))
                undecodable = None
            except UnicodeDecodeError as err:   # csv.reader raises it after the lines
                undecodable = err
            columns = None if undecodable else _split_plain(lines, self.width)
            if columns is None:
                break
            self.add(columns)
            if len(lines) < LOAD_BLOCK_ROWS:
                return
            lines_read += len(lines)

        def rest():
            yield from lines
            if undecodable is not None:
                raise undecodable
            yield from f

        reader = csv.reader(rest())
        while True:
            rows, fault = _read_rows(reader, self.path, LOAD_BLOCK_ROWS, lines_read)
            i = next((i for i, row in enumerate(rows) if len(row) != self.width), None)
            if i is not None:
                rows, fault = rows[:i], DataError(
                    f"{self.path}: row {self.report.rows_read + 2 + i} has {len(rows[i])} "
                    f"cells, expected {self.width}")
            self.add(list(zip(*rows)) or [()] * self.width)
            if fault is not None:
                raise fault
            if len(rows) < LOAD_BLOCK_ROWS:
                return

    def add(self, columns: list):
        """Convert one block of cell columns; raises its first faulty row's error."""
        path, report = self.path, self.report
        first_row = report.rows_read + 2    # the header is row 1
        n = len(columns[0])
        cat_cells = [columns[c] for c in self.cat_cols]
        cont_cells = [columns[c] for c in self.cont_cols]
        empty = np.zeros(n, dtype=bool)
        for cells in cat_cells + cont_cells:
            i = -1
            for _ in range(cells.count("")):
                i = cells.index("", i + 1)
                empty[i] = True
        keep = ~empty

        cat = np.empty((n, self.schema.k), dtype=np.int64)
        selected = keep.tolist()
        for w, cells in enumerate(cat_cells):
            vocab = self.vocabs[w]
            if self.building:
                # first appearance, in row order, among rows with no empty cell
                for value in dict.fromkeys(itertools.compress(cells, selected)):
                    vocab.setdefault(value, len(vocab))
            cat[:, w] = np.fromiter(map(vocab.get, cells, itertools.repeat(-1)), np.int64, n)
        unseen = keep & (cat < 0).any(axis=1)
        keep &= ~unseen

        kept = np.flatnonzero(keep)
        cont = np.empty((kept.size, self.schema.r))
        selected = keep.tolist()
        try:
            for j, cells in enumerate(cont_cells):
                cont[:, j] = np.fromiter(map(float, itertools.compress(cells, selected)),
                                         float, kept.size)
        except ValueError:
            # the first kept cell, in row-major order, that float rejects
            i, j = next((i, j) for i in kept.tolist() for j, cells in enumerate(cont_cells)
                        if not _is_number(cells[i]))
            self.add([cells[:i] for cells in columns])
            raise DataError(f"{path}: row {first_row + i}, column "
                            f"{self.schema.cont_fields[j]!r}: cannot parse "
                            f"{cont_cells[j][i]!r} as a number") from None

        nonfinite = ~np.isfinite(cont).all(axis=1)
        if nonfinite.any() and report.first_nonfinite is None:
            b = int(np.argmax(nonfinite))
            i, j = int(kept[b]), int(np.argmin(np.isfinite(cont[b])))
            report.first_nonfinite = (f"row {first_row + i}, column "
                                      f"{self.schema.cont_fields[j]!r}: "
                                      f"{cont_cells[j][i]!r}")
        kept, cont = kept[~nonfinite], cont[~nonfinite]

        if self.label_col is not None:
            cells = [columns[self.label_col][i] for i in kept.tolist()]
            norm = map(str.lower, map(str.strip, cells))
            labels = np.fromiter(map(_LABELS.get, norm, itertools.repeat(-1)),
                                 np.int8, kept.size)
            bad = np.flatnonzero(labels < 0)
            if bad.size:
                b = int(bad[0])
                raise DataError(f"{path}: row {first_row + int(kept[b])}: "
                                f"unknown label {cells[b]!r}")
            self.labels.append(labels)

        report.rows_read += n
        report.rows_dropped_missing += int(empty.sum())
        report.rows_dropped_unseen += int(unseen.sum())
        report.rows_dropped_nonfinite += int(nonfinite.sum())
        self.cats.append(cat[kept])
        self.conts.append(cont)

    def finish(self):
        """(dataset, report) of every block added; at least one, maybe empty, was.
        With fixed vocabularies the dataset carries the caller's schema itself."""
        schema = (RecordSchema(self.schema.cat_fields, self.schema.cont_fields, self.vocabs)
                  if self.building else self.schema)
        cat, cont = np.concatenate(self.cats), np.concatenate(self.conts)
        labels = np.concatenate(self.labels) if self.label_col is not None else None
        self.report.rows_kept = cat.shape[0]
        self.report.arities = {name: len(v) for name, v in zip(schema.cat_fields, self.vocabs)}
        return Dataset(schema, cat, cont, labels=labels), self.report


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


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
        # surviving old indices, ascending, are the new vocabulary's order
        surviving = np.unique(cat[:, w])
        new_cat[:, w] = np.searchsorted(surviving, cat[:, w])
        new_vocabs.append({schema.decode_value(w, old): new
                           for new, old in enumerate(surviving.tolist())})
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

    def overflowing(self) -> Array:
        """Indices of the fields whose max - min is not a finite float64, such
        as the span of -1.7e308 to 1.7e308: no value of theirs can be mapped
        onto the unit range."""
        with np.errstate(over="ignore", invalid="ignore"):
            return np.flatnonzero(~np.isfinite(self.maxs - self.mins))

    def to_json(self) -> dict:
        return {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()}

    @classmethod
    def from_json(cls, obj) -> "NormalizationStats":
        return cls(np.array(obj["mins"]), np.array(obj["maxs"]))


def fit_normalize(train: Dataset) -> NormalizationStats:
    """Fit min-max ranges on training data only. A field whose range is wider
    than float64 holds raises DataError naming it."""
    if train.schema.r == 0:
        return NormalizationStats(np.zeros(0), np.zeros(0))
    if train.n == 0:
        raise ValueError("cannot fit normalization on an empty dataset")
    mins = train.cont.min(axis=0)
    maxs = train.cont.max(axis=0)
    stats = NormalizationStats(mins, maxs)
    wide = stats.overflowing()
    if wide.size:
        j = wide[0]
        raise DataError(f"continuous field {train.schema.cont_fields[j]!r} spans "
                        f"{mins[j]:g} to {maxs[j]:g}, a range wider than float64 holds, "
                        f"so it cannot be normalized")
    for j in np.nonzero(maxs == mins)[0]:
        warnings.warn(
            f"continuous field {train.schema.cont_fields[j]!r} is constant on the "
            f"training data; it will map to 0.5")
    return stats


def apply_normalize(stats: NormalizationStats, dataset: Dataset) -> Dataset:
    """Map continuous values onto the unit range fitted by ``fit_normalize``.

    The training data lands in [0, 1]. Values outside the training range land
    outside it, unclamped: the detector's negatives are pushed past the
    observed range, so that is where it learns to flag records. Constant
    training fields map to 0.5 everywhere. A finite value far past a narrow
    range can overflow to +-inf and is left so; ``cli._load_for_model`` drops
    such a row for ``score``, ``eval`` and ``viz-latent`` and counts it in
    ``rows_dropped_nonfinite``.
    """
    if dataset.schema.r == 0:
        return dataset
    span = stats.maxs - stats.mins
    constant = span == 0
    safe_span = np.where(constant, 1.0, span)
    cont = (dataset.cont - stats.mins) / safe_span
    cont[:, constant] = 0.5
    return Dataset(dataset.schema, dataset.cat.copy(), cont, dataset.labels, dataset.ids)


def batch_iter(n: int, batch_size: int, seed: int):
    """Yield index arrays covering one shuffled epoch of ``n`` rows; final
    partial batch kept."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(seed).permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]
