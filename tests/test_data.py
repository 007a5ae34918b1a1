import collections
import csv
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chadkit import data
from chadkit.data import (Dataset, LoadReport, RecordSchema, apply_normalize, batch_iter,
                          filter_rare_entities, fit_normalize, load_csv,
                          read_schema_file)
from chadkit.errors import ChadkitError, DataError, SchemaError

from conftest import write_csv, write_schema_json


class TestSchema:
    def test_dimensions(self, small_schema):
        assert small_schema.k == 2 and small_schema.r == 4 and small_schema.d == 6
        assert small_schema.arities == (3, 2)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            RecordSchema(["a"], ["a"])

    def test_vocab_round_trip(self, small_schema):
        for w in range(small_schema.k):
            for value in small_schema.vocabs[w]:
                idx = small_schema.vocabs[w][value]
                assert small_schema.decode_value(w, idx) == value

    def test_hash_stable_and_sensitive(self, small_schema):
        h1 = small_schema.hash()
        assert h1 == small_schema.hash()
        other = RecordSchema(small_schema.cat_fields, small_schema.cont_fields,
                             [{"red": 0, "green": 1}, {"circle": 0, "square": 1}])
        assert other.hash() != h1

    def test_json_round_trip(self, small_schema):
        again = RecordSchema.from_json(small_schema.to_json())
        assert again.hash() == small_schema.hash()

    def test_schema_file_parsing(self, tmp_path, small_schema):
        path = tmp_path / "schema.json"
        write_schema_json(path, small_schema)
        cats, conts = read_schema_file(path)
        assert cats == list(small_schema.cat_fields)
        assert conts == list(small_schema.cont_fields)

    def test_schema_file_unknown_kind(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"a": "categorical", "b": "wat"}))
        with pytest.raises(DataError):
            read_schema_file(path)


class TestLoadCsv:
    def test_three_row_file(self, tmp_path, small_schema, small_dataset):
        path = tmp_path / "t.csv"
        head = small_dataset.subset(np.arange(3))
        write_csv(path, small_schema, head.cat, head.cont)
        fresh = RecordSchema(small_schema.cat_fields, small_schema.cont_fields)
        ds, report = load_csv(path, fresh)
        assert ds.n == 3
        assert report.rows_read == 3 and report.rows_kept == 3

    def test_unknown_category_reject_policy(self, tmp_path, small_schema):
        path = tmp_path / "t.csv"
        path.write_text("color,shape,size,weight,width,height\n"
                        "red,circle,1,2,3,4\n"
                        "mauve,circle,1,2,3,4\n")
        ds, report = load_csv(path, small_schema)
        assert ds.n == 1
        assert report.rows_dropped_unseen == 1

    def test_bad_continuous_cell_names_row_and_column(self, tmp_path, small_schema):
        path = tmp_path / "t.csv"
        path.write_text("color,shape,size,weight,width,height\n"
                        "red,circle,1,abc,3,4\n")
        with pytest.raises(DataError, match=r"row 2.*weight"):
            load_csv(path, small_schema)

    def test_missing_column(self, tmp_path, small_schema):
        path = tmp_path / "t.csv"
        path.write_text("color,size,weight,width,height\nred,1,2,3,4\n")
        # fixed vocabularies are a trained model's: the file does not fit it
        with pytest.raises(SchemaError, match="shape"):
            load_csv(path, small_schema)
        building = RecordSchema(small_schema.cat_fields, small_schema.cont_fields)
        with pytest.raises(DataError, match="shape"):
            load_csv(path, building)

    def test_missing_cell_drops_row(self, tmp_path, small_schema):
        path = tmp_path / "t.csv"
        path.write_text("color,shape,size,weight,width,height\n"
                        "red,circle,1,,3,4\n"
                        "red,circle,1,2,3,4\n")
        ds, report = load_csv(path, small_schema)
        assert ds.n == 1
        assert report.rows_dropped_missing == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_nonfinite_cell_dropped_from_scoring_input(self, tmp_path, small_schema, cell):
        path = tmp_path / "t.csv"
        path.write_text("color,shape,size,weight,width,height\n"
                        "red,circle,1,2,3,4\n"
                        f"red,circle,1,{cell},3,4\n"
                        "blue,square,5,6,7,8\n")
        ds, report = load_csv(path, small_schema)
        assert ds.n == 2 and report.rows_kept == 2
        assert report.rows_dropped_nonfinite == 1
        assert report.rows_dropped_missing == 0
        assert report.to_json()["rows_dropped_nonfinite"] == 1
        assert ds.ids.tolist() == [0, 1]
        assert ds.cont[:, 0].tolist() == [1.0, 5.0]

    @pytest.mark.parametrize("fixed_vocabs", [False, True])
    def test_nonfinite_cell_dropped_and_named(self, tmp_path, small_schema, fixed_vocabs):
        path = tmp_path / "t.csv"
        path.write_text("color,shape,size,weight,width,height\n"
                        "red,circle,1,2,3,4\n"
                        "red,circle,1,nan,inf,4\n"
                        "red,circle,-inf,2,3,4\n")
        schema = small_schema if fixed_vocabs else RecordSchema(small_schema.cat_fields,
                                                                small_schema.cont_fields)
        ds, report = load_csv(path, schema)
        assert ds.n == 1 and report.rows_dropped_nonfinite == 2
        assert report.first_nonfinite == "row 3, column 'weight': 'nan'"

    def test_nonfinite_cell_without_categorical_fields(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("size,weight\n1,inf\n2,3\n")
        schema = RecordSchema([], ["size", "weight"])
        ds, report = load_csv(path, schema)
        assert ds.n == 1 and report.rows_dropped_nonfinite == 1
        assert ds.cont.tolist() == [[2.0, 3.0]]
        assert report.first_nonfinite == "row 2, column 'weight': 'inf'"

    def test_labels_parsed(self, tmp_path, small_schema):
        path = tmp_path / "t.csv"
        path.write_text("color,shape,size,weight,width,height,label\n"
                        "red,circle,1,2,3,4,anomaly\n"
                        "red,circle,1,2,3,4,0\n")
        ds, _ = load_csv(path, small_schema, label_field="label")
        assert ds.labels.tolist() == [1, 0]

    def test_fixed_vocabularies_keep_the_callers_schema(self, tmp_path, small_schema):
        path = tmp_path / "t.csv"
        path.write_text("color,shape,size,weight,width,height\n"
                        "red,circle,1,2,3,4\n"
                        "mauve,circle,1,2,3,4\n")
        ds, _ = load_csv(path, small_schema)
        assert ds.schema is small_schema
        fresh = RecordSchema(small_schema.cat_fields, small_schema.cont_fields)
        built, _ = load_csv(path, fresh)
        assert built.schema is not fresh
        assert fresh.arities == (0, 0) and built.schema.arities == (2, 1)

    def test_vocabulary_built_in_first_appearance_order(self, tmp_path):
        schema = RecordSchema(["c"], ["x"])
        path = tmp_path / "t.csv"
        path.write_text("c,x\nzeta,0\nalpha,1\nzeta,2\n")
        ds, _ = load_csv(path, schema)
        assert ds.schema.vocabs[0] == {"zeta": 0, "alpha": 1}
        assert ds.cat[:, 0].tolist() == [0, 1, 0]


def reference_load_csv(path, schema, label_field=None):
    """Row-at-a-time reader with load_csv's contract, kept as its oracle."""
    with open(path, newline="", encoding="utf-8") as f:
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

    report = LoadReport(rows_read=len(rows))
    cat_rows, cont_rows, label_rows = [], [], []
    for line_no, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: row {line_no} has {len(row)} cells, expected {len(header)}")
        if "" in [row[c] for c in cat_cols + cont_cols]:
            report.rows_dropped_missing += 1
            continue
        cat_out = []
        for w, c in enumerate(cat_cols):
            if building and row[c] not in vocabs[w]:
                vocabs[w][row[c]] = len(vocabs[w])
            cat_out.append(vocabs[w].get(row[c]))
        if None in cat_out:
            report.rows_dropped_unseen += 1
            continue
        cont_out = []
        for c, name in zip(cont_cols, schema.cont_fields):
            try:
                cont_out.append(float(row[c]))
            except ValueError:
                raise DataError(f"{path}: row {line_no}, column {name!r}: "
                                f"cannot parse {row[c]!r} as a number") from None
        if not all(map(math.isfinite, cont_out)):
            if report.first_nonfinite is None:
                j = [math.isfinite(v) for v in cont_out].index(False)
                report.first_nonfinite = (f"row {line_no}, column {schema.cont_fields[j]!r}: "
                                          f"{row[cont_cols[j]]!r}")
            report.rows_dropped_nonfinite += 1
            continue
        if label_col is not None:
            norm = row[label_col].strip().lower()
            if norm in ("0", "nominal", "normal"):
                label_rows.append(0)
            elif norm in ("1", "anomaly", "anomalous"):
                label_rows.append(1)
            else:
                raise DataError(f"{path}: row {line_no}: unknown label {row[label_col]!r}")
        cat_rows.append(cat_out)
        cont_rows.append(cont_out)

    out_schema = RecordSchema(schema.cat_fields, schema.cont_fields, vocabs)
    n = len(cat_rows)
    dataset = Dataset(out_schema, np.array(cat_rows, dtype=np.int64).reshape(n, schema.k),
                      np.array(cont_rows, dtype=float).reshape(n, schema.r),
                      labels=np.array(label_rows, dtype=np.int8) if label_col is not None
                      else None)
    report.rows_kept = n
    report.arities = {name: len(v) for name, v in zip(out_schema.cat_fields, vocabs)}
    return dataset, report


# Cells for generated CSVs: vocabulary values, unseen values, quoted commas
# and line breaks, empty cells, non-finite and unparsable numbers.
FREE_TEXT = st.text(alphabet="ab ,\"\n\r", max_size=4)
CAT_CELLS = st.one_of(st.sampled_from(["red", "green", "blue", "circle", "square"]),
                      st.sampled_from(["red", "green", "blue", "circle", "square"]),
                      st.sampled_from(["", "mauve", "a,b", "x\ny", '"q"']), FREE_TEXT)
CONT_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.integers(-5, 5).map(str),
                       st.sampled_from(["", "nan", "inf", "-inf", " 1.5 ", "1e999", "abc",
                                        "1,5", "2\n"]))
LABEL_CELLS = st.sampled_from(["0", "1", " Anomaly", "normal", "0", "1", "", "bad"])
# a row's cell count: usually the header's, sometimes one short or one over
WIDTH_CHANGES = st.sampled_from([0] * 30 + [-1, 1])
CSV_ROWS = st.lists(st.tuples(st.lists(CAT_CELLS, min_size=2, max_size=2),
                              st.lists(CONT_CELLS, min_size=2, max_size=2),
                              LABEL_CELLS, FREE_TEXT, WIDTH_CHANGES),
                    max_size=14)


class TestBlockLoaderMatchesRowReader:
    @settings(max_examples=300, deadline=None)
    @given(rows=CSV_ROWS, block=st.integers(1, 4), fixed_vocabs=st.booleans(),
           with_label=st.booleans())
    def test_same_dataset_report_or_error(self, rows, block, fixed_vocabs, with_label):
        vocabs = [{"red": 0, "green": 1, "blue": 2}, {"circle": 0, "square": 1}] \
            if fixed_vocabs else None
        schema = RecordSchema(["color", "shape"], ["size", "weight"], vocabs)
        label_field = "label" if with_label else None
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            with open(path, "w", newline="", encoding="utf-8") as f:
                writer = csv.writer(f)
                # an unused column, placed between used ones
                writer.writerow(["shape", "note", "size", "color", "label", "weight"])
                for (color, shape), (size, weight), label, note, width in rows:
                    cells = [shape, note, size, color, label, weight]
                    writer.writerow(cells[:len(cells) + width] if width < 0
                                    else cells + ["extra"] * width)
            try:
                want = reference_load_csv(path, schema, label_field)
            except DataError as err:
                want = err
            try:
                with mock.patch.object(data, "LOAD_BLOCK_ROWS", block):
                    got = load_csv(path, schema, label_field)
            except Exception as err:   # noqa: BLE001 - only ChadkitError may escape
                assert isinstance(err, ChadkitError), repr(err)
                got = err
        if isinstance(want, DataError):
            assert isinstance(got, DataError) and str(got) == str(want)
            return
        assert not isinstance(got, Exception), got
        (want_ds, want_report), (got_ds, got_report) = want, got
        assert got_report.to_json() == want_report.to_json()
        assert got_report.first_nonfinite == want_report.first_nonfinite
        assert [list(v.items()) for v in got_ds.schema.vocabs] == \
            [list(v.items()) for v in want_ds.schema.vocabs]
        assert np.array_equal(got_ds.cat, want_ds.cat)
        assert got_ds.cat.dtype == np.int64 and got_ds.cont.dtype == np.float64
        assert np.array_equal(got_ds.cont, want_ds.cont, equal_nan=True)
        assert np.array_equal(got_ds.ids, want_ds.ids)
        if with_label:
            assert np.array_equal(got_ds.labels, want_ds.labels)
        else:
            assert got_ds.labels is None


    @pytest.mark.parametrize("faults, message", [
        (["red,circle,1,2,bad", "red,circle,x,2,0", "red,circle,1,2"],
         r"row 2: unknown label 'bad'"),
        (["red,circle,x,2,0", "red,circle,1,2"], r"row 2, column 'size'"),
        (["red,circle,1,2,0,extra", "red,circle,x,2,0"], r"row 2 has 6 cells"),
    ])
    def test_first_faulty_row_in_block_wins(self, tmp_path, faults, message):
        schema = RecordSchema(["color", "shape"], ["size", "weight"])
        path = tmp_path / "t.csv"
        path.write_text("\n".join(["color,shape,size,weight,label", *faults]) + "\n")
        with pytest.raises(DataError, match=message):
            load_csv(path, schema, label_field="label")


def reference_or_csv_error(path, schema, label_field=None):
    """reference_load_csv, which lets a csv.Error escape, made to end at the
    csv module's first error and raise it as load_csv words it, once the rows
    before it are checked."""
    real, faults = csv.reader, []

    def reader(f):
        rows = real(f)

        def until_error():
            try:
                yield from rows
            except csv.Error as err:
                faults.append(DataError(f"{path}: line {rows.line_num}: {err}"))
        return until_error()

    with mock.patch.object(csv, "reader", reader):
        result = reference_load_csv(path, schema, label_field)
    if faults:
        raise faults[0]
    return result


# Cells of quote-free lines. None holds a comma or a quote, so a line's cell
# count is its comma count plus one, and each is plain unless it holds a NUL,
# ends in a lone CR, is blank or is longer than the csv field limit.
PLAIN_CAT = st.sampled_from(["red", "green", "blue", "circle", "square", "red",
                             "", "mauve", " red", "\x00", "r\x00d"])
PLAIN_CONT = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.integers(-5, 5).map(str),
                       st.sampled_from(["", "nan", "-inf", " 1.5 ", "1e999", "abc", "\x00"]))
PLAIN_NOTE = st.one_of(st.text(alphabet="ab x", max_size=3),
                       st.integers(0, 40).map("x".__mul__))
ENDINGS = st.sampled_from(["\n"] * 6 + ["\r\n"] * 3 + ["\r"])
# a quoted note cell, which hands the rest of the file to csv.reader: plain
# text, a quoted comma, a line break inside quotes (which can span blocks)
QUOTED_NOTES = st.sampled_from(['"n"', '"a,b"', '"x\ny"', '"q""q"', '"x\r\ny'])
PLAIN_ROWS = st.lists(st.tuples(st.lists(PLAIN_CAT, min_size=2, max_size=2),
                                st.lists(PLAIN_CONT, min_size=2, max_size=2),
                                LABEL_CELLS, PLAIN_NOTE, WIDTH_CHANGES, ENDINGS,
                                st.sampled_from([False] * 8 + [True])),
                      max_size=14)


def _same_load(want, got, with_label):
    """load_csv's result ``got`` equals the oracle's ``want``: the same
    DataError text, or the same dataset and report."""
    if isinstance(want, DataError):
        assert isinstance(got, DataError) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    (want_ds, want_report), (got_ds, got_report) = want, got
    assert got_report.to_json() == want_report.to_json()
    assert got_report.first_nonfinite == want_report.first_nonfinite
    assert [list(v.items()) for v in got_ds.schema.vocabs] == \
        [list(v.items()) for v in want_ds.schema.vocabs]
    assert np.array_equal(got_ds.cat, want_ds.cat)
    assert got_ds.cat.dtype == np.int64 and got_ds.cont.dtype == np.float64
    assert np.array_equal(got_ds.cont, want_ds.cont, equal_nan=True)
    assert np.array_equal(got_ds.ids, want_ds.ids)
    assert (got_ds.labels is None) if not with_label else \
        np.array_equal(got_ds.labels, want_ds.labels)


class TestPlainLinesMatchRowReader:
    """The split path for quote-free lines and its hand-over to csv.reader
    give what the row-at-a-time oracle gives."""

    @settings(max_examples=300, deadline=None)
    @given(rows=PLAIN_ROWS, quote_at=st.none() | st.integers(0, 13), quoted=QUOTED_NOTES,
           field_limit=st.sampled_from([None, None, 30, 45]), header_end=ENDINGS,
           final_end=st.booleans(), fixed_vocabs=st.booleans(), with_label=st.booleans())
    def test_same_dataset_report_or_error(self, rows, quote_at, quoted, field_limit,
                                          header_end, final_end, fixed_vocabs, with_label):
        vocabs = [{"red": 0, "green": 1, "blue": 2}, {"circle": 0, "square": 1}] \
            if fixed_vocabs else None
        schema = RecordSchema(["color", "shape"], ["size", "weight"], vocabs)
        label_field = "label" if with_label else None
        lines = ["shape,note,size,color,label,weight" + header_end]
        for i, ((color, shape), (size, weight), label, note, width, end, blank) \
                in enumerate(rows):
            cells = [shape, quoted if i == quote_at else note, size, color, label, weight]
            cells = cells[:len(cells) + width] if width < 0 else cells + ["extra"] * width
            lines += [end] * blank + [",".join(cells) + end]
        if not final_end:
            lines[-1] = lines[-1].rstrip("\r\n")
        old_limit = csv.field_size_limit()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes("".join(lines).encode())
            try:
                csv.field_size_limit(field_limit or old_limit)
                try:
                    want = reference_or_csv_error(path, schema, label_field)
                except DataError as err:
                    want = err
                for block in (1, 2, 3, 4):
                    try:
                        with mock.patch.object(data, "LOAD_BLOCK_ROWS", block):
                            got = load_csv(path, schema, label_field)
                    except Exception as err:   # noqa: BLE001 - only ChadkitError may escape
                        assert isinstance(err, ChadkitError), repr(err)
                        got = err
                    _same_load(want, got, with_label)
            finally:
                csv.field_size_limit(old_limit)

    @pytest.mark.parametrize("text", ["x\n1\n2", "x\n1\n\n2\n", "x\r\n1\r\n\r\n", "x\n\n"])
    def test_one_column_file_with_blank_lines(self, tmp_path, text):
        # a blank line is a row of no cells to csv.reader, and has no comma
        # to miscount in a one-column file
        schema = RecordSchema([], ["x"])
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        try:
            want = reference_load_csv(path, schema)
        except DataError as err:
            want = err
        for block in (1, 2, 3, 4):
            try:
                with mock.patch.object(data, "LOAD_BLOCK_ROWS", block):
                    got = load_csv(path, schema)
            except DataError as err:
                got = err
            _same_load(want, got, with_label=False)

    @pytest.mark.parametrize("quoted", [False, True])
    def test_quote_free_file_reads_no_row_through_csv_reader(self, tmp_path, small_schema,
                                                              quoted):
        path = tmp_path / "t.csv"
        row = '"red",circle,1,2,3,4' if quoted else "red,circle,1,2,3,4"
        path.write_text("color,shape,size,weight,width,height\r\n"
                        + "red,circle,1,2,3,4\r\n" * 7 + row + "\n")
        readers, real = [], csv.reader

        def reader(source):
            readers.append(real(source))
            return readers[-1]

        with mock.patch.object(data, "LOAD_BLOCK_ROWS", 3), \
                mock.patch.object(csv, "reader", reader):
            ds, report = load_csv(path, small_schema)
        assert ds.n == report.rows_read == 8
        # the header's reader read one line; a hand-over makes one more reader
        assert readers[0].line_num == 1
        assert len(readers) == (2 if quoted else 1)

    @pytest.mark.parametrize("quote", [False, True])
    @pytest.mark.parametrize("block", [1, 7, 16384])
    def test_undecodable_line_after_many_plain_ones(self, tmp_path, small_schema,
                                                     quote, block):
        # past the text decoder's first chunk, so the fault surfaces mid-file
        rows = [b"red,circle,1,2,3,4"] * 900
        if quote:
            rows[300] = b'"red",circle,1,2,3,4'
        rows[800] = b"r\xe9d,circle,1,2,3,4"
        path = tmp_path / "t.csv"
        path.write_bytes(b"\n".join([b"color,shape,size,weight,width,height", *rows]) + b"\n")
        with mock.patch.object(data, "LOAD_BLOCK_ROWS", block), \
                pytest.raises(DataError, match="line 802 is not valid UTF-8"):
            load_csv(path, small_schema)
        rows[350] = b"red,circle,1,2,3"
        path.write_bytes(b"\n".join([b"color,shape,size,weight,width,height", *rows]) + b"\n")
        with mock.patch.object(data, "LOAD_BLOCK_ROWS", block), \
                pytest.raises(DataError, match="row 352 has 5 cells"):
            load_csv(path, small_schema)


class TestHostileBytes:
    HEADER = "color,shape,size,weight,width,height\n"

    def test_field_past_csv_limit_is_data_error(self, tmp_path, small_schema):
        path = tmp_path / "t.csv"
        path.write_text(self.HEADER + "red,circle,1,2,3,4\n"
                        + "red," + "x" * (csv.field_size_limit() + 1) + ",1,2,3,4\n")
        with pytest.raises(DataError, match=r"line 3: field larger than field limit"):
            load_csv(path, small_schema)

    def test_earlier_faulty_row_wins_over_csv_error(self, tmp_path, small_schema):
        path = tmp_path / "t.csv"
        path.write_text(self.HEADER + "red,circle,1,2,3\n"
                        + "red," + "x" * (csv.field_size_limit() + 1) + ",1,2,3,4\n")
        with pytest.raises(DataError, match=r"row 2 has 5 cells"):
            load_csv(path, small_schema)

    @pytest.mark.parametrize("lines, line", [
        ([b"\xff\xfe"], 1),
        ([b"color,shape,size,weight,width,height", b"red,circle,1,2,3,4",
          b"r\xe9d,circle,1,2,3,4"], 3),
    ])
    def test_non_utf8_bytes_are_data_error(self, tmp_path, small_schema, lines, line):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(DataError, match=rf"line {line} is not valid UTF-8"):
            load_csv(path, small_schema)


class TestFilterRare:
    def _dataset(self, values):
        schema = RecordSchema(["c"], ["x"], [{v: i for i, v in
                                              enumerate(dict.fromkeys(values))}])
        cat = np.array([[schema.vocabs[0][v]] for v in values])
        cont = np.arange(len(values), dtype=float).reshape(-1, 1)
        return Dataset(schema, cat, cont)

    def test_min_count_one_is_identity(self, small_dataset):
        out = filter_rare_entities(small_dataset, 1)
        assert out.n == small_dataset.n
        assert np.array_equal(out.cat, small_dataset.cat)

    def test_single_occurrence_removed(self):
        ds = self._dataset(["a", "a", "b"])
        out = filter_rare_entities(ds, 2)
        assert out.n == 2
        assert out.schema.arities == (1,)

    def test_survivors_match_brute_force_count(self):
        rng = np.random.default_rng(5)
        values = [f"v{i}" for i in rng.integers(0, 12, size=200)]
        ds = self._dataset(values)
        min_count = 15
        out = filter_rare_entities(ds, min_count)

        # brute-force oracle: repeatedly drop rows whose value is rare
        rows = list(values)
        while True:
            counts = collections.Counter(rows)
            keep = [v for v in rows if counts[v] >= min_count]
            if len(keep) == len(rows):
                break
            rows = keep
        assert out.n == len(rows)

    def test_idempotent_after_cascade(self):
        # dropping b's rare-partner rows pushes a below threshold in one pass
        values = ["a", "a", "a", "b", "b", "b"]
        schema = RecordSchema(["c", "d"], [],
                              [{"a": 0, "b": 1}, {"x": 0, "y": 1, "z": 2}])
        cat = np.array([[0, 0], [0, 0], [0, 1], [1, 0], [1, 0], [1, 0]])
        ds = Dataset(schema, cat, np.zeros((6, 0)))
        out = filter_rare_entities(ds, 3)
        again = filter_rare_entities(out, 3)
        assert out.n == again.n
        assert np.array_equal(out.cat, again.cat)
        # surviving rows all carry values meeting the threshold
        for w in range(out.schema.k):
            counts = np.bincount(out.cat[:, w])
            assert np.all(counts[out.cat[:, w]] >= 3)

    def test_vocab_rebuilt(self):
        ds = self._dataset(["a", "b", "b", "c", "c"])
        out = filter_rare_entities(ds, 2)
        assert set(out.schema.vocabs[0]) == {"b", "c"}
        assert out.schema.arities == (2,)

    def test_rebuilt_rows_decode_to_their_values_in_old_index_order(self):
        rng = np.random.default_rng(7)
        arities = (5, 9, 24)
        names = [rng.permutation([f"f{w}_{j}" for j in range(a)]).tolist()
                 for w, a in enumerate(arities)]
        schema = RecordSchema(["a", "b", "c"], [], [{v: i for i, v in enumerate(n)}
                                                     for n in names])
        cat = np.stack([rng.integers(0, a, 300) for a in arities], axis=1)
        ds = Dataset(schema, cat, np.zeros((300, 0)))
        out = filter_rare_entities(ds, 12)
        assert 0 < out.n < ds.n
        for w in range(schema.k):
            vocab, old = out.schema.vocabs[w], ds.cat[out.ids, w]
            # new indices follow the surviving values' old indices
            assert [schema.vocabs[w][v] for v in sorted(vocab, key=vocab.get)] == \
                np.unique(old).tolist()
            assert [out.schema.decode_value(w, i) for i in out.cat[:, w]] == \
                [schema.decode_value(w, i) for i in old]


class TestNormalize:
    def _cont_dataset(self, values):
        values = np.asarray(values, dtype=float)
        schema = RecordSchema([], [f"x{j}" for j in range(values.shape[1])])
        return Dataset(schema, np.zeros((len(values), 0), dtype=np.int64), values)

    def test_affine_endpoints(self):
        ds = self._cont_dataset([[0.0], [5.0], [10.0]])
        stats = fit_normalize(ds)
        out = apply_normalize(stats, ds)
        assert out.cont[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_field_maps_to_half_with_warning(self):
        ds = self._cont_dataset([[3.0], [3.0]])
        with pytest.warns(UserWarning, match="constant"):
            stats = fit_normalize(ds)
        out = apply_normalize(stats, ds)
        assert np.all(out.cont == 0.5)

    def test_out_of_range_extends_without_clamp(self):
        train = self._cont_dataset([[0.0], [10.0]])
        stats = fit_normalize(train)
        test = self._cont_dataset([[12.0]])
        assert apply_normalize(stats, test).cont[0, 0] == pytest.approx(1.2)

    def test_own_fit_set_lands_in_unit_interval(self):
        rng = np.random.default_rng(9)
        ds = self._cont_dataset(rng.normal(size=(50, 3)) * 7 + 3)
        out = apply_normalize(fit_normalize(ds), ds)
        assert out.cont.min() >= 0.0 and out.cont.max() <= 1.0

    def test_stats_json_round_trip(self):
        from chadkit.data import NormalizationStats
        stats = NormalizationStats(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        again = NormalizationStats.from_json(stats.to_json())
        assert np.array_equal(again.mins, stats.mins)
        assert np.array_equal(again.maxs, stats.maxs)


class TestBatchIter:
    def test_partial_final_batch(self):
        sizes = [len(b) for b in batch_iter(10, 4, seed=0)]
        assert sizes == [4, 4, 2]

    def test_same_seed_identical(self):
        a = np.concatenate(list(batch_iter(20, 6, seed=3)))
        b = np.concatenate(list(batch_iter(20, 6, seed=3)))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = np.concatenate(list(batch_iter(50, 7, seed=1)))
        b = np.concatenate(list(batch_iter(50, 7, seed=2)))
        assert not np.array_equal(a, b)

    def test_covers_every_index_once(self):
        idx = np.concatenate(list(batch_iter(33, 8, seed=5)))
        assert sorted(idx.tolist()) == list(range(33))

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(batch_iter(5, 0, seed=0))
