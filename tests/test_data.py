import collections
import json

import numpy as np
import pytest

from chadkit.data import (Dataset, RecordSchema, apply_normalize, batch_iter,
                          filter_rare_entities, fit_normalize, load_csv,
                          read_schema_file)
from chadkit.errors import DataError, SchemaError

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
                idx = small_schema.encode_value(w, value)
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
        ds, report = load_csv(path, small_schema, unseen_policy="reject")
        assert ds.n == 1
        assert report.rows_dropped_unseen == 1

    def test_unknown_category_reserve_policy(self, tmp_path, small_schema):
        path = tmp_path / "t.csv"
        path.write_text("color,shape,size,weight,width,height\n"
                        "mauve,circle,1,2,3,4\n")
        ds, report = load_csv(path, small_schema, unseen_policy="reserve")
        assert ds.n == 1
        assert report.rows_dropped_unseen == 0
        assert ds.schema.arities[0] == 4  # reserved index appended

    def test_bad_continuous_cell_names_row_and_column(self, tmp_path, small_schema):
        path = tmp_path / "t.csv"
        path.write_text("color,shape,size,weight,width,height\n"
                        "red,circle,1,abc,3,4\n")
        with pytest.raises(DataError, match=r"row 2.*weight"):
            load_csv(path, small_schema)

    def test_missing_column(self, tmp_path, small_schema):
        path = tmp_path / "t.csv"
        path.write_text("color,size,weight,width,height\nred,1,2,3,4\n")
        with pytest.raises(DataError, match="shape"):
            load_csv(path, small_schema)

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
        ds, report = load_csv(path, small_schema, drop_nonfinite=True)
        assert ds.n == 2 and report.rows_kept == 2
        assert report.rows_dropped_nonfinite == 1
        assert report.rows_dropped_missing == 0
        assert report.to_json()["rows_dropped_nonfinite"] == 1
        assert ds.ids.tolist() == [0, 1]
        assert ds.cont[:, 0].tolist() == [1.0, 5.0]

    @pytest.mark.parametrize("fixed_vocabs", [False, True])
    def test_nonfinite_cell_kept_in_training_input(self, tmp_path, small_schema, fixed_vocabs):
        path = tmp_path / "t.csv"
        path.write_text("color,shape,size,weight,width,height\n"
                        "red,circle,1,nan,3,4\n")
        schema = small_schema if fixed_vocabs else RecordSchema(small_schema.cat_fields,
                                                                small_schema.cont_fields)
        ds, report = load_csv(path, schema)
        assert ds.n == 1 and report.rows_dropped_nonfinite == 0

    def test_nonfinite_cell_without_categorical_fields(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("size,weight\n1,inf\n2,3\n")
        schema = RecordSchema([], ["size", "weight"])
        ds, report = load_csv(path, schema)
        assert ds.n == 2 and report.rows_dropped_nonfinite == 0
        ds, report = load_csv(path, schema, drop_nonfinite=True)
        assert ds.n == 1 and report.rows_dropped_nonfinite == 1
        assert ds.cont.tolist() == [[2.0, 3.0]]

    def test_labels_parsed(self, tmp_path, small_schema):
        path = tmp_path / "t.csv"
        path.write_text("color,shape,size,weight,width,height,label\n"
                        "red,circle,1,2,3,4,anomaly\n"
                        "red,circle,1,2,3,4,0\n")
        ds, _ = load_csv(path, small_schema, label_field="label")
        assert ds.labels.tolist() == [1, 0]

    def test_vocabulary_built_in_first_appearance_order(self, tmp_path):
        schema = RecordSchema(["c"], ["x"])
        path = tmp_path / "t.csv"
        path.write_text("c,x\nzeta,0\nalpha,1\nzeta,2\n")
        ds, _ = load_csv(path, schema)
        assert ds.schema.vocabs[0] == {"zeta": 0, "alpha": 1}
        assert ds.cat[:, 0].tolist() == [0, 1, 0]


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
        assert apply_normalize(stats, test, clamp=True).cont[0, 0] == 1.0

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
