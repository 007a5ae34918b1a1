import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chadkit.data import NormalizationStats, RecordSchema
from chadkit.errors import ChadkitError, DataError
from chadkit.model import ChadModel, ModelConfig
from chadkit.persist import FORMAT_VERSION, load_model, save_model


@pytest.fixture
def model_and_stats(small_schema):
    model = ChadModel(small_schema, ModelConfig(encoder_sizes=(10, 5)),
                      np.random.default_rng(21))
    stats = NormalizationStats(np.zeros(4), np.ones(4) * 2.0)
    return model, stats


class TestRoundTrip:
    def test_bitwise_parameter_round_trip(self, tmp_path, model_and_stats):
        model, stats = model_and_stats
        path = tmp_path / "m.chad"
        save_model(path, model, stats)
        loaded, loaded_stats = load_model(path)
        orig = model.params()
        again = loaded.params()
        assert set(orig) == set(again)
        for key in orig:
            assert np.array_equal(orig[key], again[key]), key
        assert np.array_equal(stats.mins, loaded_stats.mins)
        assert np.array_equal(stats.maxs, loaded_stats.maxs)
        assert loaded.schema.hash() == model.schema.hash()

    def test_saving_twice_is_byte_identical(self, tmp_path, model_and_stats):
        model, stats = model_and_stats
        p1, p2 = tmp_path / "a.chad", tmp_path / "b.chad"
        save_model(p1, model, stats)
        save_model(p2, model, stats)
        assert p1.read_bytes() == p2.read_bytes()

    def test_scores_survive_round_trip(self, tmp_path, model_and_stats,
                                       small_dataset):
        model, stats = model_and_stats
        path = tmp_path / "m.chad"
        save_model(path, model, stats)
        loaded, _ = load_model(path)
        a = model.score_records(small_dataset.cat, small_dataset.cont)
        b = loaded.score_records(small_dataset.cat, small_dataset.cont)
        assert np.array_equal(a, b)


    def test_failed_write_keeps_old_file_and_leaves_no_temporary(
            self, tmp_path, model_and_stats, monkeypatch):
        model, stats = model_and_stats
        path = tmp_path / "m.chad"
        save_model(path, model, stats)
        before = path.read_bytes()
        model.flat += 1.0   # other bytes than the file on disk

        def disk_error(fd):
            raise OSError("disk error")
        # fails after the header and the whole payload are written
        monkeypatch.setattr("chadkit.persist.os.fsync", disk_error)
        with pytest.raises(OSError, match="disk error"):
            save_model(path, model, stats)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.chad"]


class TestFileLayout:
    def test_header_prefix_and_payload_alignment(self, tmp_path, model_and_stats):
        model, stats = model_and_stats
        path = tmp_path / "m.chad"
        save_model(path, model, stats)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[:8])
        header = json.loads(blob[8:8 + header_len].decode())
        assert header["format_version"] == FORMAT_VERSION
        assert header["schema_hash"] == model.schema.hash()
        total = sum(int(np.prod(e["shape"])) for e in header["params"])
        assert len(blob) - 8 - header_len == total * 8

    def test_payload_is_little_endian_float64(self, tmp_path, model_and_stats):
        model, stats = model_and_stats
        path = tmp_path / "m.chad"
        save_model(path, model, stats)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[:8])
        header = json.loads(blob[8:8 + header_len].decode())
        first = header["params"][0]
        count = int(np.prod(first["shape"]))
        raw = np.frombuffer(blob[8 + header_len:8 + header_len + count * 8],
                            dtype="<f8")
        assert np.array_equal(raw.reshape(first["shape"]),
                              model.params()[first["name"]])


class TestCorruptFiles:
    def test_truncated_header(self, tmp_path, model_and_stats):
        model, stats = model_and_stats
        path = tmp_path / "m.chad"
        save_model(path, model, stats)
        (tmp_path / "cut.chad").write_bytes(path.read_bytes()[:12])
        with pytest.raises(DataError, match="truncated"):
            load_model(tmp_path / "cut.chad")

    def test_truncated_payload(self, tmp_path, model_and_stats):
        model, stats = model_and_stats
        path = tmp_path / "m.chad"
        save_model(path, model, stats)
        blob = path.read_bytes()
        (tmp_path / "cut.chad").write_bytes(blob[:len(blob) - 16])
        with pytest.raises(DataError, match="truncated"):
            load_model(tmp_path / "cut.chad")

    def test_unsupported_version(self, tmp_path, model_and_stats):
        model, stats = model_and_stats
        path = tmp_path / "m.chad"
        save_model(path, model, stats)
        blob = bytearray(path.read_bytes())
        (header_len,) = struct.unpack("<Q", bytes(blob[:8]))
        header = json.loads(bytes(blob[8:8 + header_len]).decode())
        header["format_version"] = 999
        new_header = json.dumps(header, sort_keys=True,
                                separators=(",", ":")).encode()
        out = struct.pack("<Q", len(new_header)) + new_header + bytes(
            blob[8 + header_len:])
        (tmp_path / "v999.chad").write_bytes(out)
        with pytest.raises(DataError, match="version"):
            load_model(tmp_path / "v999.chad")

    def _with_header(self, tmp_path, model_and_stats, edit):
        """A saved model whose header bytes are replaced by ``edit(header)``."""
        model, stats = model_and_stats
        path = tmp_path / "m.chad"
        save_model(path, model, stats)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[:8])
        new_header = edit(json.loads(blob[8:8 + header_len].decode()))
        bad = tmp_path / "bad.chad"
        bad.write_bytes(struct.pack("<Q", len(new_header)) + new_header
                        + blob[8 + header_len:])
        return bad

    def test_header_length_past_end_of_file(self, tmp_path, model_and_stats):
        model, stats = model_and_stats
        path = tmp_path / "m.chad"
        save_model(path, model, stats)
        bad = tmp_path / "huge.chad"
        bad.write_bytes(struct.pack("<Q", 2**62) + path.read_bytes()[8:])
        with pytest.raises(DataError, match="truncated model header"):
            load_model(bad)

    def test_header_not_utf8(self, tmp_path, model_and_stats):
        bad = self._with_header(tmp_path, model_and_stats, lambda h: b"\xff\xfe{}")
        with pytest.raises(DataError, match="UTF-8 JSON"):
            load_model(bad)

    @pytest.mark.parametrize("text", [b"{not json", b"[1, 2]"])
    def test_header_not_a_json_object(self, tmp_path, model_and_stats, text):
        bad = self._with_header(tmp_path, model_and_stats, lambda h: text)
        with pytest.raises(DataError, match="JSON"):
            load_model(bad)

    def test_header_key_missing(self, tmp_path, model_and_stats):
        def drop_config(header):
            del header["model_config"]
            return json.dumps(header).encode()
        bad = self._with_header(tmp_path, model_and_stats, drop_config)
        with pytest.raises(DataError, match="malformed model header"):
            load_model(bad)

    @pytest.mark.parametrize("key, value", [
        ("schema", 5),
        ("normalization", {"mins": "abc", "maxs": [1.0]}),
        ("params", [{"name": "ae.enc.0.W", "shape": "x"}]),
        ("model_config", {"encoder_sizes": [8, -4], "embed_cap": 32,
                          "cont_threshold": 32, "g_dim": 32, "dropout_ae": 0.2,
                          "dropout_est": 0.1}),
        # the saved config plus an unknown key, or less a key with a default
        ("model_config", {"encoder_sizes": [10, 5], "embed_cap": 32,
                          "cont_threshold": 32, "g_dim": 32, "dropout_ae": 0.2,
                          "dropout_est": 0.1, "width": 7}),
        ("model_config", {"encoder_sizes": [10, 5], "embed_cap": 32,
                          "cont_threshold": 32, "g_dim": 32, "dropout_ae": 0.2}),
    ])
    def test_header_key_mistyped(self, tmp_path, model_and_stats, key, value):
        bad = self._with_header(tmp_path, model_and_stats,
                                lambda h: json.dumps({**h, key: value}).encode())
        with pytest.raises(DataError, match="malformed model header"):
            load_model(bad)

    @pytest.mark.parametrize("key, edit", [
        ("transform_spec", lambda h: {**h["transform_spec"], "g_dim": 7}),
        ("transform_spec", lambda h: {**h["transform_spec"], "cont_mode": "linear"}),
        ("schema_hash", lambda h: "0" * 64),
    ], ids=["g_dim", "cont_mode", "schema_hash"])
    def test_header_entry_contradicts_schema_and_config(self, tmp_path, model_and_stats,
                                                        key, edit):
        # both entries follow from "schema" and "model_config", so a reader
        # refuses a header where they say something else
        bad = self._with_header(tmp_path, model_and_stats,
                                lambda h: json.dumps({**h, key: edit(h)}).encode())
        with pytest.raises(DataError, match=f"header's {key} does not match"):
            load_model(bad)

    def test_params_list_must_equal_the_models(self, tmp_path, model_and_stats):
        def swap_first_two(header):
            params = header["params"]
            params[0], params[1] = params[1], params[0]
            return json.dumps(header).encode()
        bad = self._with_header(tmp_path, model_and_stats, swap_first_two)
        with pytest.raises(DataError, match="parameter list does not match"):
            load_model(bad)

    @pytest.mark.parametrize("sizes", [[30000, 30000], [10**15, 2], [11, 5]])
    def test_layer_sizes_past_payload_rejected_before_allocating(
            self, tmp_path, model_and_stats, sizes, monkeypatch):
        def edit(header):
            header["model_config"]["encoder_sizes"] = sizes
            return json.dumps(header).encode()
        bad = self._with_header(tmp_path, model_and_stats, edit)

        def no_model(*args, **kwargs):
            raise AssertionError("model built from unchecked sizes")
        monkeypatch.setattr("chadkit.persist.ChadModel", no_model)
        with pytest.raises(DataError, match="truncated payload"):
            load_model(bad)


class TestNonFiniteContents:
    """A non-finite weight or bound would score every row as nan without a
    word, so load_model refuses it and names it."""

    @pytest.mark.parametrize("name, value", [("ae.enc.0.W", math.nan), ("est.1.b", math.nan),
                                             ("ae.dec.0.W", math.nan),
                                             ("ae.emb.1", math.inf), ("est.0.W", -math.inf)])
    def test_non_finite_parameter_refused(self, tmp_path, model_and_stats, name, value):
        model, stats = model_and_stats
        model.params()[name].flat[-1] = value
        save_model(tmp_path / "m.chad", model, stats)
        with pytest.raises(DataError, match=f"parameter {name} holds a non-finite value"):
            load_model(tmp_path / "m.chad")

    @pytest.mark.parametrize("key, index, value", [("mins", 0, math.nan),
                                                   ("maxs", 2, math.inf)])
    def test_non_finite_normalization_bound_refused(self, tmp_path, model_and_stats,
                                                    key, index, value):
        model, stats = model_and_stats
        getattr(stats, key)[index] = value
        save_model(tmp_path / "m.chad", model, stats)
        with pytest.raises(DataError, match=rf"normalization.{key}\[{index}\] is not finite"):
            load_model(tmp_path / "m.chad")


    def test_normalization_of_another_width_refused(self, tmp_path, model_and_stats):
        # it used to load, and then scoring failed with a broadcast traceback
        model, _ = model_and_stats
        save_model(tmp_path / "m.chad", model, NormalizationStats(np.zeros(3), np.ones(3)))
        with pytest.raises(DataError, match="one range per continuous field"):
            load_model(tmp_path / "m.chad")

    def test_normalization_range_wider_than_float64_refused(self, tmp_path, model_and_stats):
        model, stats = model_and_stats
        stats.mins[1], stats.maxs[1] = -1.7e308, 1.7e308
        save_model(tmp_path / "m.chad", model, stats)
        with pytest.raises(DataError, match="range of 'weight' is wider than float64 holds"):
            load_model(tmp_path / "m.chad")


@pytest.fixture(scope="module")
def model_bytes(tmp_path_factory):
    schema = RecordSchema(["color", "shape"], ["size", "weight", "width", "height"],
                          [{"red": 0, "green": 1, "blue": 2}, {"circle": 0, "square": 1}])
    model = ChadModel(schema, ModelConfig(encoder_sizes=(10, 5)), np.random.default_rng(21))
    path = tmp_path_factory.mktemp("fuzz") / "m.chad"
    save_model(path, model, NormalizationStats(np.zeros(4), np.ones(4) * 2.0))
    return path.read_bytes()


# edge values are drawn often, not left to the tails of the strategies
JSON_VALUES = st.sampled_from([math.inf, -math.inf, math.nan, -1, 0, 2**64, "", []]) \
    | st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8)


def _header_paths(obj, prefix=()):
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _header_paths(value, prefix + (key,))


class TestFuzzedModelFiles:
    """Whatever the bytes, load_model returns a model or raises a ChadkitError."""

    @staticmethod
    def _load(blob):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzzed.chad"
            path.write_bytes(blob)
            try:
                load_model(path)
            except Exception as err:   # noqa: BLE001 - only ChadkitError may escape
                assert isinstance(err, ChadkitError), repr(err)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_byte_mutations(self, model_bytes, data):
        blob = bytearray(model_bytes)
        # the header and its length prefix are where the parsing happens
        header_end = 8 + struct.unpack("<Q", model_bytes[:8])[0]
        for pos, byte in data.draw(st.lists(st.tuples(st.integers(0, header_end - 1),
                                                      st.integers(0, 255)), max_size=4)):
            blob[pos] = byte
        cut = data.draw(st.none() | st.integers(0, len(blob)))
        self._load(bytes(blob[:cut]) + data.draw(st.binary(max_size=16)))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_header_value_mutations(self, model_bytes, data):
        header_len = struct.unpack("<Q", model_bytes[:8])[0]
        header = json.loads(model_bytes[8:8 + header_len])
        paths = sorted(_header_paths(header), key=str)
        for path in data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3)):
            obj = header
            try:
                for key in path[:-1]:
                    obj = obj[key]
                obj[path[-1]] = data.draw(JSON_VALUES)
            except (KeyError, IndexError, TypeError):
                continue   # an earlier mutation replaced a parent of this path
        blob = json.dumps(header).encode()
        self._load(struct.pack("<Q", len(blob)) + blob + model_bytes[8 + header_len:])
