import math

import numpy as np
import pytest

from chadkit.autoencoder import (Autoencoder, FieldTransform, FoldedEncoder,
                                 default_embed_dim, field_widths)
from chadkit.data import RecordSchema
from chadkit.errors import SchemaError
from chadkit.model import ModelConfig
from chadkit.nn import mse_loss

DEFAULTS = ModelConfig()


def schema_with(arities, r):
    vocabs = [{f"v{i}": i for i in range(a)} for a in arities]
    return RecordSchema([f"c{w}" for w in range(len(arities))],
                        [f"x{j}" for j in range(r)], vocabs)


class TestFieldWidths:
    def test_wide_continuous_block_gets_linear_transform(self):
        schema = schema_with((4,), 40)
        config = ModelConfig(g_dim=24)
        embed_dims, cont_width, mapped = field_widths(schema, config)
        assert mapped and cont_width == 24
        assert embed_dims == (default_embed_dim(4, DEFAULTS.embed_cap),)
        transform = FieldTransform(schema, config, np.random.default_rng(0))
        assert transform.g_weight.shape == (24, 40)
        assert transform.output_dim == default_embed_dim(4, DEFAULTS.embed_cap) + 24

    def test_narrow_continuous_block_stays_identity(self):
        schema = schema_with((4,), 32)
        assert field_widths(schema, DEFAULTS)[1:] == (32, False)
        assert FieldTransform(schema, DEFAULTS, np.random.default_rng(0)).g_weight is None

    def test_embed_dim_default_is_sublinear_and_capped(self):
        cap = DEFAULTS.embed_cap
        assert default_embed_dim(9, cap) == 4
        assert default_embed_dim(50, cap) == 9
        assert default_embed_dim(10_000, cap) == 32
        assert field_widths(schema_with((9, 50, 10_000), 0), DEFAULTS)[0] == (4, 9, 32)

    def test_output_dim_property_over_random_schemas(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            k = int(rng.integers(0, 5))
            r = int(rng.integers(0 if k else 1, 50))
            arities = tuple(int(a) for a in rng.integers(2, 60, size=k))
            schema = schema_with(arities, r)
            embed_dims, cont_width, _ = field_widths(schema, DEFAULTS)
            transform = FieldTransform(schema, DEFAULTS, rng)
            x_t, _ = transform.forward(
                np.array([[rng.integers(0, a) for a in arities]], dtype=np.int64),
                rng.random((1, r)))
            expected_cont = DEFAULTS.g_dim if r > DEFAULTS.cont_threshold else r
            assert cont_width == expected_cont
            assert x_t.shape == (1, sum(embed_dims) + expected_cont)
            assert x_t.shape == (1, transform.output_dim)


class TestFieldTransform:
    def test_identity_embedding_gives_one_hot(self):
        # an arity-3 field gets a 3-wide embedding under embed_cap 3
        schema = schema_with((3,), 0)
        transform = FieldTransform(schema, ModelConfig(embed_cap=3), np.random.default_rng(0))
        transform.embeddings[0] = np.eye(3)
        out, _ = transform.forward(np.array([[1]]), np.zeros((1, 0)))
        assert out.tolist() == [[0.0, 1.0, 0.0]]

    def test_embedding_gradients_touch_only_batch_indices(self):
        schema = schema_with((5,), 2)
        transform = FieldTransform(schema, ModelConfig(embed_cap=4), np.random.default_rng(0))
        cat = np.array([[1], [3], [1]])
        cont = np.random.default_rng(1).random((3, 2))
        x_t, cache = transform.forward(cat, cont)
        transform.backward(cache, np.ones_like(x_t))
        g = transform.embedding_grads[0]
        assert np.all(g[[1, 3]] != 0.0)
        assert np.all(g[[0, 2, 4]] == 0.0)

    def test_embedding_gradients_equal_scatter_add_bitwise(self):
        # the reference: np.add.at, which adds each index's rows in row order
        schema = schema_with((7, 40, 2), 3)
        transform = FieldTransform(schema, DEFAULTS, np.random.default_rng(0))
        rng = np.random.default_rng(4)
        cat = np.stack([rng.integers(0, a, 300) for a in schema.arities], axis=1)
        x_t, cache = transform.forward(cat, rng.random((300, 3)))
        grad = rng.normal(size=x_t.shape)
        transform.backward(cache, grad)
        offset = 0
        for w, e in enumerate(transform.embed_dims):
            want = np.zeros((schema.arities[w], e))
            np.add.at(want, cat[:, w], grad[:, offset:offset + e])
            assert transform.embedding_grads[w].tobytes() == want.tobytes()
            offset += e


class TestAutoencoder:
    def _build(self, arities=(3, 4), r=3, sizes=(8, 4), seed=0):
        schema = schema_with(arities, r)
        config = ModelConfig(encoder_sizes=sizes, dropout_ae=0.2)
        return schema, Autoencoder(schema, config, np.random.default_rng(seed))

    def test_zero_decoder_weights_give_half_everywhere(self):
        _, ae = self._build()
        for layer in ae.decoder.layers:
            layer.W[...] = 0.0
            layer.b[...] = 0.0
        x_hat, _ = ae.decoder.forward(np.random.default_rng(2).normal(size=(4, 4)))
        assert np.allclose(x_hat, 0.5)

    def test_encode_output_dimension(self):
        schema, ae = self._build()
        cat = np.array([[0, 1], [2, 3]])
        cont = np.random.default_rng(3).random((2, 3))
        x_e, _ = ae.encode(cat, cont)
        assert x_e.shape == (2, 4)

    def test_untrained_loss_is_finite_and_bounded(self):
        schema, ae = self._build()
        rng = np.random.default_rng(4)
        cat = np.stack([rng.integers(0, 3, 30), rng.integers(0, 4, 30)], axis=1)
        cont = rng.random((30, 3))
        loss = ae.reconstruction_loss(cat, cont)
        assert 0.0 < loss <= 1.0
        assert math.isfinite(loss)

    def test_perfect_reconstruction_is_zero(self):
        assert mse_loss(np.full((2, 3), 0.4), np.full((2, 3), 0.4)) == 0.0

    def test_single_element_example(self):
        # one record, one feature: squared residual of 0.5 is 0.25
        assert mse_loss(np.array([[0.2]]), np.array([[0.7]])) == pytest.approx(0.25)

    def test_loss_matches_hand_composed_pipeline(self):
        # oracle: run the public encode/decode pieces and form the mean of
        # squared residuals by hand
        schema, ae = self._build()
        rng = np.random.default_rng(5)
        cat = np.stack([rng.integers(0, 3, 2), rng.integers(0, 4, 2)], axis=1)
        cont = rng.random((2, 3))
        loss = ae.reconstruction_loss(cat, cont)
        x_t, _ = ae.transform.forward(cat, cont)
        x_e, _ = ae.encoder.forward(x_t)
        x_hat, _ = ae.decoder.forward(x_e)
        by_hand = float(np.mean((x_t - x_hat) ** 2))
        assert loss == pytest.approx(by_hand, rel=1e-12)

    def test_encode_deterministic_in_inference_mode(self):
        schema, ae = self._build()
        cat = np.array([[1, 2]])
        cont = np.array([[0.1, 0.5, 0.9]])
        a, _ = ae.encode(cat, cont)
        b, _ = ae.encode(cat, cont)
        assert np.array_equal(a, b)

    def test_single_record_gradient_check(self):
        from chadkit.nn import grad_check, pack
        schema, ae = self._build()
        cat = np.array([[1, 2]])
        cont = np.array([[0.15, 0.5, 0.85]])
        _, _, params, grads = pack({"": ae.transform, "enc.": ae.encoder, "dec.": ae.decoder})

        def loss_fn():
            return ae.reconstruction_loss(cat, cont)

        err = grad_check(loss_fn, params, grads, probe_count=25, h=1e-5,
                         rng=np.random.default_rng(6))
        assert err < 1e-4

    def test_decoder_mirrors_encoder_hidden_sizes(self):
        _, ae = self._build(sizes=(16, 8, 4))
        enc_dims = [l.out_dim for l in ae.encoder.layers]
        dec_dims = [l.out_dim for l in ae.decoder.layers]
        assert enc_dims == [16, 8, 4]
        assert dec_dims == [8, 16, ae.transform.output_dim]
        assert ae.decoder.layers[-1].activation == "sigmoid"
        assert all(l.activation == "tanh" for l in ae.decoder.layers[:-1])


# (cat, cont, message) batches that a schema_with((3, 4), 2) model must refuse;
# none of them may be reshaped into records
_GOOD_CAT, _GOOD_CONT = np.zeros((1, 2), dtype=np.int64), np.full((1, 2), 0.5)
BAD_BATCHES = [
    (np.array([[3, 0]]), _GOOD_CONT, r"out of range for field 'c0' \(arity 3\)"),
    (np.array([[0, -1]]), _GOOD_CONT, r"out of range for field 'c1'"),
    (np.array([[0, 4]]), _GOOD_CONT, r"out of range for field 'c1' \(arity 4\)"),
    (np.zeros((2, 1), dtype=np.int64), _GOOD_CONT, r"categorical block has shape \(2, 1\)"),
    (np.zeros((1, 3), dtype=np.int64), _GOOD_CONT, r"categorical block has shape \(1, 3\)"),
    (_GOOD_CAT, np.full((2, 1), 0.5), r"continuous block has shape \(2, 1\)"),
    (_GOOD_CAT, np.full((1, 4), 0.5), r"continuous block has shape \(1, 4\)"),
    (np.zeros((2, 2), dtype=np.int64), _GOOD_CONT, r"row counts differ \(2 and 1\)"),
    (np.zeros(2, dtype=np.int64), _GOOD_CONT, r"categorical block has shape \(2,\)"),
    (_GOOD_CAT, np.full(2, 0.5), r"continuous block has shape \(2,\)"),
]


class TestFoldedEncoder:
    @pytest.mark.parametrize("arities, r", [
        ((3, 7, 12), 5),       # identity continuous block
        ((4, 30), 40),         # r > 32: the continuous block goes through g.W
        ((), 6),               # no categorical fields
    ])
    def test_matches_inference_encode(self, arities, r):
        schema = schema_with(arities, r)
        rng = np.random.default_rng(7)
        ae = Autoencoder(schema, ModelConfig(encoder_sizes=(16, 8, 4)), rng)
        assert (ae.transform.g_weight is not None) == (r > DEFAULTS.cont_threshold)
        for layer in ae.encoder.layers:
            layer.b[...] = rng.normal(size=layer.b.shape)
        n = 50
        cat = np.stack([rng.integers(0, a, n) for a in arities], axis=1) if arities \
            else np.zeros((n, 0), dtype=np.int64)
        cont = rng.random((n, r))
        want, _ = ae.encode(cat, cont)
        got = FoldedEncoder(ae).encode(cat, cont)
        assert got.shape == want.shape == (n, 4)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_out_of_range_index_raises_through_score_records(self):
        from chadkit.model import ChadModel
        model = ChadModel(schema_with((3, 4), 2), ModelConfig(encoder_sizes=(8, 4)),
                          np.random.default_rng(0))
        for cat, cont, message in BAD_BATCHES:
            for entry in (model.score_records, model.encode):
                with pytest.raises(SchemaError, match=message):
                    entry(cat, cont)


def test_bad_batch_raises_through_dataset():
    from chadkit.data import Dataset
    schema = schema_with((3, 4), 2)
    for cat, cont, message in BAD_BATCHES:
        with pytest.raises(SchemaError, match=message):
            Dataset(schema, cat, cont)
    for field in ("ids", "labels"):
        for bad in ([0, 1], [], [[0]]):
            with pytest.raises(SchemaError, match=f"{field} has shape"):
                Dataset(schema, _GOOD_CAT, _GOOD_CONT, **{field: bad})


class TestChunkedScoring:
    @pytest.mark.parametrize("arities, r", [((3, 7, 12), 5), ((), 6)])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunked_passes_match_one_pass(self, arities, r, offset):
        from chadkit.model import SCORE_CHUNK_ROWS, ChadModel
        schema = schema_with(arities, r)
        rng = np.random.default_rng(11)
        model = ChadModel(schema, ModelConfig(encoder_sizes=(16, 8, 4)), rng)
        for layer in model.autoencoder.encoder.layers:
            layer.b[...] = rng.normal(size=layer.b.shape)
        n = SCORE_CHUNK_ROWS + offset
        cat = np.stack([rng.integers(0, a, n) for a in arities], axis=1) if arities \
            else np.zeros((n, 0), dtype=np.int64)
        cont = rng.random((n, r))
        whole = FoldedEncoder(model.autoencoder).encode(cat, cont)
        latents = model.encode(cat, cont)
        scores = model.score_records(cat, cont)
        assert latents.shape == (n, 4) and scores.shape == (n,)
        assert np.max(np.abs(latents - whole)) <= 1e-12
        assert np.max(np.abs(scores - model.estimator.score(whole))) <= 1e-12

    def test_empty_input(self):
        from chadkit.model import ChadModel
        model = ChadModel(schema_with((3,), 2), ModelConfig(encoder_sizes=(8, 4)),
                          np.random.default_rng(0))
        cat, cont = np.zeros((0, 1), dtype=np.int64), np.zeros((0, 2))
        assert model.encode(cat, cont).shape == (0, 4)
        assert model.score_records(cat, cont).shape == (0,)


@pytest.mark.parametrize("arities, r, sizes", [
    ((3, 7, 12), 5, (16, 8, 4)),
    ((4, 30), 40, (12, 6)),    # g.W present
    ((), 6, (5,)),             # no categorical fields, a single encoder layer
])
def test_parameter_count_matches_built_model(arities, r, sizes):
    from chadkit.model import ChadModel, parameter_count
    schema = schema_with(arities, r)
    config = ModelConfig(encoder_sizes=sizes)
    model = ChadModel(schema, config, np.random.default_rng(0))
    assert parameter_count(schema, config) == sum(
        v.size for v in model.params().values())


@pytest.mark.parametrize("field, value", [
    ("embed_cap", 0), ("g_dim", 0), ("dropout_ae", 1.0), ("dropout_ae", -0.1),
    ("dropout_est", 2), ("dropout_est", math.nan),
])
def test_model_config_rejects_out_of_range_fields(field, value):
    # g_dim 0 used to build a zero-width continuous map, so the model ignored
    # every continuous field
    with pytest.raises(ValueError, match=field.split("_")[0]):
        ModelConfig(**{field: value})
