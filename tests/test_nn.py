import math

import numpy as np
import pytest

from chadkit.errors import SchemaError, TrainingDiverged
from chadkit.nn import (ADAM_EPS, Adam, DenseLayer, DenseStack, dropout_mask, glorot_uniform,
                        grad_check, merge_grads, mse_loss, mse_loss_backward)


class TestDenseLayer:
    def test_sigmoid_of_zero_is_half(self):
        layer = DenseLayer(3, 4, "sigmoid", np.random.default_rng(0))
        layer.W = np.zeros((4, 3))
        layer.b = np.zeros(4)
        out, _ = layer.forward(np.array([[0.3, -2.0, 5.0]]))
        assert np.allclose(out, 0.5)

    def test_tanh_matches_scalar_oracle(self):
        layer = DenseLayer(1, 1, "tanh", np.random.default_rng(0))
        layer.W = np.array([[1.0]])
        layer.b = np.array([0.0])
        out, _ = layer.forward(np.array([[0.5]]))
        assert out[0, 0] == pytest.approx(math.tanh(0.5), abs=1e-12)
        assert out[0, 0] == pytest.approx(0.46211716, abs=1e-8)

    def test_outputs_strictly_inside_open_ranges(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 6))
        for act, lo, hi in (("tanh", -1.0, 1.0), ("sigmoid", 0.0, 1.0)):
            layer = DenseLayer(6, 5, act, rng)
            out, _ = layer.forward(x)
            assert np.all(out > lo) and np.all(out < hi)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, 4))
        target = rng.normal(size=(7, 3))
        for act in ("tanh", "sigmoid"):
            layer = DenseLayer(4, 3, act, rng)
            params = {"W": layer.W, "b": layer.b}

            def loss_fn():
                out, cache = layer.forward(x)
                loss = mse_loss(target, out)
                _, g_out = mse_loss_backward(target, out)
                _, grads = layer.backward(cache, g_out)
                return loss, grads

            err = grad_check(loss_fn, params, probe_count=20, rng=rng)
            assert err < 1e-6


class TestMseLoss:
    def test_perfect_reconstruction(self):
        x = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert mse_loss(x, x.copy()) == 0.0

    def test_unit_residuals(self):
        assert mse_loss(np.zeros(2), np.ones(2)) == pytest.approx(1.0)

    def test_hand_evaluated_mean_over_elements(self):
        # one residual of 1 over three elements
        assert mse_loss(np.array([1.0, 2.0, 3.0]),
                        np.array([1.0, 2.0, 4.0])) == pytest.approx(1.0 / 3.0)

    def test_shape_mismatch(self):
        with pytest.raises(SchemaError):
            mse_loss(np.zeros(3), np.zeros(4))

    def test_gradient_signs(self):
        x = np.array([[0.0, 1.0]])
        x_hat = np.array([[1.0, 0.0]])
        gx, gxh = mse_loss_backward(x, x_hat)
        assert np.allclose(gx, [[-1.0, 1.0]])
        assert np.allclose(gxh, [[1.0, -1.0]])


class TestAdam:
    def test_zero_gradient_leaves_params_and_advances_t(self):
        params = {"p": np.array([1.5, -2.0])}
        opt = Adam(params, lr=0.1)
        opt.step({"p": np.zeros(2)})
        assert np.array_equal(params["p"], [1.5, -2.0])
        assert opt.t == 1

    def test_first_step_matches_reference_formula(self):
        # bias-corrected first step: -lr * g / (|g| + eps * sqrt(1 - beta2))
        lr, eps, g = 1e-3, ADAM_EPS, 1.0
        params = {"p": np.array([0.0])}
        Adam(params, lr=lr).step({"p": np.array([g])})
        m_hat = (1 - 0.9) * g / (1 - 0.9)
        v_hat = (1 - 0.999) * g * g / (1 - 0.999)
        expected = -lr * m_hat / (math.sqrt(v_hat) + eps)
        assert params["p"][0] == pytest.approx(expected, rel=1e-12)
        assert params["p"][0] == pytest.approx(-1e-3, rel=1e-6)

    def test_constant_gradient_moves_monotonically(self):
        params = {"p": np.array([0.0])}
        opt = Adam(params, lr=0.01)
        seen = [0.0]
        for _ in range(2):
            opt.step({"p": np.array([2.5])})
            seen.append(params["p"][0])
        assert seen[2] < seen[1] < seen[0]

    def test_non_finite_gradient_aborts(self):
        params = {"p": np.zeros(2)}
        opt = Adam(params, lr=0.1)
        with pytest.raises(TrainingDiverged, match="'p'"):
            opt.step({"p": np.array([1.0, np.nan])})

    def test_optimizer_requires_full_gradient_cover(self):
        opt = Adam({"a": np.zeros(2), "b": np.zeros(2)}, lr=0.1)
        with pytest.raises(ValueError):
            opt.step({"a": np.ones(2)})


class TestDropout:
    def test_rate_zero_and_inference_are_all_ones(self):
        rng = np.random.default_rng(0)
        assert np.all(dropout_mask(rng, (5, 5), 0.0) == 1.0)
        # inference draws no mask at all, whatever the stack's rate
        stack = DenseStack([3, 4, 4, 1], ["tanh", "tanh", "sigmoid"], 0.5, rng)
        _, caches = stack.forward(np.ones((2, 3)))
        assert [mask for _, mask in caches] == [None, None, None]

    def test_rescaled_expectation_matches_raw_activation(self):
        rng = np.random.default_rng(7)
        x = 0.8
        rate = 0.3
        draws = 20_000
        masked = x * dropout_mask(rng, (draws,), rate)
        se = masked.std(ddof=1) / math.sqrt(draws)
        assert abs(masked.mean() - x) < 3 * se


class TestGradCheck:
    def test_quadratic_oracle(self):
        params = {"p": np.array([3.0])}

        def loss_fn():
            return 0.5 * params["p"][0] ** 2, {"p": params["p"].copy()}

        err = grad_check(loss_fn, params, probe_count=5, h=1e-5)
        assert err < 1e-9

    def test_detects_wrong_gradient(self):
        params = {"p": np.array([3.0])}

        def loss_fn():
            return 0.5 * params["p"][0] ** 2, {"p": 2.0 * params["p"]}

        assert grad_check(loss_fn, params, probe_count=5) > 0.1


class TestDenseStack:
    def test_forward_shapes_and_determinism(self):
        rng = np.random.default_rng(1)
        stack = DenseStack([4, 8, 2], ["tanh", "sigmoid"], dropout=0.2, rng=rng)
        x = rng.normal(size=(5, 4))
        out1, _ = stack.forward(x)
        out2, _ = stack.forward(x)
        assert out1.shape == (5, 2)
        assert np.array_equal(out1, out2)

    def test_training_dropout_needs_rng(self):
        stack = DenseStack([3, 3, 1], ["tanh", "sigmoid"], 0.4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            stack.forward(np.zeros((2, 3)), train=True)

    def test_glorot_bounds(self):
        rng = np.random.default_rng(0)
        w = glorot_uniform(rng, 10, 30, (30, 10))
        limit = math.sqrt(6.0 / 40.0)
        assert np.all(np.abs(w) <= limit)

    def test_merge_grads_accumulates(self):
        dst = {"a": np.ones(2)}
        merge_grads(dst, {"a": np.ones(2), "b": np.full(2, 3.0)}, scale=2.0)
        assert np.array_equal(dst["a"], [3.0, 3.0])
        assert np.array_equal(dst["b"], [6.0, 6.0])

    def test_backward_through_frozen_dropout_masks(self):
        # masks depend only on the rng, so reseeding per evaluation makes the
        # dropped loss deterministic and finite-difference checkable
        rng = np.random.default_rng(5)
        stack = DenseStack([4, 6, 5, 2], ["tanh", "tanh", "sigmoid"],
                           dropout=0.35, rng=rng)
        x = rng.normal(size=(9, 4))
        target = rng.random((9, 2))

        def loss_fn():
            out, caches = stack.forward(x, train=True,
                                        rng=np.random.default_rng(77))
            loss = mse_loss(target, out)
            _, g_out = mse_loss_backward(target, out)
            _, grads = stack.backward(caches, g_out)
            return loss, grads

        err = grad_check(loss_fn, stack.params(), probe_count=30,
                         rng=np.random.default_rng(6))
        assert err < 1e-6

    def test_activation_count_must_match_layers(self):
        with pytest.raises(ValueError):
            DenseStack([3, 4, 2], ["tanh"], 0.0, np.random.default_rng(0))
