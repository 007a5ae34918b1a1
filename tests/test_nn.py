import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from chadkit.errors import TrainingDiverged
from chadkit.nn import (ADAM_EPS, Adam, DenseLayer, DenseStack, dropout_mask, glorot_uniform,
                        grad_check, mse_loss, mse_loss_backward, pack)

from conftest import exp_is_libm


def _sigmoid(a):
    """The sigmoid layer's output for pre-activations ``a``, with any outer
    numpy error state and Python warnings made errors."""
    layer = DenseLayer(1, 1, "sigmoid", np.random.default_rng(0))
    layer.W, layer.b = np.ones((1, 1)), np.zeros(1)
    with warnings.catch_warnings(), np.errstate(over="raise"):
        warnings.simplefilter("error")
        out, _ = layer.forward(np.asarray(a, dtype=float)[:, None])
    return out[:, 0]


class TestDenseLayer:
    def test_sigmoid_of_zero_is_half(self):
        layer = DenseLayer(3, 4, "sigmoid", np.random.default_rng(0))
        layer.W = np.zeros((4, 3))
        layer.b = np.zeros(4)
        out, _ = layer.forward(np.array([[0.3, -2.0, 5.0]]))
        assert np.allclose(out, 0.5)

    def test_sigmoid_at_its_limits(self):
        a = [-1000, -745.2, -709.79, -709.78, 0, 36.8, 40, 1000, np.inf, -np.inf, np.nan]
        out = _sigmoid(a)
        # exp(709.79) overflows, and expit gives exactly 0 from there down
        assert out[:3].tolist() == [0.0, 0.0, 0.0] and out[-2] == 0.0
        assert out[3] == pytest.approx(5.5778e-309, rel=1e-4)
        assert out[4:9].tolist() == [0.5, 1.0, 1.0, 1.0, 1.0]
        assert np.isnan(out[-1])

    def test_sigmoid_matches_expit(self):
        # the same formula as scipy's expit, which uses libm's exp: equal bits
        # where numpy's exp is libm's, a few ulp apart where it is numpy's own
        a = np.concatenate([[-1000, -745.2, -709.79, -709.78, 0, 36.8, 40, 1000,
                             np.inf, -np.inf],
                            np.random.default_rng(5).normal(scale=20, size=100_000)])
        out, ref = _sigmoid(a), expit(a)
        ulps = np.abs(out.view(np.int64) - ref.view(np.int64))
        assert ulps.max() <= (0 if exp_is_libm() else 4)
        assert np.isnan(_sigmoid([np.nan])[0]) and np.isnan(expit(np.nan))

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

            def loss_fn():
                out, cache = layer.forward(x)
                loss = mse_loss(target, out)
                _, g_out = mse_loss_backward(target, out)
                layer.gW.fill(0.0)
                layer.gb.fill(0.0)
                layer.backward(cache, g_out)
                return loss

            err = grad_check(loss_fn, {"W": layer.W, "b": layer.b},
                             {"W": layer.gW, "b": layer.gb}, probe_count=20, rng=rng)
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

    def test_gradient_signs(self):
        x = np.array([[0.0, 1.0]])
        x_hat = np.array([[1.0, 0.0]])
        gx, gxh = mse_loss_backward(x, x_hat)
        assert np.allclose(gx, [[-1.0, 1.0]])
        assert np.allclose(gxh, [[1.0, -1.0]])


class Arrays:
    """A part of a pack that holds named arrays."""

    def __init__(self, arrays):
        self.arrays = {k: np.array(v, dtype=float) for k, v in arrays.items()}

    def params(self):
        return self.arrays

    def bind(self, views, grads):
        self.arrays = views


def packed_adam(lr, **arrays):
    """An Adam over ``arrays`` packed into one vector, and the name -> view
    maps into the parameters and into the gradients."""
    flat, grad, params, grads = pack({"": Arrays(arrays)})
    return Adam(flat, grad, params, lr), params, grads


class TestAdam:
    def test_zero_gradient_leaves_params_and_advances_t(self):
        opt, params, _ = packed_adam(0.1, p=[1.5, -2.0])
        opt.step()
        assert np.array_equal(params["p"], [1.5, -2.0])
        assert opt.t == 1

    def test_first_step_matches_reference_formula(self):
        # bias-corrected first step: -lr * g / (|g| + eps * sqrt(1 - beta2))
        lr, eps, g = 1e-3, ADAM_EPS, 1.0
        opt, params, grads = packed_adam(lr, p=[0.0])
        grads["p"][0] = g
        opt.step()
        m_hat = (1 - 0.9) * g / (1 - 0.9)
        v_hat = (1 - 0.999) * g * g / (1 - 0.999)
        expected = -lr * m_hat / (math.sqrt(v_hat) + eps)
        assert params["p"][0] == pytest.approx(expected, rel=1e-12)
        assert params["p"][0] == pytest.approx(-1e-3, rel=1e-6)

    def test_constant_gradient_moves_monotonically(self):
        opt, params, grads = packed_adam(0.01, p=[0.0])
        grads["p"][0] = 2.5
        seen = [0.0]
        for _ in range(2):
            opt.step()
            seen.append(params["p"][0])
        assert seen[2] < seen[1] < seen[0]

    def test_non_finite_gradient_aborts(self):
        opt, _, grads = packed_adam(0.1, a=np.zeros(3), p=np.zeros(2))
        grads["a"][...] = 1.0
        grads["p"][...] = [1.0, np.nan]
        with pytest.raises(TrainingDiverged, match="'p'"):
            opt.step()
        assert np.array_equal(opt.flat, np.zeros(5)) and opt.t == 0

    def test_slice_update_matches_per_array_reference_bitwise(self):
        # the reference: the textbook expression per array, fresh temporaries
        rng = np.random.default_rng(3)
        arrays = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=4)}
        opt, params, grad_views = packed_adam(1e-2, **arrays)
        ref = {k: v.copy() for k, v in arrays.items()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v2 = {k: np.zeros_like(v) for k, v in ref.items()}
        for t in range(1, 4):
            grads = {k: rng.normal(size=v.shape) for k, v in ref.items()}
            for k, g in grads.items():
                grad_views[k][...] = g
            opt.step()
            for k, g in grads.items():
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
                v2[k] = 0.999 * v2[k] + (1.0 - 0.999) * (g * g)
                m_hat, v_hat = m[k] / (1.0 - 0.9 ** t), v2[k] / (1.0 - 0.999 ** t)
                ref[k] -= 1e-2 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        for k in ref:
            assert params[k].tobytes() == ref[k].tobytes(), k


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
        params, grads = {"p": np.array([3.0])}, {"p": np.zeros(1)}

        def loss_fn():
            grads["p"][...] = params["p"]
            return 0.5 * params["p"][0] ** 2

        err = grad_check(loss_fn, params, grads, probe_count=5, h=1e-5)
        assert err < 1e-9

    def test_detects_wrong_gradient(self):
        params, grads = {"p": np.array([3.0])}, {"p": np.zeros(1)}

        def loss_fn():
            grads["p"][...] = 2.0 * params["p"]
            return 0.5 * params["p"][0] ** 2

        assert grad_check(loss_fn, params, grads, probe_count=5) > 0.1


class TestDenseStack:
    def test_forward_shapes_and_determinism(self):
        rng = np.random.default_rng(1)
        stack = DenseStack([4, 8, 2], ["tanh", "sigmoid"], dropout=0.2, rng=rng)
        x = rng.normal(size=(5, 4))
        out1, _ = stack.forward(x)
        out2, _ = stack.forward(x)
        assert out1.shape == (5, 2)
        assert np.array_equal(out1, out2)

    def test_dropout_runs_exactly_when_an_rng_is_passed(self):
        stack = DenseStack([3, 8, 1], ["tanh", "sigmoid"], 0.4, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(6, 3))
        plain, caches = stack.forward(x)
        assert all(mask is None for _, mask in caches)
        rng = np.random.default_rng(2)
        dropped, caches = stack.forward(x, rng=rng)
        assert caches[0][1] is not None and caches[1][1] is None
        assert not np.array_equal(plain, dropped)
        # a zero rate draws nothing from the rng
        calm = DenseStack([3, 8, 1], ["tanh", "sigmoid"], 0.0, np.random.default_rng(0))
        state = rng.bit_generator.state
        assert np.array_equal(calm.forward(x, rng=rng)[0], calm.forward(x)[0])
        assert rng.bit_generator.state == state

    def test_glorot_bounds(self):
        rng = np.random.default_rng(0)
        w = glorot_uniform(rng, 10, 30, (30, 10))
        limit = math.sqrt(6.0 / 40.0)
        assert np.all(np.abs(w) <= limit)

    def test_backward_through_frozen_dropout_masks(self):
        # masks depend only on the rng, so reseeding per evaluation makes the
        # dropped loss deterministic and finite-difference checkable
        rng = np.random.default_rng(5)
        stack = DenseStack([4, 6, 5, 2], ["tanh", "tanh", "sigmoid"],
                           dropout=0.35, rng=rng)
        x = rng.normal(size=(9, 4))
        target = rng.random((9, 2))
        _, _, params, grads = pack({"": stack})

        def loss_fn():
            out, caches = stack.forward(x, rng=np.random.default_rng(77))
            loss = mse_loss(target, out)
            _, g_out = mse_loss_backward(target, out)
            stack.zero_grad()
            stack.backward(caches, g_out)
            return loss

        err = grad_check(loss_fn, params, grads, probe_count=30,
                         rng=np.random.default_rng(6))
        assert err < 1e-6

    def test_activation_count_must_match_layers(self):
        with pytest.raises(ValueError):
            DenseStack([3, 4, 2], ["tanh"], 0.0, np.random.default_rng(0))
