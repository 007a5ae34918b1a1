"""Dense-network substrate: layers, dropout, MSE, Adam, gradient checking.

Everything is plain float64 numpy with explicit forward caches and manual
backward passes. There is no graph autodiff; each component knows how to
push a gradient back through itself.
"""
from __future__ import annotations

import numpy as np
from scipy.special import expit

from .errors import TrainingDiverged

Array = np.ndarray

ACTIVATIONS = ("tanh", "sigmoid")

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> Array:
    """Symmetric uniform init in +/- sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class DenseLayer:
    """Affine map plus a fixed activation.

    Weights are stored as (out_dim, in_dim); forward works on batches shaped
    (n, in_dim). ``forward`` returns a cache that ``backward`` consumes.
    """

    def __init__(self, in_dim: int, out_dim: int, activation: str,
                 rng: np.random.Generator):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.W = glorot_uniform(rng, in_dim, out_dim, (out_dim, in_dim))
        self.b = np.zeros(out_dim)

    def forward(self, x: Array):
        """Activations of a 2-D float64 batch ``x`` of width ``in_dim``, and
        the cache for ``backward``. The width is not checked here: a
        ``DenseStack`` chains layers whose widths match by construction."""
        a = x @ self.W.T
        a += self.b
        if self.activation == "tanh":
            np.tanh(a, out=a)
        else:
            expit(a, out=a)
        # the activation output is enough to form d(act)/dz for both
        return a, (x, a)

    def backward(self, cache, grad_out: Array):
        x, a = cache
        if self.activation == "tanh":
            gz = grad_out * (1.0 - a * a)
        else:
            gz = grad_out * a * (1.0 - a)
        grads = {"W": gz.T @ x, "b": gz.sum(axis=0)}
        return gz @ self.W, grads


def dropout_mask(rng: np.random.Generator, shape, rate: float) -> Array:
    """Mask of keep-scales: each unit kept with probability 1 - rate and
    scaled by 1 / (1 - rate)."""
    return (rng.random(shape) >= rate) / (1.0 - rate)


class DenseStack:
    """A sequence of dense layers with dropout after each hidden activation.

    ``activations`` gives one activation name per layer. Dropout is applied
    after every layer except the last when ``forward`` is passed a dropout
    ``rng``, and only then.
    """

    def __init__(self, sizes, activations, dropout: float, rng: np.random.Generator):
        if len(activations) != len(sizes) - 1:
            raise ValueError("need one activation per layer")
        if not (0.0 <= dropout < 1.0):
            raise ValueError(f"dropout rate must be in [0, 1), got {dropout}")
        self.dropout = dropout
        self.layers = [
            DenseLayer(sizes[i], sizes[i + 1], activations[i], rng)
            for i in range(len(sizes) - 1)
        ]

    def forward(self, x: Array, rng: np.random.Generator | None = None):
        drop = rng is not None and self.dropout > 0.0
        caches = []
        out = x
        for i, layer in enumerate(self.layers):
            out, cache = layer.forward(out)
            mask = None
            if drop and i < len(self.layers) - 1:
                mask = dropout_mask(rng, out.shape, self.dropout)
                out = out * mask
            caches.append((cache, mask))
        return out, caches

    def backward(self, caches, grad_out: Array):
        grads: dict[str, Array] = {}
        g = grad_out
        for i in range(len(self.layers) - 1, -1, -1):
            cache, mask = caches[i]
            if mask is not None:
                g = g * mask
            g, layer_grads = self.layers[i].backward(cache, g)
            grads[f"{i}.W"] = layer_grads["W"]
            grads[f"{i}.b"] = layer_grads["b"]
        return g, grads

    def params(self) -> dict[str, Array]:
        out = {}
        for i, layer in enumerate(self.layers):
            out[f"{i}.W"] = layer.W
            out[f"{i}.b"] = layer.b
        return out

    def bind(self, views: dict[str, Array]):
        """Point every layer's parameters at the same-named arrays of ``views``."""
        for i, layer in enumerate(self.layers):
            layer.W, layer.b = views[f"{i}.W"], views[f"{i}.b"]


def mse_loss(x: Array, x_hat: Array) -> float:
    """Mean squared error over every element of two same-shaped float arrays."""
    diff = x - x_hat
    return float(np.mean(diff * diff))


def mse_loss_backward(x: Array, x_hat: Array):
    """Gradients of mse_loss with respect to (x, x_hat)."""
    g = 2.0 * (x - x_hat) / x.size
    return g, -g


def strip_prefix(named: dict[str, Array], prefix: str) -> dict[str, Array]:
    """The entries of ``named`` whose name starts with ``prefix``, without it."""
    return {k[len(prefix):]: v for k, v in named.items() if k.startswith(prefix)}


def pack(params: dict[str, Array]) -> tuple[Array, dict[str, Array]]:
    """One contiguous float64 vector holding ``params`` flattened C-order in
    sorted-name order, and a name -> view map into it with each parameter's
    shape and values. An owner that adopts the views (``bind``) can be
    stepped in place by an ``Adam`` over the vector."""
    names = sorted(params)
    flat = np.concatenate([params[name].ravel() for name in names])
    views, offset = {}, 0
    for name in names:
        views[name] = flat[offset:offset + params[name].size].reshape(params[name].shape)
        offset += params[name].size
    return flat, views


class Adam:
    """Bias-corrected Adam over one contiguous float64 vector, ``flat``, which
    ``step`` updates in place; ``params`` maps each name to its view into
    ``flat``, laid out as ``pack`` lays them."""

    def __init__(self, flat: Array, params: dict[str, Array], lr: float):
        if sum(p.size for p in params.values()) != flat.size:
            raise ValueError("the parameter views do not cover the vector")
        self.flat = flat
        self.params = params
        self.lr = lr
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self.t = 0
        # the gradients are gathered into a vector laid out like ``flat``
        self._grad, self._grad_views = pack(params)
        self._tmp = np.empty_like(flat)

    def step(self, grads: dict[str, Array]):
        """One update from ``grads``, which holds at least every name of
        ``params`` (other names are ignored)."""
        missing = set(self.params) - set(grads)
        if missing:
            raise ValueError(f"missing gradients for {sorted(missing)}")
        g, tmp, m, v = self._grad, self._tmp, self.m, self.v
        for name, view in self._grad_views.items():
            view[...] = grads[name]
        if not np.isfinite(g).all():
            bad = next(k for k, view in self._grad_views.items() if not np.isfinite(view).all())
            raise TrainingDiverged(f"non-finite gradient for parameter {bad!r}")
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * (g * g)
        np.multiply(m, ADAM_BETA1, out=m)
        np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
        np.add(m, tmp, out=m)
        np.multiply(v, ADAM_BETA2, out=v)
        np.multiply(g, g, out=tmp)
        np.multiply(tmp, 1.0 - ADAM_BETA2, out=tmp)
        np.add(v, tmp, out=v)
        # flat -= (lr * m_hat) / (sqrt(v_hat) + eps); g is free from here on
        np.divide(m, bc1, out=g)
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        np.add(tmp, ADAM_EPS, out=tmp)
        np.multiply(g, self.lr, out=g)
        np.divide(g, tmp, out=g)
        np.subtract(self.flat, g, out=self.flat)


def grad_check(loss_fn, params: dict[str, Array], probe_count: int = 20,
               h: float = 1e-5, rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` takes no arguments, reads the live arrays in ``params`` and
    returns ``(loss, grads)``. It must be deterministic (dropout disabled,
    any noise frozen), since it is re-evaluated at perturbed coordinates.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    _, grads = loss_fn()
    names = sorted(params)
    worst = 0.0
    for _ in range(probe_count):
        name = names[rng.integers(len(names))]
        arr = params[name]
        idx = int(rng.integers(arr.size))
        orig = arr.flat[idx]
        arr.flat[idx] = orig + h
        lp, _ = loss_fn()
        arr.flat[idx] = orig - h
        lm, _ = loss_fn()
        arr.flat[idx] = orig
        fd = (lp - lm) / (2.0 * h)
        # a parameter absent from the grads dict has zero gradient by contract
        analytic = grads[name].flat[idx] if name in grads else 0.0
        rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-5)
        worst = max(worst, rel)
    return worst
