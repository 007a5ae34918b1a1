"""Dense-network substrate: layers, dropout, MSE, Adam, gradient checking.

Everything is plain float64 numpy with explicit forward caches and manual
backward passes. There is no graph autodiff; each component knows how to
push a gradient back through itself.
"""
from __future__ import annotations

import numpy as np
from scipy.special import expit

from .errors import SchemaError, TrainingDiverged

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
        z = x @ self.W.T + self.b
        a = np.tanh(z) if self.activation == "tanh" else expit(z)
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
    after every layer except the last, and only when ``train`` is set.
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

    def forward(self, x: Array, train: bool = False, rng: np.random.Generator | None = None):
        if train and self.dropout > 0.0 and rng is None:
            raise ValueError("training forward with dropout needs an rng")
        caches = []
        out = x
        for i, layer in enumerate(self.layers):
            out, cache = layer.forward(out)
            mask = None
            if train and self.dropout > 0.0 and i < len(self.layers) - 1:
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


def mse_loss(x: Array, x_hat: Array) -> float:
    """Mean squared error over every element of the batch."""
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x.shape != x_hat.shape:
        raise SchemaError(f"shape mismatch in mse_loss: {x.shape} vs {x_hat.shape}")
    diff = x - x_hat
    return float(np.mean(diff * diff))


def mse_loss_backward(x: Array, x_hat: Array):
    """Gradients of mse_loss with respect to (x, x_hat)."""
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x.shape != x_hat.shape:
        raise SchemaError(f"shape mismatch in mse_loss: {x.shape} vs {x_hat.shape}")
    g = 2.0 * (x - x_hat) / x.size
    return g, -g


class Adam:
    """Bias-corrected Adam owning a fixed set of live parameter arrays,
    which ``step`` updates in place."""

    def __init__(self, params: dict[str, Array], lr: float):
        self.params = params
        self.lr = lr
        self.m = {k: np.zeros_like(p) for k, p in params.items()}
        self.v = {k: np.zeros_like(p) for k, p in params.items()}
        self.t = 0

    def step(self, grads: dict[str, Array]):
        missing = set(self.m) - set(grads)
        if missing:
            raise ValueError(f"missing gradients for {sorted(missing)}")
        for key, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise TrainingDiverged(f"non-finite gradient for parameter {key!r}")
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for key in self.m:
            g = grads[key]
            self.m[key] = ADAM_BETA1 * self.m[key] + (1.0 - ADAM_BETA1) * g
            self.v[key] = ADAM_BETA2 * self.v[key] + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = self.m[key] / bc1
            v_hat = self.v[key] / bc2
            self.params[key] -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def merge_grads(dst: dict[str, Array], src: dict[str, Array], scale: float = 1.0):
    """Accumulate ``src`` into ``dst`` (used when a loss has several paths)."""
    for key, g in src.items():
        if key in dst:
            dst[key] = dst[key] + scale * g
        else:
            dst[key] = scale * g
    return dst


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
