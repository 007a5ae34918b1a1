"""Dense-network substrate: layers, dropout, MSE, Adam.

Everything is plain float64 numpy with explicit forward caches and manual
backward passes. There is no graph autodiff; each component knows how to
push a gradient back through itself.

The gradient contract: each parameter has a gradient array beside it
(``DenseLayer.gW``/``gb``), and ``pack`` binds both to views of two vectors
laid out alike, ``flat`` and ``grad``. Backward passes *add* into ``grad``.
A loss entry point first zeroes the gradients it writes, so one call leaves
exactly that loss's gradient, and ``Adam.step()`` reads its slice of it.

The sigmoid is written out in numpy, ``1 / (1 + exp(-a))``, because
``scipy.special.expit`` would make every chadkit process import
``scipy.special`` and the modules it pulls in: they take longer to import
than numpy and the rest of chadkit together, and make each process's
resident memory more than half as large again.
"""
from __future__ import annotations

import numpy as np

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
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)

    def forward(self, x: Array):
        """Activations of a 2-D float64 batch ``x`` of width ``in_dim``, and
        the cache for ``backward``. The width is not checked here: a
        ``DenseStack`` chains layers whose widths match by construction.

        The sigmoid is ``expit``'s formula written out in place, so that
        chadkit needs no scipy (see the module docstring). Its bits equal
        ``expit``'s wherever numpy's float64 ``exp`` is libm's. ``exp``
        overflows to inf for ``a`` below about -709.78, where the result is
        exactly 0, as ``expit`` gives, so that overflow is not an error."""
        a = x @ self.W.T
        a += self.b
        if self.activation == "tanh":
            np.tanh(a, out=a)
        else:
            np.negative(a, out=a)
            with np.errstate(over="ignore"):
                np.exp(a, out=a)
            a += 1.0
            np.divide(1.0, a, out=a)
        # the activation output is enough to form d(act)/dz for both
        return a, (x, a)

    def backward(self, cache, grad_out: Array):
        """Add the weight and bias gradients into ``gW`` and ``gb``; returns
        the gradients of the input and of the pre-activation."""
        x, a = cache
        if self.activation == "tanh":
            gz = grad_out * (1.0 - a * a)
        else:
            gz = grad_out * a * (1.0 - a)
        self.gW += gz.T @ x
        self.gb += gz.sum(axis=0)
        return gz @ self.W, gz


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

    def backward(self, caches, grad_out: Array) -> Array:
        """Add the layers' gradients into their ``gW``/``gb``; returns the input's."""
        g = grad_out
        for layer, (cache, mask) in zip(reversed(self.layers), reversed(caches)):
            if mask is not None:
                g = g * mask
            g, _ = layer.backward(cache, g)
        return g

    def zero_grad(self):
        for layer in self.layers:
            layer.gW.fill(0.0)
            layer.gb.fill(0.0)

    def params(self) -> dict[str, Array]:
        return {f"{i}.{name}": p for i, layer in enumerate(self.layers)
                for name, p in (("W", layer.W), ("b", layer.b))}

    def bind(self, views: dict[str, Array], grads: dict[str, Array]):
        """Point the layers' parameters and gradients into ``views``, ``grads``."""
        for i, layer in enumerate(self.layers):
            layer.W, layer.b = views[f"{i}.W"], views[f"{i}.b"]
            layer.gW, layer.gb = grads[f"{i}.W"], grads[f"{i}.b"]


def mse_loss(x: Array, x_hat: Array) -> float:
    """Mean squared error over every element of two same-shaped float arrays."""
    diff = x - x_hat
    return float(np.mean(diff * diff))


def mse_loss_backward(x: Array, x_hat: Array):
    """Gradients of mse_loss with respect to (x, x_hat)."""
    g = 2.0 * (x - x_hat) / x.size
    return g, -g


def pack(parts: dict):
    """One float64 vector of the parameters of ``parts`` (name prefix ->
    component with ``params`` and ``bind``), flattened C-order in sorted
    order of the prefixed names, and a zeroed gradient vector laid out alike.
    Each part is bound to its views into both. Returns the two vectors and
    the name -> view maps into them."""
    params = {prefix + k: v for prefix, part in parts.items() for k, v in part.params().items()}
    names = sorted(params)
    flat = np.concatenate([params[name].ravel() for name in names])
    grad = np.zeros_like(flat)
    views, grads, offset = {}, {}, 0
    for name in names:
        shape, end = params[name].shape, offset + params[name].size
        views[name] = flat[offset:end].reshape(shape)
        grads[name] = grad[offset:end].reshape(shape)
        offset = end
    for prefix, part in parts.items():
        mine = [name for name in names if name.startswith(prefix)]
        part.bind({name[len(prefix):]: views[name] for name in mine},
                  {name[len(prefix):]: grads[name] for name in mine})
    return flat, grad, views, grads


class Adam:
    """Bias-corrected Adam over one contiguous float64 vector, ``flat``, which
    ``step`` updates in place from ``grad``, laid out alike; ``params`` maps
    each name to its view into ``flat``, laid out as ``pack`` lays them."""

    def __init__(self, flat: Array, grad: Array, params: dict[str, Array], lr: float):
        if sum(p.size for p in params.values()) != flat.size or grad.shape != flat.shape:
            raise ValueError("the parameter views and the gradient do not cover the vector")
        self.flat, self.grad, self.params, self.lr = flat, grad, params, lr
        self.m, self.v, self.t = np.zeros_like(flat), np.zeros_like(flat), 0
        self._tmp, self._step = np.empty_like(flat), np.empty_like(flat)

    def step(self):
        """One update from ``grad``, which it leaves unchanged."""
        g, tmp, step, m, v = self.grad, self._tmp, self._step, self.m, self.v
        if not np.isfinite(g).all():
            ends = np.cumsum([p.size for p in self.params.values()])
            bad = list(self.params)[np.searchsorted(ends, np.argmin(np.isfinite(g)), "right")]
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
        # flat -= (lr * m_hat) / (sqrt(v_hat) + eps)
        np.divide(m, bc1, out=step)
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        np.add(tmp, ADAM_EPS, out=tmp)
        np.multiply(step, self.lr, out=step)
        np.divide(step, tmp, out=step)
        np.subtract(self.flat, step, out=self.flat)
