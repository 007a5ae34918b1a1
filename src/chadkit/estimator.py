"""Density estimation network and its contrastive loss.

A small MLP maps latent vectors to a posterior-style score in (0, 1):
high for data drawn from the nominal distribution, low for generated
negatives. Negatives optionally receive isotropic standard-normal noise
in latent space before scoring, which spreads them over a wider region.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Array, DenseStack

# lower bound of both log arguments of the contrastive loss
LOG_CLAMP = 1e-7


@dataclass(frozen=True)
class SecondaryNoiseSpec:
    """Isotropic unit-covariance noise added to negative latents."""

    enabled: bool = True

    def draw(self, rng: np.random.Generator, rows: int, latent_dim: int) -> Array | None:
        """The offsets for ``rows`` negative latents: a fresh (rows, latent_dim)
        standard-normal draw from ``rng``, or None, drawing nothing, when
        disabled. Training and ``negative_latent_spread`` both draw here."""
        if not self.enabled:
            return None
        return rng.standard_normal((rows, latent_dim))


def contrastive_loss_terms(f_pos: Array, f_neg: Array, gamma: float):
    """Per-record contrastive loss and its gradients w.r.t. the scores.

    ``f_pos`` has shape (B,), ``f_neg`` shape (B, K): K negative scores per
    record. Each record contributes

        -gamma * ln(f_pos) - ln(1 - mean_k f_neg)

    and the batch loss is the mean over records. Log arguments are clamped
    below at ``LOG_CLAMP`` to keep the loss finite near the boundary; clamped
    coordinates get zero gradient.
    """
    f_pos = np.asarray(f_pos, dtype=float).reshape(-1)
    f_neg = np.asarray(f_neg, dtype=float)
    if f_neg.ndim != 2 or f_neg.shape[0] != f_pos.shape[0]:
        raise ValueError("f_neg must be (batch, K) matching f_pos")
    b, k = f_neg.shape
    if k < 1:
        raise ValueError("need at least one negative per record")

    pos_arg = np.maximum(f_pos, LOG_CLAMP)
    neg_mean = f_neg.mean(axis=1)
    neg_arg = np.maximum(1.0 - neg_mean, LOG_CLAMP)
    loss = float(np.mean(-gamma * np.log(pos_arg) - np.log(neg_arg)))

    d_pos = np.where(f_pos > LOG_CLAMP, -gamma / pos_arg, 0.0) / b
    d_neg_mean = np.where(1.0 - neg_mean > LOG_CLAMP, 1.0 / neg_arg, 0.0) / b
    d_neg = np.repeat(d_neg_mean[:, None], k, axis=1) / k
    return loss, d_pos, d_neg


class Estimator:
    """Two-layer MLP scoring latent vectors: input -> floor(p/2) -> 1."""

    def __init__(self, latent_dim: int, dropout: float, rng: np.random.Generator):
        hidden = max(1, latent_dim // 2)
        self.latent_dim = latent_dim
        self.stack = DenseStack([latent_dim, hidden, 1], ["tanh", "sigmoid"], dropout, rng)

    def likelihood(self, x_e: Array, train: bool = False,
                   rng: np.random.Generator | None = None):
        """Posterior-style score in (0, 1) for each latent vector."""
        out, caches = self.stack.forward(np.atleast_2d(x_e), train, rng)
        return out[:, 0], caches

    def score(self, x_e: Array) -> Array:
        """Inference-mode likelihood (dropout off)."""
        f, _ = self.likelihood(x_e, train=False)
        return f

    def penultimate(self, x_e: Array) -> Array:
        """Hidden-layer activations, the representation behind the output unit."""
        out, _ = self.stack.layers[0].forward(np.atleast_2d(x_e))
        return out

    def loss(self, pos_latents: Array, neg_latents: Array, gamma: float,
             train: bool = False, rng: np.random.Generator | None = None):
        """Contrastive loss over a batch, plus gradients.

        ``neg_latents`` is (B, K, p), already noise-injected if noise is on.
        Returns (loss, param_grads, grad_pos_latents, grad_neg_latents) so a
        caller can keep pushing the gradient into the encoder.
        """
        pos_latents = np.asarray(pos_latents, dtype=float)
        neg_latents = np.asarray(neg_latents, dtype=float)
        b, k, p = neg_latents.shape
        f_pos, pos_caches = self.likelihood(pos_latents, train, rng)
        f_neg_flat, neg_caches = self.likelihood(neg_latents.reshape(b * k, p), train, rng)
        loss, d_pos, d_neg = contrastive_loss_terms(f_pos, f_neg_flat.reshape(b, k), gamma)

        g_pos_in, pos_grads = self.stack.backward(pos_caches, d_pos[:, None])
        g_neg_in, neg_grads = self.stack.backward(neg_caches, d_neg.reshape(b * k, 1))
        param_grads = {key: pos_grads[key] + neg_grads[key] for key in pos_grads}
        return loss, param_grads, g_pos_in, g_neg_in.reshape(b, k, p)

    def params(self) -> dict[str, Array]:
        return self.stack.params()

