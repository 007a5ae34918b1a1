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

    ``f_pos`` is a float array of shape (B,), ``f_neg`` one of shape (B, K)
    with K >= 1: K negative scores per record. Each record contributes

        -gamma * ln(f_pos) - ln(1 - mean_k f_neg)

    and the batch loss is the mean over records. Log arguments are clamped
    below at ``LOG_CLAMP`` to keep the loss finite near the boundary; clamped
    coordinates get zero gradient.
    """
    b, k = f_neg.shape
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
        self.stack = DenseStack([latent_dim, hidden, 1], ["tanh", "sigmoid"], dropout, rng)

    def likelihood(self, x_e: Array, rng: np.random.Generator | None = None):
        """Posterior-style score in (0, 1) for each latent vector, with
        dropout when a dropout ``rng`` is passed."""
        out, caches = self.stack.forward(np.atleast_2d(x_e), rng)
        return out[:, 0], caches

    def score(self, x_e: Array) -> Array:
        """Inference-mode likelihood (dropout off)."""
        f, _ = self.likelihood(x_e)
        return f

    def penultimate(self, x_e: Array) -> Array:
        """Hidden-layer activations, the representation behind the output unit."""
        out, _ = self.stack.layers[0].forward(np.atleast_2d(x_e))
        return out

    def loss(self, pos_latents: Array, neg_latents: Array, gamma: float,
             rng: np.random.Generator | None = None):
        """Contrastive loss over a batch. Every estimator gradient is zeroed
        first and then holds this loss's gradient.

        ``neg_latents`` is (B, K, p), already noise-injected if noise is on.
        Returns (loss, grad_pos_latents, grad_neg_latents) so a caller can
        keep pushing the gradient into the encoder.
        """
        b, k, p = neg_latents.shape
        self.stack.zero_grad()
        f_pos, pos_caches = self.likelihood(pos_latents, rng)
        f_neg_flat, neg_caches = self.likelihood(neg_latents.reshape(b * k, p), rng)
        loss, d_pos, d_neg = contrastive_loss_terms(f_pos, f_neg_flat.reshape(b, k), gamma)

        g_pos_in = self.stack.backward(pos_caches, d_pos[:, None])
        g_neg_in = self.stack.backward(neg_caches, d_neg.reshape(b * k, 1))
        return loss, g_pos_in, g_neg_in.reshape(b, k, p)
