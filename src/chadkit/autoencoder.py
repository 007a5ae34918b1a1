"""Field-aware asymmetric autoencoder.

The input layer is not a plain dense map: each categorical field gets its
own linear embedding, and the continuous block passes through either the
identity or a learned linear map (for wide blocks). The concatenation of
all transformed fields feeds a tanh encoder pyramid; a dense decoder with
a sigmoid output layer reconstructs the concatenated representation.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .data import RecordSchema
from .nn import Array, DenseStack, glorot_uniform, mse_loss, mse_loss_backward

if TYPE_CHECKING:
    from .model import ModelConfig


def default_embed_dim(arity: int, cap: int) -> int:
    """Sublinear embedding width so high-arity fields stay tractable."""
    return min(int(math.ceil(math.sqrt(arity))) + 1, cap)


def field_widths(schema: RecordSchema, config: ModelConfig) -> tuple[tuple[int, ...], int, bool]:
    """The transform widths ``config`` gives ``schema``'s fields: one embedding
    width per categorical field, the continuous block's output width, and
    whether a learned linear map ``g.W`` gives it. A block wider than
    ``cont_threshold`` is mapped to ``g_dim``; a narrower one passes through
    unchanged."""
    mapped = schema.r > config.cont_threshold
    return (tuple(default_embed_dim(a, config.embed_cap) for a in schema.arities),
            config.g_dim if mapped else schema.r, mapped)


class FieldTransform:
    """Concatenation of per-field embeddings and the continuous block.

    ``forward`` takes an (n, k) int64 index batch and an (n, r) float64 batch
    and trusts them: indices are range-checked where they enter the program
    (``data.check_batch``), not on every training batch.
    """

    def __init__(self, schema: RecordSchema, config: ModelConfig, rng: np.random.Generator):
        self.schema = schema
        self.embed_dims, cont_width, mapped = field_widths(schema, config)
        self.output_dim = sum(self.embed_dims) + cont_width
        self.embeddings = [
            glorot_uniform(rng, a, e, (a, e))
            for a, e in zip(schema.arities, self.embed_dims)
        ]
        self.g_weight = (glorot_uniform(rng, schema.r, cont_width, (cont_width, schema.r))
                         if mapped else None)
        self.embedding_grads = [np.zeros_like(E) for E in self.embeddings]
        self.g_weight_grad = None if self.g_weight is None else np.zeros_like(self.g_weight)

    def forward(self, cat: Array, cont: Array):
        blocks = [self.embeddings[w][cat[:, w]] for w in range(self.schema.k)]
        if self.g_weight is not None:
            blocks.append(cont @ self.g_weight.T)
        else:
            blocks.append(cont)
        x_t = np.concatenate(blocks, axis=1)
        return x_t, (cat, cont)

    def backward(self, cache, grad_xt: Array):
        """Add the gradients into ``embedding_grads`` and ``g_weight_grad``."""
        cat, cont = cache
        offset = 0
        for w, (g, e) in enumerate(zip(self.embedding_grads, self.embed_dims)):
            # row i's gradient for column j lands on key index * e + j; bincount
            # adds each key's rows in row order, as a scatter-add would
            keys = cat[:, w, None] * e + np.arange(e)
            block = grad_xt[:, offset:offset + e].ravel()
            g += np.bincount(keys.ravel(), weights=block, minlength=g.size).reshape(g.shape)
            offset += e
        if self.g_weight is not None:
            self.g_weight_grad += grad_xt[:, offset:].T @ cont

    def zero_grad(self):
        for g in self.embedding_grads:
            g.fill(0.0)
        if self.g_weight_grad is not None:
            self.g_weight_grad.fill(0.0)

    def params(self) -> dict[str, Array]:
        out = {f"emb.{w}": E for w, E in enumerate(self.embeddings)}
        if self.g_weight is not None:
            out["g.W"] = self.g_weight
        return out

    def bind(self, views: dict[str, Array], grads: dict[str, Array]):
        """Point every parameter and gradient into ``views`` and ``grads``."""
        self.embeddings = [views[f"emb.{w}"] for w in range(self.schema.k)]
        self.embedding_grads = [grads[f"emb.{w}"] for w in range(self.schema.k)]
        if self.g_weight is not None:
            self.g_weight, self.g_weight_grad = views["g.W"], grads["g.W"]


class Autoencoder:
    """Field transform + tanh encoder pyramid + dense decoder.

    The encoder's widths are ``config.encoder_sizes``; the decoder mirrors its
    hidden widths and ends in a sigmoid, so reconstructions live in the open
    unit interval. Dropout at rate ``config.dropout_ae`` applies to hidden
    activations when a dropout ``rng`` is passed, and only then.
    """

    def __init__(self, schema: RecordSchema, config: ModelConfig, rng: np.random.Generator):
        self.schema = schema
        self.transform = FieldTransform(schema, config, rng)
        d_t = self.transform.output_dim
        sizes = config.encoder_sizes
        enc_sizes = [d_t, *sizes]
        self.encoder = DenseStack(enc_sizes, ["tanh"] * len(sizes), config.dropout_ae, rng)
        dec_hidden = list(reversed(sizes[:-1]))
        dec_sizes = [sizes[-1], *dec_hidden, d_t]
        activations = ["tanh"] * len(dec_hidden) + ["sigmoid"]
        self.decoder = DenseStack(dec_sizes, activations, config.dropout_ae, rng)

    def encode(self, cat: Array, cont: Array, rng: np.random.Generator | None = None):
        x_t, ft_cache = self.transform.forward(cat, cont)
        x_e, enc_caches = self.encoder.forward(x_t, rng)
        return x_e, (ft_cache, enc_caches, x_t)

    def reconstruction_loss(self, cat: Array, cont: Array,
                            rng: np.random.Generator | None = None) -> float:
        """Mean squared error between the transformed input and its
        reconstruction. Every autoencoder gradient is zeroed first and then
        holds this loss's gradient.

        The transformed input is itself a function of the embeddings, so the
        target side contributes gradient too.
        """
        self.zero_grad()
        x_e, (ft_cache, enc_caches, x_t) = self.encode(cat, cont, rng)
        x_hat, dec_caches = self.decoder.forward(x_e, rng)
        loss = mse_loss(x_t, x_hat)
        g_xt_target, g_xhat = mse_loss_backward(x_t, x_hat)
        g_xt_enc = self.encoder.backward(enc_caches, self.decoder.backward(dec_caches, g_xhat))
        self.transform.backward(ft_cache, g_xt_enc + g_xt_target)
        return loss

    def zero_grad(self):
        for part in (self.transform, self.encoder, self.decoder):
            part.zero_grad()


class FoldedEncoder:
    """Inference-mode encoder with the field transform folded into layer 0.

    Layer 0 is linear in the transformed input, so each categorical field's
    embedding can be pushed through its block of the first weight matrix
    once, ``T_w = E_w @ W1[:, block_w].T`` (arity x width), and the
    continuous block through ``W1[:, cont]`` (times ``g.W`` when the block is
    mapped). Layer 0 then costs one r-wide matmul, k table gathers and the
    tanh, and the (n, d_t) transformed matrix is never built. There is no
    dropout and no cache, so nothing can flow back through it.

    The tables are a snapshot of the weights at construction: build a new
    one after the autoencoder changes.
    """

    def __init__(self, autoencoder: Autoencoder):
        transform = autoencoder.transform
        first, *self.rest = autoencoder.encoder.layers
        offsets = np.cumsum([0, *transform.embed_dims])
        self.tables = [E @ first.W[:, lo:hi].T
                       for E, lo, hi in zip(transform.embeddings, offsets[:-1], offsets[1:])]
        w_cont = first.W[:, offsets[-1]:]
        if transform.g_weight is not None:
            w_cont = w_cont @ transform.g_weight
        self.w_cont = np.ascontiguousarray(w_cont)
        self.bias = first.b.copy()

    def encode(self, cat: Array, cont: Array) -> Array:
        """Latent vectors, (n, latent_dim), of an in-range (n, k) int64 and
        (n, r) float64 batch, such as a sampler's output; unchecked."""
        h = cont @ self.w_cont.T
        h += self.bias
        for w, table in enumerate(self.tables):
            # the rows table[cat[:, w]] gathers, without holding the GIL
            h += np.take(table, cat[:, w], axis=0)
        np.tanh(h, out=h)
        for layer in self.rest:
            h, _ = layer.forward(h)
        return h
