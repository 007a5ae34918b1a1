"""Field-aware asymmetric autoencoder.

The input layer is not a plain dense map: each categorical field gets its
own linear embedding, and the continuous block passes through either the
identity or a learned linear map (for wide blocks). The concatenation of
all transformed fields feeds a tanh encoder pyramid; a dense decoder with
a sigmoid output layer reconstructs the concatenated representation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data import RecordSchema, as_batch
from .errors import SchemaError
from .nn import Array, DenseStack, glorot_uniform, mse_loss, mse_loss_backward

if TYPE_CHECKING:
    from .model import ModelConfig


def default_embed_dim(arity: int, cap: int) -> int:
    """Sublinear embedding width so high-arity fields stay tractable."""
    return min(int(math.ceil(math.sqrt(arity))) + 1, cap)


@dataclass
class FieldTransformSpec:
    """Widths of the per-field input transforms.

    ``embed_dims`` has one entry per categorical field. The continuous block
    is passed through unchanged ("identity") unless it is wider than the
    model's ``cont_threshold``, in which case a learned linear map to
    ``g_dim`` is used ("linear").
    """

    embed_dims: tuple[int, ...]
    cont_dim: int
    cont_mode: str
    g_dim: int

    def __post_init__(self):
        self.embed_dims = tuple(int(e) for e in self.embed_dims)
        if any(e < 1 for e in self.embed_dims):
            raise ValueError("embedding dims must be >= 1")
        if self.cont_mode not in ("identity", "linear"):
            raise ValueError(f"unknown continuous mode {self.cont_mode!r}")

    @classmethod
    def for_schema(cls, schema: RecordSchema, config: ModelConfig) -> "FieldTransformSpec":
        """The transform widths ``config`` gives ``schema``'s fields."""
        mode = "linear" if schema.r > config.cont_threshold else "identity"
        return cls(
            embed_dims=tuple(default_embed_dim(a, config.embed_cap) for a in schema.arities),
            cont_dim=schema.r,
            cont_mode=mode,
            g_dim=config.g_dim,
        )

    @property
    def output_dim(self) -> int:
        cont = self.g_dim if self.cont_mode == "linear" else self.cont_dim
        return sum(self.embed_dims) + cont

    def to_json(self) -> dict:
        return {
            "embed_dims": list(self.embed_dims),
            "cont_dim": self.cont_dim,
            "cont_mode": self.cont_mode,
            "g_dim": self.g_dim,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FieldTransformSpec":
        return cls(tuple(obj["embed_dims"]), obj["cont_dim"], obj["cont_mode"], obj["g_dim"])


def check_inputs(schema: RecordSchema, cat: Array, cont: Array) -> tuple[Array, Array]:
    """(n, k) int64 and (n, r) float views of a batch, with category indices
    checked against the schema's arities."""
    cat, cont = as_batch(schema, cat, cont)
    arities = np.asarray(schema.arities, dtype=np.int64)
    bad = ((cat < 0) | (cat >= arities)).any(axis=0)
    if bad.any():
        w = int(np.argmax(bad))
        raise SchemaError(f"category index out of range for field "
                          f"{schema.cat_fields[w]!r} (arity {arities[w]})")
    return cat, cont


class FieldTransform:
    """Concatenation of per-field embeddings and the continuous block.

    ``forward`` takes an (n, k) int64 index batch and an (n, r) float64 batch
    and trusts them: indices are range-checked where they enter the program
    (``Dataset``, ``check_inputs``), not on every training batch.
    """

    def __init__(self, schema: RecordSchema, spec: FieldTransformSpec,
                 rng: np.random.Generator):
        if len(spec.embed_dims) != schema.k:
            raise SchemaError("spec embedding count does not match schema")
        if spec.cont_dim != schema.r:
            raise SchemaError("spec continuous width does not match schema")
        self.schema = schema
        self.spec = spec
        self.embeddings = [
            glorot_uniform(rng, a, e, (a, e))
            for a, e in zip(schema.arities, spec.embed_dims)
        ]
        if spec.cont_mode == "linear":
            self.g_weight = glorot_uniform(rng, schema.r, spec.g_dim, (spec.g_dim, schema.r))
        else:
            self.g_weight = None

    @property
    def output_dim(self) -> int:
        return self.spec.output_dim

    def forward(self, cat: Array, cont: Array):
        blocks = [self.embeddings[w][cat[:, w]] for w in range(self.schema.k)]
        if self.g_weight is not None:
            blocks.append(cont @ self.g_weight.T)
        else:
            blocks.append(cont)
        x_t = np.concatenate(blocks, axis=1)
        return x_t, (cat, cont)

    def backward(self, cache, grad_xt: Array) -> dict[str, Array]:
        cat, cont = cache
        grads: dict[str, Array] = {}
        offset = 0
        for w, e in enumerate(self.spec.embed_dims):
            block = grad_xt[:, offset:offset + e]
            g = np.zeros_like(self.embeddings[w])
            np.add.at(g, cat[:, w], block)
            grads[f"emb.{w}"] = g
            offset += e
        if self.g_weight is not None:
            block = grad_xt[:, offset:offset + self.spec.g_dim]
            grads["g.W"] = block.T @ cont
        return grads

    def params(self) -> dict[str, Array]:
        out = {f"emb.{w}": E for w, E in enumerate(self.embeddings)}
        if self.g_weight is not None:
            out["g.W"] = self.g_weight
        return out


class Autoencoder:
    """Field transform + tanh encoder pyramid + dense decoder.

    The decoder mirrors the encoder's hidden widths and ends in a sigmoid,
    so reconstructions live in the open unit interval. Dropout applies to
    hidden activations during training only.
    """

    def __init__(self, schema: RecordSchema, spec: FieldTransformSpec,
                 encoder_sizes, dropout: float, rng: np.random.Generator):
        self.schema = schema
        self.transform = FieldTransform(schema, spec, rng)
        d_t = self.transform.output_dim
        enc_sizes = [d_t, *encoder_sizes]
        self.encoder = DenseStack(enc_sizes, ["tanh"] * (len(enc_sizes) - 1), dropout, rng)
        dec_hidden = list(reversed(encoder_sizes[:-1]))
        dec_sizes = [encoder_sizes[-1], *dec_hidden, d_t]
        activations = ["tanh"] * len(dec_hidden) + ["sigmoid"]
        self.decoder = DenseStack(dec_sizes, activations, dropout, rng)
        self.encoder_sizes = tuple(encoder_sizes)

    @property
    def latent_dim(self) -> int:
        return self.encoder_sizes[-1]

    def encode(self, cat: Array, cont: Array, train: bool = False,
               rng: np.random.Generator | None = None):
        x_t, ft_cache = self.transform.forward(cat, cont)
        x_e, enc_caches = self.encoder.forward(x_t, train, rng)
        return x_e, (ft_cache, enc_caches, x_t)

    def reconstruction_loss(self, cat: Array, cont: Array, train: bool = False,
                            rng: np.random.Generator | None = None):
        """Mean squared error between the transformed input and its
        reconstruction, with gradients for every autoencoder parameter.

        The transformed input is itself a function of the embeddings, so the
        target side contributes gradient too.
        """
        x_e, (ft_cache, enc_caches, x_t) = self.encode(cat, cont, train, rng)
        x_hat, dec_caches = self.decoder.forward(x_e, train, rng)
        loss = mse_loss(x_t, x_hat)
        g_xt_target, g_xhat = mse_loss_backward(x_t, x_hat)
        g_xe, dec_grads = self.decoder.backward(dec_caches, g_xhat)
        g_xt_enc, enc_grads = self.encoder.backward(enc_caches, g_xe)
        ft_grads = self.transform.backward(ft_cache, g_xt_enc + g_xt_target)
        grads = {f"enc.{k}": v for k, v in enc_grads.items()}
        grads.update({f"dec.{k}": v for k, v in dec_grads.items()})
        grads.update(ft_grads)
        return loss, grads

    def params(self) -> dict[str, Array]:
        out = dict(self.transform.params())
        out.update({f"enc.{k}": v for k, v in self.encoder.params().items()})
        out.update({f"dec.{k}": v for k, v in self.decoder.params().items()})
        return out


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
        offsets = np.cumsum([0, *transform.spec.embed_dims])
        self.schema = autoencoder.schema
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
            h += table[cat[:, w]]
        np.tanh(h, out=h)
        for layer in self.rest:
            h, _ = layer.forward(h)
        return h

    def encode_chunks(self, cat: Array, cont: Array, rows: int):
        """Latent vectors of consecutive ``rows``-row slices of raw input, one
        array per slice (one empty array for an empty input). The input is
        checked here, once per call."""
        cat, cont = check_inputs(self.schema, cat, cont)
        for start in range(0, max(cat.shape[0], 1), rows):
            yield self.encode(cat[start:start + rows], cont[start:start + rows])
