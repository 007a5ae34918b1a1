"""The full detector: field-aware autoencoder plus density estimator.

This module owns the parameter namespace ("ae.*" / "est.*") used by the
optimizers, the persistence layer, and the freeze contracts, and provides
the three loss entry points the training schedule gates between in phases
1 and 2, and the inference-mode encoder that scoring uses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autoencoder import Autoencoder, FieldTransformSpec, FoldedEncoder
from .data import Dataset, RecordSchema
from .errors import SchemaError
from .estimator import Estimator
from .nn import Array, merge_grads

# Rows pushed through the folded encoder and the estimator at once when
# encoding or scoring: the widest temporary is SCORE_CHUNK_ROWS x the first
# encoder width, whatever the input size.
SCORE_CHUNK_ROWS = 4096


@dataclass
class ModelConfig:
    encoder_sizes: tuple[int, ...] = (64, 32, 16)
    embed_cap: int = 32
    cont_threshold: int = 32
    g_dim: int = 32
    dropout_ae: float = 0.2
    dropout_est: float = 0.1

    def __post_init__(self):
        self.encoder_sizes = tuple(int(s) for s in self.encoder_sizes)
        if len(self.encoder_sizes) < 1:
            raise ValueError("need at least one encoder layer")
        if min(self.encoder_sizes) < 1:
            raise ValueError(f"encoder sizes must be positive, got {self.encoder_sizes}")
        if self.embed_cap < 1 or self.g_dim < 1:
            raise ValueError(f"embed_cap and g_dim must be >= 1, got {self.embed_cap} "
                             f"and {self.g_dim}")
        if not (0 <= self.dropout_ae < 1 and 0 <= self.dropout_est < 1):
            raise ValueError(f"dropout rates must be in [0, 1), got {self.dropout_ae} "
                             f"and {self.dropout_est}")

    @property
    def latent_dim(self) -> int:
        return self.encoder_sizes[-1]

    def to_json(self) -> dict:
        return {
            "encoder_sizes": list(self.encoder_sizes),
            "embed_cap": self.embed_cap,
            "cont_threshold": self.cont_threshold,
            "g_dim": self.g_dim,
            "dropout_ae": self.dropout_ae,
            "dropout_est": self.dropout_est,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        return cls(tuple(obj["encoder_sizes"]), obj["embed_cap"], obj["cont_threshold"],
                   obj["g_dim"], obj["dropout_ae"], obj["dropout_est"])


def parameter_count(schema: RecordSchema, config: ModelConfig,
                    spec: FieldTransformSpec) -> int:
    """Float64 parameters ``ChadModel(schema, config, rng, spec)`` holds, counted
    without allocating them."""
    count = sum(a * e for a, e in zip(schema.arities, spec.embed_dims))
    if spec.cont_mode == "linear":
        count += spec.g_dim * spec.cont_dim
    enc_sizes = [spec.output_dim, *config.encoder_sizes]
    est_sizes = [config.latent_dim, max(1, config.latent_dim // 2), 1]
    # the decoder mirrors the encoder back to the transformed width
    for sizes in (enc_sizes, enc_sizes[::-1], est_sizes):
        count += sum(i * o + o for i, o in zip(sizes, sizes[1:]))
    return count


class ChadModel:
    """Autoencoder + estimator with a shared flat parameter view."""

    def __init__(self, schema: RecordSchema, config: ModelConfig, rng: np.random.Generator,
                 transform_spec: FieldTransformSpec | None = None):
        if transform_spec is None:
            transform_spec = FieldTransformSpec.for_schema(schema, config)
        self.schema = schema
        self.config = config
        self.autoencoder = Autoencoder(schema, transform_spec, config.encoder_sizes,
                                       config.dropout_ae, rng)
        self.estimator = Estimator(config.latent_dim, config.dropout_est, rng)

    @property
    def latent_dim(self) -> int:
        return self.autoencoder.latent_dim

    # ---- parameter views -------------------------------------------------

    def params(self) -> dict[str, Array]:
        out = {f"ae.{k}": v for k, v in self.autoencoder.params().items()}
        out.update({f"est.{k}": v for k, v in self.estimator.params().items()})
        return out

    def autoencoder_params(self) -> dict[str, Array]:
        return {k: v for k, v in self.params().items() if k.startswith("ae.")}

    def estimator_params(self) -> dict[str, Array]:
        return {k: v for k, v in self.params().items() if k.startswith("est.")}

    def snapshot(self, keys=None) -> dict[str, Array]:
        """Copies of parameters (for bitwise freeze checks)."""
        params = self.params()
        if keys is None:
            keys = params.keys()
        return {k: params[k].copy() for k in keys}

    # ---- forward passes --------------------------------------------------

    def encode(self, cat: Array, cont: Array) -> Array:
        """Latent vectors in inference mode, through a freshly folded encoder.
        Raw arrays are checked against the schema once per call."""
        return np.concatenate(list(self._latent_chunks(cat, cont)))

    def _latent_chunks(self, cat: Array, cont: Array):
        return FoldedEncoder(self.autoencoder).encode_chunks(cat, cont, SCORE_CHUNK_ROWS)

    def score_records(self, cat: Array, cont: Array) -> Array:
        """Likelihood score per record, dropout off; checked like ``encode``."""
        return np.concatenate([self.estimator.score(z)
                               for z in self._latent_chunks(cat, cont)])

    def check_schema(self, dataset: Dataset):
        if dataset.schema.hash() != self.schema.hash():
            raise SchemaError("dataset schema does not match the model schema")

    # ---- losses ----------------------------------------------------------

    def loss_recon(self, cat: Array, cont: Array, train: bool = False,
                   rng: np.random.Generator | None = None):
        loss, ae_grads = self.autoencoder.reconstruction_loss(cat, cont, train, rng)
        return loss, {f"ae.{k}": v for k, v in ae_grads.items()}

    def loss_estimator(self, cat: Array, cont: Array, neg_cat: Array, neg_cont: Array,
                       noise: Array | None, gamma: float,
                       train: bool = False, rng: np.random.Generator | None = None):
        """Contrastive loss over a batch and its negatives.

        ``neg_cat``/``neg_cont`` hold K negatives per record, flattened
        row-major; ``noise`` is an optional precomputed (B*K, p) latent
        offset. The gradient continues through the encoder and field
        transforms on both the positive and negative paths. Like the other
        losses, it takes in-range 2-D batches and does not check them.
        """
        b, s = cat.shape[0], neg_cat.shape[0]
        if b == 0 or s % max(b, 1) != 0:
            raise ValueError("negative count must be a positive multiple of the batch size")
        k = s // b
        p = self.latent_dim

        ae = self.autoencoder
        x_e, pos_ctx = ae.encode(cat, cont, train, rng)
        z_e, neg_ctx = ae.encode(neg_cat, neg_cont, train, rng)
        if noise is not None:
            z_in = z_e + noise
        else:
            z_in = z_e

        loss, est_grads, g_pos_lat, g_neg_lat = self.estimator.loss(
            x_e, z_in.reshape(b, k, p), gamma, train, rng)
        grads = {f"est.{key}": v for key, v in est_grads.items()}

        ae_grads: dict[str, Array] = {}
        for ctx, g_lat in ((pos_ctx, g_pos_lat), (neg_ctx, g_neg_lat.reshape(s, p))):
            ft_cache, enc_caches, _ = ctx
            g_xt, enc_g = ae.encoder.backward(enc_caches, g_lat)
            merge_grads(ae_grads, {f"enc.{key}": v for key, v in enc_g.items()})
            merge_grads(ae_grads, ae.transform.backward(ft_cache, g_xt))
        grads.update({f"ae.{key}": v for key, v in ae_grads.items()})
        return loss, grads

    def loss_joint(self, cat, cont, neg_cat, neg_cont, noise, gates, lam: float,
                   gamma: float, train: bool = False,
                   rng: np.random.Generator | None = None):
        """Gated sum of the two losses; a term with a zero gate is skipped.
        Gradients reach every parameter the ungated terms depend on.

        Returns (total, grads, recon_part, est_part); the skipped parts are
        reported as None.
        """
        gate_recon, gate_est = gates
        total = 0.0
        grads: dict[str, Array] = {}
        recon_part = est_part = None
        if gate_recon:
            recon_part, g = self.loss_recon(cat, cont, train, rng)
            total += lam * recon_part
            merge_grads(grads, g, scale=lam)
        if gate_est:
            est_part, g = self.loss_estimator(
                cat, cont, neg_cat, neg_cont, noise, gamma, train, rng)
            total += est_part
            merge_grads(grads, g)
        return total, grads, recon_part, est_part
