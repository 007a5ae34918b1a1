"""The full detector: field-aware autoencoder plus density estimator.

This module owns the parameter namespace ("ae.*" / "est.*") used by the
optimizers, the persistence layer, and the freeze contracts, and provides
the gated loss the training schedule runs in phases 1 and 2, and the
inference-mode encoder that scoring uses.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .autoencoder import Autoencoder, FoldedEncoder, field_widths
from .data import Dataset, RecordSchema, check_batch
from .errors import SchemaError
from .estimator import Estimator
from .nn import Array, pack

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
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        """The config ``to_json`` wrote; a missing or an unknown key raises
        ValueError, so no key silently takes its default."""
        names = {f.name for f in fields(cls)}
        if set(obj) != names:
            raise ValueError(f"model_config keys {sorted(obj)} are not {sorted(names)}")
        return cls(**obj)


def parameter_count(schema: RecordSchema, config: ModelConfig) -> int:
    """Float64 parameters ``ChadModel(schema, config, rng)`` holds, counted
    without allocating them."""
    embed_dims, cont_width, mapped = field_widths(schema, config)
    count = sum(a * e for a, e in zip(schema.arities, embed_dims))
    if mapped:
        count += cont_width * schema.r
    enc_sizes = [sum(embed_dims) + cont_width, *config.encoder_sizes]
    est_sizes = [config.latent_dim, max(1, config.latent_dim // 2), 1]
    # the decoder mirrors the encoder back to the transformed width
    for sizes in (enc_sizes, enc_sizes[::-1], est_sizes):
        count += sum(i * o + o for i, o in zip(sizes, sizes[1:]))
    return count


class ChadModel:
    """Autoencoder + estimator whose parameters are views into one vector.

    ``flat`` holds every parameter flattened C-order in sorted-name order,
    the model file's payload order, and ``grad`` their gradients laid out
    alike. Every "ae." name sorts before every "est." name, so each
    optimizer group is one contiguous slice of both.
    """

    def __init__(self, schema: RecordSchema, config: ModelConfig, rng: np.random.Generator):
        self.schema = schema
        self.config = config
        ae = self.autoencoder = Autoencoder(schema, config, rng)
        self.estimator = Estimator(config.latent_dim, config.dropout_est, rng)
        self.flat, self.grad, self._params, self._grads = pack(
            {"ae.": ae.transform, "ae.enc.": ae.encoder, "ae.dec.": ae.decoder,
             "est.": self.estimator.stack})
        self._ae_grad = self.group("ae.")[1]

    @property
    def latent_dim(self) -> int:
        return self.config.latent_dim

    # ---- parameter views -------------------------------------------------

    def params(self) -> dict[str, Array]:
        """Name -> view into ``flat``, in sorted-name order."""
        return dict(self._params)

    def grads(self) -> dict[str, Array]:
        """Name -> view into ``grad``, named as ``params``."""
        return dict(self._grads)

    def group(self, prefix: str) -> tuple[Array, Array, dict[str, Array]]:
        """The slices of ``flat`` and ``grad`` holding the parameters whose
        names start with ``prefix`` and their gradients, and the parameters'
        name -> view map: an ``Adam``'s arguments."""
        params = {k: v for k, v in self._params.items() if k.startswith(prefix)}
        # sorted names: those below the prefix come first, then the group
        start = sum(v.size for k, v in self._params.items() if k < prefix)
        stop = start + sum(v.size for v in params.values())
        return self.flat[start:stop], self.grad[start:stop], params

    def autoencoder_params(self) -> dict[str, Array]:
        return self.group("ae.")[2]

    def estimator_params(self) -> dict[str, Array]:
        return self.group("est.")[2]

    def snapshot(self, keys=None) -> dict[str, Array]:
        """Copies of parameters (for bitwise freeze checks)."""
        if keys is None:
            keys = self._params.keys()
        return {k: self._params[k].copy() for k in keys}

    # ---- forward passes --------------------------------------------------

    def encode(self, cat: Array, cont: Array) -> Array:
        """Latent vectors in inference mode, through a freshly folded encoder.
        Raw arrays are checked against the schema once per call."""
        return np.concatenate(list(self._latent_chunks(cat, cont)))

    def _latent_chunks(self, cat: Array, cont: Array):
        """Latent vectors of consecutive SCORE_CHUNK_ROWS-row slices of a raw
        batch, one array per slice (one empty array for an empty batch)."""
        cat, cont = check_batch(self.schema, cat, cont)
        encoder = FoldedEncoder(self.autoencoder)
        for start in range(0, max(cat.shape[0], 1), SCORE_CHUNK_ROWS):
            stop = start + SCORE_CHUNK_ROWS
            yield encoder.encode(cat[start:stop], cont[start:stop])

    def score_records(self, cat: Array, cont: Array) -> Array:
        """Likelihood score per record, dropout off; checked like ``encode``."""
        return np.concatenate([self.estimator.score(z)
                               for z in self._latent_chunks(cat, cont)])

    def check_schema(self, dataset: Dataset):
        if dataset.schema.hash() != self.schema.hash():
            raise SchemaError("dataset schema does not match the model schema")

    # ---- losses ----------------------------------------------------------

    def loss_estimator(self, cat: Array, cont: Array, neg_cat: Array, neg_cont: Array,
                       noise: Array | None, gamma: float,
                       rng: np.random.Generator | None = None) -> float:
        """Contrastive loss over a batch and its negatives.

        ``neg_cat``/``neg_cont`` hold K >= 1 negatives per record, flattened
        row-major; ``noise`` is an optional precomputed (B*K, p) latent
        offset. The gradient continues through the encoder and field
        transforms on both the positive and negative paths; ``grad`` is
        zeroed first, so the decoder's stays zero. Like the other losses, it
        takes in-range 2-D batches and does not check them.
        """
        ae, p = self.autoencoder, self.latent_dim
        ae.zero_grad()
        x_e, (pos_ft, pos_enc, _) = ae.encode(cat, cont, rng)
        z_e, (neg_ft, neg_enc, _) = ae.encode(neg_cat, neg_cont, rng)
        z_in = z_e if noise is None else z_e + noise
        loss, g_pos_lat, g_neg_lat = self.estimator.loss(
            x_e, z_in.reshape(cat.shape[0], -1, p), gamma, rng)
        # the negative path adds onto the positive one: positive + negative
        ae.transform.backward(pos_ft, ae.encoder.backward(pos_enc, g_pos_lat))
        ae.transform.backward(neg_ft, ae.encoder.backward(neg_enc, g_neg_lat.reshape(-1, p)))
        return loss

    def loss_joint(self, cat, cont, neg_cat, neg_cont, noise, gates, lam: float,
                   gamma: float, rng: np.random.Generator | None = None):
        """Gated sum of the two losses; a term with a zero gate is skipped.
        ``grad`` is zeroed first and then holds the sum's gradient, which
        reaches every parameter the ungated terms depend on.

        Returns (total, recon_part, est_part); the skipped parts are
        reported as None.
        """
        gate_recon, gate_est = gates
        total, recon_part, est_part = 0.0, None, None
        self.grad.fill(0.0)
        if gate_recon:
            recon_part = self.autoencoder.reconstruction_loss(cat, cont, rng)
            total += lam * recon_part
            self._ae_grad *= lam
        if gate_est:
            recon_grad = self._ae_grad.copy()
            est_part = self.loss_estimator(cat, cont, neg_cat, neg_cont, noise, gamma, rng)
            total += est_part
            # (positive + negative path) + lam * recon, which IEEE addition
            # commutes: the bits of lam * recon + (positive + negative path)
            self._ae_grad += recon_grad
        return total, recon_part, est_part
