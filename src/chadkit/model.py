"""The full detector: field-aware autoencoder plus density estimator.

This module owns the parameter namespace ("ae.*" / "est.*") used by the
optimizers, the persistence layer, and the freeze contracts, and provides
the three loss entry points the training schedule gates between in phases
1 and 2, and the inference-mode encoder that scoring uses.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .autoencoder import Autoencoder, FoldedEncoder, field_widths
from .data import Dataset, RecordSchema, check_batch
from .errors import SchemaError
from .estimator import Estimator
from .nn import Array, pack, strip_prefix

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
    the model file's payload order. Every "ae." name sorts before every
    "est." name, so each optimizer group is one contiguous slice of it.
    """

    def __init__(self, schema: RecordSchema, config: ModelConfig, rng: np.random.Generator):
        self.schema = schema
        self.config = config
        self.autoencoder = Autoencoder(schema, config, rng)
        self.estimator = Estimator(config.latent_dim, config.dropout_est, rng)
        self.flat, self._params = pack(
            {**{f"ae.{k}": v for k, v in self.autoencoder.params().items()},
             **{f"est.{k}": v for k, v in self.estimator.params().items()}})
        self.autoencoder.bind(strip_prefix(self._params, "ae."))
        self.estimator.stack.bind(strip_prefix(self._params, "est."))

    @property
    def latent_dim(self) -> int:
        return self.config.latent_dim

    # ---- parameter views -------------------------------------------------

    def params(self) -> dict[str, Array]:
        """Name -> view into ``flat``, in sorted-name order."""
        return dict(self._params)

    def group(self, prefix: str) -> tuple[Array, dict[str, Array]]:
        """The slice of ``flat`` holding the parameters whose names start with
        ``prefix``, and their name -> view map: an ``Adam``'s arguments."""
        params = {k: v for k, v in self._params.items() if k.startswith(prefix)}
        # sorted names: those below the prefix come first, then the group
        start = sum(v.size for k, v in self._params.items() if k < prefix)
        return self.flat[start:start + sum(v.size for v in params.values())], params

    def autoencoder_params(self) -> dict[str, Array]:
        return self.group("ae.")[1]

    def estimator_params(self) -> dict[str, Array]:
        return self.group("est.")[1]

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

    def loss_recon(self, cat: Array, cont: Array, rng: np.random.Generator | None = None):
        loss, ae_grads = self.autoencoder.reconstruction_loss(cat, cont, rng)
        return loss, {f"ae.{k}": v for k, v in ae_grads.items()}

    def loss_estimator(self, cat: Array, cont: Array, neg_cat: Array, neg_cont: Array,
                       noise: Array | None, gamma: float,
                       rng: np.random.Generator | None = None):
        """Contrastive loss over a batch and its negatives.

        ``neg_cat``/``neg_cont`` hold K >= 1 negatives per record, flattened
        row-major; ``noise`` is an optional precomputed (B*K, p) latent
        offset. The gradient continues through the encoder and field
        transforms on both the positive and negative paths. Like the other
        losses, it takes in-range 2-D batches and does not check them.
        """
        b, s = cat.shape[0], neg_cat.shape[0]
        k = s // b
        p = self.latent_dim

        ae = self.autoencoder
        x_e, pos_ctx = ae.encode(cat, cont, rng)
        z_e, neg_ctx = ae.encode(neg_cat, neg_cont, rng)
        if noise is not None:
            z_in = z_e + noise
        else:
            z_in = z_e

        loss, est_grads, g_pos_lat, g_neg_lat = self.estimator.loss(
            x_e, z_in.reshape(b, k, p), gamma, rng)
        grads = {f"est.{key}": v for key, v in est_grads.items()}

        paths = []
        for (ft_cache, enc_caches, _), g_lat in ((pos_ctx, g_pos_lat),
                                                 (neg_ctx, g_neg_lat.reshape(s, p))):
            g_xt, enc_grads = ae.encoder.backward(enc_caches, g_lat)
            paths.append({f"enc.{key}": v for key, v in enc_grads.items()}
                         | ae.transform.backward(ft_cache, g_xt))
        pos, neg = paths
        for key, g in pos.items():
            g += neg[key]
            grads[f"ae.{key}"] = g
        return loss, grads

    def loss_joint(self, cat, cont, neg_cat, neg_cont, noise, gates, lam: float,
                   gamma: float, rng: np.random.Generator | None = None):
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
            recon_part, grads = self.loss_recon(cat, cont, rng)
            total += lam * recon_part
            for g in grads.values():
                g *= lam
        if gate_est:
            est_part, est_grads = self.loss_estimator(
                cat, cont, neg_cat, neg_cont, noise, gamma, rng)
            total += est_part
            # in place, lam * recon + (positive + negative path)
            for key, g in est_grads.items():
                if key in grads:
                    grads[key] += g
                else:
                    grads[key] = g
        return total, grads, recon_part, est_part
