"""Model persistence.

File layout (also described in docs/model_format.md):

    bytes 0..7    little-endian uint64: byte length H of the JSON header
    bytes 8..8+H  UTF-8 JSON header
    remainder     the model's parameter vector (``ChadModel.flat``) as
                  little-endian float64: every parameter flattened C-order,
                  in the header's "params" order, which is sorted-name order

The header carries the schema (with vocabularies), its hash, the model and
transform configuration, the normalization stats, and the parameter names
and shapes. A saved model is therefore self-contained for scoring. The
schema hash and the transform widths are derived from the schema and the
model configuration, and a reader refuses a header where they differ.
"""
from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .autoencoder import field_widths
from .data import NormalizationStats, RecordSchema
from .errors import DataError, SchemaError
from .model import ChadModel, ModelConfig, parameter_count

FORMAT_VERSION = 1


def _derived_entries(schema: RecordSchema, config: ModelConfig) -> dict:
    """The header entries that ``schema`` and ``config`` determine."""
    embed_dims, _, mapped = field_widths(schema, config)
    return {
        "schema_hash": schema.hash(),
        "transform_spec": {"embed_dims": list(embed_dims), "cont_dim": schema.r,
                           "cont_mode": "linear" if mapped else "identity",
                           "g_dim": config.g_dim},
    }


def save_model(path, model: ChadModel, stats: NormalizationStats):
    params = model.params()
    header = {
        "format_version": FORMAT_VERSION,
        "schema": model.schema.to_json(),
        "model_config": model.config.to_json(),
        **_derived_entries(model.schema, model.config),
        "normalization": stats.to_json(),
        "params": [{"name": n, "shape": list(p.shape)} for n, p in params.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    # written beside the target and renamed over it, so a crash mid-write
    # never leaves a truncated model file behind
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            f.write(model.flat.astype("<f8", copy=False).tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_model(path):
    """Rebuild (model, stats) from a saved file.

    Any file that is not a well-formed model raises DataError: among others,
    one whose "schema_hash" or "transform_spec" differs from what its schema
    and model config give, one whose "params" list differs from the (name,
    shape) list of the model its header describes, or one holding a
    non-finite parameter or normalization bound.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        raw_len = f.read(8)
        if len(raw_len) != 8:
            raise DataError(f"{path}: truncated model file")
        (header_len,) = struct.unpack("<Q", raw_len)
        if header_len > size - 8:
            raise DataError(f"{path}: truncated model header "
                            f"({header_len} bytes declared, file has {size})")
        blob = f.read(header_len)
        if len(blob) != header_len:
            raise DataError(f"{path}: truncated model header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (ValueError, RecursionError) as err:   # bad UTF-8, bad or too deep JSON
            raise DataError(f"{path}: model header is not UTF-8 JSON: {err}") from None
        if not isinstance(header, dict):
            raise DataError(f"{path}: model header is not a JSON object")
        if header.get("format_version") != FORMAT_VERSION:
            raise DataError(
                f"{path}: unsupported format version {header.get('format_version')}")
        payload = f.read()

    try:
        schema = RecordSchema.from_json(header["schema"])
        config = ModelConfig.from_json(header["model_config"])
        for key, value in _derived_entries(schema, config).items():
            if header[key] != value:
                raise DataError(f"{path}: the header's {key} does not match its "
                                f"schema and model_config")
        stats = NormalizationStats.from_json(header["normalization"])
        if stats.mins.shape != (schema.r,) or stats.maxs.shape != (schema.r,):
            raise DataError(f"{path}: the header's normalization does not hold one range "
                            f"per continuous field")
        entries = [(str(e["name"]), tuple(int(d) for d in e["shape"]))
                   for e in header["params"]]
        # nothing is allocated from sizes the payload cannot back
        count = parameter_count(schema, config)
        if count * 8 > len(payload):
            raise DataError(f"{path}: truncated payload: the header's layer sizes "
                            f"need {count} parameters, the payload holds {len(payload) // 8}")
        model = ChadModel(schema, config, np.random.default_rng(0))
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError,
            SchemaError) as err:   # OverflowError: int() of an infinite size
        raise DataError(f"{path}: malformed model header: {err!r}") from None

    expected = [(name, p.shape) for name, p in model.params().items()]
    if entries != expected:
        raise DataError(f"{path}: the header's parameter list does not match the "
                        f"model it describes")
    if len(payload) != model.flat.size * 8:
        raise DataError(f"{path}: {len(payload) - model.flat.size * 8} trailing payload bytes")
    model.flat[...] = np.frombuffer(payload, dtype="<f8")
    # a non-finite weight or bound would score every row as nan without a word
    if not np.isfinite(model.flat).all():
        name = next(k for k, p in model.params().items() if not np.isfinite(p).all())
        raise DataError(f"{path}: parameter {name} holds a non-finite value")
    for key in ("mins", "maxs"):
        bad = np.flatnonzero(~np.isfinite(getattr(stats, key)))
        if bad.size:
            raise DataError(f"{path}: normalization.{key}[{bad[0]}] is not finite")
    wide = stats.overflowing()
    if wide.size:
        raise DataError(f"{path}: the normalization range of "
                        f"{schema.cont_fields[wide[0]]!r} is wider than float64 holds")
    return model, stats
