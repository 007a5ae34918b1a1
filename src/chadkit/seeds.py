"""Named random streams derived from a single root seed.

Every source of randomness in a run pulls from its own stream, so turning
one component on or off (e.g. secondary noise) never perturbs the draws
seen by the others.
"""
from __future__ import annotations

import numpy as np

STREAM_NAMES = ("init", "shuffle", "negsampler", "noise", "dropout")


def named_streams(seed: int) -> dict[str, np.random.Generator]:
    """Split ``seed`` into one independent generator per stream name."""
    children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
    return {name: np.random.default_rng(seq) for name, seq in zip(STREAM_NAMES, children)}


def child_seed(rng: np.random.Generator) -> int:
    """Draw a fresh 63-bit seed from ``rng`` (e.g. one per epoch for shuffling)."""
    return int(rng.integers(0, 2**63 - 1))
