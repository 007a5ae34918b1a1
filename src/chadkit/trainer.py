"""Three-phase training schedule.

Phase 1 (burn-in) trains the autoencoder alone on reconstruction. Phase 2
trains both components jointly, enabling the contrastive term only on
even-indexed batches and decaying the reconstruction weight per epoch.
Phase 3 freezes everything that feeds the latent space and fine-tunes the
estimator, ramping the penalty on misclassified nominal records; its frozen
encoder runs in inference mode, without dropout.
"""
from __future__ import annotations

import ctypes
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .autoencoder import FoldedEncoder
from .data import Dataset, batch_iter
from .errors import TrainingDiverged
from .estimator import SecondaryNoiseSpec
from .model import ChadModel
from .negsampler import NegSamplerConfig, check_sampler_schema, generate_negatives_batch
from .nn import Adam
from .seeds import child_seed, named_streams

# phases 2 and 3 add the secondary noise unless told otherwise
NOISE_ON = SecondaryNoiseSpec(True)

# mallopt(3) parameters and the values training fixes them at
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024   # glibc's ceiling for its dynamic threshold
TRIM_THRESHOLD_BYTES = 2 * MMAP_THRESHOLD_BYTES  # the ratio of glibc's dynamic rule


@dataclass
class TrainSchedule:
    phase_epochs: tuple[int, int, int] = (50, 10, 25)
    learning_rate: float = 5e-4
    batch_size: int = 256
    gamma_start: float = 1.0
    gamma_max: float = 2.0
    seed: int = 0

    def __post_init__(self):
        self.phase_epochs = tuple(int(e) for e in self.phase_epochs)
        if len(self.phase_epochs) != 3 or any(e < 0 for e in self.phase_epochs):
            raise ValueError("phase_epochs must be three non-negative counts")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.gamma_max < self.gamma_start:
            raise ValueError("gamma_max must be >= gamma_start")

    def lambda_for(self, phase: int, epoch: int) -> float:
        """Reconstruction weight: 1 during burn-in, exp(-epoch) in phase 2."""
        if phase == 2:
            return math.exp(-epoch)
        return 1.0

    def gamma_for(self, phase: int, epoch: int) -> float:
        """Nominal-misclassification penalty; ramps linearly over phase 3."""
        if phase != 3:
            return self.gamma_start
        e3 = self.phase_epochs[2]
        if e3 <= 1:
            return self.gamma_max
        frac = epoch / (e3 - 1)
        return self.gamma_start + (self.gamma_max - self.gamma_start) * frac


def gates_for(phase: int, batch_index: int) -> tuple[int, int]:
    """Indicator pair (reconstruction, estimator) for a batch of a phase."""
    if phase == 1:
        return (1, 0)
    if phase == 2:
        return (1, 1) if batch_index % 2 == 0 else (1, 0)
    if phase == 3:
        return (0, 1)
    raise ValueError(f"unknown phase {phase}")


@dataclass
class TrainLog:
    """Collects one entry per batch; optionally written as JSON lines."""

    entries: list = field(default_factory=list)

    def add(self, **entry):
        self.entries.append(entry)

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for entry in self.entries:
                f.write(json.dumps(entry, sort_keys=True) + "\n")


def _keep_freed_heap():
    """Fix glibc's mmap and trim thresholds so freed batch temporaries stay mapped.

    glibc starts at a 128 KiB mmap and 256 KiB trim threshold and raises them
    only after the process frees a large mapped block, so by default each
    phase-2 batch hands its temporaries back to the kernel and faults them in
    again on the next one. Both are set: setting either alone turns glibc's
    dynamic adjustment off. Off Linux, without a loadable C library, or where
    it has no ``mallopt``, nothing is done.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def _batches(phase: int, data: Dataset, schedule: TrainSchedule, streams, draw, pool):
    """Yield each batch of a phase as (epoch, batch index, rows, gates, job).

    ``job`` is the future of ``draw(rows)`` on ``pool`` for a batch whose
    estimator gate is on, else None. Jobs are submitted in batch order, each
    before the gated batch ahead of it is yielded, so the pool's one worker
    draws one gated batch ahead of the model step.
    """
    held = []   # a gated batch and the ungated ones after it
    for epoch in range(schedule.phase_epochs[phase - 1]):
        epoch_seed = child_seed(streams["shuffle"])
        for b_idx, idx in enumerate(batch_iter(data.n, schedule.batch_size, epoch_seed)):
            gates = gates_for(phase, b_idx)
            batch = (epoch, b_idx, idx, gates, pool.submit(draw, idx) if gates[1] else None)
            if gates[1]:
                yield from held
                held = [batch]
            elif held:
                held.append(batch)
            else:
                yield batch
    yield from held


def _run_phase(phase: int, model: ChadModel, data: Dataset, schedule: TrainSchedule,
               neg_config: NegSamplerConfig | None, noise_spec: SecondaryNoiseSpec | None,
               log: TrainLog | None, streams) -> ChadModel:
    """The batch loop of one phase, with the optimizers that phase steps."""
    _keep_freed_heap()
    if streams is None:
        streams = named_streams(schedule.seed)
    if log is None:
        log = TrainLog()
    opt_ae = Adam(*model.group("ae."), schedule.learning_rate) if phase < 3 else None
    opt_est = Adam(*model.group("est."), schedule.learning_rate) if phase > 1 else None
    if phase == 3 and schedule.phase_epochs[2]:
        # nothing feeding the latents trains, so fold the encoder and
        # encode every record once for the whole phase
        encoder = FoldedEncoder(model.autoencoder)
        latents = encoder.encode(data.cat, data.cont)

    def draw(idx):   # on the worker: the negsampler and noise streams, no BLAS
        neg_cat, neg_cont = generate_negatives_batch(
            data.cat[idx], data.cont[idx], neg_config, data.schema, streams["negsampler"])
        return neg_cat, neg_cont, noise_spec.draw(streams["noise"], neg_cat.shape[0],
                                                  model.latent_dim)

    pool = ThreadPoolExecutor(max_workers=1)   # starts its thread at the first job
    try:
        for epoch, b_idx, idx, gates, job in _batches(phase, data, schedule, streams,
                                                      draw, pool):
            lam = schedule.lambda_for(phase, epoch)
            gamma = schedule.gamma_for(phase, epoch)
            neg_cat, neg_cont, noise = (None, None, None) if job is None else job.result()
            if phase == 3:
                neg_latents = encoder.encode(neg_cat, neg_cont)
                if noise is not None:
                    neg_latents += noise
                # the latents take no gradient, so their gradients are dropped
                total, _, _ = model.estimator.loss(
                    latents[idx], neg_latents.reshape(len(idx), -1, model.latent_dim),
                    gamma, streams["dropout"])
                l_r, l_est = None, total
            else:
                total, l_r, l_est = model.loss_joint(
                    data.cat[idx], data.cont[idx], neg_cat, neg_cont, noise, gates, lam,
                    gamma, streams["dropout"])
            if not np.isfinite(total):
                raise TrainingDiverged(
                    f"non-finite loss {total} at phase {phase}, epoch {epoch}, "
                    f"batch {b_idx}")
            if gates[0]:
                opt_ae.step()
            if gates[1]:
                opt_est.step()
            log.add(phase=phase, epoch=epoch, batch=b_idx,
                    gates=list(gates), **{"lambda": lam}, gamma=gamma,
                    loss_recon=l_r, loss_est=l_est)
    finally:   # every job is taken by now, unless an exception cut the phase short
        pool.shutdown(cancel_futures=True)
    return model


def run_phase1(model: ChadModel, data: Dataset, schedule: TrainSchedule,
               log: TrainLog | None = None, streams=None) -> ChadModel:
    """Burn-in: reconstruction only; estimator parameters stay untouched."""
    return _run_phase(1, model, data, schedule, None, None, log, streams)


def run_phase2(model: ChadModel, data: Dataset, schedule: TrainSchedule,
               neg_config: NegSamplerConfig, noise_spec: SecondaryNoiseSpec = NOISE_ON,
               log: TrainLog | None = None, streams=None) -> ChadModel:
    """Joint training with the contrastive term on alternate batches."""
    return _run_phase(2, model, data, schedule, neg_config, noise_spec, log, streams)


def run_phase3(model: ChadModel, data: Dataset, schedule: TrainSchedule,
               neg_config: NegSamplerConfig, noise_spec: SecondaryNoiseSpec = NOISE_ON,
               log: TrainLog | None = None, streams=None) -> ChadModel:
    """Estimator fine-tuning; everything feeding the latent space is frozen."""
    return _run_phase(3, model, data, schedule, neg_config, noise_spec, log, streams)


def train(model: ChadModel, data: Dataset, schedule: TrainSchedule,
          neg_config: NegSamplerConfig, noise_spec: SecondaryNoiseSpec = NOISE_ON,
          log: TrainLog | None = None, checkpoint_fn=None) -> ChadModel:
    """All three phases in sequence over a single set of named streams.

    ``checkpoint_fn(phase, model)`` is called after each phase when given.
    The schema is checked against the negative sampler's rule
    (``check_sampler_schema``) before phase 1, so a schema with nothing to
    perturb raises ``ConfigError`` before any training or checkpoint.

    On Linux with glibc, each phase first fixes the process's mmap threshold
    at 32 MiB and its trim threshold at 64 MiB (``mallopt``), so phase 2's
    freed temporaries are reused rather than returned to the kernel and
    faulted in again. Up to 64 MiB of freed heap then stays with the process;
    no arithmetic changes.

    In phases 2 and 3 one worker thread draws each gated batch's negatives
    and noise one gated batch ahead, from the ``negsampler`` and ``noise``
    streams only and with no BLAS call; the bits are those of a serial loop.
    No thread outlives the call, whether it returns or raises.
    """
    check_sampler_schema(data.schema)
    if log is None:
        log = TrainLog()
    streams = named_streams(schedule.seed)
    run_phase1(model, data, schedule, log, streams)
    if checkpoint_fn:
        checkpoint_fn(1, model)
    run_phase2(model, data, schedule, neg_config, noise_spec, log, streams)
    if checkpoint_fn:
        checkpoint_fn(2, model)
    run_phase3(model, data, schedule, neg_config, noise_spec, log, streams)
    if checkpoint_fn:
        checkpoint_fn(3, model)
    return model
