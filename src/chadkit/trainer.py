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
from dataclasses import dataclass, field

import numpy as np

from .autoencoder import FoldedEncoder
from .data import Dataset, batch_iter
from .errors import TrainingDiverged
from .estimator import SecondaryNoiseSpec
from .model import ChadModel
from .negsampler import NegSamplerConfig, generate_negatives_batch
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

    def to_json(self) -> dict:
        return {
            "phase_epochs": list(self.phase_epochs),
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "gamma_start": self.gamma_start,
            "gamma_max": self.gamma_max,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TrainSchedule":
        return cls(tuple(obj["phase_epochs"]), obj["learning_rate"], obj["batch_size"],
                   obj["gamma_start"], obj["gamma_max"], obj["seed"])


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


class _PhaseRunner:
    """Shared batch loop for the three phases."""

    def __init__(self, model: ChadModel, data: Dataset, schedule: TrainSchedule,
                 neg_config: NegSamplerConfig | None, noise_spec: SecondaryNoiseSpec,
                 streams, log: TrainLog | None):
        self.model = model
        self.data = data
        self.schedule = schedule
        self.neg_config = neg_config
        self.noise_spec = noise_spec
        self.streams = streams
        self.log = log if log is not None else TrainLog()

    def run(self, phase: int, opt_ae: Adam | None, opt_est: Adam | None):
        sched = self.schedule
        epochs = sched.phase_epochs[phase - 1]
        if phase == 3 and epochs:
            # nothing feeding the latents trains, so fold the encoder and
            # encode every record once for the whole phase
            encoder = FoldedEncoder(self.model.autoencoder)
            latents = encoder.encode(self.data.cat, self.data.cont)
        for epoch in range(epochs):
            lam = sched.lambda_for(phase, epoch)
            gamma = sched.gamma_for(phase, epoch)
            epoch_seed = child_seed(self.streams["shuffle"])
            for b_idx, idx in enumerate(batch_iter(self.data.n, sched.batch_size,
                                                   epoch_seed)):
                gates = gates_for(phase, b_idx)
                cat, cont = self.data.cat[idx], self.data.cont[idx]
                neg_cat = neg_cont = noise = None
                if gates[1]:
                    neg_cat, neg_cont = generate_negatives_batch(
                        cat, cont, self.neg_config, self.data.schema,
                        self.streams["negsampler"])
                    noise = self.noise_spec.draw(self.streams["noise"], neg_cat.shape[0],
                                                 self.model.latent_dim)
                if phase == 3:
                    neg_latents = encoder.encode(neg_cat, neg_cont)
                    if noise is not None:
                        neg_latents += noise
                    # the latents take no gradient, so their gradients are dropped
                    total, est_grads, _, _ = self.model.estimator.loss(
                        latents[idx], neg_latents.reshape(len(idx), -1, self.model.latent_dim),
                        gamma, train=True, rng=self.streams["dropout"])
                    grads = {f"est.{k}": g for k, g in est_grads.items()}
                    l_r, l_est = None, total
                else:
                    total, grads, l_r, l_est = self.model.loss_joint(
                        cat, cont, neg_cat, neg_cont, noise, gates, lam, gamma,
                        train=True, rng=self.streams["dropout"])
                if not np.isfinite(total):
                    raise TrainingDiverged(
                        f"non-finite loss {total} at phase {phase}, epoch {epoch}, "
                        f"batch {b_idx}")
                if gates[0] and opt_ae is not None:
                    opt_ae.step({k: g for k, g in grads.items() if k.startswith("ae.")})
                if gates[1] and opt_est is not None:
                    opt_est.step({k: g for k, g in grads.items() if k.startswith("est.")})
                self.log.add(phase=phase, epoch=epoch, batch=b_idx,
                             gates=list(gates), **{"lambda": lam}, gamma=gamma,
                             loss_recon=l_r, loss_est=l_est)
        return self.model


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


def _runner(model, data, schedule, neg_config, noise_spec, streams, log):
    _keep_freed_heap()
    if streams is None:
        streams = named_streams(schedule.seed)
    return _PhaseRunner(model, data, schedule, neg_config, noise_spec, streams, log)


def run_phase1(model: ChadModel, data: Dataset, schedule: TrainSchedule,
               log: TrainLog | None = None, streams=None) -> ChadModel:
    """Burn-in: reconstruction only; estimator parameters stay untouched."""
    runner = _runner(model, data, schedule, None, SecondaryNoiseSpec(False), streams, log)
    opt_ae = Adam(model.autoencoder_params(), schedule.learning_rate)
    return runner.run(1, opt_ae, None)


def run_phase2(model: ChadModel, data: Dataset, schedule: TrainSchedule,
               neg_config: NegSamplerConfig, noise_spec: SecondaryNoiseSpec = NOISE_ON,
               log: TrainLog | None = None, streams=None) -> ChadModel:
    """Joint training with the contrastive term on alternate batches."""
    runner = _runner(model, data, schedule, neg_config, noise_spec, streams, log)
    opt_ae = Adam(model.autoencoder_params(), schedule.learning_rate)
    opt_est = Adam(model.estimator_params(), schedule.learning_rate)
    return runner.run(2, opt_ae, opt_est)


def run_phase3(model: ChadModel, data: Dataset, schedule: TrainSchedule,
               neg_config: NegSamplerConfig, noise_spec: SecondaryNoiseSpec = NOISE_ON,
               log: TrainLog | None = None, streams=None) -> ChadModel:
    """Estimator fine-tuning; everything feeding the latent space is frozen."""
    runner = _runner(model, data, schedule, neg_config, noise_spec, streams, log)
    opt_est = Adam(model.estimator_params(), schedule.learning_rate)
    return runner.run(3, None, opt_est)


def train(model: ChadModel, data: Dataset, schedule: TrainSchedule,
          neg_config: NegSamplerConfig, noise_spec: SecondaryNoiseSpec = NOISE_ON,
          log: TrainLog | None = None, checkpoint_fn=None) -> ChadModel:
    """All three phases in sequence over a single set of named streams.

    ``checkpoint_fn(phase, model)`` is called after each phase when given.

    On Linux with glibc, each phase first fixes the process's mmap threshold
    at 32 MiB and its trim threshold at 64 MiB (``mallopt``), so phase 2's
    freed temporaries are reused rather than returned to the kernel and
    faulted in again. Up to 64 MiB of freed heap then stays with the process;
    no arithmetic changes.
    """
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
