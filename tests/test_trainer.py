import ctypes
import hashlib
import math
import os
import platform
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

from chadkit import trainer
from chadkit.autoencoder import FoldedEncoder
from chadkit.data import apply_normalize, batch_iter, fit_normalize
from chadkit.errors import ConfigError, TrainingDiverged
from chadkit.estimator import SecondaryNoiseSpec
from chadkit.model import ChadModel, ModelConfig
from chadkit.negsampler import NegSamplerConfig, generate_negatives_batch
from chadkit.nn import Adam
from chadkit.persist import save_model
from chadkit.seeds import child_seed, named_streams
from chadkit.synthdata import make_clustered_dataset
from chadkit.trainer import (TrainLog, TrainSchedule, gates_for, run_phase1,
                             run_phase2, run_phase3, train)

from conftest import copy_params, pinned_hash, report_pin


@pytest.fixture(scope="module")
def toy_data():
    ds = make_clustered_dataset(200, arities=(5, 6), n_cont=4, n_clusters=3, seed=9)
    # values from this generator are already positive and mostly in-range
    return ds


def build_model(ds, seed=0):
    cfg = ModelConfig(encoder_sizes=(12, 6))
    return ChadModel(ds.schema, cfg, np.random.default_rng(seed))


SCHED = dict(learning_rate=2e-3, batch_size=64)


class TestSchedule:
    def test_lambda_values(self):
        s = TrainSchedule(phase_epochs=(1, 3, 1))
        assert s.lambda_for(1, 0) == 1.0
        assert [s.lambda_for(2, t) for t in range(3)] == pytest.approx(
            [1.0, math.exp(-1), math.exp(-2)])

    def test_gamma_ramp_endpoints(self):
        s = TrainSchedule(phase_epochs=(1, 1, 5), gamma_start=1.0, gamma_max=2.0)
        assert s.gamma_for(3, 0) == 1.0
        assert s.gamma_for(3, 4) == 2.0
        assert s.gamma_for(2, 0) == 1.0
        mids = [s.gamma_for(3, e) for e in range(5)]
        assert all(b >= a for a, b in zip(mids, mids[1:]))

    def test_single_epoch_phase3_uses_max(self):
        s = TrainSchedule(phase_epochs=(0, 0, 1), gamma_max=3.0)
        assert s.gamma_for(3, 0) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainSchedule(phase_epochs=(1, 2))
        with pytest.raises(ValueError):
            TrainSchedule(batch_size=0)
        with pytest.raises(ValueError):
            TrainSchedule(gamma_start=2.0, gamma_max=1.0)


class TestGates:
    def test_truth_table(self):
        assert gates_for(1, 0) == (1, 0)
        assert gates_for(1, 7) == (1, 0)
        assert gates_for(2, 0) == (1, 1)
        assert gates_for(2, 1) == (1, 0)
        assert gates_for(2, 2) == (1, 1)
        assert gates_for(3, 0) == (0, 1)
        assert gates_for(3, 5) == (0, 1)
        with pytest.raises(ValueError):
            gates_for(4, 0)


class TestJointLoss:
    def test_gate_algebra(self, toy_data):
        model = build_model(toy_data)
        cat, cont = toy_data.cat[:16], toy_data.cont[:16]
        neg = NegSamplerConfig(m=3)
        from chadkit.negsampler import generate_negatives_batch
        rng = np.random.default_rng(5)
        ncat, ncont = generate_negatives_batch(cat, cont, neg, toy_data.schema, rng)

        recon_only, l_r, l_est = model.loss_joint(
            cat, cont, ncat, ncont, None, (1, 0), lam=1.0, gamma=1.0)
        assert l_est is None
        direct = model.autoencoder.reconstruction_loss(cat, cont)
        assert recon_only == pytest.approx(direct, rel=1e-12)

        est_only, l_r, l_est = model.loss_joint(
            cat, cont, ncat, ncont, None, (0, 1), lam=0.123, gamma=1.0)
        assert l_r is None
        direct_est = model.loss_estimator(cat, cont, ncat, ncont, None, 1.0)
        assert est_only == pytest.approx(direct_est, rel=1e-12)

        lam = math.exp(-1)
        both, l_r, l_est = model.loss_joint(
            cat, cont, ncat, ncont, None, (1, 1), lam=lam, gamma=1.0)
        assert both == pytest.approx(lam * l_r + l_est, rel=1e-12)

    @staticmethod
    def _batch(data):
        cat, cont = data.cat[:16], data.cont[:16]
        ncat, ncont = generate_negatives_batch(cat, cont, NegSamplerConfig(m=3), data.schema,
                                               np.random.default_rng(5))
        noise = np.random.default_rng(6).standard_normal((ncat.shape[0], 6))
        return cat, cont, ncat, ncont, noise

    def test_joint_gradient_is_the_gated_sum_bitwise(self, toy_data):
        model = build_model(toy_data)
        cat, cont, ncat, ncont, noise = self._batch(toy_data)
        # on a fresh model the estimator's part of this gradient is zero
        model.autoencoder.reconstruction_loss(cat, cont)
        recon = model.grad.copy()
        model.loss_estimator(cat, cont, ncat, ncont, noise, 1.3)
        contrastive = model.grad.copy()
        model.loss_joint(cat, cont, ncat, ncont, noise, (1, 1), lam=0.4, gamma=1.3)
        assert model.grad.tobytes() == (0.4 * recon + contrastive).tobytes()

    @pytest.mark.parametrize("loss", ["recon", "contrastive", "estimator", "joint",
                                      "joint_recon_only"])
    def test_a_second_call_leaves_the_same_gradient_bitwise(self, toy_data, loss):
        model = build_model(toy_data)
        cat, cont, ncat, ncont, noise = self._batch(toy_data)
        calls = {
            "recon": lambda: model.autoencoder.reconstruction_loss(cat, cont),
            "contrastive": lambda: model.loss_estimator(cat, cont, ncat, ncont, noise, 1.3),
            "estimator": lambda: model.estimator.loss(
                model.encode(cat, cont), model.encode(ncat, ncont).reshape(16, 3, 6), 1.3),
            "joint": lambda: model.loss_joint(cat, cont, ncat, ncont, noise, (1, 1), 0.4, 1.3),
            "joint_recon_only": lambda: model.loss_joint(cat, cont, None, None, None,
                                                         (1, 0), 0.4, 1.3),
        }
        calls[loss]()
        first = model.grad.copy()
        assert first.any()
        calls[loss]()
        assert model.grad.tobytes() == first.tobytes()

    def test_weighting_arithmetic(self):
        # hand-set parts: 0.4 * exp(-1) + 0.2
        assert 0.4 * math.exp(-1) + 0.2 == pytest.approx(0.34715, abs=5e-6)

    def test_lambda_never_touches_estimator_term(self, toy_data):
        model = build_model(toy_data)
        cat, cont = toy_data.cat[:8], toy_data.cont[:8]
        from chadkit.negsampler import generate_negatives_batch
        ncat, ncont = generate_negatives_batch(
            cat, cont, NegSamplerConfig(m=2), toy_data.schema,
            np.random.default_rng(0))
        a, _, _ = model.loss_joint(cat, cont, ncat, ncont, None, (0, 1), 0.9, 1.0)
        b, _, _ = model.loss_joint(cat, cont, ncat, ncont, None, (0, 1), 0.1, 1.0)
        assert a == b

    def test_gamma_never_touches_recon_term(self, toy_data):
        model = build_model(toy_data)
        cat, cont = toy_data.cat[:8], toy_data.cont[:8]
        a, _, _ = model.loss_joint(cat, cont, None, None, None, (1, 0), 1.0, 1.0)
        b, _, _ = model.loss_joint(cat, cont, None, None, None, (1, 0), 1.0, 9.0)
        assert a == b


class TestPhase1:
    def test_zero_epochs_change_nothing(self, toy_data):
        model = build_model(toy_data)
        before = copy_params(model)
        run_phase1(model, toy_data, TrainSchedule(phase_epochs=(0, 0, 0), **SCHED))
        after = model.params()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_estimator_frozen_bitwise(self, toy_data):
        model = build_model(toy_data)
        before = copy_params(model, "est.")
        run_phase1(model, toy_data, TrainSchedule(phase_epochs=(2, 0, 0), **SCHED))
        after = model.params()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_reconstruction_improves_on_toy_set(self, toy_data):
        model = build_model(toy_data)
        start = model.autoencoder.reconstruction_loss(toy_data.cat, toy_data.cont)
        run_phase1(model, toy_data, TrainSchedule(phase_epochs=(10, 0, 0), **SCHED))
        end = model.autoencoder.reconstruction_loss(toy_data.cat, toy_data.cont)
        assert end < start

    def test_burn_in_epoch_means_strictly_decrease(self, toy_data):
        model = build_model(toy_data)
        log = TrainLog()
        run_phase1(model, toy_data,
                   TrainSchedule(phase_epochs=(10, 0, 0), **SCHED), log=log)
        per_epoch = {}
        for e in log.entries:
            per_epoch.setdefault(e["epoch"], []).append(e["loss_recon"])
        means = [float(np.mean(v)) for _, v in sorted(per_epoch.items())]
        assert len(means) == 10
        assert all(b < a for a, b in zip(means, means[1:]))


class TestPhase2:
    def test_lambda_sequence_in_log(self, toy_data):
        model = build_model(toy_data)
        log = TrainLog()
        run_phase2(model, toy_data, TrainSchedule(phase_epochs=(0, 3, 0), **SCHED),
                   NegSamplerConfig(m=2), log=log)
        lams = sorted({e["lambda"] for e in log.entries}, reverse=True)
        assert lams == pytest.approx([1.0, math.exp(-1), math.exp(-2)])

    def test_batch_parity_gating_in_log(self, toy_data):
        model = build_model(toy_data)
        log = TrainLog()
        run_phase2(model, toy_data, TrainSchedule(phase_epochs=(0, 1, 0), **SCHED),
                   NegSamplerConfig(m=2), log=log)
        for entry in log.entries:
            expected = [1, 1] if entry["batch"] % 2 == 0 else [1, 0]
            assert entry["gates"] == expected
            if entry["gates"][1]:
                assert entry["loss_est"] is not None
            else:
                assert entry["loss_est"] is None

    def test_both_components_update(self, toy_data):
        model = build_model(toy_data)
        before = copy_params(model)
        run_phase2(model, toy_data, TrainSchedule(phase_epochs=(0, 2, 0), **SCHED),
                   NegSamplerConfig(m=2))
        after = model.params()
        assert any(not np.array_equal(before[k], after[k])
                   for k in model.group("ae.")[2])
        assert any(not np.array_equal(before[k], after[k])
                   for k in model.group("est.")[2])


class TestPhase3:
    def test_everything_feeding_latents_is_frozen(self, toy_data):
        model = build_model(toy_data)
        ae_before = copy_params(model, "ae.")
        est_before = copy_params(model, "est.")
        log = TrainLog()
        run_phase3(model, toy_data, TrainSchedule(phase_epochs=(0, 0, 3), **SCHED),
                   NegSamplerConfig(m=2), log=log)
        after = model.params()
        assert all(np.array_equal(ae_before[k], after[k]) for k in ae_before)
        assert any(not np.array_equal(est_before[k], after[k]) for k in est_before)

    def test_mapped_continuous_block_is_frozen(self):
        # r > 32, so the continuous block goes through g.W
        ds = make_clustered_dataset(150, arities=(4, 5), n_cont=36, n_clusters=3, seed=2)
        model = build_model(ds)
        assert "ae.g.W" in model.params()
        before = copy_params(model, "ae.")
        run_phase3(model, ds, TrainSchedule(phase_epochs=(0, 0, 2), **SCHED),
                   NegSamplerConfig(m=2))
        after = model.params()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_matches_plain_reference_loop(self, toy_data):
        # the loop phase 3 stands for: per batch, encode positives and negatives
        # with the plain encoder in inference mode, then run the estimator's
        # two-pass loss with training dropout
        sched = TrainSchedule(phase_epochs=(0, 0, 2), seed=3, **SCHED)
        neg = NegSamplerConfig(m=3)
        model, ref = build_model(toy_data), build_model(toy_data)
        run_phase3(model, toy_data, sched, neg)

        streams = named_streams(sched.seed)
        opt = Adam(*ref.group("est."), sched.learning_rate)
        for epoch in range(2):
            gamma = sched.gamma_for(3, epoch)
            for idx in batch_iter(toy_data.n, sched.batch_size,
                                  child_seed(streams["shuffle"])):
                cat, cont = toy_data.cat[idx], toy_data.cont[idx]
                ncat, ncont = generate_negatives_batch(cat, cont, neg, toy_data.schema,
                                                       streams["negsampler"])
                noise = streams["noise"].standard_normal((ncat.shape[0], ref.latent_dim))
                x_e, _ = ref.autoencoder.encode(cat, cont)
                z_e, _ = ref.autoencoder.encode(ncat, ncont)
                ref.estimator.loss(x_e, (z_e + noise).reshape(len(idx), neg.m, -1), gamma,
                                   streams["dropout"])
                opt.step()
        got = model.params()
        for key, want in ref.group("est.")[2].items():
            np.testing.assert_allclose(got[key], want, rtol=1e-9, atol=1e-12)

    def test_gamma_ramp_endpoints_in_log(self, toy_data):
        model = build_model(toy_data)
        log = TrainLog()
        sched = TrainSchedule(phase_epochs=(0, 0, 4), gamma_max=2.0, **SCHED)
        run_phase3(model, toy_data, sched, NegSamplerConfig(m=2), log=log)
        gammas = [e["gamma"] for e in log.entries]
        assert gammas[0] == 1.0
        assert gammas[-1] == 2.0

    def test_estimator_loss_improves(self, toy_data):
        # gamma pinned at 1 so the logged loss is comparable across epochs
        model = build_model(toy_data)
        sched = TrainSchedule(phase_epochs=(5, 2, 12), gamma_max=1.0, **SCHED)
        log = TrainLog()
        train(model, toy_data, sched, NegSamplerConfig(m=4), log=log)
        p3 = [e["loss_est"] for e in log.entries
              if e["phase"] == 3 and e["loss_est"] is not None]
        first = np.mean(p3[:4])
        last = np.mean(p3[-4:])
        assert last < first


class TestDeterminism:
    def test_full_training_is_bitwise_reproducible(self, toy_data):
        results = []
        for _ in range(2):
            model = build_model(toy_data, seed=4)
            sched = TrainSchedule(phase_epochs=(2, 2, 2), seed=77, **SCHED)
            train(model, toy_data, sched, NegSamplerConfig(m=3))
            results.append(copy_params(model))
        a, b = results
        assert set(a) == set(b)
        for key in a:
            assert np.array_equal(a[key], b[key]), key

    def test_first_draw_of_each_stream_is_pinned(self):
        # drawn while a sixth, unused stream was still spawned last: removing
        # the last child of a SeedSequence leaves the others' draws unchanged
        streams = named_streams(1)
        first = {name: int(g.integers(0, 2**63 - 1)) for name, g in streams.items()}
        assert first == {"init": 6447455697624344478, "shuffle": 4388153156890594172,
                         "negsampler": 2150598011306793289, "noise": 1052614132938589681,
                         "dropout": 5635765635411543465}

    def test_gate_truth_table_over_full_run(self, toy_data):
        model = build_model(toy_data)
        log = TrainLog()
        sched = TrainSchedule(phase_epochs=(1, 2, 1), **SCHED)
        train(model, toy_data, sched, NegSamplerConfig(m=2), log=log)
        for e in log.entries:
            expected = {1: (1, 0), 3: (0, 1)}.get(e["phase"])
            if expected is None:
                expected = (1, 1) if e["batch"] % 2 == 0 else (1, 0)
            assert tuple(e["gates"]) == expected

    def test_log_written_as_jsonl(self, toy_data, tmp_path):
        import json
        model = build_model(toy_data)
        log = TrainLog()
        run_phase1(model, toy_data, TrainSchedule(phase_epochs=(1, 0, 0), **SCHED),
                   log=log)
        path = tmp_path / "log.jsonl"
        log.write_jsonl(path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(log.entries)
        entry = json.loads(lines[0])
        assert set(entry) == {"phase", "epoch", "batch", "gates", "lambda", "gamma",
                              "loss_recon", "loss_est"}


class TestDivergence:
    def test_non_finite_loss_aborts_with_location(self, toy_data):
        model = build_model(toy_data)
        model.params()["ae.enc.0.W"][...] = np.nan
        with pytest.raises(TrainingDiverged, match="phase 1"):
            run_phase1(model, toy_data,
                       TrainSchedule(phase_epochs=(1, 0, 0), **SCHED))


def _serial_run_phase(phase, model, data, schedule, neg_config, noise_spec, log, streams):
    """The phase loop drawing each batch's negatives and noise in line, on one thread."""
    opt_ae = Adam(*model.group("ae."), schedule.learning_rate) if phase < 3 else None
    opt_est = Adam(*model.group("est."), schedule.learning_rate) if phase > 1 else None
    epochs = schedule.phase_epochs[phase - 1]
    if phase == 3 and epochs:
        encoder = FoldedEncoder(model.autoencoder)
        latents = encoder.encode(data.cat, data.cont)
    for epoch in range(epochs):
        lam = schedule.lambda_for(phase, epoch)
        gamma = schedule.gamma_for(phase, epoch)
        epoch_seed = child_seed(streams["shuffle"])
        for b_idx, idx in enumerate(batch_iter(data.n, schedule.batch_size, epoch_seed)):
            gates = gates_for(phase, b_idx)
            cat, cont = data.cat[idx], data.cont[idx]
            neg_cat = neg_cont = noise = None
            if gates[1]:
                neg_cat, neg_cont = generate_negatives_batch(
                    cat, cont, neg_config, data.schema, streams["negsampler"])
                noise = noise_spec.draw(streams["noise"], neg_cat.shape[0], model.latent_dim)
            if phase == 3:
                neg_latents = encoder.encode(neg_cat, neg_cont)
                if noise is not None:
                    neg_latents += noise
                total, _, _ = model.estimator.loss(
                    latents[idx], neg_latents.reshape(len(idx), -1, model.latent_dim),
                    gamma, streams["dropout"])
                l_r, l_est = None, total
            else:
                total, l_r, l_est = model.loss_joint(
                    cat, cont, neg_cat, neg_cont, noise, gates, lam, gamma,
                    streams["dropout"])
            if gates[0]:
                opt_ae.step()
            if gates[1]:
                opt_est.step()
            log.add(phase=phase, epoch=epoch, batch=b_idx,
                    gates=list(gates), **{"lambda": lam}, gamma=gamma,
                    loss_recon=l_r, loss_est=l_est)
    return model


class TestWorkerDraws:
    """Each gated batch's negatives and noise are drawn on a worker thread."""

    def _train(self, monkeypatch, data, noise_on, serial):
        streams = []
        monkeypatch.setattr(trainer, "named_streams",
                            lambda seed: streams.append(named_streams(seed)) or streams[-1])
        if serial:
            monkeypatch.setattr(trainer, "_run_phase", _serial_run_phase)
        model, log = build_model(data, seed=4), TrainLog()
        # 200 rows in batches of 48: five batches, so phase 2's gated batches
        # cross each epoch boundary
        train(model, data, TrainSchedule(phase_epochs=(2, 3, 3), seed=11, learning_rate=2e-3,
                                         batch_size=48),
              NegSamplerConfig(m=3), SecondaryNoiseSpec(noise_on), log=log)
        monkeypatch.undo()
        return model, streams[0], log

    @pytest.mark.parametrize("noise_on", [True, False])
    def test_bits_and_streams_match_the_serial_loop(self, toy_data, monkeypatch, noise_on):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # the two threads trade the interpreter lock often
        try:
            model, streams, log = self._train(monkeypatch, toy_data, noise_on, serial=False)
        finally:
            sys.setswitchinterval(interval)
        ref, ref_streams, ref_log = self._train(monkeypatch, toy_data, noise_on, serial=True)
        assert model.flat.tobytes() == ref.flat.tobytes()
        for name in ("shuffle", "negsampler", "noise", "dropout"):
            assert streams[name].bit_generator.state == ref_streams[name].bit_generator.state
        assert log.entries == ref_log.entries

    def test_a_worker_exception_re_raises_and_joins_the_worker(self, toy_data, monkeypatch):
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("third gated batch")
            return generate_negatives_batch(*args)

        monkeypatch.setattr(trainer, "generate_negatives_batch", failing)
        threads, log = threading.active_count(), TrainLog()
        with pytest.raises(RuntimeError, match="third gated batch"):
            train(build_model(toy_data), toy_data,
                  TrainSchedule(phase_epochs=(1, 2, 1), **SCHED), NegSamplerConfig(m=2),
                  log=log)
        assert threading.active_count() == threads
        # four batches an epoch, gated at 0 and 2: the third gated batch is
        # epoch 1's first, and every batch before it trained
        last = log.entries[-1]
        assert (last["phase"], last["epoch"], last["batch"]) == (2, 0, 3)

    def test_divergence_in_phase3_raises_and_joins_the_worker(self, toy_data, monkeypatch):
        def diverge_in_phase3(phase, model):
            if phase == 2:
                monkeypatch.setattr(model.estimator, "loss",
                                    lambda *args: (float("nan"), None, None))

        threads = threading.active_count()
        with pytest.raises(TrainingDiverged, match="phase 3, epoch 0, batch 0"):
            train(build_model(toy_data), toy_data,
                  TrainSchedule(phase_epochs=(1, 1, 2), **SCHED), NegSamplerConfig(m=2),
                  checkpoint_fn=diverge_in_phase3)
        assert threading.active_count() == threads


class TestSamplerSchemaCheck:
    def test_nothing_to_perturb_raises_before_the_first_batch(self):
        # one-valued categorical fields and 3 continuous fields: no negative can differ
        ds = make_clustered_dataset(200, arities=(1, 1), n_cont=3, n_clusters=3, seed=9)
        log, checkpoints = TrainLog(), []
        with pytest.raises(ConfigError, match=r"arities \[1, 1\], r=3"):
            train(build_model(ds), ds, TrainSchedule(phase_epochs=(1, 1, 1), **SCHED),
                  NegSamplerConfig(m=2), log=log,
                  checkpoint_fn=lambda phase, _model: checkpoints.append(phase))
        assert log.entries == [] and checkpoints == []

    def test_one_valued_fields_with_four_continuous_train(self):
        ds = make_clustered_dataset(200, arities=(1, 1), n_cont=4, n_clusters=3, seed=9)
        log = TrainLog()
        train(build_model(ds), ds, TrainSchedule(phase_epochs=(1, 1, 1), **SCHED),
              NegSamplerConfig(m=2), log=log)
        assert {e["phase"] for e in log.entries} == {1, 2, 3}


# Phase 2 of a desk-shaped training in a fresh process, where glibc's dynamic
# thresholds start low; prints the minor faults between the phase-1 and
# phase-2 checkpoints.
PHASE2_FAULT_PROBE = """
import resource
import numpy as np
from chadkit.model import ChadModel, ModelConfig
from chadkit.negsampler import NegSamplerConfig
from chadkit.synthdata import make_clustered_dataset
from chadkit.trainer import TrainSchedule, train

ds = make_clustered_dataset(6000, arities=(10, 20, 35, 50), n_cont=6)
model = ChadModel(ds.schema, ModelConfig(), np.random.default_rng(1))
faults = []
train(model, ds, TrainSchedule(phase_epochs=(1, 2, 0), seed=1), NegSamplerConfig(m=10),
      checkpoint_fn=lambda phase, _model: faults.append(
          resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
print(faults[1] - faults[0])
"""


class TestHeapThresholds:
    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc",
                        reason="the thresholds are glibc's; other C libraries keep their own policy")
    def test_phase2_does_not_fault_its_temporaries_back_in(self):
        # a fresh process: earlier tests in this one have already raised
        # glibc's dynamic thresholds
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", PHASE2_FAULT_PROBE], capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                             check=True, timeout=300)
        assert int(out.stdout) < 20_000

    def test_sets_both_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        trainer._keep_freed_heap()
        assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert mallopt.restype is ctypes.c_int

    @pytest.mark.parametrize("case", ["not_linux", "no_c_library", "no_mallopt"])
    def test_no_op_where_mallopt_is_missing(self, case, monkeypatch, toy_data):
        def cdll(name):
            if case == "not_linux":
                raise AssertionError("the C library is loaded off Linux")
            if case == "no_c_library":
                raise OSError("no C library")
            return types.SimpleNamespace()

        monkeypatch.setattr(sys, "platform", "darwin" if case == "not_linux" else "linux")
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        trainer._keep_freed_heap()
        model = build_model(toy_data)
        log = TrainLog()
        train(model, toy_data, TrainSchedule(phase_epochs=(1, 1, 1), **SCHED),
              NegSamplerConfig(m=2), log=log)
        assert {e["phase"] for e in log.entries} == {1, 2, 3}


# a short training whose 300-value embedding and 38 continuous fields (mapped
# through g.W) take code paths the desk-scale pin never runs
def test_pinned_wide_model_hash(tmp_path):
    ds = make_clustered_dataset(600, arities=(3, 11, 70, 300), n_cont=38, seed=9)
    stats = fit_normalize(ds)
    ds = apply_normalize(stats, ds)
    files = []
    for run in range(2):
        model = ChadModel(ds.schema, ModelConfig(), np.random.default_rng(9))
        assert "ae.g.W" in model.params()
        train(model, ds, TrainSchedule(phase_epochs=(2, 1, 1), batch_size=64, seed=9),
              NegSamplerConfig(m=3), SecondaryNoiseSpec(True))
        save_model(tmp_path / f"wide{run}.chad", model, stats)
        files.append((tmp_path / f"wide{run}.chad").read_bytes())
    assert files[0] == files[1]
    digest = hashlib.sha256(files[0]).hexdigest()
    pin, key = pinned_hash("wide_model")
    if pin:
        assert digest == pin
    report_pin("pinned-wide-model-hash", "two same-seed trainings wrote identical bytes; "
               "wide", digest, pin, key)
