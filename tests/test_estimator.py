import math

import numpy as np
import pytest

from chadkit.estimator import Estimator, SecondaryNoiseSpec, contrastive_loss_terms
from chadkit.nn import pack

from conftest import grad_check


class TestLikelihood:
    def test_zero_weights_give_half(self):
        est = Estimator(8, 0.1, np.random.default_rng(0))
        for layer in est.stack.layers:
            layer.W[...] = 0.0
            layer.b[...] = 0.0
        f = est.score(np.random.default_rng(0).normal(size=(5, 8)))
        assert np.allclose(f, 0.5)

    def test_output_bounded_on_random_latents(self):
        est = Estimator(16, 0.1, np.random.default_rng(1))
        z = np.random.default_rng(2).normal(size=(10_000, 16)) * 3
        f = est.score(z)
        assert np.all(f > 0.0) and np.all(f < 1.0)

    def test_architecture_is_half_width_hidden(self):
        est = Estimator(16, 0.1, np.random.default_rng(0))
        assert [l.out_dim for l in est.stack.layers] == [8, 1]
        assert est.stack.layers[0].activation == "tanh"
        assert est.stack.layers[1].activation == "sigmoid"

    def test_penultimate_shape(self):
        est = Estimator(12, 0.1, np.random.default_rng(3))
        h = est.penultimate(np.zeros((4, 12)))
        assert h.shape == (4, 6)


class TestInjectNoise:
    """``SecondaryNoiseSpec.draw``, the one source of the secondary noise."""

    def test_disabled_is_identity(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        assert SecondaryNoiseSpec(enabled=False).draw(rng, 6, 5) is None
        assert rng.bit_generator.state == before

    def test_noise_mean_is_zero_montecarlo(self):
        draws = 100_000
        noise = SecondaryNoiseSpec().draw(np.random.default_rng(6), draws, 3)
        assert noise.shape == (draws, 3)
        se = 1.0 / math.sqrt(draws)
        assert np.all(np.abs(noise.mean(axis=0)) < 3 * se)

    def test_variance_additivity(self):
        rng = np.random.default_rng(7)
        z = rng.normal(scale=0.6, size=(60_000, 4))
        noisy = z + SecondaryNoiseSpec().draw(np.random.default_rng(8), *z.shape)
        base = z.var(axis=0)
        got = noisy.var(axis=0)
        # sampling tolerance on the variance of a sum of independents
        assert np.allclose(got, base + 1.0, atol=0.03)


class TestContrastiveLoss:
    def test_hand_plugged_example(self):
        # one record, f(pos) = 0.9, one negative with f = 0.1:
        # -ln(0.9) - ln(1 - 0.1) = -2 ln(0.9)
        loss, _, _ = contrastive_loss_terms(np.array([0.9]), np.array([[0.1]]), 1.0)
        assert loss == pytest.approx(-2.0 * math.log(0.9), rel=1e-12)
        assert loss == pytest.approx(0.21072, abs=5e-6)

    def test_gamma_scales_only_positive_term(self):
        loss, _, _ = contrastive_loss_terms(np.array([0.9]), np.array([[0.1]]), 2.0)
        expected = -2.0 * math.log(0.9) - math.log(0.9)
        assert loss == pytest.approx(expected, rel=1e-12)
        assert loss == pytest.approx(0.31608, abs=5e-6)

    def test_loss_vanishes_at_the_optimum_limit(self):
        loss, _, _ = contrastive_loss_terms(np.array([1.0 - 1e-12]),
                                            np.array([[1e-12]]), 1.0)
        assert 0.0 <= loss < 1e-9

    def test_loss_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            f_pos = rng.uniform(0.01, 0.99, size=5)
            f_neg = rng.uniform(0.01, 0.99, size=(5, 3))
            loss, _, _ = contrastive_loss_terms(f_pos, f_neg, rng.uniform(1, 2))
            assert loss >= 0.0

    def test_monotonicity_in_scores(self):
        f_neg = np.full((1, 4), 0.3)
        lo, _, _ = contrastive_loss_terms(np.array([0.6]), f_neg, 1.0)
        hi, _, _ = contrastive_loss_terms(np.array([0.7]), f_neg, 1.0)
        assert hi < lo
        f_pos = np.array([0.8])
        worse = np.full((1, 4), 0.3)
        worse[0, 2] = 0.5
        base, _, _ = contrastive_loss_terms(f_pos, np.full((1, 4), 0.3), 1.0)
        bumped, _, _ = contrastive_loss_terms(f_pos, worse, 1.0)
        assert bumped > base

    def test_inner_mean_before_log(self):
        # mean of (0.1, 0.5) is 0.3; the log sees the mean, not the per-sample logs
        f_neg = np.array([[0.1, 0.5]])
        loss, _, _ = contrastive_loss_terms(np.array([0.9]), f_neg, 1.0)
        expected = -math.log(0.9) - math.log(1.0 - 0.3)
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_clamped_boundary_stays_finite(self):
        loss, d_pos, d_neg = contrastive_loss_terms(np.array([0.0]),
                                                    np.array([[1.0]]), 1.0)
        assert math.isfinite(loss)
        assert d_pos[0] == 0.0 and d_neg[0, 0] == 0.0


class TestEstimatorLossGradients:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        est = Estimator(6, 0.1, rng)
        pos = rng.normal(size=(9, 6)) * 0.5
        neg = rng.normal(size=(9, 4, 6)) * 0.5
        _, _, params, grads = pack({"": est.stack})

        def loss_fn():
            loss, _, _ = est.loss(pos, neg, gamma=1.4)
            return loss

        err = grad_check(loss_fn, params, grads, probe_count=30,
                         rng=np.random.default_rng(11))
        assert err < 1e-6

    def test_latent_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        est = Estimator(5, 0.1, rng)
        pos = rng.normal(size=(3, 5)) * 0.5
        neg = rng.normal(size=(3, 2, 5)) * 0.5
        _, g_pos, g_neg = est.loss(pos, neg, gamma=1.0)
        h = 1e-6
        for (i, j) in ((0, 1), (2, 4)):
            pos[i, j] += h
            up, _, _ = est.loss(pos, neg, gamma=1.0)
            pos[i, j] -= 2 * h
            down, _, _ = est.loss(pos, neg, gamma=1.0)
            pos[i, j] += h
            assert g_pos[i, j] == pytest.approx((up - down) / (2 * h), rel=1e-4)
        for (i, k, j) in ((1, 0, 2), (2, 1, 0)):
            neg[i, k, j] += h
            up, _, _ = est.loss(pos, neg, gamma=1.0)
            neg[i, k, j] -= 2 * h
            down, _, _ = est.loss(pos, neg, gamma=1.0)
            neg[i, k, j] += h
            assert g_neg[i, k, j] == pytest.approx((up - down) / (2 * h), rel=1e-4)

    def test_trained_model_ranks_nominal_above_fresh_negatives(self):
        # rank-based AUC of held-out nominal vs freshly generated negatives
        import chadkit as ck
        from chadkit.negsampler import NegSamplerConfig, generate_negatives_batch
        from chadkit.synthdata import make_clustered_dataset, split_train_test
        ds = make_clustered_dataset(600, arities=(6, 9), n_cont=4, n_clusters=3,
                                    seed=20)
        train_set, held_out = split_train_test(ds, 0.2, seed=20)
        stats = ck.fit_normalize(train_set)
        train_n = ck.apply_normalize(stats, train_set)
        held_n = ck.apply_normalize(stats, held_out)
        model = ck.ChadModel(train_n.schema, ck.ModelConfig(encoder_sizes=(16, 8)),
                             np.random.default_rng(20))
        sched = ck.TrainSchedule(phase_epochs=(6, 2, 6), learning_rate=5e-3,
                                 batch_size=64, seed=20)
        ck.train(model, train_n, sched, NegSamplerConfig(m=5))
        f_nom = model.score_records(held_n.cat, held_n.cont)
        neg_cat, neg_cont = generate_negatives_batch(
            held_n.cat, held_n.cont, NegSamplerConfig(m=3), held_n.schema,
            np.random.default_rng(21))
        f_neg = model.score_records(neg_cat, neg_cont)
        wins = (f_nom[:, None] > f_neg[None, :]).mean()
        ties = (f_nom[:, None] == f_neg[None, :]).mean()
        auc = wins + 0.5 * ties
        assert auc > 0.5

    def test_training_separates_two_blobs(self):
        # nominal latents near the origin, negatives shifted away: after a few
        # optimizer steps the estimator must rank nominal above negatives
        from chadkit.nn import Adam
        rng = np.random.default_rng(13)
        est = Estimator(4, dropout=0.0, rng=rng)
        pos = rng.normal(size=(200, 4)) * 0.3
        neg = rng.normal(size=(200, 3, 4)) * 0.3 + 2.0
        flat, grad, params, _ = pack({"": est.stack})
        opt = Adam(flat, grad, params, lr=5e-3)
        for _ in range(300):
            est.loss(pos, neg, gamma=1.0)
            opt.step()
        f_pos = est.score(pos).mean()
        f_neg = est.score(neg.reshape(-1, 4)).mean()
        assert f_pos > f_neg + 0.5
