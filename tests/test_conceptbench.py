import numpy as np
import pytest
from scipy import stats

from chadkit.conceptbench import (ConceptConfig, GammaClusterSpec, data_box,
                                  fit_gmm_em, fit_kmeans, gen_concept_data,
                                  gen_nominal, nce_concept, run_concept_bench,
                                  uniform_negatives)
from chadkit.errors import ConfigError


SMALL = ConceptConfig(n_per_cluster=120, n_per_blob=12)


class TestDataGeneration:
    def test_count_contract(self):
        config = ConceptConfig(n_per_cluster=500, n_per_blob=50)
        points, labels = gen_concept_data(config, np.random.default_rng(0))
        assert len(points) == 1100
        assert int(labels.sum()) == 100
        assert int((labels == 0).sum()) == 1000

    def test_gamma_sample_mean_matches_analytic(self):
        spec = GammaClusterSpec(shape=(2.0, 3.0), scale=(1.5, 0.5), offset=(1.0, 0.0))
        draws = spec.sample(100_000, np.random.default_rng(1))
        for i, expected in enumerate((2.0 * 1.5 + 1.0, 3.0 * 0.5)):
            shape, scale = (2.0, 3.0)[i], (1.5, 0.5)[i]
            se = scale * np.sqrt(shape) / np.sqrt(100_000)
            assert abs(draws[:, i].mean() - expected) < 3 * se

    @pytest.mark.parametrize("shape", [1.0, 1.5, 2.0, 7.5])
    def test_pdf_matches_scipy(self, shape):
        # the second axis is Gamma(1, 1) at its offset, where its density is exactly 1
        scale, offset = 0.7, 2.5
        spec = GammaClusterSpec(shape=(shape, 1.0), scale=(scale, 1.0), offset=(offset, 0.0))
        x = offset + np.concatenate([[-5.0, -1e-9, 0.0], np.linspace(1e-6, 30.0, 2001)])
        got = spec.pdf(np.stack([x, np.zeros_like(x)], axis=1))
        assert got[0] == got[1] == 0.0
        assert got[2] == (1.0 / scale if shape == 1.0 else 0.0)
        want = stats.gamma.pdf(x[3:] - offset, shape, scale=scale)
        np.testing.assert_allclose(got[3:], want, rtol=1e-12, atol=0)

    def test_fixed_seed_bitwise_reproducible(self):
        a, la = gen_concept_data(SMALL, np.random.default_rng(7))
        b, lb = gen_concept_data(SMALL, np.random.default_rng(7))
        assert np.array_equal(a, b) and np.array_equal(la, lb)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GammaClusterSpec(shape=(0.0, 1.0))
        # an infinite density at the offset would switch off the negative filter
        with pytest.raises(ConfigError, match="shape must be >= 1"):
            GammaClusterSpec(shape=(0.5, 2.0))
        with pytest.raises(ConfigError):
            ConceptConfig(n_per_cluster=0)
        with pytest.raises(ConfigError):
            ConceptConfig(eps_factor=0.0)


class TestKMeans:
    def test_two_points_two_clusters(self):
        pts = np.array([[0.0, 0.0], [5.0, 5.0]])
        model = fit_kmeans(pts, 2, seed=0)
        assert np.allclose(np.sort(model.centers, axis=0), pts)
        assert np.allclose(model.score(pts), 0.0)

    def test_k1_center_is_centroid(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(100, 2))
        model = fit_kmeans(pts, 1, seed=0)
        assert np.allclose(model.centers[0], pts.mean(axis=0), atol=1e-8)

    def test_inertia_no_worse_than_random_center_pairs(self):
        rng = np.random.default_rng(3)
        pts = np.concatenate([rng.normal(size=(15, 2)),
                              rng.normal(size=(15, 2)) + 6.0])
        model = fit_kmeans(pts, 2, seed=1)
        final_inertia = model.inertia_history[-1]
        for _ in range(1000):
            centers = pts[rng.choice(len(pts), 2, replace=False)]
            d = np.linalg.norm(pts[:, None] - centers[None], axis=2).min(axis=1)
            assert final_inertia <= (d ** 2).sum() + 1e-9

    def test_inertia_monotone_nonincreasing(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(200, 2)) * np.array([3.0, 1.0])
        model = fit_kmeans(pts, 4, seed=2)
        hist = model.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_score_is_distance_to_nearest_center(self):
        model = fit_kmeans(np.array([[0.0, 0.0], [10.0, 0.0]]), 2, seed=0)
        assert model.score(np.array([[3.0, 4.0]]))[0] == pytest.approx(5.0)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            fit_kmeans(np.zeros((3, 2)), 0, seed=0)
        with pytest.raises(ValueError):
            fit_kmeans(np.zeros((1, 2)), 2, seed=0)


class TestGmm:
    def test_k1_matches_sample_moments(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(500, 2)) @ np.array([[1.0, 0.4], [0.0, 0.8]])
        model = fit_gmm_em(pts, 1, seed=0)
        assert np.allclose(model.means[0], pts.mean(axis=0), atol=1e-6)
        assert np.allclose(model.covs[0], np.cov(pts.T, bias=True), atol=1e-4)

    def test_loglik_monotone_nondecreasing(self):
        rng = np.random.default_rng(6)
        pts = np.concatenate([rng.normal(size=(150, 2)),
                              rng.normal(size=(150, 2)) + 4.0])
        model = fit_gmm_em(pts, 2, seed=1)
        hist = model.ll_history
        assert len(hist) >= 2
        assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))

    def test_well_separated_blobs_get_clean_responsibilities(self):
        rng = np.random.default_rng(7)
        a = rng.normal(scale=0.5, size=(200, 2))
        b = rng.normal(scale=0.5, size=(200, 2)) + 10.0  # 20 sigma apart
        pts = np.concatenate([a, b])
        model = fit_gmm_em(pts, 2, seed=2)
        lp = model.component_logpdf(pts) + np.log(model.weights)
        resp = np.exp(lp - lp.max(axis=1, keepdims=True))
        resp /= resp.sum(axis=1, keepdims=True)
        hard = resp.argmax(axis=1)
        first = hard[:200]
        majority = np.bincount(first).argmax()
        correct = (first == majority).mean() * 0.5 + \
            (hard[200:] == 1 - majority).mean() * 0.5
        assert correct > 0.99

    @pytest.mark.parametrize("d", [2, 3])
    def test_score_is_mixture_loglik(self, d):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(100, d))
        model = fit_gmm_em(pts, 1, seed=0)
        expected = stats.multivariate_normal(model.means[0], model.covs[0]).logpdf(pts)
        assert np.allclose(model.score(pts), expected, atol=1e-8)


class TestUniformNegatives:
    def test_huge_epsilon_accepts_everything(self):
        config = ConceptConfig(n_per_cluster=100, n_per_blob=10, eps_factor=1e12)
        rng = np.random.default_rng(9)
        nominal = gen_nominal(config, rng)
        box = data_box(nominal, config.box_expand)
        negs = uniform_negatives(config, 500, box, rng)
        assert len(negs) == 500
        lo, hi = box
        assert np.all(negs >= lo) and np.all(negs <= hi)

    def test_emitted_negatives_satisfy_density_condition(self):
        rng = np.random.default_rng(10)
        nominal = gen_nominal(SMALL, rng)
        box = data_box(nominal, SMALL.box_expand)
        negs = uniform_negatives(SMALL, 400, box, rng)
        for cluster in SMALL.clusters:
            eps = cluster.mode_density() * SMALL.eps_factor
            assert np.all(cluster.pdf(negs) < eps)

    def test_point_at_mode_would_be_rejected(self):
        cluster = SMALL.clusters[0]
        mode_xy = [cluster.offset[i] + (cluster.shape[i] - 1) * cluster.scale[i]
                   for i in range(2)]
        density = cluster.pdf(np.array([mode_xy]))[0]
        assert density >= cluster.mode_density() * SMALL.eps_factor

    def test_impossible_epsilon_raises(self):
        # a box inside the first cluster's high-density region, with a
        # threshold below any density there, rejects every draw
        config = ConceptConfig(n_per_cluster=100, n_per_blob=10, eps_factor=1e-300)
        rng = np.random.default_rng(11)
        box = (np.array([0.5, 0.5]), np.array([3.0, 3.0]))
        with pytest.raises(ConfigError, match="rejection"):
            uniform_negatives(config, 100, box, rng, max_batches=10)


class TestDiscriminatorAndBench:
    def test_discriminator_separates_nominal_from_negatives(self):
        rng = np.random.default_rng(12)
        nominal = gen_nominal(SMALL, rng)
        model = nce_concept(nominal, SMALL, rng, epochs=200)
        box = data_box(nominal, SMALL.box_expand)
        negs = uniform_negatives(SMALL, len(nominal), box,
                                 np.random.default_rng(13))
        assert model.score(nominal).mean() > model.score(negs).mean() + 0.3

    def test_trained_discriminator_ranks_anomalies_below_nominal(self):
        from chadkit.conceptbench import gen_anomalies
        rng = np.random.default_rng(14)
        nominal = gen_nominal(SMALL, rng)
        model = nce_concept(nominal, SMALL, rng, epochs=300)
        fresh_nominal = gen_nominal(SMALL, np.random.default_rng(15))
        anomalies = gen_anomalies(SMALL, np.random.default_rng(16))
        assert np.median(model.score(fresh_nominal)) > \
            np.median(model.score(anomalies))

    def test_bench_output_shape(self):
        out = run_concept_bench(SMALL, seeds=[0, 1])
        assert len(out["rows"]) == 8
        methods = {r["method"] for r in out["rows"]}
        assert methods == {"GMM k=2", "K-means k=2", "K-means k=1", "NCE"}
        assert set(out["summary"]) == methods
        for s in out["summary"].values():
            assert 0.0 <= s["ap_mean"] <= 1.0
