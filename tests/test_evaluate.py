import numpy as np
import pytest

from chadkit.data import Dataset, RecordSchema, apply_normalize, fit_normalize, load_csv
from chadkit.errors import MetricError, SchemaError
from chadkit.estimator import SecondaryNoiseSpec
from chadkit.evaluate import (average_precision, latent_projection,
                              negative_latent_spread, score_dataset,
                              synth_anomalies, vary_anomaly_harness,
                              write_projection_csv)
from chadkit.model import ChadModel, ModelConfig
from chadkit.negsampler import NegSamplerConfig

from conftest import read_csv


def brute_force_ap(scores, labels, anomaly_is_low_score=True):
    """Independent oracle: walk the ranked list, recomputing precision and
    recall from scratch at every rank, then step-sum the curve."""
    keys = np.asarray(scores, dtype=float)
    if not anomaly_is_low_score:
        keys = -keys
    order = np.argsort(keys, kind="stable")
    ranked = np.asarray(labels)[order]
    n_pos = int(ranked.sum())
    ap = 0.0
    prev_recall = 0.0
    for n in range(1, len(ranked) + 1):
        tp = int(ranked[:n].sum())
        precision = tp / n
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


@pytest.fixture
def tiny_model(small_schema):
    return ChadModel(small_schema, ModelConfig(encoder_sizes=(8, 4)),
                     np.random.default_rng(17))


class TestAveragePrecision:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([1, 1, 0, 0])
        assert average_precision(scores, labels) == 1.0

    def test_worked_example(self):
        # ranked ascending: positives land at ranks 1 and 3
        scores = np.array([0.1, 0.2, 0.3, 0.4])
        labels = np.array([1, 0, 1, 0])
        expected = 0.5 * (1.0 + 2.0 / 3.0)
        assert average_precision(scores, labels) == pytest.approx(expected, rel=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.random(60)
        labels = (rng.random(60) < 0.3).astype(int)
        labels[0], labels[1] = 1, 0
        base = average_precision(scores, labels)
        for transform in (lambda s: 3.0 * s + 1.0,
                          lambda s: s ** 3 + s,
                          lambda s: 1.0 / (1.0 + np.exp(-s))):
            assert average_precision(transform(scores), labels) == \
                pytest.approx(base, abs=1e-12)

    def test_matches_brute_force_oracle_with_ties(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            n = int(rng.integers(5, 100))
            scores = rng.random(n)
            if trial % 3 == 0:
                scores = np.round(scores, 1)  # force ties
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            low = bool(rng.integers(2))
            assert average_precision(scores, labels, low) == \
                pytest.approx(brute_force_ap(scores, labels, low), abs=1e-12)

    def test_high_score_orientation(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        labels = np.array([1, 1, 0, 0])
        assert average_precision(scores, labels, anomaly_is_low_score=False) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            average_precision(np.array([0.1, 0.2]), np.array([1, 1]))
        with pytest.raises(MetricError):
            average_precision(np.array([0.1, 0.2]), np.array([0, 0]))

    def test_ties_keep_input_order(self):
        scores = np.array([0.5, 0.5, 0.9])
        labels = np.array([1, 0, 0])
        # positional order puts the positive first
        assert average_precision(scores, labels) == 1.0


class TestScoreDataset:
    def test_deterministic_and_bounded(self, tiny_model, small_dataset):
        a = score_dataset(tiny_model, small_dataset)
        b = score_dataset(tiny_model, small_dataset)
        assert np.array_equal(a.scores, b.scores)
        assert np.all((a.scores > 0) & (a.scores < 1))
        assert np.array_equal(a.ids, small_dataset.ids)

    def test_schema_mismatch_rejected(self, tiny_model, small_schema):
        other = Dataset(
            small_schema.__class__(["c"], ["x"], [{"a": 0}]),
            np.zeros((2, 1), dtype=np.int64), np.zeros((2, 1)))
        with pytest.raises(SchemaError):
            score_dataset(tiny_model, other)

    def test_own_schema_object_is_not_hashed(self, tiny_model, small_dataset, monkeypatch):
        assert small_dataset.schema is tiny_model.schema

        def refuse(schema):
            raise AssertionError("the model's own schema was hashed")
        monkeypatch.setattr(RecordSchema, "hash", refuse)
        assert score_dataset(tiny_model, small_dataset).scores.shape == (small_dataset.n,)

    def test_equal_schema_copy_passes(self, tiny_model, small_dataset, small_schema):
        copy = RecordSchema.from_json(small_schema.to_json())
        same = Dataset(copy, small_dataset.cat, small_dataset.cont)
        assert np.array_equal(score_dataset(tiny_model, same).scores,
                              score_dataset(tiny_model, small_dataset).scores)

    def test_other_vocabulary_rejected(self, tiny_model, small_dataset, small_schema):
        vocabs = small_schema.to_json()["vocabs"]
        vocabs[0]["purple"] = 3
        other = Dataset(RecordSchema(small_schema.cat_fields, small_schema.cont_fields, vocabs),
                        small_dataset.cat, small_dataset.cont)
        with pytest.raises(SchemaError):
            score_dataset(tiny_model, other)

    def test_sorted_ascending(self, tiny_model, small_dataset):
        ranked = score_dataset(tiny_model, small_dataset).sorted_ascending()
        assert np.all(np.diff(ranked.scores) >= 0)

    def test_labelled_csv_recipe_scores_only_finite_rows(self, tiny_model, small_dataset,
                                                        tmp_path):
        # the README's labelled evaluation: load_csv with the model's schema,
        # normalize, score_dataset, average_precision
        path = tmp_path / "test.csv"
        path.write_text("color,shape,size,weight,width,height,label\n"
                        "red,circle,0.1,0.2,0.3,0.4,0\n"
                        "red,circle,0.1,nan,0.3,0.4,1\n"
                        "blue,square,0.5,0.6,inf,0.8,0\n"
                        "green,circle,-inf,0.2,0.3,0.4,1\n"
                        "green,square,0.9,0.1,0.5,0.2,1\n")
        test, report = load_csv(path, tiny_model.schema, label_field="label")
        assert report.rows_dropped_nonfinite == 3 and report.rows_kept == 2
        scored = score_dataset(tiny_model,
                               apply_normalize(fit_normalize(small_dataset), test))
        assert scored.scores.shape == (2,) and np.all(np.isfinite(scored.scores))
        assert scored.labels.tolist() == [0, 1]
        assert 0.0 < average_precision(scored.scores, scored.labels) <= 1.0


class TestSynthAnomalies:
    def test_count_contract(self, small_dataset):
        out = synth_anomalies(small_dataset, 0.1, np.random.default_rng(0))
        assert out.n == small_dataset.n + 4
        assert int(out.labels.sum()) == 4
        assert np.all(out.labels[:small_dataset.n] == 0)

    def test_exact_count_at_even_fraction(self, small_schema):
        rng = np.random.default_rng(1)
        n = 1000
        ds = Dataset(small_schema,
                     np.stack([rng.integers(0, 3, n), rng.integers(0, 2, n)], axis=1),
                     rng.random((n, 4)))
        out = synth_anomalies(ds, 0.1, rng)
        assert int(out.labels.sum()) == 100

    def test_perturbation_intervals(self, small_schema):
        rng = np.random.default_rng(2)
        n = 400
        low = Dataset(small_schema,
                      np.zeros((n, 2), dtype=np.int64), np.full((n, 4), 0.3))
        out = synth_anomalies(low, 1.0, rng)
        anom = out.subset(np.nonzero(out.labels == 1)[0])
        moved = anom.cont[~np.isclose(anom.cont, 0.3)]
        assert np.all((moved > 0.55) & (moved < 1.05))

        high = Dataset(small_schema,
                       np.zeros((n, 2), dtype=np.int64), np.full((n, 4), 0.8))
        out = synth_anomalies(high, 1.0, rng)
        anom = out.subset(np.nonzero(out.labels == 1)[0])
        moved = anom.cont[~np.isclose(anom.cont, 0.8)]
        assert np.all((moved > 0.05) & (moved < 0.55))

    def test_exactly_one_continuous_field_moves(self, small_schema):
        rng = np.random.default_rng(3)
        base = Dataset(small_schema, np.zeros((50, 2), dtype=np.int64),
                       np.full((50, 4), 0.4))
        out = synth_anomalies(base, 1.0, rng)
        anom = out.subset(np.nonzero(out.labels == 1)[0])
        changed = (~np.isclose(anom.cont, 0.4)).sum(axis=1)
        assert np.all(changed == 1)

    def test_categorical_stays_in_vocabulary(self, small_dataset):
        out = synth_anomalies(small_dataset, 0.5, np.random.default_rng(4))
        for w, a in enumerate(out.schema.arities):
            assert out.cat[:, w].max() < a
            assert out.cat[:, w].min() >= 0

    def test_degenerate_schema_rejected(self):
        from chadkit.data import RecordSchema
        cont_only = Dataset(RecordSchema([], ["x"]),
                            np.zeros((5, 0), dtype=np.int64), np.random.rand(5, 1))
        with pytest.raises(MetricError):
            synth_anomalies(cont_only, 0.1, np.random.default_rng(0))


class TestVaryAnomalyHarness:
    def test_report_shape_and_zero_percent_error(self, tiny_model, small_dataset):
        pool = synth_anomalies(small_dataset, 0.5, np.random.default_rng(5))
        pool = pool.subset(np.nonzero(pool.labels == 1)[0])
        rows = vary_anomaly_harness(tiny_model, small_dataset, pool,
                                    percentages=[10, 20], seeds=[0, 1, 2])
        assert [r["percent"] for r in rows] == [10, 20]
        assert all(set(r) == {"percent", "ap_mean", "ap_sd", "runs"} for r in rows)
        assert all(r["runs"] == 3 for r in rows)
        with pytest.raises(MetricError):
            vary_anomaly_harness(tiny_model, small_dataset, pool, [0], seeds=[0])

    def test_pool_exhaustion(self, tiny_model, small_dataset):
        pool = small_dataset.subset(np.arange(2))
        pool.labels = np.ones(2, dtype=np.int8)
        with pytest.raises(MetricError, match="pool"):
            vary_anomaly_harness(tiny_model, small_dataset, pool, [50], seeds=[0])


class TestLatentProjection:
    def test_centered_2d_input_preserves_distances(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(40, 2))
        pts -= pts.mean(axis=0)
        proj, axes = latent_projection(pts)
        d_before = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        d_after = np.linalg.norm(proj[:, None] - proj[None], axis=2)
        assert np.allclose(d_before, d_after, atol=1e-10)

    def test_rank_one_input_zeroes_second_axis(self):
        direction = np.array([1.0, 2.0, 3.0])
        pts = np.outer(np.linspace(-1, 1, 20), direction)
        with pytest.warns(UserWarning, match="rank"):
            proj, _ = latent_projection(pts)
        assert np.allclose(proj[:, 1], 0.0)

    def test_variance_fractions_match_eigendecomposition_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(300, 16)) @ rng.normal(size=(16, 16))
        proj, _ = latent_projection(x)
        centered = x - x.mean(axis=0)
        eigvals = np.sort(np.linalg.eigvalsh(centered.T @ centered))[::-1]
        got = proj.var(axis=0, ddof=0) * len(x)
        assert np.allclose(got / eigvals.sum(), eigvals[:2] / eigvals.sum(),
                           atol=1e-8)

    def test_output_columns_centered_and_axes_orthogonal(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 5))
        proj, axes = latent_projection(x)
        assert np.all(np.abs(proj.mean(axis=0)) < 1e-10)
        assert abs(axes[0] @ axes[1]) < 1e-10
        assert np.linalg.norm(axes[0]) == pytest.approx(1.0, abs=1e-10)

    def test_csv_output(self, tmp_path):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "p.csv"
        write_projection_csv(path, pts, labels=[0, 1])
        rows = read_csv(path)
        assert rows[0] == ["x", "y", "label"]
        assert rows[1] == ["1", "2", "0"]
        assert len(rows) == 3

    def test_too_few_vectors_rejected(self):
        with pytest.raises(ValueError):
            latent_projection(np.zeros((1, 3)))


# reference direction on the KDDCup99-style intrusion corpus: average
# precision about 0.9723 with the secondary noise vs 0.9325 without; logged
# here as the target for full-scale runs, not asserted at desk scale
NOISE_REFERENCE = {"with_noise": 0.9723, "without_noise": 0.9325}


class TestNoiseAblation:
    def test_report_contains_both_settings_per_seed(self, small_dataset):
        from chadkit.evaluate import noise_ablation
        from chadkit.model import ModelConfig
        from chadkit.trainer import TrainSchedule
        sched = TrainSchedule(phase_epochs=(2, 1, 2), learning_rate=2e-3,
                              batch_size=16)
        rows = noise_ablation(small_dataset, small_dataset, sched,
                              NegSamplerConfig(m=2), seeds=[0, 1],
                              anomaly_fraction=0.3,
                              model_config=ModelConfig(encoder_sizes=(8, 4)))
        assert len(rows) == 2
        for row in rows:
            assert set(row) == {"seed", "with_noise", "without_noise"}
            for key in ("with_noise", "without_noise"):
                assert 0.0 <= row[key]["ap"] <= 1.0
                assert row[key]["latent_mean_variance"] > 0.0
            # unit isotropic noise inflates the latent spread
            assert row["with_noise"]["latent_mean_variance"] > \
                row["without_noise"]["latent_mean_variance"]


class TestNegativeLatentSpread:
    def test_noise_adds_unit_variance(self, tiny_model, small_dataset):
        neg = NegSamplerConfig(m=30)
        base = negative_latent_spread(tiny_model, small_dataset, neg,
                                      SecondaryNoiseSpec(False),
                                      np.random.default_rng(9))
        noisy = negative_latent_spread(tiny_model, small_dataset, neg,
                                       SecondaryNoiseSpec(True),
                                       np.random.default_rng(9))
        got = np.array(noisy["per_dim_variance"])
        want = np.array(base["per_dim_variance"]) + 1.0
        assert np.allclose(got, want, atol=0.15)
