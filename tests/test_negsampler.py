import math

import numpy as np
import pytest
from scipy import stats

from chadkit.data import RecordSchema
from chadkit.errors import ConfigError, SchemaError
from chadkit.negsampler import (NegSamplerConfig, _perturb_cont_batch, category_probs,
                                check_sampler_schema, generate_negatives_batch,
                                perturb_continuous)


def schema_with(arities, r):
    vocabs = [{f"v{i}": i for i in range(a)} for a in arities]
    return RecordSchema([f"c{w}" for w in range(len(arities))],
                        [f"x{j}" for j in range(r)], vocabs)


def categorical_negatives(arities, cat, m=1, seed=0):
    """Negatives of the rows ``cat`` under a schema of only categorical fields."""
    cat = np.asarray(cat, dtype=np.int64)
    neg_cat, _ = generate_negatives_batch(cat, np.zeros((len(cat), 0)),
                                          NegSamplerConfig(m=m), schema_with(arities, 0),
                                          np.random.default_rng(seed))
    return neg_cat


class TestCategoryProbs:
    def test_single_category(self):
        assert category_probs([7]).tolist() == [1.0]

    def test_equal_arities_symmetric(self):
        assert np.allclose(category_probs([5, 5]), [0.5, 0.5])

    def test_dampened_values_match_hand_formula(self):
        # oracle: evaluate the dampened weights with scalar math
        a = [100, 10]
        total = sum(a)
        q = [math.pow(x / total, 0.75) for x in a]
        expected = [qi / sum(q) for qi in q]
        got = category_probs(a)
        assert np.allclose(got, expected, atol=1e-12)
        assert got[0] == pytest.approx(0.849, abs=5e-4)
        assert got[1] == pytest.approx(0.151, abs=5e-4)

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            arities = rng.integers(1, 500, size=rng.integers(1, 8))
            assert category_probs(arities).sum() == pytest.approx(1.0)

    def test_empty_arities_rejected(self):
        with pytest.raises(SchemaError):
            category_probs([])


class TestPerturbCategoricals:
    def test_single_field_always_changes(self):
        cat = np.random.default_rng(1).integers(0, 6, size=(50, 1))
        out = categorical_negatives((6,), cat, seed=1)
        assert np.all(out != cat)
        assert np.all((0 <= out) & (out < 6))

    def test_arity_two_replacement_is_the_other_value(self):
        out = categorical_negatives((2,), [[0], [1]], m=5, seed=2)
        assert out[:5, 0].tolist() == [1] * 5
        assert out[5:, 0].tolist() == [0] * 5

    def test_replacements_uniform_over_the_other_values(self):
        n = 8000
        out = categorical_negatives((5,), np.full((n, 1), 2), seed=14)
        observed = np.bincount(out[:, 0], minlength=5)
        assert observed[2] == 0
        others = observed[[0, 1, 3, 4]]
        chi2 = float(((others - n / 4) ** 2 / (n / 4)).sum())
        assert chi2 < stats.chi2.ppf(0.99, df=3)

    def test_selection_frequency_tracks_probs_within_3_sigma(self):
        # two fields allow exactly one perturbed field per negative
        arities = [100, 10]
        probs = category_probs(arities)
        draws = 10_000
        out = categorical_negatives(arities, np.full((draws, 2), 5), seed=3)
        changed = (out != 5).sum(axis=0)
        assert changed.sum() == draws
        for w in range(2):
            p = probs[w]
            sigma = math.sqrt(draws * p * (1.0 - p))
            assert abs(changed[w] - draws * p) < 3 * sigma

    def test_arity_one_fields_are_skipped(self):
        out = categorical_negatives((1, 3), np.tile([[0, 1]], (200, 1)), seed=4)
        assert np.all(out[:, 0] == 0)
        assert np.all(out[:, 1] != 1)


class TestPerturbContinuous:
    def test_counts_per_direction(self):
        rng = np.random.default_rng(5)
        out, up, down = perturb_continuous(np.full(8, 0.5), 0.5, rng)
        assert len(up) == 2 and len(down) == 2
        assert set(up.tolist()).isdisjoint(down.tolist())

    def test_upshift_interval_at_default_deviation(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            values = rng.random(8)
            out, up, down = perturb_continuous(values, 0.5, rng)
            inc_up = out[up] - values[up]
            inc_down = out[down] - values[down]
            assert np.all(inc_up > 0.5) and np.all(inc_up < 1.5)
            assert np.all(inc_down > -0.5) and np.all(inc_down < 0.5)

    def test_small_block_is_untouched(self):
        rng = np.random.default_rng(7)
        values = np.array([0.1, 0.2, 0.3])
        out, up, down = perturb_continuous(values, 0.5, rng)
        assert np.array_equal(out, values)
        assert up.size == 0 and down.size == 0

    def test_untouched_fields_keep_their_values(self):
        rng = np.random.default_rng(8)
        values = rng.random(9)
        out, up, down = perturb_continuous(values, 0.5, rng)
        touched = set(up.tolist()) | set(down.tolist())
        rest = [j for j in range(9) if j not in touched]
        assert np.array_equal(out[rest], values[rest])

    def test_no_clamping_beyond_unit_range(self):
        rng = np.random.default_rng(9)
        out, up, _ = perturb_continuous(np.full(4, 0.9), 0.5, rng)
        assert np.all(out[up] > 1.0)


    def test_batch_pass_matches_row_column_indexing(self):
        values = np.random.default_rng(3).random((50, 13))
        out, up, down = _perturb_cont_batch(values.copy(), 0.5, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        perm = np.argsort(rng.random((50, 13)), axis=1)
        rows, expected = np.arange(50)[:, None], values.copy()
        expected[rows, perm[:, :3]] += rng.random((50, 3)) + 0.5
        expected[rows, perm[:, 3:6]] += rng.random((50, 3)) - 0.5
        assert np.array_equal(out, expected)
        assert np.array_equal(up, perm[:, :3]) and np.array_equal(down, perm[:, 3:6])


class TestGenerateNegatives:
    def test_inputs_are_left_unchanged(self, small_schema):
        cat = np.array([[1, 0], [2, 1]])
        cont = np.array([[0.2, 0.4, 0.6, 0.8], [0.1, 0.3, 0.5, 0.7]])
        before = cat.copy(), cont.copy()
        generate_negatives_batch(cat, cont, NegSamplerConfig(m=5), small_schema,
                                 np.random.default_rng(2))
        assert np.array_equal(cat, before[0]) and np.array_equal(cont, before[1])

    def test_each_sample_differs_from_source(self, small_schema):
        rng = np.random.default_rng(10)
        cat = np.array([[1, 0], [2, 1]])
        cont = np.array([[0.2, 0.4, 0.6, 0.8], [0.1, 0.3, 0.5, 0.7]])
        neg_cat, neg_cont = generate_negatives_batch(cat, cont, NegSamplerConfig(m=10),
                                                     small_schema, rng)
        assert neg_cat.shape == (20, 2) and neg_cont.shape == (20, 4)
        changed = ((neg_cat != np.repeat(cat, 10, axis=0)).any(axis=1)
                   | (neg_cont != np.repeat(cont, 10, axis=0)).any(axis=1))
        assert changed.all()

    def test_per_sample_count_range(self):
        # six categorical fields allow 1..3 perturbed fields per sample
        counts = (categorical_negatives((4,) * 6, np.zeros((1, 6)), m=4000, seed=11)
                  != 0).sum(axis=1)
        assert counts.min() >= 1 and counts.max() <= 3
        assert set(np.unique(counts).tolist()) == {1, 2, 3}

    def test_fixed_seed_reproduces_samples(self, small_schema):
        cat, cont = np.array([[2, 1]]), np.array([[0.1, 0.3, 0.5, 0.7]])
        config = NegSamplerConfig(m=6)
        a = generate_negatives_batch(cat, cont, config, small_schema,
                                     np.random.default_rng(123))
        b = generate_negatives_batch(cat, cont, config, small_schema,
                                     np.random.default_rng(123))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_degenerate_schema_rejected(self):
        # nothing to perturb: no field with two values and fewer than 4 continuous
        for arities, r, named in [((), 3, r"arities \[\], r=3"),
                                  ((1, 1), 3, r"arities \[1, 1\], r=3"),
                                  ((1,), 0, r"arities \[1\], r=0")]:
            schema = schema_with(arities, r)
            with pytest.raises(ConfigError, match=named):
                check_sampler_schema(schema)
            with pytest.raises(ConfigError):
                generate_negatives_batch(np.zeros((1, len(arities)), dtype=np.int64),
                                         np.full((1, r), 0.5),
                                         NegSamplerConfig(m=1), schema,
                                         np.random.default_rng(0))

    def test_continuous_only_schema_works_at_four_fields(self):
        # one-valued categorical fields leave the continuous pass to do the work
        for arities in [(), (1, 1)]:
            schema = schema_with(arities, 4)
            rng = np.random.default_rng(12)
            cat, cont = generate_negatives_batch(np.zeros((2, len(arities)), dtype=np.int64),
                                                 np.full((2, 4), 0.5),
                                                 NegSamplerConfig(m=3), schema, rng)
            assert cat.shape == (6, len(arities)) and not cat.any()
            assert cont.shape == (6, 4)
            assert np.all(cont.max(axis=1) > 0.5)

    def test_selection_distribution_chi_square(self):
        # with at most one field perturbed per sample, selection frequencies
        # must follow the dampened-arity distribution
        arities = (100, 10, 50)
        schema = schema_with(arities, 0)
        probs = category_probs(arities)
        rng = np.random.default_rng(13)
        n = 10_000
        cat = np.tile(np.array([[3, 3, 3]], dtype=np.int64), (n, 1))
        neg_cat, _ = generate_negatives_batch(cat, np.zeros((n, 0)),
                                              NegSamplerConfig(m=1), schema, rng)
        observed = (neg_cat != 3).sum(axis=0)
        assert observed.sum() == n
        chi2 = float(((observed - n * probs) ** 2 / (n * probs)).sum())
        assert chi2 < stats.chi2.ppf(0.99, df=len(arities) - 1)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            NegSamplerConfig(m=0)
        with pytest.raises(ConfigError):
            NegSamplerConfig(m=1, delta=0.0)
