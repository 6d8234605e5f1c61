import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tworound.dsic import check_dsic, find_deviation
from tworound.engine import Mechanism, settle
from tworound.secondround import AllocationRule
from tworound.selection import (
    ExclusionY,
    SelectionDistribution,
    SelectionError,
    _pairwise_sum,
    enumerate_subsets,
    from_exclusion_Y,
    marginal_probabilities,
    sample_subset,
)


def sparse_distribution(rng, theta, alpha):
    """A random distribution in which about half of the subsets have probability zero."""
    subsets = enumerate_subsets(theta, alpha)
    raw = rng.random(len(subsets))
    raw[rng.random(len(subsets)) < 0.5] = 0.0
    raw[rng.integers(len(subsets))] += 0.5
    return SelectionDistribution(theta, alpha, dict(zip(subsets, (raw / raw.sum()).tolist())))


class TestPairwiseSum:
    # Lengths cross each of numpy's boundaries: 8 lanes, the 128-entry split, and splits twice.
    LENGTHS = (1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 255, 257, 300)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_floats_sum_as_np_sum(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            a = (rng.random(n) * 10.0 ** rng.integers(-8, 8, n) * rng.choice([-1, 1], n)).tolist()
            kept = list(a)
            total = _pairwise_sum(a)
            assert type(total) is float
            assert total == float(np.sum(np.array(a)))
            assert a == kept

    @pytest.mark.parametrize("k", LENGTHS)
    def test_columns_sum_as_the_row_sums(self, k):
        rng = np.random.default_rng(k)
        w = rng.random((33, k)) * 10.0 ** rng.integers(-8, 8, (33, k))
        cols = list(np.ascontiguousarray(w.T))
        kept = [col.copy() for col in cols]
        total = _pairwise_sum(cols)
        assert np.array_equal(total, w.sum(axis=1))
        assert all(np.array_equal(col, old) for col, old in zip(cols, kept))
        assert not any(np.shares_memory(total, col) for col in cols)


class TestEnumerateSubsets:
    def test_pairs_of_three(self):
        assert enumerate_subsets(3, 2) == [(1, 2), (1, 3), (2, 3)]

    def test_triples_of_four(self):
        subsets = enumerate_subsets(4, 3)
        assert subsets == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        assert len(subsets) == 4

    def test_full_subset(self):
        assert enumerate_subsets(5, 5) == [(1, 2, 3, 4, 5)]

    def test_alpha_above_theta_rejected(self):
        with pytest.raises(SelectionError):
            enumerate_subsets(3, 4)

    @pytest.mark.parametrize("theta", range(1, 13))
    def test_counts_are_binomial(self, theta):
        for alpha in range(1, theta + 1):
            assert len(enumerate_subsets(theta, alpha)) == math.comb(theta, alpha)


class TestSelectionDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(SelectionError):
            SelectionDistribution(3, 2, {(1, 2): 0.5, (1, 3): 0.2, (2, 3): 0.2})

    def test_normalizes_tiny_drift(self):
        drift = 1e-10
        d = SelectionDistribution(
            3, 2, {(1, 2): 0.5 + drift, (1, 3): 0.25, (2, 3): 0.25}
        )
        assert sum(d.probs.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(SelectionError):
            SelectionDistribution(3, 2, {(1, 2): bad, (1, 3): 0.5, (2, 3): 0.5})

    def test_rejects_missing_subsets(self):
        with pytest.raises(SelectionError):
            SelectionDistribution(3, 2, {(1, 2): 0.5, (1, 3): 0.5})

    @pytest.mark.parametrize(
        "subsets",
        [[(1, 2.7), (1, 3), (2.2, 3)], [(1, 3), (2, 3), (2, True)], [(1, 2), (1, 3), ("2", "3")]],
    )
    def test_rejects_non_integer_subset_entries(self, subsets):
        # int() would truncate 2.7 and 2.2 to (1, 2) and (2, 3) and read True as 1.
        with pytest.raises(SelectionError, match="expected integers"):
            SelectionDistribution(3, 2, dict(zip(subsets, (0.5, 0.3, 0.2))))
        with pytest.raises(SelectionError, match="expected integers"):
            SelectionDistribution.point_mass(3, subsets[-1])

    def test_numpy_integer_subset_entries_accepted(self):
        ids = np.arange(1, 4)
        d = SelectionDistribution(3, 2, {(ids[0], ids[1]): 0.5, (1, 3): 0.3, (ids[1], np.int32(3)): 0.2})
        assert list(d.probs.items()) == [((1, 2), 0.5), ((1, 3), 0.3), ((2, 3), 0.2)]
        assert all(type(i) is int for key in d.probs for i in key)
        assert SelectionDistribution.point_mass(3, ids[1:]).probs[(2, 3)] == 1.0

    def test_json_round_trip(self):
        d = SelectionDistribution.uniform(4, 2)
        doc = json.loads(d.to_json())
        assert SelectionDistribution.from_json_dict(doc) == d

    @pytest.mark.parametrize(
        "key,value",
        [("theta", 2.0), ("theta", True), ("alpha", "1"), ("subset", [1.0]), ("subset", [True]), ("p", "0.5")],
    )
    def test_from_json_dict_checks_types(self, key, value):
        doc = {"theta": 2, "alpha": 1, "probs": [{"subset": [1], "p": 0.5}, {"subset": [2], "p": 0.5}]}
        if key in doc:
            doc[key] = value
        else:
            doc["probs"][0][key] = value
        with pytest.raises(SelectionError):
            SelectionDistribution.from_json_dict(doc)


class TestMarginals:
    def test_uniform_pairs(self):
        d = SelectionDistribution.uniform(3, 2)
        y = marginal_probabilities(d)
        assert y == pytest.approx([2 / 3, 2 / 3, 2 / 3])
        assert y.sum() == pytest.approx(2.0, abs=1e-9)

    def test_hand_enumerated_triples(self):
        d = SelectionDistribution(
            4,
            3,
            {(1, 2, 3): 0.1, (1, 2, 4): 0.2, (1, 3, 4): 0.3, (2, 3, 4): 0.4},
        )
        assert marginal_probabilities(d) == pytest.approx([0.6, 0.7, 0.8, 0.9])

    def test_everyone_advances(self):
        d = SelectionDistribution.uniform(5, 5)
        assert marginal_probabilities(d) == pytest.approx([1.0] * 5)

    @given(st.integers(2, 6), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_marginals_sum_to_alpha(self, theta, pyrandom):
        alpha = pyrandom.randint(1, theta)
        subsets = enumerate_subsets(theta, alpha)
        raw = [pyrandom.random() + 1e-3 for _ in subsets]
        total = sum(raw)
        d = SelectionDistribution(theta, alpha, {s: w / total for s, w in zip(subsets, raw)})
        assert marginal_probabilities(d).sum() == pytest.approx(alpha, abs=1e-9)

    def test_equal_to_the_per_subset_loop_bit_for_bit(self):
        # The reference adds every subset's probability, zeros included, in lexicographic order.
        rng = np.random.default_rng(7)
        for _ in range(200):
            theta = int(rng.integers(1, 9))
            d = sparse_distribution(rng, theta, int(rng.integers(1, theta + 1)))
            y = np.zeros(theta)
            for subset, p in d.probs.items():
                for i in subset:
                    y[i - 1] += p
            assert marginal_probabilities(d).tobytes() == y.tobytes()


class TestExclusionIndexing:
    def test_three_candidate_mapping(self):
        y = ExclusionY((0.6, 0.25, 0.15))
        # subset {2,3} excludes rank 1 -> Y_3; subset {1,2} excludes rank 3 -> Y_1
        assert from_exclusion_Y(y).probs == {(1, 2): 0.6, (1, 3): 0.25, (2, 3): 0.15}
        assert (y[1], y[3]) == (0.6, 0.15)

    def test_two_candidate_mapping(self):
        y = ExclusionY((0.3, 0.7))
        assert from_exclusion_Y(y).probs == {(1,): 0.3, (2,): 0.7}  # subset {2} excludes rank 1

    def test_round_trip_is_exact(self):
        y = ExclusionY((0.6, 0.25, 0.15))
        assert tuple(from_exclusion_Y(y).probs.values()) == y.y_vec

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(SelectionError):
            ExclusionY((0.5, 0.5, bad))

    def test_marginal_consistency(self):
        y = ExclusionY((0.5, 0.3, 0.2))
        marg = marginal_probabilities(from_exclusion_Y(y))
        for i in range(1, 4):
            assert marg[i - 1] == pytest.approx(1 - y[3 - i + 1], abs=1e-12)

    def test_ordered_flag(self):
        assert ExclusionY((0.6, 0.25, 0.15)).ordered
        assert not ExclusionY((0.25, 0.6, 0.15)).ordered
        assert not ExclusionY((0.4, 0.3, 0.3)).ordered


class TestSampling:
    def test_point_mass(self, rng):
        d = SelectionDistribution.point_mass(3, (1, 2))
        for _ in range(20):
            assert sample_subset(d, rng) == (1, 2)

    def test_uniform_frequencies(self, rng):
        d = SelectionDistribution.uniform(3, 2)
        counts = {s: 0 for s in d.subsets()}
        for _ in range(30_000):
            counts[sample_subset(d, rng)] += 1
        for s in counts:
            assert counts[s] / 30_000 == pytest.approx(1 / 3, abs=0.02)

    def test_deterministic_given_seed(self):
        d = SelectionDistribution.uniform(4, 2)
        draws1 = [sample_subset(d, np.random.default_rng(11)) for _ in range(50)]
        draws2 = [sample_subset(d, np.random.default_rng(11)) for _ in range(50)]
        assert draws1 == draws2

    def test_same_draws_as_per_call_weights(self):
        # A non-uniform (6,3) distribution; the reference rebuilds the
        # normalized weight array on every draw.
        subsets = enumerate_subsets(6, 3)
        raw = np.random.default_rng(5).random(len(subsets))
        d = SelectionDistribution(6, 3, dict(zip(subsets, raw / raw.sum())))
        ref_rng, rng = np.random.default_rng(23), np.random.default_rng(23)
        expected = []
        for _ in range(50):
            weights = np.array([d.probs[s] for s in d.subsets()])
            expected.append(d.subsets()[ref_rng.choice(len(subsets), p=weights / weights.sum())])
        assert [sample_subset(d, rng) for _ in range(50)] == expected
        assert d._live_table is d._live_table

    def test_cdf_is_generator_choice_at_the_live_subsets(self):
        # Zero weights add exact zeros to the cumulative sum Generator.choice builds over all C
        # weights, so the table's CDF is that CDF at the live indices.  At C >= 9 numpy's
        # pairwise sum groups the live weights alone differently, so normalising by their sum
        # would change some of these CDFs.
        rng = np.random.default_rng(20261019)
        for _ in range(300):
            theta = int(rng.integers(5, 11))
            alpha = int(rng.integers(2, theta - 1))
            d = sparse_distribution(rng, theta, alpha)
            subsets = d.subsets()
            weights = np.array(list(d.probs.values()))
            p = weights / weights.sum()
            cdf = p.cumsum()
            cdf /= cdf[-1]
            pairs, _, _, table_cdf = d._live_table
            assert len(subsets) >= 9 and 0 < len(pairs) < len(subsets)
            assert pairs == [(s, w) for s, w in d.probs.items() if w > 0]
            assert [c.hex() for c in table_cdf] == [c.hex() for c in cdf[weights > 0]]
            seed = int(rng.integers(2**32))
            ref_rng, draw_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            draws = [sample_subset(d, draw_rng) for _ in range(40)]
            assert draws == [subsets[ref_rng.choice(len(subsets), p=p)] for _ in range(40)]
            assert all(d.probs[s] > 0 for s in draws)



class TestLiveTable:
    """The live table is built in Python; only the numpy settlement pass builds numpy arrays."""

    def test_python_marginals_and_cdf_equal_numpy_bit_for_bit(self):
        # The numpy formulas the table used before: bincount over a position array, and the CDF
        # of the live weights divided by np.sum of all C weights.  C runs from 10 to 3,432, past
        # the 128 entries where numpy's pairwise sum splits in halves.
        rng = np.random.default_rng(20261021)
        for trial in range(150):
            theta = int(rng.integers(5, 15)) if trial % 3 else 14
            alpha = int(rng.integers(2, theta - 1))
            d = sparse_distribution(rng, theta, alpha)
            weights = np.array(list(d.probs.values()))
            assert len(weights) >= 8 and (weights == 0.0).any()
            table = np.array([s for s, w in d.probs.items() if w != 0.0], np.intp) - 1
            prob = weights[weights != 0.0]
            y = np.bincount(table.ravel(), np.repeat(prob, alpha), theta)
            cdf = (prob / weights.sum()).cumsum()
            assert marginal_probabilities(d).tobytes() == y.tobytes()
            assert [c.hex() for c in d._live_table[3]] == [c.hex() for c in (cdf / cdf[-1])]
            positions, live_prob = d._live_arrays
            assert positions.tobytes() == table.tobytes() and live_prob.tobytes() == prob.tobytes()

    def test_the_dsic_checks_build_no_numpy_table(self):
        # Uniform (4, 3) at n = 5 is DSIC, so the ray certificate ends the search; the others sweep.
        rng = np.random.default_rng(20261022)
        for theta, alpha, x, n in ((4, 3, (1.0, 0.0, 0.0), 5), (3, 2, (0.6, 0.4), 4)):
            for sel in (
                SelectionDistribution.uniform(theta, alpha), sparse_distribution(rng, theta, alpha)
            ):
                m = Mechanism(theta, alpha, sel, AllocationRule(x))
                check_dsic(m)
                find_deviation(m, range(9), n)
                assert "_live_arrays" not in sel.__dict__
                assert not any(isinstance(part, np.ndarray) for part in sel._live_table)
        m = Mechanism(6, 3, SelectionDistribution.uniform(6, 3), AllocationRule((0.7, 0.3, 0.0)))
        settle(m, [6.0, 5.0, 4.0, 3.0, 2.0, 1.0])  # settle's numpy pass builds them
        assert "_live_arrays" in m.selection.__dict__
