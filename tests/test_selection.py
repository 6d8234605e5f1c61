import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tworound.selection import (
    ExclusionY,
    SelectionDistribution,
    SelectionError,
    enumerate_subsets,
    from_exclusion_Y,
    marginal_probabilities,
    sample_subset,
    to_exclusion_Y,
)


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


class TestExclusionIndexing:
    def test_three_candidate_mapping(self):
        d = SelectionDistribution(3, 2, {(2, 3): 0.15, (1, 3): 0.25, (1, 2): 0.6})
        y = to_exclusion_Y(d)
        # subset {2,3} excludes rank 1 -> Y_3; subset {1,2} excludes rank 3 -> Y_1
        assert y[3] == pytest.approx(0.15)
        assert y[1] == pytest.approx(0.6)
        assert y.excluding(1) == pytest.approx(0.15)

    def test_two_candidate_mapping(self):
        d = SelectionDistribution(2, 1, {(2,): 0.7, (1,): 0.3})
        y = to_exclusion_Y(d)
        assert y[2] == pytest.approx(0.7)  # subset {2} excludes rank 1
        assert y[1] == pytest.approx(0.3)

    def test_round_trip_is_exact(self):
        y = ExclusionY((0.6, 0.25, 0.15))
        assert to_exclusion_Y(from_exclusion_Y(y)).y_vec == y.y_vec

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(SelectionError):
            ExclusionY((0.5, 0.5, bad))

    def test_mode_error_when_alpha_wrong(self):
        with pytest.raises(SelectionError):
            to_exclusion_Y(SelectionDistribution.uniform(4, 2))

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
        assert d._sampling_table is d._sampling_table

