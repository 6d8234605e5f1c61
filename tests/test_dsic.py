import hashlib
import json

import numpy as np
import pytest

from conftest import (
    exclusion_distribution,
    make_all_advance_mechanism,
    make_dsic_mechanism,
    make_non_dsic_mechanism,
)
from tworound.dsic import (
    ResourceLimitError,
    check_dsic,
    find_deviation,
    verify_witness,
)
from tworound.engine import Mechanism
from tworound.secondround import AllocationRule
from tworound.selection import SelectionDistribution

GRID = list(range(0, 9))


def mech_from_q(q):
    """alpha = theta - 1, beta = 1 mechanism from per-rank exclusion probabilities."""
    theta = len(q)
    dist = exclusion_distribution(theta, np.asarray(q, dtype=float))
    alloc = AllocationRule((1.0,) + (0.0,) * (theta - 2))
    return Mechanism(theta, theta - 1, dist, alloc)


class TestCheckDsic:
    def test_equal_top_marginals_pass(self):
        # theta=4, beta=1: marginals y=(0.8,0.8,0.8,0.6) meet both conditions.
        m = mech_from_q((0.2, 0.2, 0.2, 0.4))
        verdict = check_dsic(m)
        assert verdict.is_dsic
        assert verdict.violated_condition is None

    def test_unequal_top_marginals_fail(self):
        # y=(0.9,0.8,0.7,0.6): the top two marginals differ.
        m = mech_from_q((0.1, 0.2, 0.3, 0.4))
        verdict = check_dsic(m)
        assert not verdict.is_dsic
        assert verdict.violated_condition == "condition-2"

    def test_lower_marginal_exceeding_reference_fails(self):
        # y=(0.6,0.6,0.8): below-the-line rank advances more often than the top.
        m = mech_from_q((0.4, 0.4, 0.2))
        verdict = check_dsic(m)
        assert not verdict.is_dsic
        assert verdict.violated_condition == "condition-1"

    def test_all_advance_always_passes(self, rng):
        for _ in range(10):
            theta = int(rng.integers(2, 5))
            beta = int(rng.integers(1, theta + 1))
            assert check_dsic(make_all_advance_mechanism(rng, theta, beta)).is_dsic

    def test_verdict_serializes(self):
        doc = check_dsic(mech_from_q((0.4, 0.3, 0.2, 0.1))).to_json_dict()
        assert doc == {"is_dsic": False, "violated_condition": "condition-2"}


class TestFindDeviation:
    def test_no_witness_for_characterized_mechanism(self):
        m = mech_from_q((0.2, 0.2, 0.2, 0.4))
        assert find_deviation(m, GRID) is None

    def test_witness_for_condition2_violation(self):
        m = mech_from_q((0.6, 0.3, 0.1))
        witness = find_deviation(m, GRID)
        assert witness is not None
        assert witness.gain > 1e-9
        assert verify_witness(m, witness) == pytest.approx(witness.gain, abs=1e-9)

    def test_witness_for_condition1_violation(self):
        m = mech_from_q((0.4, 0.4, 0.2))
        witness = find_deviation(m, GRID)
        assert witness is not None
        assert verify_witness(m, witness) > 1e-9

    def test_witness_families_are_labelled(self):
        m = mech_from_q((0.6, 0.3, 0.1))
        witness = find_deviation(m, GRID)
        assert witness.family in ("conservative", "risky")
        if witness.family == "risky":
            assert witness.first_round_bid > witness.value

    def test_extra_bidders_supported(self):
        m = mech_from_q((0.2, 0.2, 0.2, 0.4))
        assert find_deviation(m, list(range(0, 5)), n=5) is None

    def test_grid_limit(self):
        m = mech_from_q((0.2, 0.2, 0.2, 0.4))
        with pytest.raises(ResourceLimitError):
            find_deviation(m, list(range(0, 20)))

    def test_bidder_limit(self):
        m = mech_from_q((0.2, 0.2, 0.2, 0.4))
        with pytest.raises(ResourceLimitError):
            find_deviation(m, GRID, n=7)
        with pytest.raises(ResourceLimitError):
            find_deviation(m, GRID, n=3)


class TestTieBreaks:
    @staticmethod
    def _search(theta, subset, x):
        m = Mechanism(theta, len(subset), SelectionDistribution.point_mass(theta, subset), AllocationRule(x))
        w = find_deviation(m, list(range(5)))
        assert verify_witness(m, w) == pytest.approx(w.gain, abs=1e-12)
        return (w.value, w.first_round_bid, w.second_round_bid, w.opponent_bids, w.gain)

    def test_deviator_takes_first_round_ties(self):
        # Only position 1 advances: matching the opponent's top bid of 4 is
        # already enough to take it.
        assert self._search(2, (1,), (1.0,)) == (1.0, 4.0, 4.0, (4.0,), 1.0)

    def test_second_round_ties_follow_first_round_position(self):
        # The deviator bids 0 and sits at position 3 against the position-2
        # opponent's 3: a second-round 3 only ties and loses, so 4 is needed.
        assert self._search(3, (2, 3), (1.0, 0.0)) == (4.0, 0.0, 4.0, (4.0, 3.0), 1.0)


class TestAgreement:
    def test_random_mechanisms_agree_with_oracle(self, rng):
        grid = list(range(0, 7))
        for _ in range(20):
            theta = int(rng.integers(2, 5))
            beta = int(rng.integers(1, theta))
            if rng.random() < 0.5:
                m = make_dsic_mechanism(rng, theta, beta)
            else:
                m = make_non_dsic_mechanism(rng, theta, beta)
            verdict = check_dsic(m)
            witness = find_deviation(m, grid, n=theta)
            if verdict.is_dsic:
                assert witness is None
            else:
                assert witness is not None
                assert verify_witness(m, witness) > 1e-9


class TestPinnedWitnesses:
    # SHA-256 of the exact first witnesses (or None) on a criterion-2 mix of
    # mechanisms; a change to the search order, a tie-break or the float
    # arithmetic of the deviator's utility moves it.
    DIGEST = "893e1142a358cc46719a227e19fb98294a7bdbe86a49f011d7218fcfaf0c8cf5"

    def test_first_witnesses_are_pinned(self):
        rng = np.random.default_rng(20241018)
        found = []
        for i in range(60):
            theta = int(rng.integers(2, 5))
            beta = int(rng.integers(1, theta))
            if i % 5 in (0, 1):
                m = make_dsic_mechanism(rng, theta, beta)
            elif i % 5 in (2, 3):
                m = make_non_dsic_mechanism(rng, theta, beta)
            else:
                m = make_all_advance_mechanism(rng, theta, int(rng.integers(1, theta + 1)))
            if theta == 4 or m.beta == m.alpha:
                n = theta
            else:
                n = int(rng.integers(theta, min(theta + 2, 7)))
            w = find_deviation(m, list(range(7)), n=n)
            found.append(
                None
                if w is None
                else [
                    w.value,
                    w.first_round_bid,
                    w.second_round_bid,
                    list(w.opponent_bids),
                    w.truthful_utility,
                    w.deviation_utility,
                ]
            )
        assert sum(w is not None for w in found) > 10
        assert hashlib.sha256(json.dumps(found).encode()).hexdigest() == self.DIGEST
