import math

import numpy as np
import pytest

from tworound.engine import (
    BidProfile,
    ConfigurationError,
    Mechanism,
    enumerate_outcomes,
    evaluate,
    expected_revenue,
    expected_utility,
    first_round_positions,
    simulate_run,
)
from tworound.secondround import AllocationRule, u2
from tworound.selection import ExclusionY, SelectionDistribution, from_exclusion_Y

from conftest import make_dsic_mechanism, make_non_dsic_mechanism


def n11_mech(y_vec):
    y = ExclusionY(tuple(y_vec))
    theta = y.theta
    x = AllocationRule((1.0,) + (0.0,) * (theta - 2))
    return Mechanism(theta, theta - 1, from_exclusion_Y(y), x)


class TestMechanism:
    def test_shape_mismatch_rejected(self):
        sel = SelectionDistribution.uniform(3, 2)
        with pytest.raises(ConfigurationError):
            Mechanism(4, 2, sel, AllocationRule((1.0, 0.0)))
        with pytest.raises(ConfigurationError):
            Mechanism(3, 2, sel, AllocationRule((1.0, 0.0, 0.0)))

    def test_competition_rank(self):
        m = n11_mech((0.6, 0.25, 0.15))
        assert m.beta == 1
        assert m.competition_rank == 2

    def test_json_round_trip(self):
        m = n11_mech((0.6, 0.25, 0.15))
        again = Mechanism.from_json_dict(m.to_json_dict())
        assert again.selection.probs == pytest.approx(m.selection.probs)
        assert again.allocation.x == m.allocation.x


class TestBidProfile:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ConfigurationError):
            BidProfile((5.0, bad), (5.0, 5.0))
        with pytest.raises(ConfigurationError):
            BidProfile((5.0, 4.0), (5.0, bad))


class TestFirstRound:
    def test_sorted_by_bid_then_id(self):
        m = n11_mech((0.6, 0.25, 0.15))
        bids = BidProfile((5, 9, 9, 2), (5, 9, 9, 2))
        assert first_round_positions(m, bids) == [1, 2, 0]

    def test_too_few_bidders(self):
        m = n11_mech((0.6, 0.25, 0.15))
        with pytest.raises(ConfigurationError):
            first_round_positions(m, BidProfile((5, 3), (5, 3)))


class TestTieBreaks:
    def test_second_round_tie_goes_to_better_first_round_position(self, rng):
        m = Mechanism(3, 3, SelectionDistribution.uniform(3, 3), AllocationRule((1.0, 0.0, 0.0)))
        # Bidder 1 holds position 1 and bidder 0 position 2; both bid 12 in round two.
        bids = BidProfile((9, 10, 8), (12, 12, 5))
        values = (15.0, 15.0, 5.0)
        (outcome,) = enumerate_outcomes(m, bids)
        assert outcome.winner_bidder == 1
        assert outcome.payment == pytest.approx(12.0)
        assert expected_utility(m, values, bids, 1) == pytest.approx(3.0)
        assert expected_utility(m, values, bids, 0) == 0.0
        assert simulate_run(m, bids, rng).realized_winner == 1

    def test_first_round_tie_goes_to_lower_bidder_id(self, rng):
        # Only positions 1 and 3 advance, so of two equal first-round bids
        # only the one at position 1 reaches the second round.
        m = Mechanism(3, 2, SelectionDistribution.point_mass(3, (1, 3)), AllocationRule((1.0, 0.0)))
        bids = BidProfile((9, 9, 8), (9, 9, 8))
        values = (9.0, 9.0, 8.0)
        assert expected_utility(m, values, bids, 0) == pytest.approx(1.0)
        assert expected_utility(m, values, bids, 1) == 0.0
        assert simulate_run(m, bids, rng).realized_winner == 0


class TestExpectedUtility:
    def test_all_advance_equals_second_round_utility(self, rng):
        # theta = alpha: the lottery is trivial and the game is one round.
        x = AllocationRule((0.6, 0.3, 0.1))
        m = Mechanism(3, 3, SelectionDistribution.uniform(3, 3), x)
        values = (10.0, 7.0, 4.0)
        bids = BidProfile.truthful(values)
        for i, v in enumerate(values):
            others = [b for j, b in enumerate(values) if j != i]
            direct = u2(v, v, others, x, own_key=(i, i), other_keys=[(j, j) for j in range(3) if j != i])
            assert expected_utility(m, values, bids, i) == pytest.approx(direct, abs=1e-12)

    def test_uniform_pair_selection_hand_sum(self):
        sel = SelectionDistribution.uniform(3, 2)
        m = Mechanism(3, 2, sel, AllocationRule((1.0, 0.0)))
        values = (450.0, 350.0, 200.0)
        bids = BidProfile.truthful(values)
        got = expected_utility(m, values, bids, 0)
        assert got == pytest.approx((450 - 350) / 3 + (450 - 200) / 3, abs=1e-9)

    def test_below_top_theta_gets_zero(self):
        m = n11_mech((0.6, 0.25, 0.15))
        values = (450.0, 350.0, 200.0, 100.0)
        bids = BidProfile.truthful(values)
        assert expected_utility(m, values, bids, 3) == 0.0


class TestExpectedRevenue:
    def test_truthful_exclusion_example(self):
        m = n11_mech((0.6, 0.25, 0.15))
        bids = BidProfile.truthful((450, 350, 200))
        assert expected_revenue(m, bids) == pytest.approx(290.0, abs=1e-9)

    def test_risky_order_example(self):
        m = n11_mech((0.45, 0.44, 0.11))
        # Bidder with value v2 overbids to take position 1; the others stay truthful.
        bids = BidProfile((450, 470, 200), (450, 470, 200))
        assert expected_revenue(m, bids) == pytest.approx(312.5, abs=1e-9)

    def test_point_mass_is_second_price(self):
        sel = SelectionDistribution.point_mass(3, (1, 2))
        m = Mechanism(3, 2, sel, AllocationRule((1.0, 0.0)))
        bids = BidProfile.truthful((450, 350, 200))
        assert expected_revenue(m, bids) == pytest.approx(350.0)

    def test_matches_outcome_table(self, rng):
        for _ in range(25):
            theta = int(rng.integers(2, 5))
            beta = int(rng.integers(1, theta))
            m = make_dsic_mechanism(rng, theta, beta)
            values = np.sort(rng.uniform(0, 100, size=theta + 1))[::-1]
            bids = BidProfile.truthful(values)
            table = sum(o.probability * o.payment for o in enumerate_outcomes(m, bids))
            assert expected_revenue(m, bids) == pytest.approx(table, abs=1e-9)

    def test_evaluate_is_consistent(self):
        m = n11_mech((0.6, 0.25, 0.15))
        values = (450.0, 350.0, 200.0)
        result = evaluate(m, values, BidProfile.truthful(values))
        assert result.expected_revenue == pytest.approx(290.0, abs=1e-9)
        assert result.expected_utilities[0] == pytest.approx(
            expected_utility(m, values, BidProfile.truthful(values), 0)
        )
        assert sum(o.probability for o in result.outcomes) == pytest.approx(1.0)


class TestSimulateRun:
    def test_point_mass_matches_expectation(self, rng):
        sel = SelectionDistribution.point_mass(3, (1, 2))
        m = Mechanism(3, 2, sel, AllocationRule((1.0, 0.0)))
        bids = BidProfile.truthful((450, 350, 200))
        run = simulate_run(m, bids, rng)
        assert run.realized_subset == (1, 2)
        assert run.realized_payment == pytest.approx(350.0)
        assert run.realized_winner == 0

    def test_monte_carlo_mean_matches_exact(self):
        rng = np.random.default_rng(99)
        m = n11_mech((0.6, 0.25, 0.15))
        bids = BidProfile.truthful((450, 350, 200))
        exact = expected_revenue(m, bids)
        total = sum(simulate_run(m, bids, rng).realized_payment for _ in range(50_000))
        assert total / 50_000 == pytest.approx(exact, rel=0.01)

    def test_line_of_competition_asserted(self, rng):
        # Every sampled run re-checks s_beta >= b_{theta-alpha+beta}.
        for _ in range(50):
            theta = int(rng.integers(2, 5))
            beta = int(rng.integers(1, theta))
            m = make_non_dsic_mechanism(rng, theta, beta)
            values = np.sort(rng.uniform(1, 100, size=theta))[::-1]
            b = tuple(values)
            s = tuple(v + rng.uniform(0, 5) for v in values)
            simulate_run(m, BidProfile(b, s), rng)
