import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tworound.secondround import AllocationRule, ContractViolation, settle_round, u2


def _grid_allocations():
    yield AllocationRule((1.0, 0.0, 0.0))
    yield AllocationRule((0.7, 0.3, 0.0))
    yield AllocationRule((0.5, 0.3, 0.2))
    yield AllocationRule((0.6, 0.25, 0.1, 0.05))
    yield AllocationRule((0.4, 0.3, 0.2, 0.1))


class TestAllocationRule:
    def test_beta_counts_positive_ranks(self):
        assert AllocationRule((0.7, 0.3, 0.0)).beta == 2
        assert AllocationRule((1.0, 0.0, 0.0)).beta == 1
        assert AllocationRule((0.25, 0.25, 0.25, 0.25)).beta == 4

    def test_beta_is_the_leading_positive_run_on_random_rules(self):
        rng = np.random.default_rng(20261018)
        for _ in range(300):
            alpha = int(rng.integers(1, 8))
            beta = int(rng.integers(1, alpha + 1))
            head = np.sort(rng.uniform(0.01, 1.0, size=beta))[::-1]
            x = AllocationRule(tuple(head / head.sum() * rng.uniform(0.2, 1.0)) + (0.0,) * (alpha - beta))
            assert x.beta == len(list(itertools.takewhile(lambda v: v > 0, x.x))) == beta

    def test_equality_hash_and_repr_see_only_x(self):
        a, b = AllocationRule((0.7, 0.3, 0.0)), AllocationRule((0.7, 0.3, 0))
        assert a == b and hash(a) == hash(b) == hash(AllocationRule((0.7, 0.3, 0.0)))
        assert repr(a) == repr(b) == "AllocationRule(x=(0.7, 0.3, 0.0))"
        assert a != AllocationRule((0.7, 0.2, 0.0))

    def test_rejects_increasing(self):
        with pytest.raises(ContractViolation):
            AllocationRule((0.3, 0.7))

    def test_rejects_oversubscribed(self):
        with pytest.raises(ContractViolation):
            AllocationRule((0.8, 0.5))

    def test_rejects_negative(self):
        with pytest.raises(ContractViolation):
            AllocationRule((0.5, -0.1))

    def test_rejects_a_positive_entry_after_a_zero(self):
        # Both inside the monotonicity slack, but beta must be the leading positive run.
        for x in [(0.5, 0.0, 1e-16), (0.5, -1e-16, 0.0)]:
            with pytest.raises(ContractViolation):
                AllocationRule(x)
        # Without the trailing entry no rank is paid a negative amount.
        _, pay = settle_round([3.0, 2.0, 1.0], AllocationRule((0.5, 0.0, 0.0)))
        assert pay == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ContractViolation):
            AllocationRule((bad, 0.0))

    def test_prob_out_of_range_is_zero(self):
        x = AllocationRule((0.7, 0.3))
        assert x.prob(3) == 0.0
        assert x.prob(1) == 0.7


def _rank(bids, x, entrant=0):
    """1-based second-round rank of ``bids[entrant]`` (bids in tie-priority order)."""
    order, _ = settle_round(bids, x)
    return order.index(entrant) + 1


class TestMyersonPayment:
    """The payments ``settle_round`` gives each rank."""

    def test_second_price_degenerate(self):
        x = AllocationRule((1.0, 0.0, 0.0))
        _, pay = settle_round((10, 8, 5), x)
        assert pay[0] == pytest.approx(8)
        assert pay[1] == 0.0

    def test_hand_evaluated_two_winner_rule(self):
        x = AllocationRule((0.7, 0.3, 0.0))
        _, pay = settle_round((10, 8, 5), x)
        assert pay[0] == pytest.approx(4.7)
        assert pay[1] == pytest.approx(1.5)
        assert pay[2] == 0.0

    def test_top_rank_pays_runner_up(self):
        v2, v3 = 350.0, 200.0
        x = AllocationRule((1.0, 0.0))
        assert settle_round((v2, v3), x)[1][0] == pytest.approx(v3)

    def test_boundary_bid_treated_as_zero(self):
        # With full support, the bottom rank's threshold bid is s_{alpha+1} = 0.
        x = AllocationRule((0.5, 0.3, 0.2))
        assert settle_round((9, 6, 3), x)[1][2] == pytest.approx(0.0)

    def test_wrong_length_rejected(self):
        x = AllocationRule((0.7, 0.3, 0.0))
        with pytest.raises(ContractViolation):
            settle_round((10, 8), x)

    @given(
        st.lists(st.integers(0, 20), min_size=2, max_size=4),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_payment_bounds(self, bids, data):
        bids = sorted(bids, reverse=True)
        alpha = len(bids)
        raw = data.draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False), min_size=alpha, max_size=alpha
            )
        )
        raw = sorted(raw, reverse=True)
        total = sum(raw)
        if total > 1:
            raw = [v / total for v in raw]
        if all(v == 0 for v in raw):
            raw = [1.0] + [0.0] * (alpha - 1)
        x = AllocationRule(tuple(raw))
        _, pay = settle_round(bids, x)
        for rank in range(1, alpha + 1):
            p = pay[rank - 1]
            assert p >= -1e-12
            assert p <= bids[rank - 1] * x.prob(rank) + 1e-9


class TestSecondRoundRank:
    """The rank order ``settle_round`` gives; ties go to the earlier entrant."""

    X3 = AllocationRule((1.0, 0.0, 0.0))

    def test_strict_ordering(self):
        assert _rank((9, 10, 5), self.X3) == 2

    def test_tie_resolved_by_key(self):
        assert _rank((7, 7, 7), self.X3, entrant=0) == 1
        assert _rank((7, 7, 7), self.X3, entrant=2) == 3


class TestU2:
    def test_second_price_winner(self):
        x = AllocationRule((1.0, 0.0, 0.0))
        assert u2(10, 10, (8, 5), x) == pytest.approx(2)

    def test_loser_gets_nothing(self):
        x = AllocationRule((1.0, 0.0, 0.0))
        assert u2(10, 4, (8, 5), x) == 0.0

    def test_fractional_allocation(self):
        x = AllocationRule((0.7, 0.3, 0.0))
        assert u2(10, 10, (8, 5), x) == pytest.approx(2.3)

    def test_negative_bid_rejected(self):
        x = AllocationRule((1.0, 0.0))
        with pytest.raises(ContractViolation):
            u2(10, -1, (5,), x)

    def test_truthful_dominates_on_small_grid(self):
        # The payment rule makes the second round itself strategyproof.
        grid = range(0, 11, 2)
        for x in _grid_allocations():
            alpha = x.alpha
            for others in itertools.product(grid, repeat=alpha - 1):
                for v in grid:
                    truthful = u2(v, v, others, x)
                    for s in grid:
                        assert truthful >= u2(v, s, others, x) - 1e-9

    def test_higher_bid_never_lowers_allocation(self):
        grid = range(0, 9)
        for x in _grid_allocations():
            alpha = x.alpha
            for others in itertools.product(grid, repeat=alpha - 1):
                probs = []
                for s in grid:
                    probs.append(x.prob(_rank((s, *others), x)))
                assert all(b >= a for a, b in zip(probs, probs[1:]))
