import math
import re
import sys

import numpy as np
import pytest

from tworound import engine
from tworound.engine import (
    BidProfile,
    ConfigurationError,
    Mechanism,
    evaluate,
    expected_revenue,
    expected_utility,
    first_round_positions,
    settle,
    simulate_run,
)
from tworound.dsic import find_deviation
from tworound.equilibrium import EQ_ATOL, N12Params, RankProfile, is_nash_equilibrium
from tworound.secondround import AllocationRule, ContractViolation, settle_round, u2
from tworound.selection import (
    ExclusionY,
    SelectionDistribution,
    SelectionError,
    enumerate_subsets,
    from_exclusion_Y,
)

from conftest import make_dsic_mechanism, make_non_dsic_mechanism, random_allocation, settle_reference


def n11_mech(y_vec):
    y = ExclusionY(tuple(y_vec))
    theta = y.theta
    x = AllocationRule((1.0,) + (0.0,) * (theta - 2))
    return Mechanism(from_exclusion_Y(y), x)


class TestMechanism:
    def test_allocation_length_mismatch_rejected(self):
        sel = SelectionDistribution.uniform(3, 2)
        with pytest.raises(ConfigurationError):
            Mechanism(sel, AllocationRule((1.0, 0.0, 0.0)))

    def test_theta_and_alpha_are_the_selections(self):
        m = Mechanism(SelectionDistribution.uniform(np.int64(4), np.int64(3)), AllocationRule((0.6, 0.4, 0.0)))
        assert (m.theta, m.alpha, m.beta) == (4, 3, 2)
        assert type(m.theta) is int and type(m.alpha) is int

    @pytest.mark.xfail(strict=True, reason="SelectionDistribution equality ignores probs (ROADMAP item 6)")
    def test_mechanisms_on_different_selections_differ(self):
        # Equal today, so any cache keyed on a mechanism would return another mechanism's answer.
        x = AllocationRule((1.0, 0.0))
        assert Mechanism(SelectionDistribution.uniform(3, 2), x) != Mechanism(
            SelectionDistribution.point_mass(3, (1, 2)), x
        )

    def test_competition_rank(self):
        m = n11_mech((0.6, 0.25, 0.15))
        assert m.beta == 1
        assert m.competition_rank == 2

    def test_json_round_trip(self):
        m = n11_mech((0.6, 0.25, 0.15))
        again = Mechanism.from_json_dict(m.to_json_dict())
        assert again.selection.probs == pytest.approx(m.selection.probs)
        assert again.allocation.x == m.allocation.x

    @pytest.mark.parametrize("x", [["1"], [True], [math.nan], 0.5, None])
    def test_from_json_dict_needs_finite_numbers_for_x(self, x):
        doc = {**n11_mech((0.6, 0.25, 0.15)).to_json_dict(), "x": x}
        with pytest.raises(ConfigurationError):
            Mechanism.from_json_dict(doc)


class TestBidProfile:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ConfigurationError):
            BidProfile((5.0, bad), (5.0, 5.0))
        with pytest.raises(ConfigurationError):
            BidProfile((5.0, 4.0), (5.0, bad))


# An int past the float range: float() of it raises OverflowError, which no entry point documents.
HUGE = 10**400
V3, BIG = (450.0, 350.0, 200.0), (HUGE, 350.0, 200.0)


def _n11():
    return n11_mech((0.6, 0.25, 0.15))


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(
            lambda: evaluate(_n11(), BIG, BidProfile.truthful(V3)),
            ConfigurationError,
            id="evaluate",
        ),
        pytest.param(
            lambda: expected_utility(_n11(), BIG, BidProfile.truthful(V3), 0),
            ConfigurationError,
            id="expected_utility",
        ),
        pytest.param(
            lambda: is_nash_equilibrium(_n11(), BIG, RankProfile((0, 1, 2), V3)),
            ConfigurationError,
            id="is_nash_equilibrium",
        ),
        pytest.param(
            lambda: BidProfile((5.0, 4.0), (5.0, HUGE)), ConfigurationError, id="BidProfile"
        ),
        pytest.param(
            lambda: BidProfile.truthful(BIG), ConfigurationError, id="BidProfile.truthful"
        ),
        pytest.param(lambda: RankProfile((0, 1), (HUGE, 4.0)), ValueError, id="RankProfile"),
        pytest.param(
            lambda: N12Params((HUGE, 400, 300, 200, 100), (0.4, 0.3, 0.2, 0.1), 0.25),
            ValueError,
            id="N12Params",
        ),
        pytest.param(lambda: ExclusionY((0.5, 0.5, HUGE)), SelectionError, id="ExclusionY"),
        pytest.param(lambda: AllocationRule((1.0, -HUGE)), ContractViolation, id="AllocationRule"),
        pytest.param(
            lambda: SelectionDistribution(3, 2, {(1, 2): HUGE, (1, 3): 0.0, (2, 3): 0.0}),
            SelectionError,
            id="SelectionDistribution",
        ),
        pytest.param(lambda: find_deviation(_n11(), (0.0, HUGE)), ValueError, id="find_deviation"),
    ],
)
def test_values_past_the_float_range_raise_the_documented_error(call, error):
    with pytest.raises(error, match="finite"):
        call()


def test_numpy_numbers_pass_the_finite_check():
    bids = BidProfile(np.array([5, 4]), np.array([5.0, 4.0], dtype=np.float32))
    assert bids == BidProfile((5.0, 4.0), (5.0, 4.0))
    values = np.array([450, 350, 200])
    want = evaluate(_n11(), V3, BidProfile.truthful(V3))
    assert evaluate(_n11(), tuple(values), BidProfile.truthful(values)) == want


class TestFirstRound:
    def test_sorted_by_bid_then_id(self):
        m = n11_mech((0.6, 0.25, 0.15))
        bids = BidProfile((5, 9, 9, 2), (5, 9, 9, 2))
        assert first_round_positions(m, bids) == [1, 2, 0]

    def test_too_few_bidders(self):
        m = n11_mech((0.6, 0.25, 0.15))
        with pytest.raises(ConfigurationError):
            first_round_positions(m, BidProfile((5, 3), (5, 3)))

    def test_reused_profile_matches_a_fresh_stable_sort(self):
        # Small integer bids make ties common; every profile is ranked many times,
        # under several theta, and the lists handed out are mutated in between.
        rng = np.random.default_rng(20261018)
        tied = 0
        for _ in range(200):
            n = int(rng.integers(2, 10))
            bids = BidProfile.truthful(rng.integers(0, 5, size=n))
            tied += len(set(bids.first_round)) < n
            for _ in range(10):
                theta = int(rng.integers(1, n + 1))
                m = Mechanism(SelectionDistribution.uniform(theta, 1), AllocationRule((1.0,)))
                want = sorted(range(n), key=bids.first_round.__getitem__, reverse=True)[:theta]
                got = first_round_positions(m, bids)
                assert got == want
                got.reverse()
                got.append(-1)
        assert tied > 150

    def test_profile_equality_hash_and_repr_ignore_the_ranking(self):
        bids = BidProfile((5, 9, 9, 2), (5, 9, 9, 2))
        fresh = BidProfile((5, 9, 9, 2), (5, 9, 9, 2))
        first_round_positions(n11_mech((0.6, 0.25, 0.15)), bids)
        assert bids == fresh and hash(bids) == hash(fresh)
        assert repr(bids) == repr(fresh) == (
            "BidProfile(first_round=(5.0, 9.0, 9.0, 2.0), second_round=(5.0, 9.0, 9.0, 2.0))"
        )
        assert bids != BidProfile((5, 9, 8, 2), (5, 9, 9, 2))


class TestTieBreaks:
    def test_second_round_tie_goes_to_better_first_round_position(self, rng):
        m = Mechanism(SelectionDistribution.uniform(3, 3), AllocationRule((1.0, 0.0, 0.0)))
        # Bidder 1 holds position 1 and bidder 0 position 2; both bid 12 in round two.
        bids = BidProfile((9, 10, 8), (12, 12, 5))
        values = (15.0, 15.0, 5.0)
        (outcome,) = evaluate(m, values, bids).outcomes
        assert outcome.winner_bidder == 1
        assert outcome.payment == pytest.approx(12.0)
        assert expected_utility(m, values, bids, 1) == pytest.approx(3.0)
        assert expected_utility(m, values, bids, 0) == 0.0
        assert simulate_run(m, bids, rng).realized_winner == 1

    def test_first_round_tie_goes_to_lower_bidder_id(self, rng):
        # Only positions 1 and 3 advance, so of two equal first-round bids
        # only the one at position 1 reaches the second round.
        m = Mechanism(SelectionDistribution.point_mass(3, (1, 3)), AllocationRule((1.0, 0.0)))
        bids = BidProfile((9, 9, 8), (9, 9, 8))
        values = (9.0, 9.0, 8.0)
        assert expected_utility(m, values, bids, 0) == pytest.approx(1.0)
        assert expected_utility(m, values, bids, 1) == 0.0
        assert simulate_run(m, bids, rng).realized_winner == 0


class TestExpectedUtility:
    def test_all_advance_equals_second_round_utility(self, rng):
        # theta = alpha: the lottery is trivial and the game is one round.
        x = AllocationRule((0.6, 0.3, 0.1))
        m = Mechanism(SelectionDistribution.uniform(3, 3), x)
        values = (10.0, 7.0, 4.0)
        bids = BidProfile.truthful(values)
        for i, v in enumerate(values):
            others = [b for j, b in enumerate(values) if j != i]
            direct = u2(v, v, others, x, own_key=(i, i), other_keys=[(j, j) for j in range(3) if j != i])
            assert expected_utility(m, values, bids, i) == pytest.approx(direct, abs=1e-12)

    def test_uniform_pair_selection_hand_sum(self):
        sel = SelectionDistribution.uniform(3, 2)
        m = Mechanism(sel, AllocationRule((1.0, 0.0)))
        values = (450.0, 350.0, 200.0)
        bids = BidProfile.truthful(values)
        got = expected_utility(m, values, bids, 0)
        assert got == pytest.approx((450 - 350) / 3 + (450 - 200) / 3, abs=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        m = n11_mech((0.6, 0.25, 0.15))
        bids = BidProfile.truthful((450.0, 350.0, 200.0))
        with pytest.raises(ConfigurationError, match="values must be finite"):
            evaluate(m, (450.0, bad, 200.0), bids)

    def test_below_top_theta_gets_zero(self):
        m = n11_mech((0.6, 0.25, 0.15))
        values = (450.0, 350.0, 200.0, 100.0)
        bids = BidProfile.truthful(values)
        assert expected_utility(m, values, bids, 3) == 0.0

    def test_bidder_ids_outside_0_to_n_minus_1_rejected(self):
        # theta = 2, alpha = 1: each advances alone half the time and pays nothing.
        m = Mechanism(SelectionDistribution.uniform(2, 1), AllocationRule((1.0,)))
        values = (5, 3, 1)
        bids = BidProfile.truthful(values)
        assert [expected_utility(m, values, bids, i) for i in (0, 1, 2, np.int64(1))] == [2.5, 1.5, 0.0, 1.5]
        # Negative ids, bools and non-integers would index the utility tuple as some other bidder.
        for bidder in (-3, -1, True, 3, 1.0, "1", None):
            with pytest.raises(ConfigurationError, match="bidder must be an int in 0..2"):
                expected_utility(m, values, bids, bidder)


def price_slot(m, others, p, k, v=0.0):
    """Rank slot (p, k) against ``others``, descending, as the kernel prices it: (X, P, v X - P)."""
    n = len(others) + 1
    plan = engine._rank_slot_plan(m, n, [(p, k)])
    U = engine._utilities(engine._plan_arrays(plan), np.array([*others, 0.0])[:, None], np.array([0.0, v]))
    u0, u = U[(p - 1) * n + k, :, 0].tolist()
    return plan[0][(p - 1) * n + k], 0.0 - u0, u


def slot_of(others, s, p):
    """k of a bidder at position p bidding s in round two: the others above it at >= s."""
    return min(p - 1, sum(o >= s for o in others))


class TestPlace:
    def test_matches_expected_utility_through_a_profile(self):
        # Bidder 0 bids (b, s) against opponents bidding the same in both
        # rounds; small integer bids make first-round ties common.
        rng = np.random.default_rng(20241018)
        below = tied = 0
        for _ in range(300):
            theta = int(rng.integers(2, 7))
            alpha = int(rng.integers(1, theta + 1))
            beta = int(rng.integers(1, alpha + 1))
            subsets = enumerate_subsets(theta, alpha)
            probs = rng.dirichlet(np.ones(len(subsets)))
            if len(subsets) > 1 and rng.random() < 0.3:
                probs[rng.integers(len(subsets))] = 0.0
                probs /= probs.sum()
            sel = SelectionDistribution(theta, alpha, dict(zip(subsets, probs.tolist())))
            m = Mechanism(sel, random_allocation(rng, alpha, beta))
            n = theta + int(rng.integers(0, 3))
            others = sorted(rng.integers(0, 6, size=n - 1).tolist(), reverse=True)
            b = int(rng.integers(0, 6))
            s = b + int(rng.integers(0, 3))
            v = float(rng.uniform(0, 8))
            p = 1 + sum(o > b for o in others)
            _, _, u = price_slot(m, others, p, slot_of(others, s, p), v)
            bids = BidProfile((b, *others), (s, *others))
            assert u == expected_utility(m, (v, *others), bids, 0)
            below += p > theta
            tied += b in others
        assert below > 20 and tied > 100


class TestPlaceRow:
    """Rank slot (p, k) prices row p of settle on the bid vector with the bidder inserted at p."""

    def test_same_bits_as_row_p_of_settle(self):
        rng = np.random.default_rng(20261019)
        seen = {"small": 0, "large": 0, "tie": 0, "p=theta": 0, "p>theta": 0}
        for _ in range(400):
            theta = int(rng.integers(1, 9))
            alpha = int(rng.integers(1, theta + 1))
            beta = int(rng.integers(1, alpha + 1))
            subsets = enumerate_subsets(theta, alpha)
            probs = rng.dirichlet(np.ones(len(subsets)))
            if len(subsets) > 1 and rng.random() < 0.4:
                probs[rng.random(len(subsets)) < 0.4] = 0.0
                probs[rng.integers(len(subsets))] += 0.5
                probs /= probs.sum()
            sel = SelectionDistribution(theta, alpha, dict(zip(subsets, probs.tolist())))
            m = Mechanism(sel, random_allocation(rng, alpha, beta))
            # Few distinct bids, zeros of both signs: ties with the placed bid are common.
            pool = [-0.0, 0.0, 1.0, 2.0, 3.0, rng.uniform(0, 4)]
            others = sorted(rng.choice(pool, size=theta - 1 + int(rng.integers(0, 3))), reverse=True)
            s = float(rng.choice(pool))
            # Any position at which no other below the bidder outbids it.
            p = int(rng.integers(1 + sum(o > s for o in others), len(others) + 2))
            X, P, _ = price_slot(m, others, p, slot_of(others, s, p))
            if p > theta:
                want = (0.0, 0.0)
            else:
                Xs, Ps = settle(m, [*others[: p - 1], s, *others[p - 1 : theta - 1]])
                want = (Xs[p - 1], Ps[p - 1])
            assert [X.hex(), P.hex()] == [v.hex() for v in want], (theta, alpha, beta, p, s)
            seen["large" if len(subsets) >= 10 else "small"] += 1
            seen["tie"] += s in others[: theta - 1]
            seen["p=theta"] += p == theta
            seen["p>theta"] += p > theta
        assert min(seen.values()) > 40, seen

    @pytest.mark.filterwarnings("error")  # overflow to inf is silent on both paths
    def test_a_plan_over_some_slots_prices_them_as_the_full_plan(self):
        # A plan over some slots prices them as the full plan, and the walk on float lists gives
        # every (slot, value, column) the numpy pass's bits.
        rng = np.random.default_rng(20261020)
        seen = {"alpha=1": 0, "zero-prob": 0, "p>theta": 0, "tie": 0, "signed-zero": 0, "inf": 0}
        for trial in range(240):
            theta = int(rng.integers(1, 9))
            alpha = 1 if trial % 5 == 0 else int(rng.integers(1, theta + 1))
            beta = int(rng.integers(1, alpha + 1))
            subsets = enumerate_subsets(theta, alpha)
            probs = rng.dirichlet(np.ones(len(subsets)))
            if len(subsets) > 1 and rng.random() < 0.4:
                probs[rng.random(len(subsets)) < 0.4] = 0.0
                probs[rng.integers(len(subsets))] += 0.5
                probs /= probs.sum()
                seen["zero-prob"] += 1
            sel = SelectionDistribution(theta, alpha, dict(zip(subsets, probs.tolist())))
            x = random_allocation(rng, alpha, beta)
            n, cols = theta + int(rng.integers(0, 3)), int(rng.integers(1, 7))
            if trial % 4 == 3:  # x[0] > 1, within the rule's 1e-12 tolerance, takes these to inf
                x = AllocationRule((1.0 + 1e-12,) + (0.0,) * (alpha - 1))
                pool = sys.float_info.max * (1.0 - rng.uniform(0, 1e-13, size=3))
            else:
                pool = [-0.0, 0.0, 1.0, 2.5, rng.uniform(0, 4)]
            m = Mechanism(sel, x)
            full = [(p, k) for p in range(1, n + 1) for k in range(p)]  # p > theta included
            some = [full[i] for i in rng.permutation(len(full))[: rng.integers(0, len(full) + 1)]]
            bids = np.vstack([-np.sort(-rng.choice(pool, size=(n - 1, cols)), axis=0), np.zeros(cols)])
            g = np.array([-1.5, 0.0, 3.0])
            read = np.zeros(n * n, dtype=bool)
            read[[(p - 1) * n + k for p, k in some]] = True
            want = engine._utilities(engine._plan_arrays(engine._rank_slot_plan(m, n, full)), bids, g)
            plan = engine._rank_slot_plan(m, n, some)
            got = engine._utilities(engine._plan_arrays(plan), bids, g)
            assert got[read].tobytes() == want[read].tobytes()
            assert not any(np.array(plan[0])[~read])
            assert got[~read].tobytes() == np.broadcast_to(g[:, None] * 0.0 - 0.0, got[~read].shape).tobytes()
            # _payments walks float lists, one column of opponents' bids each, as the Nash check does.
            P = np.array(engine._payments(plan, [tuple(c) for c in bids.T.tolist()]), dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                U = np.array(plan[0])[:, None, None] * g[:, None] - P[:, None]
            assert U.tobytes() == got.tobytes(), (theta, alpha, beta, n)
            seen["alpha=1"] += alpha == 1
            seen["p>theta"] += any(p > theta for p, _ in some)
            seen["tie"] += len(set(bids[:-1, 0].tolist())) < n - 1
            seen["signed-zero"] += any(math.copysign(1.0, b) < 0 for b in bids[:-1].ravel())
            seen["inf"] += bool(np.isinf(want).any())
        assert min(seen.values()) > 20, seen


class TestPaymentPathChoice:
    """Nash checks price their rank slots on the walk, whatever the plan's size: no array is built."""

    def test_nash_checks_take_the_python_walk(self, monkeypatch):
        def forbidden(plan):
            raise AssertionError("the numpy pass built the plan's arrays")

        monkeypatch.setattr(engine, "_plan_arrays", forbidden)
        for y_vec in ((0.6, 0.25, 0.15), (0.3, 0.25, 0.2, 0.15, 0.1)):
            m = n11_mech(y_vec)
            values = tuple(100.0 * (m.theta - i) for i in range(m.theta))
            is_nash_equilibrium(m, values, RankProfile(tuple(range(m.theta)), values))
        params = N12Params((900.0, 700.0, 500.0, 300.0, 100.0), (0.4, 0.3, 0.2, 0.1), 0.3)
        is_nash_equilibrium(params.mechanism(), params.v[:4], RankProfile((0, 1, 2, 3), params.v[:4]))

    def test_a_large_check_walks_to_the_numpy_pass_bits(self, monkeypatch):
        # Uniform (theta, alpha, beta) = (8, 4, 4): 280 terms by 8 competitive bidders' columns.
        m = Mechanism(SelectionDistribution.uniform(8, 4), AllocationRule((0.4, 0.3, 0.2, 0.1)))
        values = (97.0, 90.5, 71.0, 70.25, 44.0, 31.5, 12.0, 3.0)
        rank = RankProfile((2, 0, 1, 3, 4, 5, 7, 6), (98.0, 91.0, 88.0, 70.25, 50.0, 31.5, 12.0, 5.0))
        n, top = 8, m.competition_rank
        plan = engine._rank_slot_plan(m, n, [(t, t - 1) for t in range(1, n + 1)])
        assert len(plan[1]) * top == 2240
        # The reference prices the same plan in one numpy pass: U[slot, value j, column j].
        others = np.array([rank.bids[:j] + rank.bids[j + 1 :] + (0.0,) for j in range(top)]).T
        v = np.array([values[i] for i in rank.ordering])
        U = engine._utilities(engine._plan_arrays(plan), others, v)[:: n + 1, range(top), range(top)]
        want = [
            (rank.ordering[p - 1], p, t, U[p - 1, p - 1], U[t - 1, p - 1])
            for p in range(1, top + 1)
            for t in range(1, n + 1)
            if t != p
        ]
        monkeypatch.setattr(engine, "_plan_arrays", lambda plan: pytest.fail("built the plan's arrays"))
        verdict, records = is_nash_equilibrium(m, values, rank)

        def bits(rows):
            return [(*row[:3], *(float(u).hex() for u in row[3:])) for row in rows]

        assert bits(records) == bits(want)
        assert verdict == (not any(dev > cur + EQ_ATOL for *_, cur, dev in want))
        assert not verdict  # bidder 2, overbidding at the top, gains by moving down to 2-5


class TestSettlePaths:
    """settle prices every mechanism in one numpy pass; the per-subset loop is the reference."""

    @staticmethod
    def bits(values):
        return [float(v).hex() for v in values]

    @pytest.mark.filterwarnings("error")  # overflow to inf is silent in the pass and the loop
    def test_numpy_pass_matches_the_loop_bit_for_bit(self):
        rng = np.random.default_rng(20261018)
        seen = {"zero-prob": 0, "tie": 0, "signed-zero": 0, "overflow": 0}
        for trial in range(300):
            theta = int(rng.integers(1, 13))
            alpha = int(rng.integers(1, theta + 1))
            beta = int(rng.integers(1, alpha + 1))
            subsets = enumerate_subsets(theta, alpha)
            probs = rng.dirichlet(np.ones(len(subsets)))
            if len(subsets) > 1 and rng.random() < 0.5:
                probs[rng.random(len(subsets)) < 0.4] = 0.0
                probs[rng.integers(len(subsets))] += 0.5
                probs /= probs.sum()
                seen["zero-prob"] += 1
            sel = SelectionDistribution(theta, alpha, dict(zip(subsets, probs.tolist())))
            x = random_allocation(rng, alpha, beta)
            n = theta + int(rng.integers(0, 3))
            kind = trial % 3
            if kind == 0:
                bids = rng.uniform(0, 100, size=n).tolist()
            elif kind == 1:  # equal bids, zeros of both signs
                bids = rng.choice([0.0, -0.0, 1.0, 2.0], size=n).tolist()
            else:
                # A payment is at most the largest bid times x[0], so only x[0] > 1, which the
                # rule's 1e-12 tolerance allows, takes finite bids near the maximum to inf.
                x = AllocationRule((1.0 + 1e-12,) + (0.0,) * (alpha - 1))
                bids = (sys.float_info.max * (1.0 - rng.uniform(0, 1e-13, size=n))).tolist()
            m = Mechanism(sel, x)
            s = bids[:theta]
            X, P = settle(m, s)
            want = settle_reference(m, s)
            assert [self.bits(X), self.bits(P)] == [self.bits(v) for v in want], (theta, alpha, beta, s)
            # evaluate, expected_utility and expected_revenue read settle's X and P to the bit.
            profile = BidProfile(tuple(bids), tuple(bids))
            positions = first_round_positions(m, profile)
            ranked = [bids[i] for i in positions]
            X, P = settle_reference(m, ranked)
            utils = [0.0] * n
            for k, i in enumerate(positions):
                utils[i] = bids[i] * X[k] - P[k]
            result = evaluate(m, bids, profile)
            assert self.bits(result.expected_utilities) == self.bits(utils)
            mine = [expected_utility(m, bids, profile, i) for i in range(n)]
            assert self.bits(mine) == self.bits(utils)
            assert result.expected_revenue.hex() == expected_revenue(m, profile).hex() == sum(P).hex()
            # evaluate's outcome table settles every subset, zero-probability ones included.
            table = []
            for subset, prob in m.selection.probs.items():
                order, pay = settle_round([ranked[q - 1] for q in subset], m.allocation)
                table.append((subset, prob.hex(), positions[subset[order[0]] - 1], sum(pay).hex()))
            rows = [(o.subset, o.probability.hex(), o.winner_bidder, o.payment.hex()) for o in result.outcomes]
            assert rows == table
            # Rank slot (p, k) puts bids[0] at position p among the others; p > theta is below the top.
            others, own = sorted(bids[1:], reverse=True), bids[0]
            above = sum(o > own for o in others)
            p = above + 1 + trial % (n - above)
            want = (0.0, 0.0)
            if p <= theta:
                X, P = settle_reference(m, [*others[: p - 1], own, *others[p - 1 : theta - 1]])
                want = (X[p - 1], P[p - 1])
            assert self.bits(price_slot(m, others, p, slot_of(others, own, p))[:2]) == self.bits(want)
            seen["tie"] += len(set(s)) < len(s)
            seen["signed-zero"] += any(math.copysign(1.0, b) < 0 for b in s)  # a -0.0
            seen["overflow"] += math.inf in settle(m, s)[1]
        assert min(seen.values()) > 20, seen

    def test_zero_probability_subsets_keep_an_inf_payment_out_of_nan(self):
        # Only (1, 2) advances and pays past the float range; 0 * inf in the two
        # zero-probability subsets would turn evaluate's utilities and revenue into nan.
        m = Mechanism(SelectionDistribution.point_mass(3, (1, 2)), AllocationRule((1.0 + 1e-12, 0.0)))
        top = sys.float_info.max
        bids = BidProfile.truthful((top, top * (1 - 1e-15), top * (1 - 2e-15)))
        result = evaluate(m, (1.0, 2.0, 3.0), bids)
        assert result.expected_utilities == (-math.inf, 0.0, 0.0)
        assert result.expected_revenue == expected_revenue(m, bids) == math.inf
        assert [o.probability for o in result.outcomes] == [1.0, 0.0, 0.0]

    def test_settle_never_calls_settle_round(self, monkeypatch):
        # Three live subsets, the smallest table a two-of-three mechanism has: still the numpy pass.
        m = n11_mech((0.6, 0.25, 0.15))
        s = [450.0, 350.0, 200.0]
        want = settle_reference(m, s)
        monkeypatch.setattr(engine, "settle_round", None)  # a per-subset loop would call it
        X, P = settle(m, s)
        assert self.bits(X + P) == self.bits(want[0] + want[1])


class TestShortBidVectors:
    def test_settle_needs_theta_bids(self):
        m = n11_mech((0.6, 0.25, 0.15))
        with pytest.raises(ConfigurationError, match="need theta=3 second-round bids, got 2"):
            settle(m, [5.0, 3.0])


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
        m = Mechanism(sel, AllocationRule((1.0, 0.0)))
        bids = BidProfile.truthful((450, 350, 200))
        assert expected_revenue(m, bids) == pytest.approx(350.0)

    def test_matches_outcome_table(self, rng):
        for _ in range(25):
            theta = int(rng.integers(2, 5))
            beta = int(rng.integers(1, theta))
            m = make_dsic_mechanism(rng, theta, beta)
            values = np.sort(rng.uniform(0, 100, size=theta + 1))[::-1]
            bids = BidProfile.truthful(values)
            table = sum(o.probability * o.payment for o in evaluate(m, values, bids).outcomes)
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
        m = Mechanism(sel, AllocationRule((1.0, 0.0)))
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

    def test_lowered_second_round_bid_is_a_configuration_error(self, rng):
        m = Mechanism(SelectionDistribution.uniform(2, 2), AllocationRule((1.0, 0.0)))
        with pytest.raises(ConfigurationError, match="line of competition"):
            simulate_run(m, BidProfile((5, 3), (1, 1)), rng)


def reference_run(mech, bids, rng):
    """One run drawn with two ``Generator.choice`` calls that rebuild their weights every time."""
    positions = sorted(range(bids.n), key=lambda i: (-bids.first_round[i], i))[: mech.theta]
    subsets = mech.selection.subsets()
    weights = np.array([mech.selection.probs[s] for s in subsets])
    subset = subsets[rng.choice(len(subsets), p=weights / weights.sum())]
    ids = [positions[p - 1] for p in subset]
    order, pay = settle_round([bids.second_round[i] for i in ids], mech.allocation)
    x = list(mech.allocation.x[: mech.beta])
    idx = rng.choice(len(x) + 1, p=[*x, max(1.0 - sum(x), 0.0)])
    return subset, ids[order[idx]] if idx < len(x) else None, sum(pay)


class TestSimulateRunReference:
    @staticmethod
    def random_mechanism(rng):
        """A random mechanism with theta <= 8, and whether some of its subsets have probability 0."""
        theta = int(rng.integers(2, 9))
        alpha = int(rng.integers(1, theta + 1))
        beta = int(rng.integers(1, alpha + 1))
        subsets = enumerate_subsets(theta, alpha)
        probs = rng.dirichlet(np.ones(len(subsets)))
        zeros = len(subsets) > 1 and rng.random() < 0.4
        if zeros:
            probs[rng.choice(len(subsets), size=len(subsets) // 2, replace=False)] = 0.0
            probs /= probs.sum()
        sel = SelectionDistribution(theta, alpha, dict(zip(subsets, probs.tolist())))
        x = random_allocation(rng, alpha, beta).x
        if rng.random() < 0.4:
            scale = rng.uniform(0.3, 1.0)
            x = tuple(v * scale for v in x)
        return Mechanism(sel, AllocationRule(x)), zeros

    def test_same_runs_and_stream_as_per_call_choice(self):
        rng = np.random.default_rng(20261018)
        zeros = no_winner = 0
        for _ in range(240):
            m, zeroed = self.random_mechanism(rng)
            zeros += zeroed
            theta = m.theta
            # Truthful integer bids: the line of competition holds and ties are common.
            bids = BidProfile.truthful(rng.integers(0, 8, size=theta + int(rng.integers(0, 3))))
            seed = int(rng.integers(2**32))
            ref_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(20):
                got = simulate_run(m, bids, new_rng)
                want = reference_run(m, bids, ref_rng)
                assert (got.realized_subset, got.realized_winner, got.realized_payment) == want
                no_winner += got.realized_winner is None
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state
        assert zeros > 50 and no_winner > 100

    def test_raised_second_round_bids_keep_the_runs_and_stream(self):
        # s >= b keeps the line of competition: beta of any subset's bidders hold a first-round
        # position at or above it.  Small integer raises make second-round ties common.
        rng = np.random.default_rng(20261019)
        raised = tied = 0
        for _ in range(200):
            m, _ = self.random_mechanism(rng)
            n = m.theta + int(rng.integers(0, 3))
            b = rng.integers(0, 8, size=n)
            s = b + rng.integers(0, 3, size=n)
            bids = BidProfile(tuple(b), tuple(s))
            raised += bool((s > b).any())
            tied += len(set(s.tolist())) < n
            seed = int(rng.integers(2**32))
            ref_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(20):
                got = simulate_run(m, bids, new_rng)
                want = reference_run(m, bids, ref_rng)
                assert (got.realized_subset, got.realized_winner, got.realized_payment) == want
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state
        assert raised > 150 and tied > 120

    def test_too_few_bidders_raise_before_any_draw(self):
        m = Mechanism(SelectionDistribution.uniform(3, 2), AllocationRule((1.0, 0.0)))
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match=r"^need at least theta=3 bidders, got 2$"):
            simulate_run(m, BidProfile.truthful((5, 3)), rng)
        assert rng.bit_generator.state == state

    def test_broken_line_of_competition_raises_after_the_subset_draw(self):
        m = Mechanism(SelectionDistribution.uniform(2, 2), AllocationRule((1.0, 0.0)))
        rng, twin = np.random.default_rng(7), np.random.default_rng(7)
        message = "line of competition violated: s_beta=1.0 < b_ref=5.0 (subset=(1, 2))"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            simulate_run(m, BidProfile((5, 3), (1, 1)), rng)
        twin.random()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_broken_line_of_competition_between_good_runs(self):
        # Lowered second-round bids break the line in some subsets only: each run either
        # matches the reference or fails on its subset draw alone, with the message's numbers.
        rng = np.random.default_rng(20261020)
        runs = broken = 0
        for _ in range(150):
            m, _ = self.random_mechanism(rng)
            n = m.theta + int(rng.integers(0, 3))
            b = rng.integers(0, 8, size=n)
            bids = BidProfile(tuple(b), tuple(np.maximum(b - rng.integers(-1, 3, size=n), 0)))
            positions = sorted(range(n), key=lambda i: (-bids.first_round[i], i))[: m.theta]
            subsets = m.selection.subsets()
            weights = np.array([m.selection.probs[sub] for sub in subsets])
            seed = int(rng.integers(2**32))
            ref_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(10):
                state = ref_rng.bit_generator.state
                subset = subsets[ref_rng.choice(len(subsets), p=weights / weights.sum())]
                s_beta = sorted((bids.second_round[positions[q - 1]] for q in subset), reverse=True)[
                    m.beta - 1
                ]
                b_ref = bids.first_round[positions[m.competition_rank - 1]]
                if s_beta < b_ref:
                    broken += 1
                    message = f"line of competition violated: s_beta={s_beta} < b_ref={b_ref} (subset={subset})"
                    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
                        simulate_run(m, bids, new_rng)
                else:
                    runs += 1
                    ref_rng.bit_generator.state = state
                    got = simulate_run(m, bids, new_rng)
                    want = reference_run(m, bids, ref_rng)
                    assert (got.realized_subset, got.realized_winner, got.realized_payment) == want
                assert new_rng.bit_generator.state == ref_rng.bit_generator.state
        assert runs > 300 and broken > 300, (runs, broken)
