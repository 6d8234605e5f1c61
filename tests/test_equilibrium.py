import hashlib
import json
import math
import sys

import numpy as np
import pytest

from conftest import (
    make_all_advance_mechanism,
    make_dsic_mechanism,
    make_non_dsic_mechanism,
    place,
    random_allocation,
)
from tworound import engine, secondround
from tworound.engine import BidProfile, ConfigurationError, Mechanism, expected_revenue
from tworound.equilibrium import (
    EQ_ATOL,
    ConstructionFailure,
    DeviationRecord,
    DegenerateRatioError,
    N12_ORDERINGS,
    N12Condition,
    N12Params,
    N12RankReport,
    RankProfile,
    _V12_denominator,
    _V23,
    _n12_position_utilities,
    _ycoef12,
    _ycoef23,
    is_nash_equilibrium,
    n11_classify,
    n11_construct_better_Y,
    n11_mechanism,
    n11_revenue,
    n11_supremum_bound,
    n12_check_rank,
    n12_position_bids,
    n12_rank_profile,
)
from tworound.selection import ExclusionY, SelectionDistribution, enumerate_subsets

V_EX = (450.0, 350.0, 200.0)
Y_TRUTH = ExclusionY((0.6, 0.25, 0.15))
Y_RISKY = ExclusionY((0.45, 0.44, 0.11))


def random_n12_params(rng, **overrides):
    while True:
        v = np.sort(rng.uniform(10, 1000, size=5))[::-1]
        if np.min(v[:-1] - v[1:]) > 1.0:
            break
    while True:
        Y = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        if np.min(Y[:-1] - Y[1:]) > 1e-3 and Y[-1] > 1e-3:
            break
    x2 = float(rng.uniform(0.05, 0.45))
    return N12Params(tuple(v), tuple(Y), x2, **overrides)


class TestRankProfile:
    def test_rejects_non_decreasing_bids(self):
        with pytest.raises(ValueError):
            RankProfile((0, 1, 2), (450, 450, 200))

    @pytest.mark.parametrize("bids", [(450, 350, math.nan), (math.inf, 450, 350), (450, 350, -1.0)])
    def test_rejects_non_finite_or_negative_bids(self, bids):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            RankProfile((0, 1, 2), bids)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            RankProfile((0, 0, 2), (450, 350, 200))

    @pytest.mark.parametrize("ordering", [(0, 1.7, 2), (True, 0.2, 2), ("1", "0", "2"), (np.True_, 0, 2)])
    def test_rejects_non_integer_ids(self, ordering):
        # int() would truncate these to the permutations (0, 1, 2) and (1, 0, 2).
        with pytest.raises(ValueError, match="expected integers"):
            RankProfile(ordering, (450, 350, 200))

    def test_numpy_integer_ids_accepted(self):
        rank = RankProfile(tuple(np.array([1, 0, 2])), (450, 350, 200))
        assert rank.ordering == (1, 0, 2) and all(type(i) is int for i in rank.ordering)


def reference_is_nash_equilibrium(mech, values, rank):
    """``is_nash_equilibrium`` pricing each bidder's standing utility with its own ``place`` call."""
    k = mech.competition_rank
    bids = rank.bids
    min_gap = min(a - b for a, b in zip(bids, bids[1:])) if len(bids) > 1 else 1.0
    delta = min_gap / 10
    top = min(k, len(bids))
    targets = list(range(1, top + 1)) + ([top + 1] if top < len(bids) else [])
    records = []
    ok = True
    for p in range(1, top + 1):
        bidder = rank.ordering[p - 1]
        v = values[bidder]
        others = bids[: p - 1] + bids[p:]
        X, P = place(mech, others, p, bids[p - 1])
        u_cur = v * X - P
        for t in targets:
            if t == p:
                continue
            if t < p:
                new_bid = bids[t - 1] + delta
            else:
                floor = bids[t] if t < len(bids) else 0.0
                new_bid = bids[t - 1] - min(delta, (bids[t - 1] - floor) / 2)
            X, P = place(mech, others, t, new_bid)
            u_dev = v * X - P
            records.append(DeviationRecord(bidder, p, t, u_cur, u_dev))
            if u_dev > u_cur + EQ_ATOL:
                ok = False
    return ok, records


def _bits(result):
    ok, records = result
    return ok, [
        (r.bidder, r.from_position, r.to_position, r.utility_current.hex(), r.utility_deviation.hex())
        for r in records
    ]


class TestIsNashEquilibrium:
    def test_truthful_order_supported(self):
        mech = n11_mechanism(Y_TRUTH)
        ok, records = is_nash_equilibrium(mech, V_EX, RankProfile((0, 1, 2), V_EX))
        assert ok
        assert all(r.gain <= 1e-9 for r in records)

    def test_risky_order_supported_by_wide_tail_gap(self):
        mech = n11_mechanism(Y_RISKY)
        ok, _ = is_nash_equilibrium(mech, V_EX, RankProfile((1, 0, 2), (650, 450, 200)))
        assert ok

    def test_truthful_order_breaks_under_wide_tail_gap(self):
        mech = n11_mechanism(Y_RISKY)
        ok, records = is_nash_equilibrium(mech, V_EX, RankProfile((0, 1, 2), V_EX))
        assert not ok
        gains = [r for r in records if r.gain > 1e-9]
        # The runner-up profits by overtaking the top position.
        assert any(r.bidder == 1 and r.to_position == 1 for r in gains)

    def test_retreat_kills_unprofitable_overbidding(self):
        # theta = alpha = 2: plain second-price; overbidding is never supported
        # because the overtaken bidder can simply drop out.
        from tworound.selection import SelectionDistribution
        from tworound.secondround import AllocationRule
        from tworound.engine import Mechanism

        mech = Mechanism(SelectionDistribution.uniform(2, 2), AllocationRule((1.0, 0.0)))
        values = (450.0, 350.0)
        ok_truth, _ = is_nash_equilibrium(mech, values, RankProfile((0, 1), (450, 350)))
        ok_risky, _ = is_nash_equilibrium(mech, values, RankProfile((1, 0), (500, 450)))
        assert ok_truth
        assert not ok_risky


    # SHA-256 of every deviation record on n11, random and n12 instances;
    # a change to a target position, a deviation bid or the float arithmetic
    # of a utility moves it.
    RECORDS_DIGEST = "42a66f020e063bfe544d7d321e17e6af8942ee610d0feb5f32738437ef05b250"

    def test_records_are_pinned(self):
        rng = np.random.default_rng(20241018)
        cases = []
        for i in range(40):
            theta = 2 + i % 5
            beta = int(rng.integers(1, theta))
            if i < 16 and theta >= 3:
                mech = n11_mechanism(ExclusionY(tuple(np.sort(rng.dirichlet(np.ones(theta)))[::-1])))
            elif i % 3 == 0:
                mech = make_dsic_mechanism(rng, theta, beta)
            elif i % 3 == 1:
                mech = make_non_dsic_mechanism(rng, theta, beta)
            else:
                mech = make_all_advance_mechanism(rng, theta, int(rng.integers(1, theta + 1)))
            n = theta + i % 2
            values = tuple(np.sort(rng.uniform(1, 1000, size=n))[::-1].tolist())
            cases.append((mech, values, RankProfile(tuple(range(n)), values)))
            risky = (values[0] + 50.0, values[0], *values[2:])
            cases.append((mech, values, RankProfile((1, 0, *range(2, n)), risky)))
        for _ in range(10):
            params = random_n12_params(rng)
            for ordering in N12_ORDERINGS:
                cases.append((params.mechanism(), params.v[:4], n12_rank_profile(params, ordering)))
        out = []
        for mech, values, rank in cases:
            ok, records = is_nash_equilibrium(mech, values, rank)
            out.append(
                [ok, [[r.bidder, r.from_position, r.to_position, r.utility_current, r.utility_deviation] for r in records]]
            )
        assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == self.RECORDS_DIGEST

    def test_matches_the_per_position_reference_bit_for_bit(self):
        # Random joint distributions and allocations, n = theta .. theta + 3 bidders, and a
        # third of the rules with beta = alpha (every advanced rank can win).
        rng = np.random.default_rng(20261018)
        full = beyond = 0
        for _ in range(300):
            theta = int(rng.integers(2, 7))
            alpha = int(rng.integers(1, theta + 1))
            beta = alpha if rng.random() < 0.35 else int(rng.integers(1, alpha + 1))
            subsets = enumerate_subsets(theta, alpha)
            probs = rng.dirichlet(np.ones(len(subsets)))
            sel = SelectionDistribution(theta, alpha, dict(zip(subsets, probs.tolist())))
            mech = Mechanism(sel, random_allocation(rng, alpha, beta))
            n = theta + int(rng.integers(0, 4))
            bids = tuple(np.sort(rng.uniform(1, 100, size=n))[::-1].tolist())
            if any(a <= b for a, b in zip(bids, bids[1:])):
                continue
            rank = RankProfile(tuple(rng.permutation(n).tolist()), bids)
            values = tuple(rng.uniform(1, 100, size=n).tolist())
            want = reference_is_nash_equilibrium(mech, values, rank)
            assert _bits(is_nash_equilibrium(mech, values, rank)) == _bits(want)
            full += beta == alpha and n > theta
            beyond += n > theta
        assert full > 50 and beyond > 150

    def test_payments_past_the_float_range_match_the_reference(self):
        # x[0] = 1 + 1e-12 takes payments on bids near the float maximum to inf; the reference
        # prices them with Python floats, which overflow silently, and so must the check.
        top = sys.float_info.max
        for theta, n in ((3, 3), (3, 4), (4, 4)):
            x = secondround.AllocationRule((1.0 + 1e-12,) + (0.0,) * (theta - 2))
            mech = Mechanism(SelectionDistribution.uniform(theta, theta - 1), x)
            bids = tuple(top * (1 - i * 1e-15) for i in range(n))
            rank = RankProfile(tuple(range(n)), bids)
            values = (top, top / 2, *bids[2:])
            ok, records = is_nash_equilibrium(mech, values, rank)
            assert _bits((ok, records)) == _bits(reference_is_nash_equilibrium(mech, values, rank))
            assert any(math.isinf(r.utility_deviation) for r in records)

    def test_malformed_inputs_rejected(self):
        mech = n11_mechanism(Y_TRUTH)
        with pytest.raises(ConfigurationError):
            is_nash_equilibrium(mech, V_EX[:2], RankProfile((0, 1, 2), V_EX))
        with pytest.raises(ConfigurationError):
            is_nash_equilibrium(mech, V_EX[:2], RankProfile((0, 1), V_EX[:2]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        # A NaN utility compares False with everything, which read as "no bidder gains".
        x = secondround.AllocationRule((1.0, 0.0))
        mech = Mechanism(SelectionDistribution.uniform(2, 2), x)
        with pytest.raises(ConfigurationError, match="values must be finite"):
            is_nash_equilibrium(mech, (3.0, bad), RankProfile((0, 1), (3.0, 2.0)))


class TestN11Classify:
    def test_narrow_gap_supports_truthful_only(self):
        c = n11_classify(*V_EX, Y_TRUTH)
        assert c.truthful_ne and not c.risky_ne and not c.indeterminate
        assert c.gap_ratio == pytest.approx(2 / 3)
        assert c.y_ratio == pytest.approx(0.1 / 0.6)

    def test_wide_gap_supports_risky_only(self):
        c = n11_classify(*V_EX, Y_RISKY)
        assert c.risky_ne and not c.truthful_ne
        assert c.y_ratio == pytest.approx(0.33 / 0.45)
        # Witness overbid: smallest 0.01 multiple past v1 + (D/S)(v1-v3).
        assert c.risky_witness_bid == pytest.approx(633.34)

    def test_witness_validates_through_engine(self):
        c = n11_classify(*V_EX, Y_RISKY)
        mech = n11_mechanism(Y_RISKY)
        rank = RankProfile((1, 0, 2), (c.risky_witness_bid, V_EX[0], V_EX[2]))
        ok, _ = is_nash_equilibrium(mech, V_EX, rank)
        assert ok

    def test_classification_agrees_with_engine(self, rng):
        for _ in range(60):
            while True:
                Y = np.sort(rng.dirichlet(np.ones(3)))[::-1]
                if np.min(Y[:-1] - Y[1:]) > 1e-3:
                    break
            v = np.sort(rng.uniform(10, 1000, size=3))[::-1]
            if v[1] - v[2] < 1.0 or v[0] - v[1] < 0.01:
                continue
            Y = ExclusionY(tuple(Y))
            c = n11_classify(*v, Y)
            if c.indeterminate:
                continue
            mech = n11_mechanism(Y)
            truth_ok, _ = is_nash_equilibrium(mech, v, RankProfile((0, 1, 2), tuple(v)))
            assert truth_ok == c.truthful_ne
            if c.risky_ne:
                rank = RankProfile((1, 0, 2), (c.risky_witness_bid, v[0], v[2]))
                risky_ok, _ = is_nash_equilibrium(mech, v, rank)
                assert risky_ok

    def test_gap_ratio_at_bound_never_risky(self, rng):
        # At theta = 6, (450-400)/(400-200) = 0.25 = 1/(theta-2): the tail-gap
        # ratio of any strictly ordered exclusion vector stays below it.
        for _ in range(50):
            while True:
                Y = np.sort(rng.dirichlet(np.ones(6)))[::-1]
                if np.min(Y[:-1] - Y[1:]) > 1e-4:
                    break
            c = n11_classify(450, 400, 200, ExclusionY(tuple(Y)))
            assert c.truthful_ne and not c.risky_ne

    def test_degenerate_gap_rejected(self):
        with pytest.raises(DegenerateRatioError):
            n11_classify(450, 200, 200, Y_TRUTH)

    def test_unordered_Y_rejected(self):
        with pytest.raises(ValueError):
            n11_classify(*V_EX, ExclusionY((0.25, 0.6, 0.15)))

    def test_strictly_ordered_y_at_the_float_edge_classifies(self):
        # Each vector is strictly ordered with Y_{theta-1} >= 1/(theta-1): the first sums to
        # just above 1 (ExclusionY keeps a sum within NORMALIZE_ATOL as given), the second to
        # exactly 1.0.  Over the reals strict order and a unit sum keep the tail below those
        # bounds, so no bound of its own rejects them.
        for y_vec in ((0.5000000005, 0.5000000003, 1e-10), (0.5 + 2**-53, 0.5, 0.0)):
            assert ExclusionY(y_vec).ordered
            c = n11_classify(*V_EX, ExclusionY(y_vec))
            assert c.risky_ne and not (c.truthful_ne or c.indeterminate)


class TestN11Revenue:
    def test_truthful_closed_form(self):
        assert n11_revenue("truthful", *V_EX, Y_TRUTH) == pytest.approx(290.0)

    def test_risky_closed_form(self):
        assert n11_revenue("risky", *V_EX, Y_RISKY) == pytest.approx(312.5)

    def test_matches_engine_enumeration(self, rng):
        for _ in range(40):
            while True:
                Y = np.sort(rng.dirichlet(np.ones(int(rng.integers(3, 6)))))[::-1]
                if np.min(Y[:-1] - Y[1:]) > 1e-3:
                    break
            Y = ExclusionY(tuple(Y))
            theta = Y.theta
            v = np.sort(rng.uniform(10, 1000, size=theta))[::-1]
            mech = n11_mechanism(Y)
            truthful = BidProfile.truthful(v)
            assert n11_revenue("truthful", v[0], v[1], v[2], Y) == pytest.approx(
                expected_revenue(mech, truthful), abs=1e-9
            )
            risky_bids = np.array(v, dtype=float)
            risky_bids[1] = v[0] + 50.0
            risky = BidProfile(tuple(risky_bids), tuple(risky_bids))
            assert n11_revenue("risky", v[0], v[1], v[2], Y) == pytest.approx(
                expected_revenue(mech, risky), abs=1e-9
            )

    def test_vanishing_tail_approaches_top_value(self):
        Y = ExclusionY((0.9980, 0.0012, 0.0008))
        assert n11_revenue("risky", *V_EX, Y) == pytest.approx(450.0, abs=1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            n11_revenue("greedy", *V_EX, Y_TRUTH)


@pytest.mark.parametrize(
    "call",
    [
        lambda: n11_revenue("risky", math.nan, 350, 200, Y_RISKY),
        lambda: n11_revenue("risky", True, 350, 200, Y_RISKY),
        lambda: n11_revenue("truthful", 450, 350, None, Y_TRUTH),
        lambda: n11_revenue("truthful", 450, "350", 200, Y_TRUTH),
        lambda: n11_revenue("risky", 450, 350, 10**400, Y_RISKY),
        lambda: n11_supremum_bound(1.0, math.inf, Y_RISKY),
        lambda: n11_supremum_bound(-math.inf, 440, Y_RISKY),
        lambda: n11_supremum_bound(False, 440, Y_RISKY),
    ],
    ids=["nan", "bool", "none", "str", "huge-int", "inf", "-inf", "bool-bound"],
)
def test_n11_closed_forms_reject_non_finite_valuations(call):
    with pytest.raises(ValueError, match="valuations must be finite numbers"):
        call()


def test_n11_closed_forms_take_valuations_in_any_order():
    assert n11_revenue("truthful", 200, 350, 450, Y_TRUTH) == pytest.approx(0.6 * 350 + 0.4 * 450)
    assert math.isfinite(n11_supremum_bound(np.float64(440), 450, Y_RISKY))


class TestN11SupremumBound:
    def test_bound_dominates_risky_revenue_over_v3(self):
        for v3 in np.linspace(1.0, 300.0, 40):
            # Keep the risky ordering an equilibrium: require r < D/S.
            r = (450 - 440) / (440 - v3)
            if r >= 0.33 / 0.45:
                continue
            rev = n11_revenue("risky", 450, 440, v3, Y_RISKY)
            assert rev < n11_supremum_bound(450, 440, Y_RISKY)

    def test_bound_tends_to_top_value(self):
        Y = ExclusionY((0.9980, 0.0012, 0.0008))
        assert n11_supremum_bound(450, 449.9, Y) == pytest.approx(450, abs=1.5)

    def test_zero_tail_gap_rejected(self):
        with pytest.raises(ZeroDivisionError):
            n11_supremum_bound(450, 440, ExclusionY((0.5, 0.25, 0.25)))


class TestN11ImprovementThreshold:
    def test_threshold_separates_revenue(self):
        # Risky revenue beats v2 iff the tail mass is below (v1 - v2)/(v1 - v3) = 0.4.
        below = ExclusionY((0.7, 0.2, 0.1))  # tail mass 0.3 < 0.4
        above = ExclusionY((0.5, 0.3, 0.2))  # tail mass 0.5 > 0.4
        assert n11_revenue("risky", *V_EX, below) > V_EX[1]
        assert n11_revenue("risky", *V_EX, above) < V_EX[1]


class TestN11Construction:
    def test_specific_improvement(self):
        better = n11_construct_better_Y(Y_TRUTH, *V_EX)
        S, A = sum(better.y_vec[:-2]) + 0, better.y_vec[-2] + better.y_vec[-1]
        D = better.y_vec[-2] - better.y_vec[-1]
        assert D / sum(better.y_vec[:1]) > 2 / 3  # theta=3: S is the head entry
        assert n11_revenue("risky", *V_EX, better) > 290.0

    def test_constructed_vector_supports_risky_order(self):
        better = n11_construct_better_Y(Y_TRUTH, *V_EX)
        c = n11_classify(*V_EX, better)
        assert c.risky_ne

    def test_batch_construction(self, rng):
        built = 0
        for _ in range(40):
            theta = int(rng.integers(3, 6))
            while True:
                Y = np.sort(rng.dirichlet(np.ones(theta)))[::-1]
                if np.min(Y[:-1] - Y[1:]) > 1e-3:
                    break
            Y = ExclusionY(tuple(Y))
            S, A = sum(Y.y_vec[:-2]), Y.y_vec[-2] + Y.y_vec[-1]
            D = Y.y_vec[-2] - Y.y_vec[-1]
            # Sample a gap ratio strictly between the current tail-gap ratio
            # and the hard 1/(theta-2) feasibility bound.
            lo, hi = D / S * 1.01, 0.99 / (theta - 2)
            if lo >= hi:
                continue
            r = float(rng.uniform(lo, hi))
            v3 = 200.0
            v2 = 300.0
            v1 = v2 + r * (v2 - v3)
            better = n11_construct_better_Y(Y, v1, v2, v3)
            assert n11_classify(v1, v2, v3, better).risky_ne
            assert n11_revenue("risky", v1, v2, v3, better) > n11_revenue(
                "truthful", v1, v2, v3, Y
            )
            built += 1
        assert built >= 20

    @pytest.mark.parametrize(
        "y_vec, v",
        [((0.45, 0.35, 0.2), (299.95, 200, 100)), ((0.35, 0.3, 0.2, 0.15), (249.99, 200, 100))],
    )
    def test_improves_next_to_the_ratio_bound(self, y_vec, v):
        Y = ExclusionY(y_vec)
        better = n11_construct_better_Y(Y, *v)
        c = n11_classify(*v, better)
        assert c.risky_ne and not c.indeterminate
        assert n11_revenue("risky", *v, better) > n11_revenue("truthful", *v, Y)

    def test_succeeds_exactly_below_the_ratio_bound(self):
        # Gap ratios up to just past 1/(theta-2), with two thirds of the inputs
        # within a relative 1e-9..1e-2 of either end of (D/S, 1/(theta-2)).
        rng = np.random.default_rng(20240818)
        checked = built = 0
        while checked < 2_000:
            theta = int(rng.integers(3, 12))
            Y = np.sort(rng.dirichlet(np.ones(theta)))[::-1]
            if np.min(Y[:-1] - Y[1:]) <= 1e-4:
                continue
            Y = ExclusionY(tuple(Y))
            S, D = sum(Y.y_vec[:-2]), Y.y_vec[-2] - Y.y_vec[-1]
            lo, hi = D / S, 1 / (theta - 2)
            if lo >= hi:
                continue
            eps = 10 ** rng.uniform(-9, -2)
            r = float(
                rng.choice(
                    [
                        lo + rng.uniform(0, 1.05) * (hi - lo),
                        lo * (1 + eps),
                        hi * (1 + rng.uniform(-1, 1) * eps),
                    ]
                )
            )
            v3 = float(rng.uniform(50, 500))
            v2 = v3 + float(rng.uniform(10, 400))
            v1 = v2 + r * (v2 - v3)
            r = (v1 - v2) / (v2 - v3)
            if not r > D / S:
                continue
            checked += 1
            rm = r * (1 + 1e-6) + 1e-12
            try:
                better = n11_construct_better_Y(Y, v1, v2, v3)
            except ConstructionFailure:
                assert rm >= hi, (Y.y_vec, (v1, v2, v3))
                continue
            assert rm < hi
            built += 1
            assert better.ordered
            c = n11_classify(v1, v2, v3, better)
            assert c.risky_ne and not c.indeterminate
            assert n11_revenue("risky", v1, v2, v3, better) > n11_revenue("truthful", v1, v2, v3, Y)
        assert 0 < built < checked

    def test_infeasible_ratio_reports_certificate(self):
        Y = ExclusionY((0.4, 0.35, 0.15, 0.1))
        with pytest.raises(ConstructionFailure) as err:
            n11_construct_better_Y(Y, 450, 300, 200)  # r = 1.5 >= 1/2
        assert "1/(theta-2)" in str(err.value)

    def test_risky_supporting_input_rejected(self):
        with pytest.raises(ValueError):
            n11_construct_better_Y(Y_RISKY, *V_EX)


class TestN12ConditionFunctions:
    def test_v23_hand_value(self):
        assert _V23(450, 350, 200) == pytest.approx(-0.4)

    def test_ycoef23_hand_value(self):
        assert _ycoef23((0.4, 0.3, 0.2, 0.1), 0.5, 0.5) == pytest.approx(0.25)

    def test_ycoef12_hand_value(self):
        assert _ycoef12((0.4, 0.3, 0.2, 0.1)) == pytest.approx(1 / 7)


class TestN12Params:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            N12Params((450, 350, 350, 200, 100), (0.4, 0.3, 0.2, 0.1), 0.25)
        with pytest.raises(ValueError):
            N12Params((450, 350, 300, 200, 100), (0.4, 0.3, 0.3, 0.0), 0.25)
        with pytest.raises(ValueError):
            N12Params((450, 350, 300, 200, 100), (0.4, 0.3, 0.2, 0.1), 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_inputs(self, bad):
        v, Y, x2 = (450, 400, 300, 200, 100), (0.4, 0.3, 0.2, 0.1), 0.25
        with pytest.raises(ValueError, match="^v must be finite"):
            N12Params((bad,) + v[1:], Y, x2)
        with pytest.raises(ValueError, match="^Y must be finite"):
            N12Params(v, Y[:3] + (bad,), x2)
        with pytest.raises(ValueError, match="^x2 must be finite"):
            N12Params(v, Y, bad)

    @pytest.mark.parametrize(
        "overrides, key",
        [({"b2": math.nan}, "b2"), ({"b3": math.inf}, "b3"), ({"b3": "600"}, "b3")],
    )
    def test_rejects_bad_overrides(self, overrides, key):
        with pytest.raises(ValueError, match=f"^{key} must be a finite number or None"):
            N12Params((450, 400, 300, 200, 100), (0.4, 0.3, 0.2, 0.1), 0.25, **overrides)

    def test_rejects_a_bool_override(self):
        with pytest.raises(ValueError, match="^b2 must be a finite number or None, got True"):
            N12Params((450, 400, 300, 200, 100), (0.4, 0.3, 0.2, 0.1), 0.25, b2=True)

    def test_rejects_an_override_beyond_the_float_range(self):
        with pytest.raises(ValueError, match="^b3 must be a finite number or None"):
            N12Params((450, 400, 300, 200, 100), (0.4, 0.3, 0.2, 0.1), 0.25, b3=2**1024)

    def test_integer_overrides_are_stored_as_floats(self):
        params = N12Params((450, 400, 300, 200, 100), (0.4, 0.3, 0.2, 0.1), 0.25, b2=700)
        assert type(params.b2) is float and params.b3 is None
        bids = n12_check_rank(params, (2, 1, 3)).bids
        assert bids == (700.0, 450.0, 300.0)
        assert all(type(b) is float for b in bids)

    def test_mechanism_shape(self, rng):
        params = random_n12_params(rng)
        mech = params.mechanism()
        assert (mech.theta, mech.alpha, mech.beta) == (4, 3, 2)
        assert mech.allocation.x[0] == pytest.approx(params.x1)


class TestN12PositionBids:
    def test_truthful_uses_values(self, rng):
        params = random_n12_params(rng)
        assert n12_position_bids(params, (1, 2, 3)) == params.v[:3]

    def test_overrides_are_respected(self, rng):
        params = random_n12_params(rng, b2=2000.0, b3=1500.0)
        bids = n12_position_bids(params, (2, 3, 1))
        assert bids == (2000.0, 1500.0, params.v[0])

    def test_unrealized_overrides_keep_the_default_bids(self, rng):
        # Values lie below 1000, so b3 = 1.0 realizes no ordering, and with b2 = 2000 it
        # takes b3 = 1500 to realize (1, 3, 2) or (3, 2, 1).
        cases = (
            ({"b3": 1.0}, ()),
            ({"b2": 2000.0, "b3": 1500.0}, ((2, 1, 3), (3, 1, 2), (2, 3, 1))),
        )
        for overrides, pinned in cases:
            params = random_n12_params(rng, **overrides)
            defaults = N12Params(params.v, params.Y, params.x2)
            for ordering in N12_ORDERINGS:
                bids = n12_position_bids(params, ordering)
                assert (bids == n12_position_bids(defaults, ordering)) == (ordering not in pinned)
                assert n12_rank_profile(params, ordering).bids[:3] == bids
                assert n12_check_rank(params, ordering).bids == bids
            v1, v2 = params.v[:2]
            assert n12_position_bids(params, (1, 3, 2)) == (v1, (v1 + v2) / 2, v2)

    def test_unrealized_defaults_rejected(self):
        # (v1 + v2) / 2 rounds to v1 or v2 when they are adjacent floats.
        v = (3.0, math.nextafter(3.0, 0.0), 2.0, 1.0, 0.5)
        params = N12Params(v, (0.4, 0.3, 0.2, 0.1), 0.25, b3=2.5)
        with pytest.raises(ValueError, match=r"do not realize ordering \(1, 3, 2\) above v4=1.0"):
            n12_position_bids(params, (1, 3, 2))


class TestN12CheckRank:
    def test_reports_all_six_conditions(self, rng):
        params = random_n12_params(rng)
        for ordering in N12_ORDERINGS:
            report = n12_check_rank(params, ordering)
            assert len(report.conditions) == 6
            assert report.ordering == ordering
            doc = report.to_json_dict()
            assert len(doc["conditions"]) == 6

    def test_truthful_auto_satisfied_conditions(self, rng):
        # In the truthful ordering the top bidder's 2nd-vs-3rd requirement has
        # a negative valuation-side function, hence holds for any Y.
        params = random_n12_params(rng)
        report = n12_check_rank(params, (1, 2, 3))
        top_23 = next(
            c for c in report.conditions if c.position == 1 and c.comparison == "2<->3"
        )
        assert top_23.v_value < 0
        assert top_23.auto_satisfied
        assert top_23.holds

    def test_margins_match_engine_utilities(self, rng):
        # Each condition margin must equal the exact engine utility difference
        # between the two adjacent positions it compares.
        for _ in range(25):
            params = random_n12_params(rng)
            mech = params.mechanism()
            for ordering in N12_ORDERINGS:
                report = n12_check_rank(params, ordering)
                rank = n12_rank_profile(params, ordering)
                _, records = is_nash_equilibrium(mech, params.v[:4], rank)
                u = {}  # u[(bidder_1based, position)] -> engine utility
                for rec in records:
                    b = rec.bidder + 1
                    u[(b, rec.from_position)] = rec.utility_current
                    u[(b, rec.to_position)] = rec.utility_deviation
                for cond in report.conditions:
                    hi, lo = (1, 2) if cond.comparison == "1<->2" else (2, 3)
                    diff = u[(cond.bidder, hi)] - u[(cond.bidder, lo)]
                    want_upper = (
                        cond.position == 1
                        if cond.comparison == "1<->2"
                        else cond.position <= 2
                    )
                    expected = diff if want_upper else -diff
                    assert cond.margin == pytest.approx(expected, abs=1e-9)

    def test_ne_verdict_implies_engine_equilibrium(self, rng):
        found = 0
        for _ in range(60):
            params = random_n12_params(rng)
            mech = params.mechanism()
            for ordering in N12_ORDERINGS:
                report = n12_check_rank(params, ordering)
                if not report.is_ne or report.indeterminate:
                    continue
                rank = n12_rank_profile(params, ordering)
                ok, _ = is_nash_equilibrium(mech, params.v[:4], rank)
                assert ok
                found += 1
        assert found > 0

    def test_reported_relation_matches_holds(self, rng):
        compared = 0
        for _ in range(200):
            params = random_n12_params(rng)
            for ordering in N12_ORDERINGS:
                for c in n12_check_rank(params, ordering).conditions:
                    if c.indeterminate or c.v_value is None:
                        continue
                    relation = c.v_value < c.ycoef if c.direction == "<" else c.v_value > c.ycoef
                    assert relation == c.holds, c
                    if c.auto_satisfied:
                        assert c.holds
                    compared += 1
        assert compared > 6_000

    def test_unknown_ordering_rejected(self, rng):
        params = random_n12_params(rng)
        with pytest.raises(ValueError):
            n12_check_rank(params, (1, 1, 2))

    def test_records_are_immutable_values(self, rng):
        params = random_n12_params(rng)
        report = n12_check_rank(params, (2, 1, 3))
        record = DeviationRecord(0, 1, 2, 1.5, 2.25)
        for rec, field in ((report, "is_ne"), (report.conditions[0], "margin"), (record, "bidder")):
            with pytest.raises(AttributeError):
                setattr(rec, field, 0)
        for rec, twin in (
            (report, n12_check_rank(N12Params(params.v, params.Y, params.x2), (2, 1, 3))),
            (report.conditions[3], N12Condition(*report.conditions[3])),
            (record, DeviationRecord(0, 1, 2, 1.5, 2.25)),
        ):
            assert rec is not twin and rec == twin and hash(rec) == hash(twin)
        assert record.gain == 2.25 - 1.5
        condition_fields = [
            "bidder", "position", "comparison", "margin", "holds", "indeterminate",
            "v_value", "ycoef", "direction", "auto_satisfied",
        ]
        want = {
            "ordering": (2, 1, 3),
            "bids": report.bids,
            "is_ne": report.is_ne,
            "indeterminate": report.indeterminate,
            "conditions": [dict(zip(condition_fields, c)) for c in report.conditions],
        }
        doc = report.to_json_dict()
        assert doc == want and list(doc) == list(want)
        assert [list(c) for c in doc["conditions"]] == [condition_fields] * 6


def reference_n12_position_utility(params, w, my_pos, others_desc):
    """The position-by-position utility loop the term table replaced."""
    Y = params.Y  # Y[k-1] = Y_k; excluding position j has probability Y_{5-j}
    x1, x2 = params.x1, params.x2
    bid_at = {}
    pos = 1
    for b in others_desc:
        if pos == my_pos:
            pos += 1
        bid_at[pos] = b
        pos += 1
    total = 0.0
    for excluded in range(1, 5):
        if excluded == my_pos:
            continue
        prob = Y[4 - excluded]
        selected = [q for q in range(1, 5) if q != excluded]
        rank = selected.index(my_pos) + 1
        if rank == 1:
            s2 = bid_at[selected[1]]
            s3 = bid_at[selected[2]]
            total += prob * (w * x1 - (s2 * (x1 - x2) + s3 * x2))
        elif rank == 2:
            s3 = bid_at[selected[2]]
            total += prob * (w * x2 - s3 * x2)
    return total


def reference_n12_check_rank(params, ordering):
    """``n12_check_rank`` as it was before the term table: one loop per utility."""
    if tuple(ordering) not in N12_ORDERINGS:
        raise ValueError(f"ordering must be one of {N12_ORDERINGS}, got {ordering}")
    ordering = tuple(ordering)
    bids = n12_position_bids(params, ordering)
    v = params.v

    conditions = []
    for pos in (1, 2, 3):
        bidder = ordering[pos - 1]
        w = v[bidder - 1]
        others = [*bids[: pos - 1], *bids[pos:], v[3]]
        u = {t: reference_n12_position_utility(params, w, t, others) for t in (1, 2, 3)}
        d2, d3, d4 = others
        for upper, comparison in ((1, "1<->2"), (2, "2<->3")):
            want_upper = pos <= upper
            margin = u[upper] - u[upper + 1]
            if not want_upper:
                margin = -margin
            if upper == 1:
                den = _V12_denominator(params.x1, params.x2, w, d3, d4)
                v_value = (d2 - w) * (params.x1 - params.x2) / den if den else None  # V12
                ycoef = _ycoef12(params.Y)
            else:
                den = 1.0
                v_value = _V23(w, d3, d4)
                ycoef = _ycoef23(params.Y, params.x1, params.x2)
            direction = "<" if want_upper == (den >= 0) else ">"
            conditions.append(
                N12Condition(
                    bidder=bidder,
                    position=pos,
                    comparison=comparison,
                    margin=margin,
                    holds=margin > EQ_ATOL,
                    indeterminate=abs(margin) <= EQ_ATOL,
                    v_value=v_value,
                    ycoef=ycoef,
                    direction=direction,
                    auto_satisfied=v_value is not None and v_value < 0 and direction == "<",
                )
            )

    return N12RankReport(
        ordering=ordering,
        bids=bids,
        is_ne=all(c.holds for c in conditions),
        indeterminate=any(c.indeterminate for c in conditions),
        conditions=tuple(conditions),
    )


def _outcome(check, params, ordering):
    try:
        return check(params, ordering)
    except ValueError as exc:
        return type(exc), str(exc)


class TestN12Reference:
    def test_reports_equal_the_reference_bit_for_bit(self, rng):
        reports = pinned = kept = 0
        for i in range(2_000):
            params = random_n12_params(rng)
            defaults = params
            if i % 3 == 0:
                # Overbids between v2 and v1 + 3 (v1 - v4): some orderings are
                # realized by them, the others keep their default bids.
                v1, v2, _, v4, _ = params.v
                keys = (("b2",), ("b3",), ("b2", "b3"))[i // 3 % 3]
                over = {k: float(rng.uniform(v2, v1 + 3 * (v1 - v4))) for k in keys}
                params = N12Params(params.v, params.Y, params.x2, **over)
            for ordering in N12_ORDERINGS:
                got = _outcome(n12_check_rank, params, ordering)
                want = _outcome(reference_n12_check_rank, params, ordering)
                assert got == want
                # repr spells every float exactly, so this also tells -0.0 from 0.0.
                assert repr(got) == repr(want)
                reports += isinstance(got, N12RankReport)
                if params.b2 is not None or params.b3 is not None:
                    same = got.bids == n12_position_bids(defaults, ordering)
                    pinned += not same
                    kept += same and ordering != (1, 2, 3)
        assert reports == 12_000 and pinned > 1_000 and kept > 1_000, (pinned, kept)

    def test_position_utilities_match_the_reference_loop(self, rng):
        for _ in range(200):
            params = random_n12_params(rng)
            w = params.v[int(rng.integers(3))]
            others = sorted(rng.uniform(0, 1000, size=3), reverse=True)
            got = _n12_position_utilities(params.Y, params.x1, params.x2, w, others)
            want = [reference_n12_position_utility(params, w, t, others) for t in (1, 2, 3)]
            assert [u.hex() for u in got] == [u.hex() for u in want]

    def test_never_reaches_the_engine(self, rng, monkeypatch):
        # Criterion 10 cross-checks these conditions against the engine; that only
        # means something while the n12 path does not price through the engine itself.
        originals = (engine.settle, engine._rank_slot_plan, engine._payments, secondround.settle_round)

        def forbidden(*args, **kwargs):
            raise AssertionError("the n12 conditions called the engine")

        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "tworound"]:
            for name, value in list(vars(module).items()):
                if any(value is f for f in originals):
                    monkeypatch.setattr(module, name, forbidden)
        params = random_n12_params(rng)
        with pytest.raises(AssertionError, match="called the engine"):
            is_nash_equilibrium(params.mechanism(), params.v[:4], n12_rank_profile(params, (1, 2, 3)))
        for _ in range(50):
            params = random_n12_params(rng)
            for ordering in N12_ORDERINGS:
                assert n12_check_rank(params, ordering) == reference_n12_check_rank(params, ordering)


class TestN12RankProfile:
    def test_profile_matches_bids(self, rng):
        params = random_n12_params(rng)
        rank = n12_rank_profile(params, (2, 1, 3))
        assert rank.ordering == (1, 0, 2, 3)
        assert rank.bids[3] == params.v[3]
        assert rank.bids[:3] == n12_position_bids(params, (2, 1, 3))
