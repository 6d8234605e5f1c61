import math

import numpy as np
import pytest

from tworound.engine import BidProfile, expected_revenue
from tworound.equilibrium import (
    ConstructionFailure,
    DegenerateRatioError,
    FormulaDomainError,
    N12_ORDERINGS,
    N12ConditionFunctions,
    N12Params,
    RankProfile,
    is_nash_equilibrium,
    n11_classify,
    n11_construct_better_Y,
    n11_improvement_threshold,
    n11_mechanism,
    n11_revenue,
    n11_supremum_bound,
    n12_check_rank,
    n12_condition_functions,
    n12_position_bids,
    n12_rank_profile,
)
from tworound.selection import ExclusionY

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
    def test_round_trip_to_bid_profile(self):
        rank = RankProfile((1, 0, 2), (650, 450, 200))
        prof = rank.to_profile()
        assert prof.first_round == (450.0, 650.0, 200.0)
        assert prof.second_round == prof.first_round

    def test_rejects_non_decreasing_bids(self):
        with pytest.raises(ValueError):
            RankProfile((0, 1, 2), (450, 450, 200))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            RankProfile((0, 0, 2), (450, 350, 200))


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

        mech = Mechanism(
            2, 2, SelectionDistribution.uniform(2, 2), AllocationRule((1.0, 0.0))
        )
        values = (450.0, 350.0)
        ok_truth, _ = is_nash_equilibrium(mech, values, RankProfile((0, 1), (450, 350)))
        ok_risky, _ = is_nash_equilibrium(mech, values, RankProfile((1, 0), (500, 450)))
        assert ok_truth
        assert not ok_risky


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
    def test_hand_value(self):
        assert n11_improvement_threshold(*V_EX) == pytest.approx(0.4)

    def test_equal_values_collapse(self):
        assert n11_improvement_threshold(450, 450, 200) == 0.0

    def test_threshold_separates_revenue(self):
        thr = n11_improvement_threshold(*V_EX)
        below = ExclusionY((0.7, 0.2, 0.1))  # tail mass 0.3 < 0.4
        above = ExclusionY((0.5, 0.3, 0.2))  # tail mass 0.5 > 0.4
        assert n11_revenue("risky", *V_EX, below) > V_EX[1]
        assert n11_revenue("risky", *V_EX, above) < V_EX[1]

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateRatioError):
            n11_improvement_threshold(450, 300, 450)


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
        fns = N12ConditionFunctions(x2=0.3, Y=(0.4, 0.3, 0.2, 0.1))
        assert fns.V23(450, 350, 200) == pytest.approx(-0.4)

    def test_ycoef23_hand_value(self):
        fns = N12ConditionFunctions(x2=0.5, Y=(0.4, 0.3, 0.2, 0.1))
        assert fns.ycoef23 == pytest.approx(0.25)

    def test_ycoef12_hand_value(self):
        fns = N12ConditionFunctions(x2=0.3, Y=(0.4, 0.3, 0.2, 0.1))
        assert fns.ycoef12 == pytest.approx(1.0)

    def test_domain_errors(self):
        fns = N12ConditionFunctions(x2=0.3, Y=(0.3, 0.3, 0.2, 0.2))
        with pytest.raises(FormulaDomainError):
            fns.ycoef12
        with pytest.raises(FormulaDomainError):
            fns.V23(200, 350, 200)


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
        params = random_n12_params(rng, b_overrides={"b2": 2000.0, "b3": 1500.0})
        bids = n12_position_bids(params, (2, 3, 1))
        assert bids == (2000.0, 1500.0, params.v[0])

    def test_invalid_override_rejected(self, rng):
        params = random_n12_params(rng, b_overrides={"b3": 1.0})
        with pytest.raises(ValueError):
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

    def test_unknown_ordering_rejected(self, rng):
        params = random_n12_params(rng)
        with pytest.raises(ValueError):
            n12_check_rank(params, (1, 1, 2))


class TestN12RankProfile:
    def test_profile_matches_bids(self, rng):
        params = random_n12_params(rng)
        rank = n12_rank_profile(params, (2, 1, 3))
        assert rank.ordering == (1, 0, 2, 3)
        assert rank.bids[3] == params.v[3]
        prof = rank.to_profile()
        assert prof.first_round[1] == rank.bids[0]
