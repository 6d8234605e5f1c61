import hashlib
import json
import math
import re
from functools import cache
from itertools import combinations_with_replacement, islice

import numpy as np
import pytest

from conftest import (
    exclusion_distribution,
    make_all_advance_mechanism,
    make_dsic_mechanism,
    make_non_dsic_mechanism,
    off_grid_violation,
    place,
    random_allocation,
)
from tworound import dsic, engine
from tworound.dsic import (
    CHUNK_PROFILES,
    GAIN_ATOL,
    DeviationWitness,
    ResourceLimitError,
    _grid_tables,
    check_dsic,
    find_deviation,
    verify_witness,
)
from tworound.engine import ConfigurationError, Mechanism
from tworound.secondround import AllocationRule
from tworound.selection import SelectionDistribution, enumerate_subsets

GRID = list(range(0, 9))


def mech_from_q(q):
    """alpha = theta - 1, beta = 1 mechanism from per-rank exclusion probabilities."""
    theta = len(q)
    dist = exclusion_distribution(theta, np.asarray(q, dtype=float))
    alloc = AllocationRule((1.0,) + (0.0,) * (theta - 2))
    return Mechanism(dist, alloc)


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

    def test_verdict_holds_at_n_theta_and_for_beta_below_alpha(self):
        # With beta = alpha the rank-alpha winner pays nothing, so past n = theta a bidder
        # outside the top theta gains by overbidding into it; with beta = 1 no witness exists.
        for theta, alpha, gain in ((3, 2, 0.1333), (4, 2, 0.1)):
            for x in ((0.6, 0.4), (1.0, 0.0)):
                sel = SelectionDistribution.uniform(theta, alpha)
                m = Mechanism(sel, AllocationRule(x))
                assert check_dsic(m).is_dsic and find_deviation(m, GRID) is None
                for n in (theta + 1, theta + 2):
                    w = find_deviation(m, GRID, n)
                    if m.beta < alpha:
                        assert w is None
                    else:
                        assert round(verify_witness(m, w, n), 4) == round(w.gain, 4) == gain

    def test_off_grid_violation_is_seen_by_the_closed_form_and_verify_witness(self):
        # The grid oracle misses it (ROADMAP item 2): the value 7.9 lies off the 0..8 grid.
        m = off_grid_violation()
        assert check_dsic(m).violated_condition == "condition-2"
        witness = DeviationWitness(7.9, 8.0, 8.0, (8.0, 0.0), 0.0, 0.0)
        assert round(verify_witness(m, witness, n=3), 5) == 0.12467

    def test_verdict_serializes(self):
        doc = check_dsic(mech_from_q((0.4, 0.3, 0.2, 0.1))).to_json_dict()
        assert doc == {"is_dsic": False, "violated_condition": "condition-2"}

    def test_verdict_keys_keep_the_field_order(self):
        for q in ((0.4, 0.3, 0.2, 0.1), (0.2, 0.2, 0.2, 0.4)):
            assert list(check_dsic(mech_from_q(q)).to_json_dict()) == ["is_dsic", "violated_condition"]


def near_uniform(e):
    """theta = 3, alpha = 2, x = (0.6, 0.4), p(1,2) = 1/3, p(1,3) = 1/3 + e, p(2,3) = 1/3 - e."""
    dist = SelectionDistribution(3, 2, {(1, 2): 1 / 3, (1, 3): 1 / 3 + e, (2, 3): 1 / 3 - e})
    return Mechanism(dist, AllocationRule((0.6, 0.4)))


class TestToleranceDisagreement:
    """Near uniform selection the two DSIC routes apply different absolute tolerances (ROADMAP
    item 4): ``check_dsic`` compares marginals within MARGINAL_ATOL, ``find_deviation`` gains
    within GAIN_ATOL at values up to 8, so a marginal gap below the one is a gain above the other."""

    GAINS = {5e-10: "1.4000005599e-09", 9e-10: "2.5200006526e-09"}

    def test_the_closed_form_says_dsic_while_the_oracle_finds_a_witness(self):
        for e, gain in self.GAINS.items():
            m = near_uniform(e)
            assert check_dsic(m).is_dsic
            w = find_deviation(m, GRID, 3)
            assert (w.value, w.first_round_bid, w.second_round_bid, w.opponent_bids) == (7, 0, 0, (8, 7))
            assert f"{w.gain:.10e}" == f"{verify_witness(m, w, 3):.10e}" == gain

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
    def test_the_two_routes_agree(self):
        for e in self.GAINS:
            m = near_uniform(e)
            assert check_dsic(m).is_dsic == (find_deviation(m, GRID, 3) is None)

    @staticmethod
    def large_grid_mechanism():
        dist = SelectionDistribution(3, 2, {(1, 2): 0.4, (1, 3): 0.3, (2, 3): 0.3})
        return Mechanism(dist, AllocationRule((1.0, 0.0)))

    def test_large_grid_mechanism_is_dsic(self):
        assert check_dsic(self.large_grid_mechanism()).is_dsic

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
    def test_no_rounding_witness_on_a_large_grid(self):
        # Truthful at v = 7e11 against (7e11, 7e11), the bidder's utility is exactly 0; the float
        # sums price it at -6.1e-5, so b = s = 0 "gains" 6.1e-5 (8192 on 0:1e20:1e19), and
        # verify_witness repeats the same arithmetic.
        m = self.large_grid_mechanism()
        assert find_deviation(m, np.arange(0, 1.05e12, 1e11).tolist(), 3) is None


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

    @pytest.mark.parametrize("n", [True, 4.0, "4", np.int64(4)])
    def test_n_is_an_int(self, n):
        # A bool would count one bidder, a float would fail inside itertools; verify_witness
        # would take 4.0 as the bidder count and report "4" as a count mismatch.
        m = mech_from_q((0.6, 0.3, 0.1))
        witness = find_deviation(m, GRID, 4)
        if isinstance(n, np.integer):
            assert find_deviation(m, GRID, n) == witness is not None
            assert verify_witness(m, witness, n) == verify_witness(m, witness)
        else:
            for call in (lambda: find_deviation(m, GRID, n), lambda: verify_witness(m, witness, n)):
                with pytest.raises(ConfigurationError, match=re.escape(f"expected integers, got ({n!r},)")):
                    call()

    @pytest.mark.parametrize("grid", [[math.nan, 1, 2], [-1, 0, 1], [0, 1, math.inf]])
    def test_grid_points_must_be_finite_and_nonnegative(self, grid):
        m = mech_from_q((0.6, 0.3, 0.1))
        with pytest.raises(ValueError, match="grid points must be finite and nonnegative"):
            find_deviation(m, grid)

    def test_empty_grid_rejected(self):
        # None would read as "DSIC on the grid" although nothing was searched.
        with pytest.raises(ValueError, match="grid must not be empty"):
            find_deviation(mech_from_q((0.6, 0.3, 0.1)), [])

    def test_verify_witness_rejects_a_mismatched_n(self):
        m = mech_from_q((0.6, 0.3, 0.1))
        witness = find_deviation(m, GRID, n=4)
        assert verify_witness(m, witness, n=4) == verify_witness(m, witness)
        with pytest.raises(ConfigurationError, match="n=3"):
            verify_witness(m, witness, n=3)


class TestTieBreaks:
    @staticmethod
    def _search(theta, subset, x):
        m = Mechanism(SelectionDistribution.point_mass(theta, subset), AllocationRule(x))
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


def reference_find_deviation(mech, grid, n):
    """The grid search as a triple loop, every deviation priced by ``place`` over ``engine.settle``."""
    grid = sorted(float(g) for g in grid)
    for opp in combinations_with_replacement(reversed(grid), n - 1):
        # opp is descending; at an equal bid the deviator (id 0) takes the better position.
        priced = cache(lambda p, s: place(mech, opp, p, s))
        for v in grid:
            Xt, Pt = priced(1 + sum(1 for ob in opp if ob > v), v)
            u_truth = v * Xt - Pt
            for b in grid:
                p_dev = 1 + sum(1 for ob in opp if ob > b)
                for s in grid:
                    if s < b:
                        continue
                    Xd, Pd = priced(p_dev, s)
                    u_dev = v * Xd - Pd
                    if u_dev > u_truth + GAIN_ATOL:
                        return DeviationWitness(
                            value=v,
                            first_round_bid=b,
                            second_round_bid=s,
                            opponent_bids=tuple(opp),
                            truthful_utility=u_truth,
                            deviation_utility=u_dev,
                        )
    return None


class TestReferenceEquivalence:
    """The table-and-scan search returns exactly the reference loop's witness."""

    @staticmethod
    def _random_mechanism(rng, theta):
        alpha = int(rng.integers(1, theta + 1))
        beta = alpha if rng.random() < 0.25 else int(rng.integers(1, alpha + 1))
        subsets = enumerate_subsets(theta, alpha)
        kind = rng.integers(3)
        if kind == 0:
            dist = SelectionDistribution.point_mass(theta, subsets[rng.integers(len(subsets))])
        else:
            w = rng.random(len(subsets)) * (rng.random(len(subsets)) < 0.6)
            w[rng.integers(len(subsets))] += 0.1
            dist = SelectionDistribution(theta, alpha, dict(zip(subsets, w / w.sum())))
        if kind == 2 and alpha == theta - 1 and beta < alpha:
            return make_dsic_mechanism(rng, theta, beta)
        return Mechanism(dist, random_allocation(rng, alpha, beta))

    @staticmethod
    def _random_grid(rng, n):
        # Cap the reference loop's work: profiles times (v, b) pairs.
        size = int(rng.integers(3, 13))
        while size > 3 and math.comb(size + n - 2, n - 1) * size**2 > 20_000:
            size -= 1
        if rng.random() < 0.5:
            points = rng.uniform(0.0, 9.0, size=size)
        else:
            points = rng.choice(np.arange(0.0, 9.0, 0.5), size=size)
        if rng.random() < 0.5:
            points[: size // 3] = points[-1]
        return list(points)

    def test_random_mechanisms_match_the_reference(self):
        rng = np.random.default_rng(20261018)
        found = 0
        for _ in range(100):
            theta = int(rng.integers(2, 7))
            n = int(rng.integers(theta, 7))
            mech = self._random_mechanism(rng, theta)
            grid = self._random_grid(rng, n)
            want = reference_find_deviation(mech, grid, n)
            assert find_deviation(mech, grid, n=n) == want, (mech, grid, n)
            found += want is not None
        assert 20 < found < 90

    def test_witness_beyond_the_first_chunk(self):
        # Only position 2 advances, and it is out of the deviator's reach
        # while the top two opponents bid alike: the 165 leading profiles
        # (8, 8, ...) hold no witness.
        mech = Mechanism(SelectionDistribution.point_mass(2, (2,)), AllocationRule((1.0,)))
        want = reference_find_deviation(mech, GRID, 6)
        profiles = list(combinations_with_replacement(reversed(GRID), 5))
        assert profiles.index(want.opponent_bids) == 165 > 2 * CHUNK_PROFILES
        assert find_deviation(mech, GRID, n=6) == want


def reference_scan(mech, grid, n):
    """The chunk scan that sums each payment term on its own, bottom-up over numpy columns.

    The inner loop is ``secondround.rank_payments`` written out for the head rank, which is what
    the scan called once per term before the terms were gathered into one pass.
    """
    grid = sorted(float(g) for g in grid)
    alloc, steps, beta = mech.allocation.x, mech.allocation.steps, mech.beta
    X, terms = np.zeros((n, n)), []
    for p in range(1, mech.theta + 1):
        for k in range(p):
            for subset, prob in mech.selection.probs.items():
                r = sum(1 for q in subset if q <= k)
                if prob != 0.0 and p in subset and r < beta:
                    below = [q - 1 if q < p else q - 2 for q in subset if q > k and q != p]
                    X[p - 1, k] += prob * alloc[r]
                    terms.append(((p - 1, k), prob, (None, *below), steps[r:]))
    g = np.array(grid)
    bi, si = np.nonzero(g >= g[:, None])
    profiles = combinations_with_replacement(reversed(grid), n - 1)
    while chunk := list(islice(profiles, CHUNK_PROFILES)):
        opp = np.array(chunk)
        rows = np.arange(len(chunk))
        P = np.zeros((n, n, len(chunk)))
        for slot, prob, order, term_steps in terms:
            total = 0.0
            for r in range(len(term_steps) - 1, -1, -1):
                total = total + opp.T[order[r + 1]] * term_steps[r]
            P[slot] += prob * total
        p1 = (opp[:, :, None] > g).sum(1)
        k = np.minimum(p1[:, :, None], (opp[:, :, None] >= g).sum(1)[:, None, :])
        U = g[:, None, None] * X - P.transpose(2, 0, 1)[:, None]
        u_truth = U[rows[:, None], np.arange(len(g)), p1, p1]
        reached = np.zeros((len(chunk), n, n), dtype=bool)
        reached[rows[:, None], p1[:, bi], k[:, bi, si]] = True
        hits = (U > (u_truth + GAIN_ATOL)[:, :, None, None]) & reached[:, None]
        if hits.any():
            i, v, _, _ = np.unravel_index(hits.argmax(), hits.shape)
            pairs = hits[i, v][p1[i][:, None], k[i]] & (g >= g[:, None])
            b, s = np.unravel_index(pairs.argmax(), pairs.shape)
            return DeviationWitness(
                value=grid[v],
                first_round_bid=grid[b],
                second_round_bid=grid[s],
                opponent_bids=chunk[i],
                truthful_utility=float(u_truth[i, v]),
                deviation_utility=float(U[i, v, p1[i, b], k[i, b, s]]),
            )
    return None


def scan_grid(rng, n):
    """Unsorted floats, half steps or ints, often with repeats; at most three chunks of profiles."""
    size = int(rng.integers(2, 10))
    while size > 2 and math.comb(size + n - 2, n - 1) > 3 * CHUNK_PROFILES:
        size -= 1
    kind = rng.integers(3)
    if kind == 0:
        points = [float(x) for x in rng.uniform(0.0, 9.0, size=size)]
    elif kind == 1:
        points = [float(x) for x in rng.choice(np.arange(0.0, 9.0, 0.5), size=size)]
    else:
        points = [int(x) for x in rng.integers(0, 9, size=size)]
    if rng.random() < 0.3:
        points[: size // 3] = [points[-1]] * (size // 3)
    return points


class TestGatheredPass:
    """``find_deviation`` returns the per-term chunk scan's witness, float for float."""

    def test_random_mechanisms_match_the_per_term_scan(self):
        rng = np.random.default_rng(20261019)
        found = 0
        for _ in range(2000):
            theta = int(rng.integers(2, 7))
            n = int(rng.integers(theta, 7))
            mech = TestReferenceEquivalence._random_mechanism(rng, theta)
            grid = scan_grid(rng, n)
            want = reference_scan(mech, grid, n)
            got = find_deviation(mech, grid, n=n)
            assert got == want and repr(got) == repr(want), (mech, grid, n)
            found += want is not None
        assert 400 < found < 1900

    def test_signed_zero_grid_points_are_kept(self):
        # Only position 2 advances: the witness bids 0 under an opponent at 1 and above one at 0.
        mech = Mechanism(SelectionDistribution.point_mass(3, (2,)), AllocationRule((1.0,)))
        _grid_tables.cache_clear()
        for grid, zero in (([0.0, 1.0], "0.0"), ([-0.0, 1.0], "-0.0"), ([1.0, 0.0], "0.0")):
            got = find_deviation(mech, grid, n=3)
            assert repr(got) == repr(reference_scan(mech, grid, 3))
            assert repr(got.opponent_bids) == f"(1.0, {zero})"
        assert _grid_tables.cache_info().currsize == 1  # 0.0 and -0.0 share the entry


class TestGridTables:
    """The per-(grid, n) tables are cached, read-only and keyed by the sorted float grid."""

    def test_cached_arrays_are_read_only(self):
        chunks = _grid_tables(tuple(float(g) for g in GRID), 4)
        assert len(chunks) > 1
        for chunk in chunks:
            arrays = [a for a in chunk if isinstance(a, np.ndarray)]
            assert arrays and not any(a.flags.writeable for a in arrays)

    def test_equal_grids_share_one_entry(self):
        mech = mech_from_q((0.2, 0.2, 0.2, 0.4))
        shuffled = [float(g) for g in np.random.default_rng(3).permutation(GRID)]
        _grid_tables.cache_clear()
        for grid in (range(9), [8.0 - g for g in GRID], shuffled):
            assert find_deviation(mech, grid) is None
        info = _grid_tables.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 2)

    def test_more_keys_than_the_cache_holds(self):
        rng = np.random.default_rng(20261020)
        maxsize = _grid_tables.cache_info().maxsize
        assert maxsize <= 16
        keys = [(list(range(size)), n) for size in (3, 4, 5) for n in (4, 5, 6)]
        assert len(keys) > maxsize
        mechs = [mech_from_q((0.6, 0.3, 0.1)), mech_from_q((0.2, 0.2, 0.2, 0.4))]
        mechs += [TestReferenceEquivalence._random_mechanism(rng, 4) for _ in range(4)]
        fresh = {}
        for grid, n in keys:
            for j, mech in enumerate(mechs):
                _grid_tables.cache_clear()
                fresh[len(grid), n, j] = repr(find_deviation(mech, grid, n=n))
        _grid_tables.cache_clear()
        # Cycling in order evicts every entry before its next use; the reversed pass then hits.
        for grid, n in keys * 2 + keys[::-1]:
            for j, mech in enumerate(mechs):
                assert repr(find_deviation(mech, grid, n=n)) == fresh[len(grid), n, j]
        info = _grid_tables.cache_info()
        assert info.currsize == maxsize
        assert info.misses > 2 * len(keys)
        assert info.hits > 0


class TestRayCertificate:
    """The ray certificate only ends searches the sweep finds no witness in, so no result moves."""

    @staticmethod
    def _sweep(monkeypatch, mech, grid, n):
        """``find_deviation`` with the certificate switched off: the full sweep decides."""
        with monkeypatch.context() as patch:
            patch.setattr(dsic, "_rays_gain_nothing", lambda *args: False)
            return find_deviation(mech, grid, n=n)

    @staticmethod
    def _fires(mech, grid, n):
        slots = [(p, k) for p in range(1, mech.theta + 1) for k in range(p)]
        plan = engine._plan_arrays(engine._rank_slot_plan(mech, n, slots))
        return dsic._rays_gain_nothing(plan, n, float(max(grid)))

    def test_the_certificate_never_changes_a_result(self, monkeypatch):
        # alpha = theta - 1 selections near uniform, with e moved between two subsets: from far
        # inside GAIN_ATOL to violations any grid shows, through the band where the grid misses.
        rng = np.random.default_rng(20261021)
        seen = {"fired": 0, "declined, witness": 0, "declined, none": 0}
        for trial in range(600):
            theta = int(rng.integers(2, 5))
            n = int(rng.integers(theta, 7))
            probs = np.full(theta, 1.0 / theta)
            e = 10 ** rng.uniform(-13, -1)
            i, j = rng.choice(theta, size=2, replace=False)
            probs[i] += e
            probs[j] -= e
            subsets = enumerate_subsets(theta, theta - 1)
            sel = SelectionDistribution(theta, theta - 1, dict(zip(subsets, probs.tolist())))
            x = random_allocation(rng, theta - 1, int(rng.integers(1, theta)))
            mech = Mechanism(sel, x)
            if trial % 3 == 0:
                grid = GRID
            else:  # random grids, up to 1e6 on every third trial
                top = 9.0 if trial % 3 == 1 else 10 ** rng.uniform(0, 6)
                grid = rng.uniform(0, top, size=int(rng.integers(4, 10))).tolist()
            got = find_deviation(mech, grid, n=n)
            want = self._sweep(monkeypatch, mech, grid, n)
            assert repr(got) == repr(want), (mech, grid, n)
            if len(_grid_tables(tuple(sorted(map(float, grid))), n)) > 1:  # where the certificate runs
                if self._fires(mech, grid, n):
                    assert want is None
                    seen["fired"] += 1
                else:
                    seen["declined, witness" if want else "declined, none"] += 1
        assert min(seen.values()) >= 20, seen

    def test_criterion_2_mix(self, monkeypatch):
        # Criterion 2's mechanisms, drawn as it draws them: the certificate fires on every DSIC and
        # all-advance one whose sweep has more than one chunk, and never where a witness exists.
        rng = np.random.default_rng(20240702)
        seen = {"fired": 0, "witness": 0}
        for total in range(200):
            theta = int(rng.integers(2, 5))
            beta = int(rng.integers(1, theta))
            kind = total % 5
            if kind in (0, 1):
                mech = make_dsic_mechanism(rng, theta, beta)
            elif kind in (2, 3):
                mech = make_non_dsic_mechanism(rng, theta, beta)
            else:
                mech = make_all_advance_mechanism(rng, theta, int(rng.integers(1, theta + 1)))
            if theta == 4 or mech.beta == mech.alpha:
                n = theta
            else:
                n = int(rng.integers(theta, min(theta + 2, 7)))
            witness = self._sweep(monkeypatch, mech, GRID, n)
            fires = self._fires(mech, GRID, n)
            assert (witness is not None) == (kind in (2, 3))
            if witness is not None:
                assert not fires
                seen["witness"] += 1
            elif len(_grid_tables(tuple(map(float, GRID)), n)) > 1:
                assert fires, (mech, n)
                seen["fired"] += 1
        assert seen["fired"] >= 40 and seen["witness"] == 80, seen
