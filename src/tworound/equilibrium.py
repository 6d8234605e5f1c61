"""Nash-equilibrium analysis for non-DSIC two-round auctions.

Once the selection marginals are strictly decreasing in first-round rank, the
auction is no longer DSIC and bidders may profitably overbid ("risky"
bidding).  This module classifies the resulting pure-strategy equilibria:

* a general position-deviation check driven by exact engine evaluation,
* closed forms for the one-winner mode (alpha = theta - 1, beta = 1,
  second-price second round): classification, revenue, a supremum bound on
  the risky-order revenue, and a constructive "improve the distribution"
  procedure,
* the two-winner example (theta=4, alpha=3, beta=2): the six adjacent-position
  inequalities for each of the 6 orderings of the top three bidders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .engine import BidProfile, Mechanism, expected_utility
from .secondround import AllocationRule
from .selection import ExclusionY, SelectionDistribution, from_exclusion_Y

EQ_ATOL = 1e-9


class DegenerateRatioError(ValueError):
    """Valuation gap ratio undefined (equal valuations where a gap is needed)."""


class ConstructionFailure(RuntimeError):
    """No feasible improved distribution found; carries the reason."""

    def __init__(self, certificate: str):
        super().__init__(certificate)
        self.certificate = certificate


# ---------------------------------------------------------------------------
# General position-deviation equilibrium check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankProfile:
    """An ordering of bidders over first-round positions with realizing bids.

    ``ordering[j]`` is the bidder id (0-based) at position j+1; ``bids[j]``
    is that position's bid, strictly decreasing.  In the monotonic regime the
    same bid is used in both rounds.
    """

    ordering: tuple[int, ...]
    bids: tuple[float, ...]

    def __post_init__(self) -> None:
        ordering = tuple(int(i) for i in self.ordering)
        bids = tuple(float(b) for b in self.bids)
        if sorted(ordering) != list(range(len(ordering))):
            raise ValueError(f"ordering must be a permutation of bidder ids: {ordering}")
        if len(bids) != len(ordering):
            raise ValueError("bids and ordering differ in length")
        if any(bids[i] <= bids[i + 1] for i in range(len(bids) - 1)):
            raise ValueError(f"bids must be strictly decreasing: {bids}")
        object.__setattr__(self, "ordering", ordering)
        object.__setattr__(self, "bids", bids)

    def to_profile(self) -> BidProfile:
        n = len(self.ordering)
        b = [0.0] * n
        for pos, bidder in enumerate(self.ordering):
            b[bidder] = self.bids[pos]
        return BidProfile(tuple(b), tuple(b))


@dataclass(frozen=True)
class DeviationRecord:
    bidder: int
    from_position: int
    to_position: int
    utility_current: float
    utility_deviation: float

    @property
    def gain(self) -> float:
        return self.utility_deviation - self.utility_current


def is_nash_equilibrium(
    mech: Mechanism,
    values: Sequence[float],
    rank: RankProfile,
    step: float | None = None,
    tol: float = EQ_ATOL,
) -> tuple[bool, list[DeviationRecord]]:
    """Check a rank profile against all single-bidder position deviations.

    Bidders occupying competitive positions (<= theta - alpha + beta) may move
    to any other competitive position, or retreat just below the competition
    line; moving to position t means bidding one step above the incumbent
    position-t bid when moving up, and one step below it when moving down (the
    minimal bid change that realizes position t).  Returns (no bidder strictly
    gains, per-deviation utility table).
    """
    k = mech.competition_rank
    base = rank.to_profile()
    bids = rank.bids
    min_gap = min(a - b for a, b in zip(bids, bids[1:])) if len(bids) > 1 else 1.0
    delta = min(step, min_gap / 2) if step is not None else min_gap / 10
    # Targets: the competitive positions plus one slot below the line, which
    # realizes "stop competing" (its allocation probability is always zero).
    top = min(k, len(bids))
    targets = list(range(1, top + 1)) + ([top + 1] if top < len(bids) else [])

    records: list[DeviationRecord] = []
    ok = True
    for p in range(1, top + 1):
        bidder = rank.ordering[p - 1]
        u_cur = expected_utility(mech, values, base, bidder)
        for t in targets:
            if t == p:
                continue
            if t < p:
                new_bid = bids[t - 1] + delta
            else:
                floor = bids[t] if t < len(bids) else 0.0
                new_bid = bids[t - 1] - min(delta, (bids[t - 1] - floor) / 2)
            first = list(base.first_round)
            second = list(base.second_round)
            first[bidder] = new_bid
            second[bidder] = new_bid
            dev = BidProfile(tuple(first), tuple(second))
            u_dev = expected_utility(mech, values, dev, bidder)
            records.append(DeviationRecord(bidder, p, t, u_cur, u_dev))
            if u_dev > u_cur + tol:
                ok = False
    return ok, records


# ---------------------------------------------------------------------------
# One-winner mode: alpha = theta - 1, beta = 1 (second-price second round)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NEClassification:
    """Closed-form equilibrium verdict for the one-winner mode."""

    mode: str
    truthful_ne: bool
    risky_ne: bool
    indeterminate: bool = False
    risky_witness_bid: float | None = None
    gap_ratio: float | None = None  # (v1-v2)/(v2-v3)
    y_ratio: float | None = None  # (Y_{t-1}-Y_t)/sum_{i<=t-2} Y_i

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "truthful_ne": self.truthful_ne,
            "risky_ne": self.risky_ne,
            "indeterminate": self.indeterminate,
            "risky_witness_bid": self.risky_witness_bid,
            "gap_ratio": self.gap_ratio,
            "y_ratio": self.y_ratio,
        }


def _n11_terms(Y: ExclusionY) -> tuple[float, float, float]:
    """(S, A, D) = (sum of top theta-2 entries, tail mass, tail gap)."""
    t = Y.theta
    if t < 3:
        raise ValueError("one-winner closed forms need theta >= 3")
    S = sum(Y.y_vec[: t - 2])
    A = Y.y_vec[t - 2] + Y.y_vec[t - 1]
    D = Y.y_vec[t - 2] - Y.y_vec[t - 1]
    return S, A, D


def _require_admissible(Y: ExclusionY) -> None:
    t = Y.theta
    if not Y.ordered:
        raise ValueError(f"exclusion vector must be strictly ordered: {Y.y_vec}")
    if not (Y.y_vec[t - 2] < 1 / (t - 1) and Y.y_vec[t - 1] < 1 / t):
        raise ValueError(f"exclusion tail bounds violated: {Y.y_vec}")


def n11_classify(
    v1: float,
    v2: float,
    v3: float,
    Y: ExclusionY,
    witness_step: float = 0.01,
) -> NEClassification:
    """Classify the truthful and risky orderings in the one-winner mode.

    With r = (v1-v2)/(v2-v3) and R = (Y_{t-1}-Y_t)/sum_{i<=t-2} Y_i:
    the truthful order is an equilibrium iff r > R, and the order with the
    second bidder overbidding to the top slot is an equilibrium iff r < R
    (some sufficiently large overbid b2' then always validates it; the
    smallest grid multiple is reported as witness).
    """
    if not v1 >= v2 >= v3 > 0:
        raise ValueError(f"need v1 >= v2 >= v3 > 0, got {(v1, v2, v3)}")
    if v2 == v3:
        raise DegenerateRatioError("v2 == v3 makes the gap ratio undefined")
    _require_admissible(Y)
    S, A, D = _n11_terms(Y)
    r = (v1 - v2) / (v2 - v3)
    ratio = D / S
    scale = max(abs(r), abs(ratio), 1.0)
    if abs(r - ratio) <= EQ_ATOL * scale:
        return NEClassification("n11", False, False, True, None, r, ratio)
    if r > ratio:
        return NEClassification("n11", True, False, False, None, r, ratio)
    # Risky order: b2' must satisfy (b2' - v1)/(v1 - v3) > ratio.
    min_over = v1 + ratio * (v1 - v3)
    steps = math.floor(min_over / witness_step) + 1
    b2 = steps * witness_step
    while (b2 - v1) / (v1 - v3) <= ratio:
        b2 += witness_step
    return NEClassification("n11", False, True, False, b2, r, ratio)


def n11_revenue(kind: str, v1: float, v2: float, v3: float, Y: ExclusionY) -> float:
    """Expected revenue of the truthful or risky ordering, in closed form.

    Truthful: the top-value bidder wins whenever surviving, paying v2 against
    the runner-up, v3 when the runner-up was excluded; the runner-up pays v3
    when the top bidder was excluded.  Risky swaps v1 for v2 in the winning
    term.
    """
    S, A, _ = _n11_terms(Y)
    if kind == "truthful":
        return S * v2 + A * v3
    if kind == "risky":
        return S * v1 + A * v3
    raise ValueError(f"kind must be 'truthful' or 'risky', got {kind!r}")


def n11_supremum_bound(v1: float, v2: float, Yp: ExclusionY) -> float:
    """Upper bound on risky-order revenue over all v3 consistent with the order.

    The bound ((Y_{t-1}+Y_t)(1-2Y_t) v2 - 2 Y_t S v1) / (Y_{t-1}-Y_t) is
    approached but never attained while the risky order remains an
    equilibrium; it tends to v1 as v2 -> v1.
    """
    S, A, D = _n11_terms(Yp)
    t = Yp.theta
    if D <= 0:
        raise ZeroDivisionError("bound undefined when the tail entries are equal")
    y_t = Yp.y_vec[t - 1]
    return (A * (1 - 2 * y_t) * v2 - 2 * y_t * S * v1) / D


def n11_improvement_threshold(v1: float, v2: float, v3: float) -> float:
    """Tail-mass threshold below which risky revenue beats the one-round price.

    Risky-order revenue exceeds v2 (the single-round second-price revenue)
    iff Y_{t-1} + Y_t < (v1 - v2)/(v1 - v3).
    """
    if v1 == v3:
        raise DegenerateRatioError("v1 == v3 makes the threshold undefined")
    return (v1 - v2) / (v1 - v3)


def _build_exclusion(theta: int, S: float, head_shape: Sequence[float], A: float, D: float) -> ExclusionY:
    """Assemble an exclusion vector with head mass S (shaped), tail (A, D)."""
    shape = np.asarray(head_shape, dtype=float)
    head = S * shape / shape.sum()
    tail_hi = (A + D) / 2
    tail_lo = (A - D) / 2
    return ExclusionY(tuple(head) + (tail_hi, tail_lo))


def n11_construct_better_Y(
    Y: ExclusionY, v1: float, v2: float, v3: float
) -> ExclusionY:
    """From a truthful-supporting Y, build a risky-supporting Y' earning more.

    Two routes: (i) keep the head mass S and tail mass A, widen the tail gap
    past r*S so the risky order becomes an equilibrium (revenue then rises
    from S*v2 to S*v1 automatically); (ii) when the tail gap cannot reach
    r*S, shift mass into the head: revenue approaches v2 (from below) as the
    head mass approaches 1/(1+r) while the truthful revenue is strictly below
    v2, so a feasible S' exists whenever r < 1/(theta-2).  Raises
    :class:`ConstructionFailure` with a certificate when no admissible Y'
    exists or the search budget is exhausted.
    """
    if not v1 >= v2 >= v3 > 0:
        raise ValueError(f"need v1 >= v2 >= v3 > 0, got {(v1, v2, v3)}")
    if v2 == v3:
        raise DegenerateRatioError("v2 == v3 makes the gap ratio undefined")
    _require_admissible(Y)
    theta = Y.theta
    S, A, D = _n11_terms(Y)
    r = (v1 - v2) / (v2 - v3)
    if not r > D / S:
        raise ValueError("Y does not support the truthful ordering")
    if r >= 1 / (theta - 2):
        raise ConstructionFailure(
            f"gap ratio r={r:.6g} >= 1/(theta-2)={1/(theta-2):.6g}: every ordered "
            "exclusion vector has tail-gap ratio below 1/(theta-2), so no "
            "risky-supporting Y' exists for these valuations"
        )
    rev_truth = n11_revenue("truthful", v1, v2, v3, Y)
    uniform_head = [1.0] * (theta - 2)

    def admissible_and_better(cand: ExclusionY) -> bool:
        if not cand.ordered:
            return False
        try:
            _require_admissible(cand)
        except ValueError:
            return False
        Sc, Ac, Dc = _n11_terms(cand)
        # Demand a decisive margin over r so the result classifies as a risky
        # equilibrium rather than landing in the indeterminate boundary band.
        if not Dc / Sc > r * (1 + 1e-6) + 1e-12:
            return False
        return n11_revenue("risky", v1, v2, v3, cand) > rev_truth + EQ_ATOL

    # Route (i): keep (S, A), widen the tail gap into (r*S, A).
    if r * S < A and v1 > v2:
        for frac in (0.5, 0.25, 0.75, 0.1, 0.9, 0.05, 0.99):
            Dp = r * S + frac * (A - r * S)
            cand = _build_exclusion(theta, S, uniform_head, A, Dp)
            if admissible_and_better(cand):
                return cand

    # Route (ii): move head mass toward the 1/(1+r) edge.
    S_edge = 1 / (1 + r)
    S_min = S * (v2 - v3) / (v1 - v3)
    if S_min < S_edge:
        for frac in (0.999, 0.99, 0.95, 0.9, 0.75, 0.5):
            Sp = S_min + frac * (S_edge - S_min)
            Ap = 1 - Sp
            if Ap <= r * Sp:
                continue
            for gfrac in (0.5, 0.25, 0.75, 0.9, 0.99):
                Dp = r * Sp + gfrac * (Ap - r * Sp)
                cand = _build_exclusion(theta, Sp, uniform_head, Ap, Dp)
                if admissible_and_better(cand):
                    return cand

    # Randomized fallback before giving up.
    rng = np.random.default_rng(20240817)
    for _ in range(2000):
        draw = np.sort(rng.uniform(size=theta))[::-1]
        draw = draw / draw.sum()
        cand = ExclusionY(tuple(draw))
        try:
            if admissible_and_better(cand):
                return cand
        except ValueError:
            continue
    raise ConstructionFailure(
        f"search budget exhausted for v={(v1, v2, v3)}, Y={Y.y_vec}: no candidate "
        f"satisfied tail-gap ratio > {r:.6g} with revenue > {rev_truth:.6g}"
    )


def n11_mechanism(Y: ExclusionY) -> Mechanism:
    """The one-winner mechanism realizing an exclusion vector."""
    dist = from_exclusion_Y(Y)
    x = AllocationRule((1.0,) + (0.0,) * (dist.alpha - 1))
    return Mechanism(dist.theta, dist.alpha, dist, x)


# ---------------------------------------------------------------------------
# Two-winner example: theta=4, alpha=3, beta=2
# ---------------------------------------------------------------------------

N12_ORDERINGS: tuple[tuple[int, int, int], ...] = (
    (1, 2, 3),
    (1, 3, 2),
    (2, 1, 3),
    (3, 1, 2),
    (2, 3, 1),
    (3, 2, 1),
)


@dataclass(frozen=True)
class N12Params:
    """Inputs for the theta=4, alpha=3, beta=2 equilibrium conditions.

    ``v`` holds five descending valuations (only the top four enter the
    conditions); ``Y`` is the exclusion vector over the four advancing
    subsets; ``x2`` is the runner-up allocation in (0, 0.5); ``b_overrides``
    optionally pins the overbids of bidders 2 and 3 in risky orderings
    (keys "b2", "b3").
    """

    v: tuple[float, float, float, float, float]
    Y: tuple[float, float, float, float]
    x2: float
    b_overrides: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        v = tuple(float(x) for x in self.v)
        Y = tuple(float(x) for x in self.Y)
        x2 = float(self.x2)
        for name, values in (("v", v), ("Y", Y), ("x2", (x2,))):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if len(v) != 5 or any(b >= a for a, b in zip(v, v[1:])):
            raise ValueError(f"need five strictly descending valuations, got {v}")
        if v[-1] < 0:
            raise ValueError("valuations must be nonnegative")
        if len(Y) != 4 or abs(sum(Y) - 1) > 1e-9:
            raise ValueError(f"Y must be four probabilities summing to 1, got {Y}")
        if any(b >= a for a, b in zip(Y, Y[1:])) or Y[-1] <= 0:
            raise ValueError(f"Y must be strictly decreasing and positive, got {Y}")
        if not 0 < x2 < 0.5:
            raise ValueError(f"x2 must lie in (0, 0.5), got {x2}")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "b_overrides", dict(self.b_overrides))

    @property
    def x1(self) -> float:
        return 1.0 - self.x2

    def exclusion(self) -> ExclusionY:
        return ExclusionY(self.Y)

    def mechanism(self) -> Mechanism:
        dist = from_exclusion_Y(self.exclusion())
        return Mechanism(4, 3, dist, AllocationRule((self.x1, self.x2, 0.0)))


class FormulaDomainError(ValueError):
    """A condition-function denominator vanished; names the formula."""


@dataclass(frozen=True)
class N12ConditionFunctions:
    """The scalar condition functions of the two-winner example.

    ``V23``/``V12`` are the valuation-side functions; ``ycoef23``/``ycoef12``
    the distribution-side coefficients they are compared against.

    Note: ``ycoef12`` is exposed in its (Y3-Y4)/(Y1-Y2) form.  The direct
    utility-difference linearization of the first/second position comparison
    carries a (Y1+Y2) denominator instead; :func:`n12_check_rank` therefore
    judges equilibria from the utility differences themselves, and this
    coefficient is provided for reporting only.
    """

    x2: float
    Y: tuple[float, float, float, float]

    def V23(self, d1: float, d3: float, d4: float) -> float:
        if d1 <= d4:
            raise FormulaDomainError(f"V23 needs d1 > d4, got d1={d1}, d4={d4}")
        return (d3 - d1) / (d1 - d4)

    def V12_denominator(self, d1: float, d3: float, d4: float) -> float:
        """(d3-d4)x2 - (d3-d1)x1; its sign decides whether the V12-form
        inequality reads in the same direction as the utility comparison."""
        x1 = 1.0 - self.x2
        return (d3 - d4) * self.x2 - (d3 - d1) * x1

    def V12(self, d1: float, d2: float, d3: float, d4: float) -> float:
        denom = self.V12_denominator(d1, d3, d4)
        if denom == 0:
            raise FormulaDomainError("V12 denominator (d3-d4)x2 - (d3-d1)x1 vanished")
        x1 = 1.0 - self.x2
        return (d2 - d1) * (x1 - self.x2) / denom

    @property
    def ycoef23(self) -> float:
        Y1, Y2, Y3, Y4 = self.Y
        x1 = 1.0 - self.x2
        denom = Y1 * self.x2 + Y4 * (x1 - self.x2)
        if denom == 0:
            raise FormulaDomainError("ycoef23 denominator Y1*x2 + Y4*(x1-x2) vanished")
        return (Y2 - Y3) * self.x2 / denom

    @property
    def ycoef12(self) -> float:
        Y1, Y2, Y3, Y4 = self.Y
        if Y1 == Y2:
            raise FormulaDomainError("ycoef12 denominator Y1 - Y2 vanished")
        return (Y3 - Y4) / (Y1 - Y2)


def n12_condition_functions(params: N12Params) -> N12ConditionFunctions:
    return N12ConditionFunctions(x2=params.x2, Y=params.Y)


def n12_position_bids(params: N12Params, ordering: tuple[int, int, int]) -> tuple[float, float, float]:
    """Strictly decreasing bids realizing an ordering of the top three bidders.

    ``ordering[j]`` is the bidder (1..3, by valuation) at position j+1.
    Bidders placed above a higher-valued bidder need an overbid; defaults
    place overbids at even spacings above the values they must pass, and
    ``params.b_overrides`` ("b2"/"b3") pins them explicitly.
    """
    v1, v2, v3, v4, _ = params.v
    over = dict(params.b_overrides)
    gap = max(v1 - v4, 1.0)
    if ordering == (1, 2, 3):
        bids = (v1, v2, v3)
    elif ordering == (1, 3, 2):
        b3 = over.get("b3", (v1 + v2) / 2)
        bids = (v1, b3, v2)
    elif ordering == (2, 1, 3):
        b2 = over.get("b2", v1 + gap)
        bids = (b2, v1, v3)
    elif ordering == (3, 1, 2):
        b3 = over.get("b3", v1 + gap)
        bids = (b3, v1, v2)
    elif ordering == (2, 3, 1):
        b3 = over.get("b3", v1 + gap)
        b2 = over.get("b2", v1 + 2 * gap)
        bids = (b2, b3, v1)
    elif ordering == (3, 2, 1):
        b2 = over.get("b2", v1 + gap)
        b3 = over.get("b3", v1 + 2 * gap)
        bids = (b3, b2, v1)
    else:
        raise ValueError(f"unknown ordering {ordering}")
    if not bids[0] > bids[1] > bids[2] > v4:
        raise ValueError(
            f"bids {bids} do not realize ordering {ordering} above v4={v4}"
        )
    return bids


# Hand-expanded instead of engine.settle: a third of its cost on these tiny
# mechanisms, and criterion 10 relies on it being derived apart from the engine.
def _n12_position_utility(
    params: N12Params, w: float, my_pos: int, others_desc: Sequence[float]
) -> float:
    """Exact expected utility of a value-w bidder occupying ``my_pos``.

    ``others_desc`` are the other three first-round bids in descending order;
    they fill the remaining positions.  The probability that position j's
    bidder is the one left out is Y_{5-j}.  A bidder's own bid never enters
    its own payment, so only the realized position matters.
    """
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


@dataclass(frozen=True)
class N12Condition:
    bidder: int  # 1..3, by valuation
    position: int  # current first-round position
    comparison: str  # "1<->2" or "2<->3"
    margin: float  # utility(preferred side per the profile) - utility(other)
    holds: bool
    indeterminate: bool
    v_value: float | None  # valuation-side condition function, as reported
    ycoef: float | None
    direction: str  # "<" or ">": required relation of v_value vs ycoef
    auto_satisfied: bool  # negative v_value with a "<" requirement


@dataclass(frozen=True)
class N12RankReport:
    ordering: tuple[int, int, int]
    bids: tuple[float, float, float]
    is_ne: bool
    indeterminate: bool
    conditions: tuple[N12Condition, ...]

    def to_json_dict(self) -> dict:
        return {
            "ordering": list(self.ordering),
            "bids": list(self.bids),
            "is_ne": self.is_ne,
            "indeterminate": self.indeterminate,
            "conditions": [
                {
                    "bidder": c.bidder,
                    "position": c.position,
                    "comparison": c.comparison,
                    "margin": c.margin,
                    "holds": c.holds,
                    "indeterminate": c.indeterminate,
                    "v_value": c.v_value,
                    "ycoef": c.ycoef,
                    "direction": c.direction,
                    "auto_satisfied": c.auto_satisfied,
                }
                for c in self.conditions
            ],
        }


def n12_check_rank(
    params: N12Params,
    ordering: tuple[int, int, int],
    tol: float = EQ_ATOL,
) -> N12RankReport:
    """Evaluate the six adjacent-position inequalities for one ordering.

    For each of the three competitive bidders the profile requires
    u(1) > u(2) > u(3) read at its own position: the position-1 bidder must
    prefer 1 over 2 and 2 over 3, the position-2 bidder must prefer 2 over
    both neighbours, the position-3 bidder must prefer 3.  Utilities are exact
    expectations over the four advancing subsets; margins within ``tol`` are
    reported indeterminate rather than coerced.
    """
    if tuple(ordering) not in N12_ORDERINGS:
        raise ValueError(f"ordering must be one of {N12_ORDERINGS}, got {ordering}")
    ordering = tuple(ordering)
    bids = n12_position_bids(params, ordering)
    v = params.v
    fns = n12_condition_functions(params)
    B = {1: bids[0], 2: bids[1], 3: bids[2]}

    conditions: list[N12Condition] = []
    for pos in (1, 2, 3):
        bidder = ordering[pos - 1]
        w = v[bidder - 1]
        others = sorted((B[q] for q in (1, 2, 3) if q != pos), reverse=True) + [v[3]]
        u = {t: _n12_position_utility(params, w, t, others) for t in (1, 2, 3)}

        # 1st <-> 2nd comparison: position-1 bidders must prefer 1.
        m12 = u[1] - u[2]
        want_upper = pos == 1
        margin12 = m12 if want_upper else -m12
        d2 = B[2] if pos == 1 else B[1]
        d3 = B[3] if pos <= 2 else B[2]
        try:
            v12 = fns.V12(w, d2, d3, v[3])
        except FormulaDomainError:
            v12 = None
        try:
            y12 = fns.ycoef12
        except FormulaDomainError:
            y12 = None
        dir12 = "<" if want_upper else ">"
        # A negative V12 only makes the "<" requirement redundant when the
        # denominator is positive (otherwise the division flipped the sign).
        auto12 = (
            v12 is not None
            and v12 < 0
            and dir12 == "<"
            and fns.V12_denominator(w, d3, v[3]) > 0
        )
        conditions.append(
            N12Condition(
                bidder=bidder,
                position=pos,
                comparison="1<->2",
                margin=margin12,
                holds=margin12 > tol,
                indeterminate=abs(margin12) <= tol,
                v_value=v12,
                ycoef=y12,
                direction=dir12,
                auto_satisfied=auto12,
            )
        )

        # 2nd <-> 3rd comparison: only the position-3 bidder prefers 3.
        m23 = u[2] - u[3]
        want_upper = pos <= 2
        margin23 = m23 if want_upper else -m23
        d3_arg = B[3] if pos <= 2 else B[2]
        v23 = fns.V23(w, d3_arg, v[3])
        dir23 = "<" if want_upper else ">"
        conditions.append(
            N12Condition(
                bidder=bidder,
                position=pos,
                comparison="2<->3",
                margin=margin23,
                holds=margin23 > tol,
                indeterminate=abs(margin23) <= tol,
                v_value=v23,
                ycoef=fns.ycoef23,
                direction=dir23,
                auto_satisfied=(v23 < 0 and dir23 == "<"),
            )
        )

    indeterminate = any(c.indeterminate for c in conditions)
    is_ne = all(c.holds for c in conditions)
    return N12RankReport(
        ordering=ordering,
        bids=bids,
        is_ne=is_ne,
        indeterminate=indeterminate,
        conditions=tuple(conditions),
    )


def n12_rank_profile(params: N12Params, ordering: tuple[int, int, int]) -> RankProfile:
    """Engine-facing rank profile (bidders 0..3, bidder 4 = lowest value)."""
    bids = n12_position_bids(params, ordering)
    bidder_ids = tuple(b - 1 for b in ordering) + (3,)
    return RankProfile(bidder_ids, bids + (params.v[3],))
