"""Nash-equilibrium analysis for non-DSIC two-round auctions.

Once the selection marginals are strictly decreasing in first-round rank, the
auction is no longer DSIC and bidders may profitably overbid ("risky"
bidding).  This module classifies the resulting pure-strategy equilibria:

* a general position-deviation check, each move priced as a rank slot of the
  engine's plan (position t under the t - 1 others above it),
* closed forms for the one-winner mode (alpha = theta - 1, beta = 1,
  second-price second round): classification, revenue, a supremum bound on
  the risky-order revenue, and a constructive "improve the distribution"
  procedure,
* the two-winner example (theta=4, alpha=3, beta=2): the six adjacent-position
  inequalities for each of the 6 orderings of the top three bidders.

The per-call records (DeviationRecord, N12Condition, N12RankReport) are named
tuples, which cost a quarter of a frozen dataclass to build; the ``analyze-ne``
JSON is unchanged.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

from .engine import Mechanism, _check_values, _payments, _rank_slot_plan
from .secondround import AllocationRule
from .selection import ExclusionY, _as_floats, _as_ints, from_exclusion_Y

EQ_ATOL = 1e-9
_WITNESS_STEP = 0.01  # grid of the reported risky overbid


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
        ordering = _as_ints(self.ordering, ValueError)
        bids = tuple(self.bids)
        if sorted(ordering) != list(range(len(ordering))):
            raise ValueError(f"ordering must be a permutation of bidder ids: {ordering}")
        if len(bids) != len(ordering):
            raise ValueError("bids and ordering differ in length")
        bids = _as_floats(bids, ValueError, "bids must be finite and nonnegative")
        if any(b < 0 for b in bids):
            raise ValueError(f"bids must be finite and nonnegative, got {bids}")
        if any(bids[i] <= bids[i + 1] for i in range(len(bids) - 1)):
            raise ValueError(f"bids must be strictly decreasing: {bids}")
        object.__setattr__(self, "ordering", ordering)
        object.__setattr__(self, "bids", bids)


class DeviationRecord(NamedTuple):
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
) -> tuple[bool, list[DeviationRecord]]:
    """Check a rank profile against all single-bidder position deviations.

    Bidders occupying competitive positions (<= theta - alpha + beta) may move to any other
    competitive position, or retreat just below the competition line.  Moving to position t, like
    staying there, is rank slot (t, t - 1) of the engine's plan, outranked in round two by the
    t - 1 others above it, and the engine's walk prices every slot on float lists, one column
    per competitive bidder.  Returns (no bidder strictly gains, per-deviation utility table).
    """
    bids, n = rank.bids, len(rank.bids)
    values = _check_values(mech, values, n)
    # Targets: the competitive positions 1..top plus one slot below the line, which
    # realizes "stop competing" (its allocation probability is always zero).
    top = min(mech.competition_rank, n)
    targets = range(1, min(top + 1, n) + 1)
    # One _payments call prices every move: column j holds the others of the bidder at position
    # j + 1, descending, then 0.0; U[t - 1][j] is its utility at slot (t, t - 1).
    others = [bids[:j] + bids[j + 1 :] + (0.0,) for j in range(top)]
    plan = _rank_slot_plan(mech, n, [(t, t - 1) for t in targets])
    X, P = plan[0][:: n + 1], _payments(plan, others)[:: n + 1]  # slots (t, t - 1)
    v = [values[i] for i in rank.ordering[:top]]
    U = [[x * w - p[j] for j, w in enumerate(v)] for x, p, _ in zip(X, P, targets)]
    records = [
        DeviationRecord(rank.ordering[p - 1], p, t, U[p - 1][p - 1], U[t - 1][p - 1])
        for p in range(1, top + 1)
        for t in targets
        if t != p
    ]
    return not any(r.utility_deviation > r.utility_current + EQ_ATOL for r in records), records


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
        return asdict(self)


def _n11_terms(Y: ExclusionY) -> tuple[float, float, float]:
    """(S, A, D) = (sum of top theta-2 entries, tail mass, tail gap)."""
    t = Y.theta
    if t < 3:
        raise ValueError("one-winner closed forms need theta >= 3")
    S = sum(Y.y_vec[: t - 2])
    A = Y.y_vec[t - 2] + Y.y_vec[t - 1]
    D = Y.y_vec[t - 2] - Y.y_vec[t - 1]
    return S, A, D


_VALUATIONS = "valuations must be finite numbers"


def _n11_inputs(v1: float, v2: float, v3: float, Y: ExclusionY) -> tuple:
    """((v1, v2, v3), r, S, D) of a one-winner input, r = (v1-v2)/(v2-v3), once it is checked."""
    v1, v2, v3 = _as_floats((v1, v2, v3), ValueError, _VALUATIONS)
    if not v1 >= v2 >= v3 > 0:
        raise ValueError(f"need v1 >= v2 >= v3 > 0, got {(v1, v2, v3)}")
    if v2 == v3:
        raise DegenerateRatioError("v2 == v3 makes the gap ratio undefined")
    if not Y.ordered:
        raise ValueError(f"exclusion vector must be strictly ordered: {Y.y_vec}")
    S, _, D = _n11_terms(Y)
    return (v1, v2, v3), (v1 - v2) / (v2 - v3), S, D


def n11_classify(
    v1: float,
    v2: float,
    v3: float,
    Y: ExclusionY,
) -> NEClassification:
    """Classify the truthful and risky orderings in the one-winner mode.

    With r = (v1-v2)/(v2-v3) and R = (Y_{t-1}-Y_t)/sum_{i<=t-2} Y_i:
    the truthful order is an equilibrium iff r > R, and the order with the
    second bidder overbidding to the top slot is an equilibrium iff r < R
    (some sufficiently large overbid b2' then always validates it; the
    smallest grid multiple is reported as witness, or None when no double is
    that large).  A valuation that is not a finite number raises ``ValueError``,
    a gap ratio too large for a double :class:`DegenerateRatioError`.
    """
    (v1, v2, v3), r, S, D = _n11_inputs(v1, v2, v3, Y)
    if r == math.inf:
        raise DegenerateRatioError(f"the gap ratio (v1-v2)/(v2-v3) overflows at {(v1, v2, v3)}")
    ratio = D / S
    scale = max(abs(r), abs(ratio), 1.0)
    if abs(r - ratio) <= EQ_ATOL * scale:
        return NEClassification("n11", False, False, True, None, r, ratio)
    if r > ratio:
        return NEClassification("n11", True, False, False, None, r, ratio)
    # Risky order: b2' must satisfy (b2' - v1)/(v1 - v3) > ratio.
    min_over = v1 + ratio * (v1 - v3)
    steps = min_over / _WITNESS_STEP
    b2 = (math.floor(steps) + 1) * _WITNESS_STEP if steps < math.inf else min_over
    while (b2 - v1) / (v1 - v3) <= ratio:
        # From 2**47 (about 1.4e14) up, b2 + 0.01 rounds back to b2; step one ulp there.
        b2 = max(b2 + _WITNESS_STEP, math.nextafter(b2, math.inf))
    witness = b2 if b2 < math.inf else None  # no double is a large enough overbid
    return NEClassification("n11", False, True, False, witness, r, ratio)


def n11_revenue(kind: str, v1: float, v2: float, v3: float, Y: ExclusionY) -> float:
    """Expected revenue of the truthful or risky ordering, in closed form.

    Truthful: the top-value bidder wins whenever surviving, paying v2 against
    the runner-up, v3 when the runner-up was excluded; the runner-up pays v3
    when the top bidder was excluded.  Risky swaps v1 for v2 in the winning
    term.
    """
    v1, v2, v3 = _as_floats((v1, v2, v3), ValueError, _VALUATIONS)
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
    v1, v2 = _as_floats((v1, v2), ValueError, _VALUATIONS)
    S, A, D = _n11_terms(Yp)
    t = Yp.theta
    if D <= 0:
        raise ZeroDivisionError("bound undefined when the tail entries are equal")
    y_t = Yp.y_vec[t - 1]
    return (A * (1 - 2 * y_t) * v2 - 2 * y_t * S * v1) / D


def _build_exclusion(theta: int, S: float, A: float, D: float) -> ExclusionY:
    """An exclusion vector with a uniform head of mass S and tail mass A, gap D."""
    return ExclusionY((S / (theta - 2),) * (theta - 2) + ((A + D) / 2, (A - D) / 2))


def n11_construct_better_Y(
    Y: ExclusionY, v1: float, v2: float, v3: float
) -> ExclusionY:
    """From a truthful-supporting Y, build a risky-supporting Y' earning more.

    Y' is a uniform head of mass S' plus a tail of mass A' = 1 - S' and gap
    D'; a uniform head maximises the smallest head entry, so it loses
    nothing.  With r = (v1-v2)/(v2-v3) and the margin rm = r(1+1e-6)+1e-12,
    which keeps Y' clear of the indeterminate band, every requirement is
    linear in (S', D'):

    * risky order an equilibrium: D' > rm S';
    * risky revenue above truthful: S' > S (v2-v3)/(v1-v3);
    * Y'_theta >= 0: D' <= A';
    * head above Y'_{theta-1}: A' + D' < 2 S'/(theta-2).

    Eliminating D' leaves one interval for S', below 1/(1+rm) and above
    S (v2-v3)/(v1-v3) and (theta-2)/(2+(theta-2)(1-rm)).  The second lies
    below 1/(1+rm) exactly when rm < 1/(theta-2), so a better Y' exists iff
    rm < 1/(theta-2), unless the tail mass of Y is so small (about 1e-6) that
    the revenue bound closes the interval.  Y' takes the midpoint of the S'
    interval, then the midpoint of the D' interval.
    Raises :class:`ConstructionFailure` with a certificate otherwise, and
    ``ValueError`` first for a valuation that is not a finite number.
    """
    (v1, v2, v3), r, S, D = _n11_inputs(v1, v2, v3, Y)
    theta = Y.theta
    if not r > D / S:
        raise ValueError("Y does not support the truthful ordering")
    rm = r * (1 + 1e-6) + 1e-12
    if rm >= 1 / (theta - 2):
        raise ConstructionFailure(
            f"gap ratio r={r:.6g} (with margin {rm:.6g}) >= 1/(theta-2)={1/(theta-2):.6g}: "
            "every ordered exclusion vector has tail-gap ratio below 1/(theta-2), so "
            "no risky-supporting Y' exists for these valuations"
        )
    S_lo = max(S * (v2 - v3) / (v1 - v3), (theta - 2) / (2 + (theta - 2) * (1 - rm)))
    S_hi = 1 / (1 + rm)
    Sp = (S_lo + S_hi) / 2
    Ap = 1 - Sp
    D_lo = rm * Sp
    D_hi = min(Ap, 2 * Sp / (theta - 2) - Ap)
    if not (S_lo < S_hi and D_lo < D_hi):
        raise ConstructionFailure(
            f"no admissible Y' earning more for v={(v1, v2, v3)}, Y={Y.y_vec}: head mass "
            f"interval ({S_lo:.6g}, {S_hi:.6g}), tail-gap interval [{D_lo:.6g}, {D_hi:.6g}]"
        )
    return _build_exclusion(theta, Sp, Ap, (D_lo + D_hi) / 2)


def n11_mechanism(Y: ExclusionY) -> Mechanism:
    """The one-winner mechanism realizing an exclusion vector."""
    dist = from_exclusion_Y(Y)
    x = AllocationRule((1.0,) + (0.0,) * (dist.alpha - 1))
    return Mechanism(dist, x)


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
_ORDERINGS = f"ordering must be one of {N12_ORDERINGS}"


@dataclass(frozen=True)
class N12Params:
    """Inputs for the theta=4, alpha=3, beta=2 equilibrium conditions.

    ``v`` holds five descending valuations (only the top four enter the
    conditions); ``Y`` is the exclusion vector over the four advancing
    subsets; ``x2`` is the runner-up allocation in (0, 0.5); ``b2`` and
    ``b3``, when not None, pin the overbids of bidders 2 and 3 in the
    orderings whose bids they realize (see :func:`n12_position_bids`).
    """

    v: tuple[float, float, float, float, float]
    Y: tuple[float, float, float, float]
    x2: float
    b2: float | None = None
    b3: float | None = None

    def __post_init__(self) -> None:
        v = _as_floats(self.v, ValueError, "v must be finite")
        Y = _as_floats(self.Y, ValueError, "Y must be finite")
        (x2,) = _as_floats((self.x2,), ValueError, "x2 must be finite")
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
        object.__setattr__(self, "x2", x2)
        for name in ("b2", "b3"):
            b = getattr(self, name)
            if b is not None:
                (b,) = _as_floats((b,), ValueError, f"{name} must be a finite number or None")
            object.__setattr__(self, name, b)

    @property
    def x1(self) -> float:
        return 1.0 - self.x2

    def exclusion(self) -> ExclusionY:
        return ExclusionY(self.Y)

    def mechanism(self) -> Mechanism:
        dist = from_exclusion_Y(self.exclusion())
        return Mechanism(dist, AllocationRule((self.x1, self.x2, 0.0)))


# The condition functions: V23 and V12 = (d2-d1)(x1-x2)/den on the valuation side,
# ycoef23 and ycoef12 on the distribution side.  u(1) - u(2) = (Y1+Y2) * den *
# (ycoef12 - V12), and u(2) - u(3) is a positive multiple of ycoef23 - V23.  The
# other denominators are positive: d1 in {v1, v2, v3} lies above d4 = v4, and
# Y4 > 0 with 0 < x2 < 0.5 keeps Y1*x2 + Y4*(x1-x2) above zero.

def _V23(d1: float, d3: float, d4: float) -> float:
    return (d3 - d1) / (d1 - d4)


def _V12_denominator(x1: float, x2: float, d1: float, d3: float, d4: float) -> float:
    """(d3-d4)x2 - (d3-d1)x1; its sign decides whether the V12-form
    inequality reads in the same direction as the utility comparison."""
    return (d3 - d4) * x2 - (d3 - d1) * x1


def _ycoef23(Y: Sequence[float], x1: float, x2: float) -> float:
    Y1, Y2, Y3, Y4 = Y
    return (Y2 - Y3) * x2 / (Y1 * x2 + Y4 * (x1 - x2))


def _ycoef12(Y: Sequence[float]) -> float:
    Y1, Y2, Y3, Y4 = Y
    return (Y3 - Y4) / (Y1 + Y2)


def n12_position_bids(params: N12Params, ordering: tuple[int, int, int]) -> tuple[float, float, float]:
    """Strictly decreasing bids realizing an ordering of the top three bidders.

    ``ordering[j]`` is the bidder (1..3, by valuation) at position j+1.
    Bidders placed above a higher-valued bidder need an overbid; defaults
    place overbids at even spacings above the values they must pass, or,
    where such a spacing overflows or leaves no room above the lower
    overbid, at finite bids in the same order.
    ``params.b2`` and ``params.b3`` pin the overbids of bidders 2 and 3 in
    every ordering whose bids they realize; any other ordering keeps its
    default bids.
    """
    if ordering not in N12_ORDERINGS:
        raise ValueError(f"{_ORDERINGS}, got {ordering}")
    v1, v2, v3, v4, _ = params.v
    if ordering == (1, 2, 3):
        return v1, v2, v3  # N12Params keeps v strictly descending
    gap = max(v1 - v4, 1.0)
    mid, lo, hi = (v1 + v2) / 2, v1 + gap, v1 + 2 * gap
    if mid == math.inf:
        mid = v1 / 2 + v2 / 2
    if hi == math.inf:
        hi = lo / 2 + sys.float_info.max / 2
        if not lo < hi:  # no room above the lower overbid, or it overflowed too
            lo = v1 + (sys.float_info.max - v1) / 3
            hi = lo / 2 + sys.float_info.max / 2
    for b2, b3 in ((params.b2, params.b3), (None, None)):
        if ordering == (1, 3, 2):
            bids = (v1, mid if b3 is None else b3, v2)
        elif ordering == (2, 1, 3):
            bids = (lo if b2 is None else b2, v1, v3)
        elif ordering == (3, 1, 2):
            bids = (lo if b3 is None else b3, v1, v2)
        elif ordering == (2, 3, 1):
            bids = (hi if b2 is None else b2, lo if b3 is None else b3, v1)
        else:
            bids = (hi if b3 is None else b3, lo if b2 is None else b2, v1)
        if bids[0] > bids[1] > bids[2] > v4:
            return bids
    raise ValueError(f"bids {bids} do not realize ordering {ordering} above v4={v4}")


# The paying terms of a bidder at its own position t = 1, 2, 3, in exclusion
# order 1 -> 4: (Y index, second-round rank, index of s2, index of s3), indices
# into the other three bids, descending.  Excluding position j has probability
# Y_{5-j}; the rank-3 winner (x3 = 0) pays nothing, so t = 3 has two terms.
_N12_TERMS = (
    ((2, 1, 1, 2), (1, 1, 0, 2), (0, 1, 0, 1)),
    ((3, 1, 1, 2), (1, 2, None, 2), (0, 2, None, 1)),
    ((3, 2, None, 2), (2, 2, None, 2)),
)


# Hand-expanded instead of engine.settle, which costs far more on these tiny
# mechanisms, and criterion 10 relies on it being derived apart from the engine.
def _n12_position_utilities(
    Y: Sequence[float], x1: float, x2: float, w: float, others: Sequence[float]
) -> list[float]:
    """Exact expected utilities [u(1), u(2), u(3)] of a value-w bidder.

    ``others`` are the other three first-round bids in descending order; they
    fill the remaining positions.  A bidder's own bid never enters its own
    payment, so only the realized position matters.
    """
    utilities = []
    for terms in _N12_TERMS:
        total = 0.0
        for y, rank, i2, i3 in terms:
            if rank == 1:
                total += Y[y] * (w * x1 - (others[i2] * (x1 - x2) + others[i3] * x2))
            else:
                total += Y[y] * (w * x2 - others[i3] * x2)
        utilities.append(total)
    return utilities


class N12Condition(NamedTuple):
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


class N12RankReport(NamedTuple):
    ordering: tuple[int, int, int]
    bids: tuple[float, float, float]
    is_ne: bool
    indeterminate: bool
    conditions: tuple[N12Condition, ...]

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "conditions": [c._asdict() for c in self.conditions]}


def n12_check_rank(params: N12Params, ordering: tuple[int, int, int]) -> N12RankReport:
    """Evaluate the six adjacent-position inequalities for one ordering.

    For each of the three competitive bidders the profile requires
    u(1) > u(2) > u(3) read at its own position: the position-1 bidder must
    prefer 1 over 2 and 2 over 3, the position-2 bidder must prefer 2 over
    both neighbours, the position-3 bidder must prefer 3.  Utilities are exact
    expectations over the four advancing subsets; margins within ``EQ_ATOL``
    are reported indeterminate rather than coerced.  Each condition's
    ``v_value <direction> ycoef`` holds iff its margin is positive.
    """
    ordering = _as_ints(ordering, ValueError, _ORDERINGS)
    bids = b1, b2, b3 = n12_position_bids(params, ordering)
    v, Y, x2 = params.v, params.Y, params.x2
    x1 = 1.0 - x2
    v4 = v[3]
    ycoef12, ycoef23 = _ycoef12(Y), _ycoef23(Y, x1, x2)

    conditions: list[N12Condition] = []
    is_ne, indeterminate = True, False
    # Each position's bidder and the other bids, descending, as seen from the top position.
    for pos, bidder, others in zip((1, 2, 3), ordering, ((b2, b3, v4), (b1, b3, v4), (b1, b2, v4))):
        w = v[bidder - 1]
        u = _n12_position_utilities(Y, x1, x2, w, others)
        d2, d3, d4 = others
        for upper, comparison in ((1, "1<->2"), (2, "2<->3")):
            # The bidder must prefer the upper position iff it holds it or one above.
            want_upper = pos <= upper
            margin = u[upper - 1] - u[upper]
            if not want_upper:
                margin = -margin
            if not math.isfinite(margin):
                raise ValueError(f"bidder {bidder}'s {comparison} utility margin overflows at bids {bids}")
            # u(upper) - u(upper + 1) has the sign of den * (ycoef - v_value).
            if upper == 1:
                den = _V12_denominator(x1, x2, w, d3, d4)
                v_value = (d2 - w) * (x1 - x2) / den if den else math.nan  # V12, from this den
                ycoef = ycoef12
            else:
                den = 1.0
                v_value = _V23(w, d3, d4)
                ycoef = ycoef23
            direction = "<" if want_upper == (den >= 0) else ">"
            holds, near = margin > EQ_ATOL, abs(margin) <= EQ_ATOL
            is_ne, indeterminate = is_ne and holds, indeterminate or near
            # Positional, in field order: keywords would double the cost of each
            # condition.  An undefined (den = 0) or overflowing v_value is reported as None.
            conditions.append(N12Condition(
                bidder, pos, comparison, margin, holds, near,
                v_value if math.isfinite(v_value) else None, ycoef, direction,
                v_value < 0 and direction == "<",
            ))
    return N12RankReport(ordering, bids, is_ne, indeterminate, tuple(conditions))


def n12_rank_profile(params: N12Params, ordering: tuple[int, int, int]) -> RankProfile:
    """Engine-facing rank profile (bidders 0..3, bidder 4 = lowest value)."""
    bids = n12_position_bids(params, ordering)
    bidder_ids = tuple(b - 1 for b in ordering) + (3,)
    return RankProfile(bidder_ids, bids + (params.v[3],))
