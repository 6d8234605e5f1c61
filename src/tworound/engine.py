"""Exact evaluation of the composed two-round auction.

Expected utilities and revenue are computed by enumerating every possible
advancing subset (there are only C(theta, alpha) of them at the scales we
care about), which keeps equilibrium classification free of Monte Carlo
noise.  Single sampled runs are available for simulation-style checks; each
draws its subset and winner from cached CDFs in O(log C), with the same draws
as ``Generator.choice``.

A run reads two more invariants instead of recomputing them: the first-round
ranking, which a :class:`BidProfile` sorts on first use and keeps, and
``AllocationRule.beta``, set when the rule is built.  Both are the values the
per-run sort and scan returned, and neither reads the generator, so a run on a
reused profile draws the same subset and winner from the same stream position.

:func:`settle` picks its method by size.  A mechanism with at least
``_NUMPY_MIN_SUBSETS`` subsets is priced in one numpy pass over the
distribution's cached table of live (nonzero-probability) subsets: one stable
ranking of the theta bids orders every subset, the Myerson sums run bottom-up
over ranks for all subsets at once, and ``bincount`` adds the terms in the
loop's (subset, rank) order, so X and P keep every bit.  Smaller mechanisms
keep the per-subset loop, which is faster there (see the constant).
:func:`evaluate` keeps its loop for now: it builds one outcome per subset, and
a faster ``evaluate`` fits more ops into the benchmark's timed window, whose
per-op records would raise the measured peak memory past its bound.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .secondround import AllocationRule, settle_round
from .selection import SelectionDistribution, is_finite_number, sample_subset

UTILITY_ATOL = 1e-9
# settle prices a mechanism with at least this many subsets in one numpy pass.  One settle
# call, loop vs numpy, in microseconds (Python 3.11, numpy 2.4, 2-core Xeon): C = 3: 9 vs 19;
# C = 6: 16-27 vs 21-26; C = 9: 52 vs 47; C = 10: 39-42 vs 28-33; C = 15: 38-62 vs 22;
# C = 495: 2,761 vs 115; C = 3,432: 17,219 vs 527.  The pass has a fixed cost of about 20 us
# and a subset costs the loop 3-5 us, so below 10 subsets the loop wins or the two tie.
_NUMPY_MIN_SUBSETS = 10


class ConfigurationError(ValueError):
    """Mechanism/profile combination violates a structural precondition."""


@dataclass(frozen=True)
class Mechanism:
    """Two-round auction: keep top theta, advance alpha, allocate via x."""

    theta: int
    alpha: int
    selection: SelectionDistribution
    allocation: AllocationRule

    def __post_init__(self) -> None:
        if self.selection.theta != self.theta or self.selection.alpha != self.alpha:
            raise ConfigurationError(
                "selection distribution shape does not match mechanism "
                f"(theta={self.theta}, alpha={self.alpha})"
            )
        if self.allocation.alpha != self.alpha:
            raise ConfigurationError(
                f"allocation length {self.allocation.alpha} != alpha {self.alpha}"
            )
        if not 1 <= self.allocation.beta <= self.alpha <= self.theta:
            raise ConfigurationError("need theta >= alpha >= beta >= 1")

    @property
    def beta(self) -> int:
        return self.allocation.beta

    @property
    def competition_rank(self) -> int:
        """First-round rank theta - alpha + beta: the line of competition."""
        return self.theta - self.alpha + self.beta

    def to_json_dict(self) -> dict:
        doc = self.selection.to_json_dict()
        doc["x"] = list(self.allocation.x)
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Mechanism":
        selection = SelectionDistribution.from_json_dict(doc)
        x = doc.get("x")
        if not isinstance(x, (list, tuple)) or not all(map(is_finite_number, x)):
            raise ConfigurationError("mechanism needs x, a list of finite numbers")
        return cls(selection.theta, selection.alpha, selection, AllocationRule(tuple(x)))


@dataclass(frozen=True)
class BidProfile:
    """First- and second-round bids, indexed by bidder id (0-based).

    A bidder who can reach the second round must not lower their bid there
    (s_i >= b_i); bidders who can never advance may carry s_i = 0.
    """

    first_round: tuple[float, ...]
    second_round: tuple[float, ...]

    def __post_init__(self) -> None:
        b = tuple(float(v) for v in self.first_round)
        s = tuple(float(v) for v in self.second_round)
        if len(b) != len(s):
            raise ConfigurationError("first/second round bid vectors differ in length")
        if not all(0 <= v < math.inf for v in b + s):
            raise ConfigurationError("bids must be finite and nonnegative")
        object.__setattr__(self, "first_round", b)
        object.__setattr__(self, "second_round", s)

    @property
    def n(self) -> int:
        return len(self.first_round)

    @cached_property
    def _ranking(self) -> list[int]:
        """Every bidder id by first-round bid, descending; of equal bids the lower id first."""
        # sorted() is stable under reverse=True, so the lower id keeps the higher position.
        return sorted(range(self.n), key=self.first_round.__getitem__, reverse=True)

    @classmethod
    def truthful(cls, values: Sequence[float]) -> "BidProfile":
        v = tuple(float(x) for x in values)
        return cls(v, v)


@dataclass(frozen=True)
class SubsetOutcome:
    subset: tuple[int, ...]  # first-round positions advanced
    probability: float
    winner_bidder: int | None
    payment: float  # total payment collected in this outcome


@dataclass(frozen=True)
class AuctionResult:
    expected_utilities: tuple[float, ...]
    expected_revenue: float
    outcomes: tuple[SubsetOutcome, ...] = field(default=())
    realized_subset: tuple[int, ...] | None = None
    realized_winner: int | None = None
    realized_payment: float | None = None


def first_round_positions(mech: Mechanism, bids: BidProfile) -> list[int]:
    """Bidder ids of the top theta first-round bids, position 1 first.

    Ties are broken by bidder id ascending (lower id wins the higher
    position).  Bidders below position theta are dropped.
    """
    if bids.n < mech.theta:
        raise ConfigurationError(f"need at least theta={mech.theta} bidders, got {bids.n}")
    # A slice is a new list: callers cannot change the profile's cached ranking.
    return bids._ranking[: mech.theta]


def _settled(mech: Mechanism, s: Sequence[float], subsets, X: list[float], P: list[float]):
    """Yield ``(subset, prob, order, pay)`` of each ``(subset, prob)`` settled on bids ``s``
    (as in :func:`settle`), adding its expected allocation and payment to X and P."""
    alloc, beta = mech.allocation.x, mech.beta
    for subset, prob in subsets:
        order, pay = settle_round([s[q - 1] for q in subset], mech.allocation)
        for r in range(beta):
            k = subset[order[r]] - 1
            X[k] += prob * alloc[r]
            P[k] += prob * pay[r]
        yield subset, prob, order, pay


def settle(mech: Mechanism, s: Sequence[float]) -> tuple[list[float], list[float]]:
    """Expected allocation and payment of every first-round position.

    ``s[p - 1]`` is the second-round bid of the bidder at position p.  Returns
    ``(X, P)`` indexed the same way, so that bidder's expected utility at
    value v is v * X[p - 1] - P[p - 1].  Second-round ties go to the better
    first-round position.
    """
    if len(s) < mech.theta:
        raise ConfigurationError(f"need theta={mech.theta} second-round bids, got {len(s)}")
    if len(mech.selection.probs) >= _NUMPY_MIN_SUBSETS:
        return _settle_all(mech, s)
    X = [0.0] * mech.theta
    P = [0.0] * mech.theta
    live = ((subset, prob) for subset, prob in mech.selection.probs.items() if prob != 0.0)
    for _ in _settled(mech, s, live, X, P):
        pass
    return X, P


def _settle_all(mech: Mechanism, s: Sequence[float]) -> tuple[list[float], list[float]]:
    """:func:`settle` in one numpy pass over the live subsets, every float as the loop makes it."""
    table, prob = mech.selection._live_table
    bids = np.array(s[: mech.theta], dtype=float)
    # A stable descending rank of all theta bids orders every subset as settle_round does:
    # of two equal bids the better first-round position, listed first in a subset, ranks higher.
    ranked = np.argsort(-bids, kind="stable")
    rank = np.argsort(ranked)  # rank[position]: the inverse permutation
    order = ranked[np.sort(rank[table], axis=1)]  # (C, alpha) positions, second-round rank order
    ranked_bids = bids[order]
    alloc, steps, beta = mech.allocation.x, mech.allocation.steps, mech.beta
    pay = np.zeros((len(prob), beta))
    total = 0.0
    with np.errstate(over="ignore"):  # a payment past the float range is inf, as in the loop
        for r in range(mech.alpha - 2, -1, -1):  # rank_payments' bottom-up sum
            total = total + ranked_bids[:, r + 1] * steps[r]
            if r < beta:
                pay[:, r] = total
        # bincount adds its weights one at a time in (subset, rank) order, the loop's order.
        winners = order[:, :beta].ravel()
        X = np.bincount(winners, (prob[:, None] * alloc[:beta]).ravel(), mech.theta)
        P = np.bincount(winners, (prob[:, None] * pay).ravel(), mech.theta)
    return X.tolist(), P.tolist()


def place(mech: Mechanism, others: Sequence[float], p: int, s: float) -> tuple[float, float]:
    """Expected ``(X, P)`` of a bidder at first-round position p bidding s in round two.

    ``others`` are the other bidders' bids, descending and the same in both rounds; the
    bidder is inserted at position p among the top theta - 1 of them, and gets ``(0.0, 0.0)``
    below position theta.  ``equilibrium.is_nash_equilibrium`` prices its deviations with it.
    """
    if len(others) < mech.theta - 1:
        raise ConfigurationError(f"need theta - 1 = {mech.theta - 1} other bids, got {len(others)}")
    if p > mech.theta:
        return 0.0, 0.0
    X, P = settle(mech, [*others[: p - 1], s, *others[p - 1 : mech.theta - 1]])
    return X[p - 1], P[p - 1]


def expected_utility(
    mech: Mechanism, values: Sequence[float], bids: BidProfile, bidder: int
) -> float:
    """Exact expected utility of one bidder over all advancing subsets."""
    return evaluate(mech, values, bids).expected_utilities[bidder]


def expected_revenue(mech: Mechanism, bids: BidProfile) -> float:
    """Probability-weighted total payment over all advancing subsets."""
    positions = first_round_positions(mech, bids)
    return sum(settle(mech, [bids.second_round[i] for i in positions])[1])


def evaluate(mech: Mechanism, values: Sequence[float], bids: BidProfile) -> AuctionResult:
    """Full exact evaluation: utilities, revenue and the per-subset table.

    One settle_round per subset feeds the table and every bidder's utility (0
    outside the top theta); zero-probability subsets add exact zeros to X, P.
    """
    if len(values) != bids.n:
        raise ConfigurationError("values and bid profile differ in length")
    positions = first_round_positions(mech, bids)
    s = [bids.second_round[i] for i in positions]
    X = [0.0] * mech.theta
    P = [0.0] * mech.theta
    outcomes = [
        SubsetOutcome(subset, prob, positions[subset[order[0]] - 1], sum(pay))
        for subset, prob, order, pay in _settled(mech, s, mech.selection.probs.items(), X, P)
    ]
    utils = [0.0] * bids.n
    for k, i in enumerate(positions):
        utils[i] = values[i] * X[k] - P[k]
    revenue = sum(o.probability * o.payment for o in outcomes)
    return AuctionResult(tuple(utils), revenue, tuple(outcomes))


def simulate_run(
    mech: Mechanism, bids: BidProfile, rng: np.random.Generator
) -> AuctionResult:
    """One sampled run: draw a subset, settle the second round, collect payments.

    The subset is sampled; payments within the subset are the exact expected
    payments of the rule, and the realized winner is sampled from the
    allocation probabilities.  Each draw is one ``rng.random()`` and a bisection
    of a cached CDF, O(log C): the same draws and stream position as
    ``rng.choice(..., p=...)``.  A run whose second-round bids break the
    line of competition s_beta >= b_{theta-alpha+beta} raises
    :class:`ConfigurationError`.
    """
    positions = first_round_positions(mech, bids)
    subset = sample_subset(mech.selection, rng)
    ids = [positions[p - 1] for p in subset]
    s = [bids.second_round[i] for i in ids]
    order, pay = settle_round(s, mech.allocation)
    s_beta = s[order[mech.beta - 1]]
    b_ref = bids.first_round[positions[mech.competition_rank - 1]]
    if s_beta < b_ref - UTILITY_ATOL:
        raise ConfigurationError(
            f"line of competition violated: s_beta={s_beta} < b_ref={b_ref} "
            f"(subset={subset})"
        )
    idx = bisect_right(mech.allocation._winner_cdf, rng.random())
    winner = ids[order[idx]] if idx < mech.beta else None
    total = sum(pay)
    return AuctionResult(
        expected_utilities=(),
        expected_revenue=total,
        realized_subset=subset,
        realized_winner=winner,
        realized_payment=total,
    )
