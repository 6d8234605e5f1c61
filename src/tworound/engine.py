"""Exact evaluation of the composed two-round auction.

Expected utilities and revenue are computed by enumerating every possible
advancing subset (there are only C(theta, alpha) of them at the scales we
care about), which keeps equilibrium classification free of Monte Carlo
noise.  Single sampled runs are available for simulation-style checks; each
draws its subset and winner from cached CDFs in O(log C), with the same draws
as ``Generator.choice``.

What does not change between runs is computed once: a :class:`BidProfile`
keeps its first-round ranking and its second-round bids in that order, and
``AllocationRule.beta`` is set when the rule is built.  A run builds only its
subset's bids, and none of the caches reads the generator, so a run on a
reused profile draws the same subset and winner from the same stream position.

:func:`settle` is the one function that computes each position's expected allocation X
and payment P, in one numpy pass over the arrays of the selection distribution's live
(nonzero-probability) subset table, whose CDF sampled runs draw from: one stable ranking of
the theta bids orders every subset, ``rank_payments`` prices them all from one row of bids
per rank, and ``bincount`` adds the terms in (subset, rank) order, so X and P are the floats
that ``settle_round`` summed subset by subset gives, to the bit.
:func:`expected_utility`, :func:`expected_revenue` and :func:`evaluate` read X
and P from it; ``evaluate`` settles every subset once more only for its outcome table.
Both deviation checks price rank slots: :func:`_rank_slot_plan` lays out the slots' terms,
``equilibrium.is_nash_equilibrium`` walks them on float lists with :func:`_payments`, and
``dsic.find_deviation`` prices them in one numpy pass with :func:`_utilities`, to the same bits.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .secondround import AllocationRule, rank_payments, settle_round
from .selection import SelectionDistribution, is_finite_number, sample_subset

UTILITY_ATOL = 1e-9

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
        b, s = tuple(self.first_round), tuple(self.second_round)
        if len(b) != len(s):
            raise ConfigurationError("first/second round bid vectors differ in length")
        if not all(is_finite_number(v) and v >= 0 for v in b + s):
            raise ConfigurationError("bids must be finite and nonnegative")
        b, s = tuple(map(float, b)), tuple(map(float, s))
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

    @cached_property
    def _ranked_second_round(self) -> list[float]:
        """Every second-round bid in first-round order: ``[s[i] for i in self._ranking]``."""
        return [self.second_round[i] for i in self._ranking]

    @classmethod
    def truthful(cls, values: Sequence[float]) -> "BidProfile":
        v = tuple(values)
        return cls(v, v)


@dataclass(frozen=True)
class SubsetOutcome:
    subset: tuple[int, ...]  # first-round positions advanced
    probability: float
    winner_bidder: int | None
    payment: float  # total payment collected in this outcome


class AuctionResult(NamedTuple):
    expected_utilities: tuple[float, ...]
    expected_revenue: float
    outcomes: tuple[SubsetOutcome, ...] = ()
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


def settle(mech: Mechanism, s: Sequence[float]) -> tuple[list[float], list[float]]:
    """Expected allocation and payment of every first-round position.

    ``s[p - 1]`` is the second-round bid of the bidder at position p.  Returns
    ``(X, P)`` indexed the same way, so that bidder's expected utility at
    value v is v * X[p - 1] - P[p - 1].  Second-round ties go to the better
    first-round position.  ``settle`` reads only live subsets, from the distribution's table.
    """
    if len(s) < mech.theta:
        raise ConfigurationError(f"need theta={mech.theta} second-round bids, got {len(s)}")
    table, prob = mech.selection._live_arrays
    bids = np.array(s[: mech.theta], dtype=float)
    # A stable descending rank of all theta bids orders every subset as settle_round does:
    # of two equal bids the better first-round position, listed first in a subset, ranks higher.
    ranked = np.argsort(-bids, kind="stable")
    rank = np.argsort(ranked)  # rank[position]: the inverse permutation
    order = ranked[np.sort(rank[table], axis=1)]  # (C, alpha) positions, second-round rank order
    alloc, beta = mech.allocation.x, mech.beta
    with np.errstate(over="ignore"):  # a payment past the float range is inf
        # Row r of bids[order.T] holds every subset's rank-(r + 1) bid; with beta = alpha the
        # last rank's payment is rank_payments' scalar 0.0, and prob * 0.0 makes its column.
        pay = rank_payments(bids[order.T], range(mech.alpha), mech.allocation.steps)[:beta]
        # bincount adds its weights one at a time, in (subset, rank) order.
        winners = order[:, :beta].ravel()
        X = np.bincount(winners, (prob[:, None] * alloc[:beta]).ravel(), mech.theta)
        P = np.bincount(winners, np.column_stack([prob * p for p in pay]).ravel(), mech.theta)
    return X.tolist(), P.tolist()


def _rank_slot_plan(mech: Mechanism, n: int, slots) -> tuple:
    """A bidder's expected allocation X[slot] among n, and the payment terms that sum to P[slot].

    ``slots`` lists the (p, k), k < p, that the caller reads: first-round position p, outranked
    by k others in round two.  Slot (p, k) is row (p - 1) * n + k; rows left out price 0.0.  The
    others bid alike in both rounds, so those k sit at positions 1..k and the slot fixes its rank
    r and the positions below it in every subset; its own bid never enters its payment.  X and
    the terms follow the live-subset table in :func:`settle`'s order, so a slot is row p of
    ``settle`` with the bidder inserted at p, to the bit.  Returns lists (X, slots, probs, order,
    coefs, w): term i adds probs[i] times ``rank_payments(bids, order[i * w:][:w + 1],
    coefs[i * w:][:w])[0]`` to slot slots[i], over the steps up to beta (later ones are 0.0 and
    add exact zeros).  Its w entries of order run top-down after one that is never read (a pad,
    or the previous term's last): the members below the bidder, then r pads (zero row n - 1).
    """
    alloc, beta, steps = mech.allocation.x, mech.beta, mech.allocation.steps[: mech.beta]
    X, rows, probs, order, coefs, w = [0.0] * (n * n), [], [], [n - 1], [], len(steps)
    # Per rank r < beta, a term's r pads and its coefficients (the steps from r, then r zeros).
    pads = [[n - 1] * r for r in range(beta)]
    tails = [steps[r:] + (0.0,) * r for r in range(beta)]
    for p, k in slots:
        slot = (p - 1) * n + k
        for subset, prob in mech.selection._live_table[0]:
            r = bisect_right(subset, k)  # subsets are sorted tuples
            if p in subset and r < beta:
                X[slot] += prob * alloc[r]
                rows.append(slot)
                probs.append(prob)
                members = [q - 2 + (q < p) for q in subset[r:] if q != p]
                del members[w - r :]  # cut in place, as mostly nothing is cut
                order += members
                order += pads[r]
                coefs += tails[r]
    return X, rows, probs, order, coefs, w


def _plan_arrays(plan: tuple) -> tuple:
    """A plan as the numpy pass reads it: X, slots, probs and coefs, and order by rank."""
    X, slots, probs, order, coefs, w = plan
    order = [None, *np.array(order, dtype=np.intp)[1:].reshape(len(slots), w).T]  # no top bid
    coefs = np.array(coefs).reshape(len(slots), w).T[..., None]  # probs and coefs broadcast
    return np.array(X), np.array(slots, dtype=np.intp), np.array(probs)[:, None], order, coefs


def _payments(plan: tuple, columns: Sequence[Sequence[float]]) -> list[list[float]]:
    """P[slot][c]: a slot's terms against ``columns[c]`` (the n - 1 others' bids, descending, then
    0.0), walked on floats and added in term order from 0.0: :func:`_utilities`' P to the bit."""
    X, slots, probs, order, coefs, w = plan
    P = [[0.0] * len(columns) for _ in X]
    for i, (slot, prob) in enumerate(zip(slots, probs)):
        term = order[i * w : (i + 1) * w + 1], coefs[i * w : (i + 1) * w]
        for c, column in enumerate(columns):
            P[slot][c] += prob * rank_payments(column, *term)[0]
    return P


def _utilities(plan: tuple, bids: np.ndarray, g: np.ndarray) -> np.ndarray:
    """U[slot, v, column] = v X[slot] - P[slot] at every value in ``g`` and column of ``bids``,
    from :func:`_plan_arrays` in one numpy pass, as the oracle prices its chunks of profiles."""
    X, slots, probs, order, coefs = plan
    m = bids.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan as Python floats make them
        # prob times each term's payment; the out array keeps the (term, column) shape at alpha = 1
        terms = np.multiply(probs, rank_payments(bids, order, coefs)[0], np.empty((len(slots), m)))
        # P[slot, column], flat; bincount adds the terms one at a time, in term order
        P = np.bincount((slots[:, None] * m + np.arange(m)).ravel(), terms.ravel(), len(X) * m)
        return X[:, None, None] * g[:, None] - P.reshape(len(X), 1, m)


def _check_values(mech: Mechanism, values: Sequence[float], n: int) -> None:
    """One finite value for each of n >= theta bidders, or :class:`ConfigurationError`."""
    if len(values) != n:
        raise ConfigurationError("values and bid profile differ in length")
    if not all(map(is_finite_number, values)):
        raise ConfigurationError("values must be finite")
    if n < mech.theta:
        raise ConfigurationError(f"need at least theta={mech.theta} bidders, got {n}")


def expected_utility(mech: Mechanism, values: Sequence[float], bids: BidProfile, bidder: int) -> float:
    """``evaluate``'s utility of bidder 0..n - 1 from its row of :func:`settle`; 0.0 below theta."""
    _check_values(mech, values, bids.n)
    if isinstance(bidder, bool) or not hasattr(bidder, "__index__") or not 0 <= bidder < bids.n:
        raise ConfigurationError(f"bidder must be an int in 0..{bids.n - 1}, got {bidder!r}")
    k = bids._ranking.index(bidder)  # the bidder's first-round position, 0-based
    if k >= mech.theta:
        return 0.0
    X, P = settle(mech, bids._ranked_second_round)
    return values[bidder] * X[k] - P[k]


def expected_revenue(mech: Mechanism, bids: BidProfile) -> float:
    """Probability-weighted total payment over all advancing subsets."""
    first_round_positions(mech, bids)  # at least theta bidders
    return sum(settle(mech, bids._ranked_second_round)[1])


def evaluate(mech: Mechanism, values: Sequence[float], bids: BidProfile) -> AuctionResult:
    """Full exact evaluation: utilities, revenue and the per-subset table.

    Utilities (0 outside the top theta) and revenue, ``sum(P)``, come from :func:`settle`,
    so the revenue is :func:`expected_revenue`'s to the bit.  The outcome table settles
    every subset once more, zero-probability ones included, and feeds neither.
    """
    _check_values(mech, values, bids.n)
    positions = first_round_positions(mech, bids)
    s = bids._ranked_second_round
    X, P = settle(mech, s)
    outcomes = []
    for subset, prob in mech.selection.probs.items():
        order, pay = settle_round([s[q - 1] for q in subset], mech.allocation)
        outcomes.append(SubsetOutcome(subset, prob, positions[subset[order[0]] - 1], sum(pay)))
    utils = [0.0] * bids.n
    for k, i in enumerate(positions):
        utils[i] = values[i] * X[k] - P[k]
    return AuctionResult(tuple(utils), sum(P), tuple(outcomes))


def simulate_run(
    mech: Mechanism, bids: BidProfile, rng: np.random.Generator
) -> AuctionResult:
    """One sampled run: draw a subset, settle the second round, collect payments.

    The subset is sampled; payments within the subset are the exact expected payments of the
    rule (``rank_payments`` on the profile's cached ranking), and the realized winner is sampled
    from the allocation probabilities.  Each draw is one ``rng.random()`` and a bisection of a
    cached CDF, O(log C): the same draws and stream position as ``rng.choice(..., p=...)``.  A run
    whose second-round bids break the line of competition s_beta >= b_{theta-alpha+beta} raises
    :class:`ConfigurationError`.
    """
    if bids.n < mech.theta:
        raise ConfigurationError(f"need at least theta={mech.theta} bidders, got {bids.n}")
    subset = sample_subset(mech.selection, rng)
    ranking, ranked_s, alloc = bids._ranking, bids._ranked_second_round, mech.allocation
    s = [ranked_s[p - 1] for p in subset]
    order = sorted(range(len(s)), key=s.__getitem__, reverse=True)  # stable: settle_round's order
    s_beta = s[order[alloc.beta - 1]]
    b_ref = bids.first_round[ranking[mech.competition_rank - 1]]
    if s_beta < b_ref - UTILITY_ATOL:
        raise ConfigurationError(
            f"line of competition violated: s_beta={s_beta} < b_ref={b_ref} "
            f"(subset={subset})"
        )
    idx = bisect_right(alloc._winner_cdf, rng.random())
    winner = ranking[subset[order[idx]] - 1] if idx < alloc.beta else None
    total = sum(rank_payments(s, order, alloc.steps))
    return AuctionResult((), total, (), subset, winner, total)
