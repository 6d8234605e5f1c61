"""Second-round allocation and payments.

The second round is a sealed-bid auction among the advanced bidders with a
monotone allocation vector x (indexed by bid rank) and the discrete-form
incentive-compatible payment rule: the rank-xi bidder pays

    p_xi = sum_{j=xi}^{beta} s_{j+1} * (x_j - x_{j+1})

with x_{beta+1} = 0 and out-of-range bids treated as 0.  beta is the number of
ranks with positive allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

from .selection import is_finite_number


class ContractViolation(ValueError):
    """Input violates a documented precondition (e.g. a wrong bid count)."""


@dataclass(frozen=True)
class AllocationRule:
    """Monotone non-increasing allocation probabilities by second-round rank."""

    x: tuple[float, ...]
    # Number of ranks that can win: the leading run of positive entries.
    beta: int = field(init=False, repr=False, compare=False)
    steps: tuple[float, ...] = field(init=False, repr=False, compare=False)  # x[r] - x[r + 1]
    # CDF of the winning rank 1..beta, then "no winner", as Generator.choice builds it.
    _winner_cdf: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        x = tuple(self.x)
        if not x:
            raise ContractViolation("allocation vector must be non-empty")
        if not all(map(is_finite_number, x)):
            raise ContractViolation(f"allocation probabilities must be finite: {x}")
        x = tuple(map(float, x))
        if any(b > a + 1e-15 for a, b in zip(x, x[1:])):
            raise ContractViolation(f"allocation must be non-increasing: {x}")
        if min(x) < 0:
            raise ContractViolation("allocation probabilities must be nonnegative")
        if any(a <= 0 < b for a, b in zip(x, x[1:])):
            raise ContractViolation(f"allocation is positive after a zero: {x}")
        if sum(x) > 1 + 1e-12:
            raise ContractViolation(f"allocation probabilities sum to {sum(x)} > 1")
        object.__setattr__(self, "x", x)
        # No positive entry follows a zero (checked above), so the positives are the leading run.
        object.__setattr__(self, "beta", sum(1 for v in x if v > 0))
        object.__setattr__(self, "steps", tuple(a - b for a, b in zip(x, x[1:])))
        cdf = list(accumulate([*x[: self.beta], max(1.0 - sum(x[: self.beta]), 0.0)]))
        object.__setattr__(self, "_winner_cdf", [c / cdf[-1] for c in cdf])

    @property
    def alpha(self) -> int:
        return len(self.x)


def settle_round(bids: Sequence[float], x: AllocationRule) -> tuple[list[int], list[float]]:
    """Rank the advanced bidders and price every rank.

    ``bids`` holds one second-round bid per advanced bidder in tie-priority order: of two equal
    bids, the earlier one ranks higher.  They must be finite floats, which is not checked here:
    ``evaluate`` calls this per subset on bids that ``BidProfile`` has checked, ``u2`` on bids
    it has checked itself.
    Returns ``(order, pay)``: ``order[r]`` indexes ``bids`` for the bidder at rank r + 1 and
    ``pay[r]`` is that rank's payment, 0 for ranks without allocation.
    """
    alpha = len(x.x)
    if len(bids) != alpha:
        raise ContractViolation(f"expected {alpha} bids, got {len(bids)}")
    # sorted() is stable under reverse=True, so equal bids keep their order.
    order = sorted(range(alpha), key=bids.__getitem__, reverse=True)
    return order, rank_payments(bids, order, x.steps)


def rank_payments(bids: Sequence, order: Sequence, steps: Sequence[float]) -> list:
    """Myerson payment of every rank, summed bottom-up; ``order[r]`` indexes ``bids`` at rank r + 1.

    ``steps`` is ``AllocationRule.steps``; the top bid is never read.  ``steps[r:]`` with the
    bidders from rank r + 1 down prices that rank.  The package's one payment sum: bids and steps
    may be floats or numpy rows, added elementwise to 0.0 from the bottom rank up, the order of
    additions every caller relies on for its floats.  The last rank's entry is the scalar 0.0.
    """
    pay = [0.0] * (len(steps) + 1)
    total = 0.0
    for r in range(len(steps) - 1, -1, -1):
        total = total + bids[order[r + 1]] * steps[r]
        pay[r] = total
    return pay


def u2(
    value: float,
    own_bid: float,
    other_bids: Sequence[float],
    x: AllocationRule,
    own_key: tuple = (0, 0),
    other_keys: Sequence[tuple] | None = None,
) -> float:
    """Expected second-round utility value * x_rank - p_rank of one bidder.

    ``other_bids`` are the remaining advanced bidders' bids (any order).  Ties
    go to the smaller key; the default keys make the caller the
    highest-priority bidder.
    """
    bids = [own_bid, *other_bids]
    if not is_finite_number(value) or not all(is_finite_number(b) and b >= 0 for b in bids):
        raise ContractViolation("value and bids must be finite numbers, the bids nonnegative")
    if other_keys is not None and len(other_keys) != len(other_bids):
        raise ContractViolation(f"expected {len(other_bids)} other keys, got {len(other_keys)}")
    keys = [own_key, *(other_keys or [(1, i + 1) for i in range(len(other_bids))])]
    # Stable: the caller, listed first, keeps priority over an equal key.
    prio = sorted(range(len(keys)), key=keys.__getitem__)
    order, pay = settle_round([bids[i] for i in prio], x)
    rank = next(r for r, k in enumerate(order) if prio[k] == 0)
    return value * x.x[rank] - pay[rank]
