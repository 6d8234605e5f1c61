"""Second-round allocation and payments.

The second round is a sealed-bid auction among the advanced bidders with a
monotone allocation vector x (indexed by bid rank) and the discrete-form
incentive-compatible payment rule: the rank-xi bidder pays

    p_xi = sum_{j=xi}^{beta} s_{j+1} * (x_j - x_{j+1})

with x_{beta+1} = 0 and out-of-range bids treated as 0.  beta is the number of
ranks with positive allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence


class ContractViolation(ValueError):
    """Input violates a documented precondition (e.g. a wrong bid count)."""


@dataclass(frozen=True)
class AllocationRule:
    """Monotone non-increasing allocation probabilities by second-round rank."""

    x: tuple[float, ...]
    steps: tuple[float, ...] = field(init=False, repr=False, compare=False)  # x[r] - x[r + 1]

    def __post_init__(self) -> None:
        x = tuple(float(v) for v in self.x)
        if not x:
            raise ContractViolation("allocation vector must be non-empty")
        if not all(math.isfinite(v) for v in x):
            raise ContractViolation(f"allocation probabilities must be finite: {x}")
        if any(b > a + 1e-15 for a, b in zip(x, x[1:])):
            raise ContractViolation(f"allocation must be non-increasing: {x}")
        if x[-1] < 0:
            raise ContractViolation("allocation probabilities must be nonnegative")
        if sum(x) > 1 + 1e-12:
            raise ContractViolation(f"allocation probabilities sum to {sum(x)} > 1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "steps", tuple(a - b for a, b in zip(x, x[1:])))

    @property
    def alpha(self) -> int:
        return len(self.x)

    @property
    def beta(self) -> int:
        """Number of ranks that can win."""
        return sum(1 for v in self.x if v > 0)

    def prob(self, rank: int) -> float:
        """Allocation probability for a 1-based rank; 0 beyond alpha."""
        return self.x[rank - 1] if 1 <= rank <= self.alpha else 0.0


def settle_round(bids: Sequence[float], x: AllocationRule) -> tuple[list[int], list[float]]:
    """Rank the advanced bidders and price every rank.

    ``bids`` holds one second-round bid per advanced bidder in tie-priority
    order: of two equal bids, the earlier one ranks higher.  Returns
    ``(order, pay)``: ``order[r]`` indexes ``bids`` for the bidder at rank
    r + 1 and ``pay[r]`` is that rank's payment, 0 for ranks without
    allocation.
    """
    alpha = len(x.x)
    if len(bids) != alpha:
        raise ContractViolation(f"expected {alpha} bids, got {len(bids)}")
    # sorted() is stable under reverse=True, so equal bids keep their order.
    order = sorted(range(alpha), key=bids.__getitem__, reverse=True)
    return order, rank_payments(bids, order, x.steps)


def rank_payments(bids: Sequence, order: Sequence, steps: Sequence[float]) -> list:
    """Myerson payment of every rank, summed bottom-up; ``order[r]`` indexes ``bids`` at rank r + 1.

    ``steps`` is ``AllocationRule.steps``; the top bid is never read.  Bids may be floats or numpy
    columns, priced alike.  ``steps[r:]`` with the bidders from rank r + 1 down prices that rank.
    """
    pay = [0.0] * (len(steps) + 1)
    total = 0.0
    for r in range(len(steps) - 1, -1, -1):
        # Not +=: on a numpy column that would also change pay[r + 1].
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
    if not all(0 <= b < math.inf for b in bids):
        raise ContractViolation("bids must be finite and nonnegative")
    keys = [own_key, *(other_keys or [(1, i + 1) for i in range(len(other_bids))])]
    # Stable: the caller, listed first, keeps priority over an equal key.
    prio = sorted(range(len(keys)), key=keys.__getitem__)
    order, pay = settle_round([bids[i] for i in prio], x)
    rank = next(r for r, k in enumerate(order) if prio[k] == 0)
    return value * x.prob(rank + 1) - pay[rank]
