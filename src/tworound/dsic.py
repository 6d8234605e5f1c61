"""Incentive-compatibility checks for the composed two-round auction.

Two independent routes to the same question:

* :func:`check_dsic` evaluates the closed-form characterization on the
  selection marginals — the auction is DSIC iff the top theta-alpha+beta
  marginals are all equal (condition 2) and no lower-ranked marginal exceeds
  them (condition 1).
* :func:`find_deviation` is a brute-force oracle: it fixes opponents to every
  bid profile on a finite grid and searches the deviating bidder's (b, s)
  pairs, s >= b, for a strictly profitable deviation, priced by
  :func:`engine.place`.  This covers both conservative (b <= v) and risky
  (v < b <= s) deviations.  :func:`verify_witness` re-prices a witness
  through full bid profiles, apart from ``place``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache
from itertools import combinations_with_replacement
from typing import Sequence

from .engine import Mechanism, place
from .selection import marginal_probabilities

MARGINAL_ATOL = 1e-9
GAIN_ATOL = 1e-9
MAX_GRID_POINTS = 12


class ResourceLimitError(ValueError):
    """Requested grid search exceeds the supported size."""


@dataclass(frozen=True)
class DeviationWitness:
    """A profitable deviation found by the oracle."""

    value: float
    first_round_bid: float
    second_round_bid: float
    opponent_bids: tuple[float, ...]
    truthful_utility: float
    deviation_utility: float

    @property
    def gain(self) -> float:
        return self.deviation_utility - self.truthful_utility

    @property
    def family(self) -> str:
        return "conservative" if self.first_round_bid <= self.value else "risky"

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "first_round_bid": self.first_round_bid,
            "second_round_bid": self.second_round_bid,
            "opponent_bids": list(self.opponent_bids),
            "gain": self.gain,
            "family": self.family,
        }


@dataclass(frozen=True)
class DsicVerdict:
    is_dsic: bool
    violated_condition: str | None  # None | "condition-1" | "condition-2"

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_dsic(mech: Mechanism) -> DsicVerdict:
    """Closed-form DSIC verdict from the selection marginals.

    Condition 2: y_1 = ... = y_{theta-alpha+beta} (top marginals equal).
    Condition 1: y_i <= y_{theta-alpha+beta} for every lower rank i.
    """
    y = marginal_probabilities(mech.selection)
    k = mech.competition_rank
    y_ref = y[k - 1]
    if any(abs(y[i] - y_ref) > MARGINAL_ATOL for i in range(k)):
        return DsicVerdict(is_dsic=False, violated_condition="condition-2")
    if any(y[i] > y_ref + MARGINAL_ATOL for i in range(k, mech.theta)):
        return DsicVerdict(is_dsic=False, violated_condition="condition-1")
    return DsicVerdict(is_dsic=True, violated_condition=None)


def find_deviation(
    mech: Mechanism,
    grid: Sequence[float],
    n: int | None = None,
) -> DeviationWitness | None:
    """Exhaustive grid search for a profitable deviation; None if DSIC on grid.

    Values, truthful bids and deviating (b, s) pairs all range over ``grid``;
    the n-1 opponents bid identically in both rounds and sweep every multiset
    of grid values.  Returns the first witness under a deterministic search
    order.
    """
    grid = sorted(float(g) for g in grid)
    if n is None:
        n = mech.theta
    if len(grid) > MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"grid of {len(grid)} points exceeds the {MAX_GRID_POINTS}-point limit"
        )
    if n > 6:
        raise ResourceLimitError(f"n={n} exceeds the 6-bidder limit")
    if n < mech.theta:
        raise ResourceLimitError(f"need n >= theta={mech.theta}")

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


def verify_witness(
    mech: Mechanism, witness: DeviationWitness, n: int | None = None
) -> float:
    """Re-evaluate a witness through the engine's bid-profile path; returns the gain."""
    from .engine import BidProfile, expected_utility

    if n is None:
        n = len(witness.opponent_bids) + 1
    values = [witness.value] + list(witness.opponent_bids)
    truthful = BidProfile(tuple(values), tuple(values))
    dev_first = [witness.first_round_bid] + list(witness.opponent_bids)
    dev_second = [witness.second_round_bid] + list(witness.opponent_bids)
    deviated = BidProfile(tuple(dev_first), tuple(dev_second))
    u_t = expected_utility(mech, values, truthful, 0)
    u_d = expected_utility(mech, values, deviated, 0)
    return u_d - u_t
