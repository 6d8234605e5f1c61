"""Incentive-compatibility checks for the composed two-round auction.

Two independent routes to the same question:

* :func:`check_dsic` evaluates the closed-form characterization on the
  selection marginals — the auction is DSIC iff the top theta-alpha+beta
  marginals are all equal (condition 2) and no lower-ranked marginal exceeds
  them (condition 1).
* :func:`find_deviation` is a brute-force oracle: it fixes opponents to every
  bid profile on a finite grid and searches the deviating bidder's (b, s)
  pairs, s >= b, for a strictly profitable deviation.  This covers both
  conservative (b <= v) and risky (v < b <= s) deviations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Sequence

from .engine import Mechanism, settle
from .selection import marginal_probabilities

MARGINAL_ATOL = 1e-9
GAIN_ATOL = 1e-9


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


@dataclass(frozen=True)
class DsicVerdict:
    is_dsic: bool
    violated_condition: str | None  # None | "condition-1" | "condition-2"
    witness: DeviationWitness | None = None

    def to_json_dict(self) -> dict:
        doc: dict = {"is_dsic": self.is_dsic, "violated_condition": self.violated_condition}
        if self.witness is not None:
            w = self.witness
            doc["witness"] = {
                "value": w.value,
                "first_round_bid": w.first_round_bid,
                "second_round_bid": w.second_round_bid,
                "opponent_bids": list(w.opponent_bids),
                "gain": w.gain,
                "family": w.family,
            }
        return doc


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


def _deviator_utility_tables(mech: Mechanism, opponent_bids: Sequence[float]):
    """Per (first-round position, second-round bid) allocation/payment tables.

    Opponents bid the same value in both rounds.  The deviator has bidder
    id 0 and so takes the better first-round position against an equal
    opponent bid (the engine's id tie-break); second-round ties follow
    first-round position.  Its utility for value v is v * X[p, s] - P[p, s].
    """
    opp_sorted = sorted(opponent_bids, reverse=True)
    top = opp_sorted[: mech.theta - 1]

    def deviator_position(b: float) -> int:
        return 1 + sum(1 for ob in opp_sorted if ob > b)

    tables: dict[tuple[int, float], tuple[float, float]] = {}

    def table(p: int, s: float) -> tuple[float, float]:
        key = (p, s)
        if key not in tables:
            if p > mech.theta:
                tables[key] = (0.0, 0.0)
            else:
                X, P = settle(mech, top[: p - 1] + [s] + top[p - 1 :])
                tables[key] = (X[p - 1], P[p - 1])
        return tables[key]

    return deviator_position, table


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
    if len(grid) > 12:
        raise ResourceLimitError(f"grid of {len(grid)} points exceeds the 12-point limit")
    if n > 6:
        raise ResourceLimitError(f"n={n} exceeds the 6-bidder limit")
    if n < mech.theta:
        raise ResourceLimitError(f"need n >= theta={mech.theta}")

    for opp in combinations_with_replacement(reversed(grid), n - 1):
        position_of, table = _deviator_utility_tables(mech, opp)
        for v in grid:
            p_truth = position_of(v)
            Xt, Pt = table(p_truth, v)
            u_truth = v * Xt - Pt
            for b in grid:
                p_dev = position_of(b)
                for s in grid:
                    if s < b:
                        continue
                    Xd, Pd = table(p_dev, s)
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
    """Re-evaluate a witness through the exact engine; returns the gain."""
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
