"""Incentive-compatibility checks for the composed two-round auction.

Two independent routes to the same question:

* :func:`check_dsic` evaluates the closed-form characterization on the
  selection marginals — the auction is DSIC iff the top theta-alpha+beta
  marginals are all equal (condition 2) and no lower-ranked marginal exceeds
  them (condition 1).
* :func:`find_deviation` is a brute-force oracle: against every opponent bid
  profile on a finite grid it searches the deviator's (b, s) pairs, s >= b,
  for a strictly profitable conservative (b <= v) or risky (v < b <= s)
  deviation.  Each (b, s) puts the deviator in a rank slot (p, k): first-round
  position p, outranked by k others in round two.  A plan built once per
  mechanism prices the slots, and the scan runs over (profile, v, p, k).
  :func:`verify_witness` re-prices a witness through full bid profiles
  (``engine.evaluate``), apart from the plan.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import combinations_with_replacement, islice
from typing import Sequence

import numpy as np

from .engine import BidProfile, ConfigurationError, Mechanism, expected_utility
from .secondround import rank_payments
from .selection import marginal_probabilities

MARGINAL_ATOL = 1e-9
GAIN_ATOL = 1e-9
MAX_GRID_POINTS = 12
# Profiles per payment pass and scan: an early witness ends the search early, a scan stays small.
CHUNK_PROFILES = 64


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


def _rank_slot_plan(mech: Mechanism, n: int):
    """Deviator's expected allocation X[p - 1, k] and the payment terms that sum to P[p - 1, k].

    At position p and outranked by k others in round two, the deviator holds slot (p, k).  The
    others bid alike in both rounds, so those k sit at positions 1..k and the slot fixes its rank
    and the positions below it in every subset.  A term ((p - 1, k), prob, order, steps) adds prob
    times the head's ``rank_payments``.  X and the terms follow the live subsets in
    ``selection.probs`` order, as ``engine.settle``.
    """
    alloc, steps, beta = mech.allocation.x, mech.allocation.steps, mech.beta
    X, terms = np.zeros((n, n)), []
    for p in range(1, mech.theta + 1):
        for k in range(p):
            for subset, prob in mech.selection.probs.items():
                r = sum(1 for q in subset if q <= k)
                if prob != 0.0 and p in subset and r < beta:
                    below = [q - 1 if q < p else q - 2 for q in subset if q > k and q != p]
                    X[p - 1, k] += prob * alloc[r]
                    # The deviator heads the order; its own bid is never read.
                    terms.append(((p - 1, k), prob, (None, *below), steps[r:]))
    return X, terms


def find_deviation(
    mech: Mechanism,
    grid: Sequence[float],
    n: int | None = None,
) -> DeviationWitness | None:
    """Exhaustive grid search for a profitable deviation; None if DSIC on grid.

    Values, truthful bids and deviating (b, s) pairs all range over ``grid``;
    the n-1 opponents bid identically in both rounds and sweep every multiset
    of grid values.  Returns the first witness under a deterministic search
    order: opponent profiles in ``combinations_with_replacement`` order over
    the descending grid, then v, b and s ascending.

    Chunks are scanned over (profile, v, p, k), n^2 rank slots per (profile, v)
    instead of a cell per (b, s); slots that no s >= b reaches are masked out.
    """
    grid = sorted(float(g) for g in grid)
    if not all(0 <= g < math.inf for g in grid):
        raise ValueError(f"grid points must be finite and nonnegative, got {grid}")
    n = mech.theta if n is None else n
    if len(grid) > MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"grid of {len(grid)} points exceeds the {MAX_GRID_POINTS}-point limit"
        )
    if n > 6:
        raise ResourceLimitError(f"n={n} exceeds the 6-bidder limit")
    if n < mech.theta:
        raise ResourceLimitError(f"need n >= theta={mech.theta}")

    g = np.array(grid)
    X, terms = _rank_slot_plan(mech, n)
    bi, si = np.nonzero(g >= g[:, None])  # the (b, s >= b) pairs, row-major
    profiles = combinations_with_replacement(reversed(grid), n - 1)
    while chunk := list(islice(profiles, CHUNK_PROFILES)):
        opp = np.array(chunk)  # shape (len(chunk), n - 1), also for n = 1
        rows = np.arange(len(chunk))
        P = np.zeros((n, n, len(chunk)))
        for slot, prob, order, steps in terms:
            P[slot] += prob * rank_payments(opp.T, order, steps)[0]
        # Round-one ties go to the deviator (id 0): bidding b, it sits at p = 1 + #(others above b);
        # bidding s >= b, it is outranked by the k others before it at >= s.  Truthful: b = s = v.
        p1 = (opp[:, :, None] > g).sum(1)  # p - 1, by b
        k = np.minimum(p1[:, :, None], (opp[:, :, None] >= g).sum(1)[:, None, :])
        U = g[:, None, None] * X - P.transpose(2, 0, 1)[:, None]  # [profile, v, p - 1, k]
        u_truth = U[rows[:, None], np.arange(len(g)), p1, p1]
        reached = np.zeros((len(chunk), n, n), dtype=bool)
        reached[rows[:, None], p1[:, bi], k[:, bi, si]] = True
        hits = (U > (u_truth + GAIN_ATOL)[:, :, None, None]) & reached[:, None]
        if hits.any():  # the first hit in row-major order has the first (profile, v)
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


def verify_witness(
    mech: Mechanism, witness: DeviationWitness, n: int | None = None
) -> float:
    """Gain of a witness, re-priced through full bid profiles; ``n`` must be its bidder count."""
    values = [witness.value] + list(witness.opponent_bids)
    if n is not None and n != len(values):
        raise ConfigurationError(f"n={n}, but the witness has {len(values)} bidders")
    truthful = BidProfile(tuple(values), tuple(values))
    dev_first = [witness.first_round_bid] + list(witness.opponent_bids)
    dev_second = [witness.second_round_bid] + list(witness.opponent_bids)
    deviated = BidProfile(tuple(dev_first), tuple(dev_second))
    u_t = expected_utility(mech, values, truthful, 0)
    u_d = expected_utility(mech, values, deviated, 0)
    return u_d - u_t
