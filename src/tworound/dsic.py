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
  mechanism lays out each slot's payment terms top-down, so that one
  ``rank_payments`` call prices a chunk's slots over cached (grid, n) tables.
  :func:`verify_witness` re-prices a witness through full bid profiles
  (``engine.expected_utility``), apart from the plan.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
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
    The verdict covers n = theta bidders, and beta < alpha at any n.  With beta = alpha and
    n > theta, a bidder outside the top theta gains by overbidding into it, because the
    rank-alpha winner pays nothing; ``find_deviation`` at that n finds the witness.
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
    """Deviator's expected allocation X[slot] and the payment terms that sum to P[slot].

    At position p and outranked by k others in round two, the deviator holds slot (p - 1) * n + k.
    The others bid alike in both rounds, so those k sit at positions 1..k and the slot fixes its
    rank r and the positions below it in every subset.  X and the terms follow the selection's
    table of live subsets, in ``engine.settle``'s order.  A term is prob times ``rank_payments``'
    rank-1 payment, laid out top-down: the members below the deviator in position order, then r
    pads (zero row n - 1, step 0.0).
    """
    alloc, steps, beta = mech.allocation.x, mech.allocation.steps, mech.beta
    X, slots, probs, cols, coefs = [0.0] * (n * n), [], [], [], []
    for p in range(1, mech.theta + 1):
        for k in range(p):
            for subset, prob in mech.selection._live_table[0]:
                r = bisect_right(subset, k)  # subsets are sorted tuples
                if p in subset and r < beta:
                    X[(p - 1) * n + k] += prob * alloc[r]
                    slots.append((p - 1) * n + k)
                    probs.append(prob)
                    cols += [q - 2 + (q < p) for q in subset[r:] if q != p] + [n - 1] * r
                    coefs += steps[r:] + (0.0,) * r
    shape = (len(slots), len(steps))
    order = [None, *np.array(cols, dtype=np.intp).reshape(shape).T]  # no top bid: never read
    coefs = np.array(coefs).reshape(shape).T[..., None]  # probs and coefs broadcast over profiles
    return np.array(X), np.array(slots, dtype=np.intp), np.array(probs)[:, None], order, coefs


@functools.lru_cache(maxsize=8)
def _grid_tables(grid: tuple[float, ...], n: int) -> tuple:
    """Per chunk of ``CHUNK_PROFILES`` opponent profiles, read-only (opp, bids, p1, reached).

    ``opp`` indexes the sorted grid, so a witness keeps the caller's floats (-0.0 shares an entry);
    ``bids`` has a row per opponent and a zero row.  Bidding b then s >= b, the deviator (it wins
    ties) sits at position 1 + p1[b, profile] and is outranked by the k others before it at >= s;
    ``reached`` marks the slots that some (b, s) reaches.
    """
    g = np.array(grid)
    bi, si = np.nonzero(g >= g[:, None])  # the (b, s >= b) pairs, row-major
    profiles = combinations_with_replacement(range(len(grid) - 1, -1, -1), n - 1)
    chunks = []
    while opp := tuple(islice(profiles, CHUNK_PROFILES)):
        bids = g[np.array(opp, dtype=np.intp)]  # shape (len(opp), n - 1), also for n = 1
        p1 = (bids[:, :, None] > g).sum(1)
        k = np.minimum(p1[:, :, None], (bids[:, :, None] >= g).sum(1)[:, None, :])
        reached = np.zeros((len(opp), n * n), dtype=bool)
        reached[np.arange(len(opp))[:, None], p1[:, bi] * n + k[:, bi, si]] = True
        arrays = np.vstack([bids.T, np.zeros(len(opp))]), p1.T.copy(), reached.T.copy()
        for a in arrays:
            a.flags.writeable = False
        chunks.append((opp, *arrays))
    return tuple(chunks)


def find_deviation(
    mech: Mechanism, grid: Sequence[float], n: int | None = None
) -> DeviationWitness | None:
    """Exhaustive grid search for a profitable deviation; None if DSIC on grid.

    Values, truthful bids and deviating (b, s) pairs all range over ``grid``;
    the n-1 opponents bid identically in both rounds and sweep every multiset
    of grid values.  Returns the first witness under a deterministic search
    order: opponent profiles in ``combinations_with_replacement`` order over
    the descending grid, then v, b and s ascending.

    Chunks are scanned over (slot, v, profile), n^2 rank slots per (profile, v)
    instead of a cell per (b, s); slots that no s >= b reaches are masked out.
    """
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise ValueError("grid must not be empty: nothing would be searched")
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
    X, slots, probs, order, coefs = _rank_slot_plan(mech, n)
    for opp, bids, p1, reached in _grid_tables(tuple(grid), n):
        m = len(opp)
        # prob times each term's payment; the out array keeps the (term, profile) shape at alpha = 1
        terms = np.multiply(probs, rank_payments(bids, order, coefs)[0], np.empty((len(slots), m)))
        P = np.zeros(n * n * m)  # [slot, profile], flat for add.at's fast path; in term order
        np.add.at(P, (slots[:, None] * m + np.arange(m)).ravel(), terms.ravel())
        U = X[:, None, None] * g[:, None] - P.reshape(n * n, 1, m)  # [slot, v, profile]
        u_truth = U[p1 * (n + 1), np.arange(len(g))[:, None], np.arange(m)]  # b = s = v
        hits = (U > u_truth + GAIN_ATOL) & reached[:, None]
        if hits.any():
            i, v = divmod(hits.any(0).T.argmax(), len(g))  # the first (profile, v) with a hit
            slot = p1[:, i, None] * n + np.minimum(p1[:, i, None], (bids[:-1, i, None] >= g).sum(0))
            b, s = np.unravel_index((hits[slot, v, i] & (g >= g[:, None])).argmax(), slot.shape)
            return DeviationWitness(
                value=grid[v], first_round_bid=grid[b], second_round_bid=grid[s],
                opponent_bids=tuple(grid[j] for j in opp[i]),
                truthful_utility=float(u_truth[v, i]), deviation_utility=float(U[slot[b, s], v, i]),
            )
    return None


def verify_witness(
    mech: Mechanism, witness: DeviationWitness, n: int | None = None
) -> float:
    """Gain of a witness, re-priced through full bid profiles; ``n`` must be its bidder count."""
    opp = witness.opponent_bids
    values = (witness.value, *opp)
    if n is not None and n != len(values):
        raise ConfigurationError(f"n={n}, but the witness has {len(values)} bidders")
    deviated = BidProfile((witness.first_round_bid, *opp), (witness.second_round_bid, *opp))
    u_t = expected_utility(mech, values, BidProfile.truthful(values), 0)
    return expected_utility(mech, values, deviated, 0) - u_t
