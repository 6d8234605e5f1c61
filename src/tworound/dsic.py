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
  position p, outranked by k others in round two.  The engine's rank-slot plan, built once
  per call over every slot k < p <= theta, lays out each slot's payment terms top-down, so
  that one ``rank_payments`` call prices a chunk's slots over cached (grid, n) tables; priced
  on n step profiles first, it may prove every gain at most ``GAIN_ATOL`` and skip the sweep.
  :func:`verify_witness` re-prices a witness through full bid profiles
  (``engine.expected_utility``), apart from the plan.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations_with_replacement, islice
from typing import Sequence

import numpy as np

from .engine import BidProfile, ConfigurationError, Mechanism, expected_utility
from .engine import _plan_arrays, _rank_slot_plan, _utilities
from .selection import _as_ints, is_finite_number, marginal_probabilities

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
        return {"is_dsic": self.is_dsic, "violated_condition": self.violated_condition}


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


def _rays_gain_nothing(plan: tuple, n: int, top: float) -> bool:
    """True only if no profile of values and bids in [0, top] gains over ``GAIN_ATOL``.

    With v at position p0 of the sorted bids z (a tie in the cone its tie-break picks), a slot's
    gain over the truthful slot (p0, p0 - 1) is linear in z; z sums the rays 1 on 1..j with weights
    z_j - z_{j+1} >= 0 adding up to z_1 <= top, so no gain exceeds top max(c, 0), c the largest
    over cones p0, rays j (v = [p0 <= j], j - v opponents at 1) and all slots.  Floats: K roundings
    on a chain and W = max X + sum(prob sum|coef|) over slots put U and u_truth within K u top W
    and c within 2 K u W, u = 2**-53; 8 K u (top W + GAIN_ATOL) covers all that.
    """
    X, slots, probs, order, coefs = plan
    r = np.arange(n)
    U = _utilities(plan, (r[:, None] < r) * 1.0, np.array([0.0, 1.0])).reshape(n * n, 2 * n)
    ray = (r >= r[:, None]) * (n - 1) + r + 1  # [p0 - 1, j - 1]: column v n + m of U, m = j - v
    gain = U.max(0)[ray] - U[r[:, None] * (n + 1), ray]  # the best slot over the truthful one
    W = (abs(X) + np.bincount(slots, (probs * abs(coefs).sum(0)).ravel(), n * n)).max()
    K = len(order) + len(slots) + 3
    return top * max(gain.max(), 0.0) + 8 * K * 2**-53 * (top * W + GAIN_ATOL) <= GAIN_ATOL


def find_deviation(
    mech: Mechanism, grid: Sequence[float], n: int | None = None
) -> DeviationWitness | None:
    """Exhaustive grid search for a profitable deviation; None if no grid profile gains.

    Values, truthful bids and deviating (b, s) pairs all range over ``grid``;
    the n-1 opponents bid identically in both rounds and sweep every multiset
    of grid values.  None is therefore not a DSIC proof: a deviation is seen only when the value,
    both bids and every opponent bid lie on the grid.  With theta = 3, alpha = 2, x = (1, 0),
    p(1,2) = 1/3, p(1,3) = 1/3 + 0.01 and p(2,3) = 1/3 - 0.01, condition 2 fails and value 7.9
    gains 0.12467 with b = s = 8 against opponents (8, 0), yet ``range(9)`` gives None.
    Returns the first witness under a deterministic search
    order: opponent profiles in ``combinations_with_replacement`` order over
    the descending grid, then v, b and s ascending.

    Chunks are scanned over (slot, v, profile), n^2 rank slots per (profile, v) instead of a
    cell per (b, s); slots that no s >= b reaches are masked out.  No chunk is scanned when
    :func:`_rays_gain_nothing` proves that no profile gains.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must not be empty: nothing would be searched")
    if not all(is_finite_number(g) and g >= 0 for g in grid):
        raise ValueError(f"grid points must be finite and nonnegative, got {grid}")
    grid = sorted(map(float, grid))
    n = mech.theta if n is None else _as_ints((n,), ConfigurationError)[0]
    if len(grid) > MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"grid of {len(grid)} points exceeds the {MAX_GRID_POINTS}-point limit"
        )
    if n > 6:
        raise ResourceLimitError(f"n={n} exceeds the 6-bidder limit")
    if n < mech.theta:
        raise ResourceLimitError(f"need n >= theta={mech.theta}")

    chunks = _grid_tables(tuple(grid), n)
    slots = [(p, k) for p in range(1, mech.theta + 1) for k in range(p)]
    plan = _plan_arrays(_rank_slot_plan(mech, n, slots))
    if len(chunks) > 1 and _rays_gain_nothing(plan, n, grid[-1]):
        return None
    g = np.array(grid)
    for opp, bids, p1, reached in chunks:
        U = _utilities(plan, bids, g)  # [slot, v, profile]
        u_truth = U[p1 * (n + 1), np.arange(len(g))[:, None], np.arange(len(opp))]  # b = s = v
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
