"""Shared generators for randomized mechanism tests."""

from __future__ import annotations

import numpy as np
import pytest

from tworound.engine import Mechanism, settle
from tworound.secondround import AllocationRule, settle_round
from tworound.selection import SelectionDistribution


def random_allocation(rng: np.random.Generator, alpha: int, beta: int) -> AllocationRule:
    """A monotone allocation with exactly beta positive ranks."""
    raw = np.sort(rng.uniform(0.2, 1.0, size=beta))[::-1]
    raw = raw / raw.sum()
    return AllocationRule(tuple(raw) + (0.0,) * (alpha - beta))


def exclusion_distribution(theta: int, q: np.ndarray) -> SelectionDistribution:
    """alpha = theta - 1 distribution from per-rank exclusion probabilities."""
    probs = {}
    for excluded in range(1, theta + 1):
        subset = tuple(i for i in range(1, theta + 1) if i != excluded)
        probs[subset] = float(q[excluded - 1])
    return SelectionDistribution(theta, theta - 1, probs)


def make_dsic_mechanism(rng: np.random.Generator, theta: int, beta: int) -> Mechanism:
    """alpha = theta - 1 mechanism satisfying the marginal characterization.

    The top theta - alpha + beta = beta + 1 exclusion probabilities are set
    equal and the rest at least as large, which makes the top marginals equal
    and the lower marginals no larger.
    """
    k = beta + 1
    if k == theta:
        q = np.full(theta, 1.0 / theta)
    else:
        c = rng.uniform(0.02, 1.0 / theta)
        extra = rng.uniform(0.0, 1.0, size=theta - k)
        slack = 1.0 - theta * c
        q = np.concatenate([np.full(k, c), c + slack * extra / extra.sum()])
    dist = exclusion_distribution(theta, q)
    return Mechanism(dist, random_allocation(rng, theta - 1, beta))


def make_non_dsic_mechanism(
    rng: np.random.Generator, theta: int, beta: int, margin: float = 0.15
) -> Mechanism:
    """alpha = theta - 1 mechanism violating the characterization by >= margin.

    The default margin keeps violations resolvable by the integer-grid
    deviation oracle: the profitable deviation trades a marginal-probability
    gap against one grid step of overpayment, so gaps well above 1/8 (the
    inverse of the 0..8 grid range) are always detectable.
    """
    k = beta + 1
    while True:
        q = rng.dirichlet(np.ones(theta))
        top = q[:k]
        rest = q[k:]
        equality_broken = top.max() - top.min() >= margin
        bound_broken = rest.size > 0 and rest.min() <= top[k - 1] - margin
        if equality_broken or bound_broken:
            dist = exclusion_distribution(theta, q)
            return Mechanism(dist, random_allocation(rng, theta - 1, beta))


def make_all_advance_mechanism(rng: np.random.Generator, theta: int, beta: int) -> Mechanism:
    """alpha = theta mechanism (single advancing subset); always DSIC."""
    dist = SelectionDistribution.uniform(theta, theta)
    return Mechanism(dist, random_allocation(rng, theta, beta))


def off_grid_violation(e: float = 0.01) -> Mechanism:
    """theta = 3, alpha = 2, x = (1, 0), p(1,2) = 1/3, p(1,3) = 1/3 + e, p(2,3) = 1/3 - e.

    Condition 2 fails for every e > 0, but at e = 0.01 every profitable deviation needs a value
    off the integer grid (7.9 against opponents (8, 0) gains 0.12467), so the 0..8 grid oracle
    finds none.
    """
    dist = SelectionDistribution(3, 2, {(1, 2): 1 / 3, (1, 3): 1 / 3 + e, (2, 3): 1 / 3 - e})
    return Mechanism(dist, AllocationRule((1.0, 0.0)))


def settle_reference(mech: Mechanism, s) -> tuple[list[float], list[float]]:
    """``engine.settle`` one live subset at a time: ``settle_round`` ranks and prices each
    subset, and every rank's terms are added in (subset, rank) order.  The numpy pass in
    ``settle`` must give these floats bit for bit."""
    alloc, beta = mech.allocation.x, mech.beta
    X, P = [0.0] * mech.theta, [0.0] * mech.theta
    for subset, prob in mech.selection._live_table[0]:
        order, pay = settle_round([s[q - 1] for q in subset], mech.allocation)
        for r in range(beta):
            k = subset[order[r]] - 1
            X[k] += prob * alloc[r]
            P[k] += prob * pay[r]
    return X, P


def place(mech: Mechanism, others, p: int, s: float) -> tuple[float, float]:
    """Expected ``(X, P)`` of a bidder at first-round position p bidding s in round two.

    ``others`` are the other bidders' bids, descending and the same in both rounds.  Row p of
    ``engine.settle`` on the vector with the bidder inserted at p, and ``(0.0, 0.0)`` below
    position theta: the reference searches price every deviation with it.
    """
    if p > mech.theta:
        return 0.0, 0.0
    X, P = settle(mech, [*others[: p - 1], s, *others[p - 1 : mech.theta - 1]])
    return X[p - 1], P[p - 1]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240601)
