"""First-round selection: subsets of top positions, joint distributions, marginals.

The first round of the two-round auction keeps the top ``theta`` bidders and
advances an ``alpha``-subset of them chosen at random from a joint distribution
over all C(theta, alpha) position subsets.  This module holds that
distribution, computes marginal advancement probabilities, and provides the
exclusion-indexed view used throughout the alpha = theta - 1 analysis.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from itertools import accumulate, combinations
from operator import iadd
from typing import Iterable, Mapping

import numpy as np

SIMPLEX_ATOL = 1e-12
NORMALIZE_ATOL = 1e-9


class SelectionError(ValueError):
    """Invalid selection distribution or incompatible mode."""


def is_finite_number(v) -> bool:
    """A number (Python or numpy) a float holds finitely: not a bool, NaN, an infinity or too large
    an integer, so ``float(v)`` neither raises nor overflows."""
    if isinstance(v, (float, np.floating)):
        return math.isfinite(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return abs(v) <= sys.float_info.max
    return isinstance(v, np.integer)


def _as_ints(values: Iterable, error: type[ValueError] = SelectionError) -> tuple[int, ...]:
    """``values`` as Python ints, each an int or numpy integer: ``int()`` would truncate a float,
    parse a string and take a bool as 0 or 1."""
    values = tuple(values)
    if bool not in map(type, values):
        try:
            return tuple(map(operator.index, values))
        except TypeError:
            pass
    raise error(f"expected integers, got {values!r}")


def _pairwise_sum(a: list, out: np.ndarray | None = None):
    """numpy's pairwise summation of ``a``, bit for bit: ``np.sum`` of a list of floats as one
    float64 array, or, for a list of equal-length float64 columns, ``sum(axis=1)`` of the array
    that holds them as columns.  Left to right below 8 entries, eight interleaved lanes up to 128,
    halves split at a multiple of 8 above.  It adds into a new float or array, not into ``a``;
    columns may instead be added into ``out``, an array that is none of them (below 8 columns
    without any temporary)."""
    add = operator.add if out is None else partial(np.add, out=out)
    n = len(a)
    if n > 128:
        return add(_pairwise_sum(a[: n // 16 * 8], out), _pairwise_sum(a[n // 16 * 8 :]))
    if n < 8:
        return reduce(iadd, a[2:], add(a[0], a[1])) if n > 1 else add(a[0], 0.0)
    head = n - n % 8
    r = [reduce(iadd, a[j + 16 : head : 8], a[j] + a[j + 8]) for j in range(8)] if head > 8 else a
    return reduce(iadd, a[head:], add((r[0] + r[1]) + (r[2] + r[3]), (r[4] + r[5]) + (r[6] + r[7])))


def enumerate_subsets(theta: int, alpha: int) -> list[tuple[int, ...]]:
    """All size-``alpha`` subsets of positions {1..theta}, lexicographic.

    Each subset is an ascending tuple of 1-based first-round positions.
    """
    if theta < 1 or alpha < 1 or alpha > theta:
        raise SelectionError(f"need 1 <= alpha <= theta, got theta={theta} alpha={alpha}")
    if theta > 20:
        raise SelectionError(f"theta={theta} exceeds supported maximum 20")
    return list(combinations(range(1, theta + 1), alpha))


@dataclass(frozen=True)
class SelectionDistribution:
    """Joint probability over the alpha-subsets of the top theta positions.

    ``probs`` maps each canonical (ascending-tuple) subset to its probability.
    Probabilities must cover every subset and sum to 1; sums within 1e-9 of 1
    are renormalized on construction, anything further off is rejected.
    """

    theta: int
    alpha: int
    probs: dict[tuple[int, ...], float] = field(compare=False)

    def __post_init__(self) -> None:
        subsets = enumerate_subsets(self.theta, self.alpha)
        canonical: dict[tuple[int, ...], float] = {}
        for key, p in self.probs.items():
            tkey = tuple(sorted(_as_ints(key)))
            if tkey in canonical:
                raise SelectionError(f"duplicate subset {tkey}")
            if not is_finite_number(p):
                raise SelectionError(f"subset probabilities must be finite, got {p!r}")
            canonical[tkey] = float(p)
        valid = set(subsets)
        missing = [s for s in subsets if s not in canonical]
        extra = [s for s in canonical if s not in valid]
        if missing or extra:
            raise SelectionError(
                f"subset keys do not match C({self.theta},{self.alpha}): "
                f"missing={missing[:3]} extra={extra[:3]}"
            )
        if any(p < -SIMPLEX_ATOL for p in canonical.values()):
            raise SelectionError("negative subset probability")
        total = sum(canonical.values())
        if abs(total - 1.0) > NORMALIZE_ATOL:
            raise SelectionError(f"subset probabilities sum to {total!r}, not 1")
        if total != 1.0:
            canonical = {k: p / total for k, p in canonical.items()}
        # Keep canonical lexicographic ordering regardless of input order.
        object.__setattr__(self, "probs", {s: max(canonical[s], 0.0) for s in subsets})

    @classmethod
    def uniform(cls, theta: int, alpha: int) -> "SelectionDistribution":
        subsets = enumerate_subsets(theta, alpha)
        p = 1.0 / len(subsets)
        return cls(theta, alpha, {s: p for s in subsets})

    @classmethod
    def point_mass(cls, theta: int, subset: Iterable[int]) -> "SelectionDistribution":
        key = tuple(sorted(_as_ints(subset)))
        subsets = enumerate_subsets(theta, len(key))
        return cls(theta, len(key), {s: (1.0 if s == key else 0.0) for s in subsets})

    def subsets(self) -> list[tuple[int, ...]]:
        return list(self.probs.keys())

    @cached_property
    def _live_table(self) -> tuple[list, tuple, tuple, list[float]]:
        """The live (nonzero-probability) subsets that every settlement, marginal and draw reads,
        built in Python on first use: ``(subset, p)`` pairs in lexicographic order, the subsets
        and the probabilities, and the sampling CDF.  That divides by ``np.sum`` of all C weights:
        zero weights add exact zeros to a cumulative sum, so it is ``Generator.choice``'s CDF at
        the live indices.  Only ``engine.settle`` reads numpy arrays, :attr:`_live_arrays`."""
        pairs = [(s, p) for s, p in self.probs.items() if p != 0.0]
        subsets, prob = zip(*pairs)
        total = _pairwise_sum(list(self.probs.values()))
        cdf = list(accumulate(p / total for p in prob))
        return pairs, subsets, prob, [c / cdf[-1] for c in cdf]

    @cached_property
    def _live_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The live subsets as a (C, alpha) array of 0-based positions, and their probabilities."""
        return np.array(self._live_table[1], np.intp) - 1, np.array(self._live_table[2])

    def to_json_dict(self) -> dict:
        return {
            "theta": self.theta,
            "alpha": self.alpha,
            "probs": [{"subset": list(s), "p": p} for s, p in self.probs.items()],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "SelectionDistribution":
        try:
            theta, alpha = doc["theta"], doc["alpha"]
            entries = [(tuple(entry["subset"]), entry["p"]) for entry in doc["probs"]]
            probs = dict(entries)
        except (KeyError, TypeError) as exc:
            raise SelectionError(f"malformed selection distribution document: {exc}") from exc
        integers = (theta, alpha, *(i for key in probs for i in key))
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in integers):
            raise SelectionError("theta, alpha and subset entries must be integers")
        if len(probs) < len(entries):
            # The dict kept only the last of two equal keys; name the key as __post_init__ would.
            dup = next(key for key, count in Counter(key for key, _ in entries).items() if count > 1)
            raise SelectionError(f"duplicate subset {tuple(sorted(dup))}")
        if not all(map(is_finite_number, probs.values())):
            raise SelectionError("subset probabilities must be finite numbers")
        return cls(theta, alpha, probs)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def marginal_probabilities(dist: SelectionDistribution) -> np.ndarray:
    """Marginal advancement probability per first-round position.

    y[i-1] = P(position i advances) = sum of subset probabilities over the live subsets
    containing i, added subset by subset in lexicographic order.  The marginals always satisfy
    sum(y) == alpha.
    """
    y = [0.0] * dist.theta
    for subset, p in dist._live_table[0]:
        for i in subset:
            y[i - 1] += p
    return np.array(y)


@dataclass(frozen=True)
class ExclusionY:
    """Exclusion-indexed view of an alpha = theta - 1 selection distribution.

    With exactly one position left out per draw, the distribution is a vector
    over "which position is excluded".  Entry Y_{theta-i+1} (1-based) is the
    probability of the unique subset that excludes position i, so y_vec read
    left to right runs from "exclude the bottom position" to "exclude the top".
    """

    y_vec: tuple[float, ...]

    def __post_init__(self) -> None:
        vec = tuple(self.y_vec)
        if not all(map(is_finite_number, vec)):
            raise SelectionError(f"exclusion probabilities must be finite: {vec}")
        vec = tuple(map(float, vec))
        if any(v < -SIMPLEX_ATOL for v in vec):
            raise SelectionError("negative exclusion probability")
        if abs(sum(vec) - 1.0) > NORMALIZE_ATOL:
            raise SelectionError(f"exclusion probabilities sum to {sum(vec)!r}, not 1")
        object.__setattr__(self, "y_vec", vec)

    @property
    def theta(self) -> int:
        return len(self.y_vec)

    def __getitem__(self, index: int) -> float:
        """1-based access matching the Y_i subscript convention."""
        if not 1 <= index <= self.theta:
            raise IndexError(index)
        return self.y_vec[index - 1]

    @property
    def ordered(self) -> bool:
        """True iff Y_i > Y_{theta-1} > Y_theta for every i <= theta - 2."""
        t = self.theta
        if t < 2:
            return False
        y_pen, y_last = self.y_vec[t - 2], self.y_vec[t - 1]
        if not y_pen > y_last:
            return False
        return all(self.y_vec[i] > y_pen for i in range(t - 2))


def from_exclusion_Y(y: ExclusionY) -> SelectionDistribution:
    """The alpha = theta - 1 distribution of an exclusion vector.

    Its ``probs``, in lexicographic order, exclude positions theta, ..., 1, so they list ``y_vec``,
    to the bit unless :class:`SelectionDistribution` renormalizes a sum that is not exactly 1.
    """
    subsets = enumerate_subsets(y.theta, y.theta - 1)[::-1]  # excluding 1 first, as __post_init__ sums
    return SelectionDistribution(y.theta, y.theta - 1, dict(zip(subsets, y.y_vec[::-1])))


def sample_subset(dist: SelectionDistribution, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw one advancing subset according to the joint distribution, in O(log C).

    One ``rng.random()`` and a right bisection of the cached CDF over the live subsets: the draw
    and the generator's stream position are those of ``rng.choice(C, p=...)`` with the normalized
    weights, which never lands on a zero-probability subset.
    """
    pairs, _, _, cdf = dist._live_table
    return pairs[bisect_right(cdf, rng.random())][0]
