"""Monte Carlo revenue experiments for the one-winner mode.

Three harnesses sweep the space of admissible exclusion vectors Y and compare
the average revenue of the risky-order equilibrium class against the truthful
class:

* :func:`run_gap_experiment` — fixed theta, several valuation triples with a
  narrowing top gap;
* :func:`run_theta_experiment` — fixed valuations, growing theta;
* :func:`run_random_valuation_experiment` — valuations drawn uniformly at
  random, recording per valuation only the best revenue seen in each class.

A Y draw is theta independent uniform variates normalized to the simplex and
sorted descending; draws that fail the strict ordering constraint, or sit
exactly on the class boundary, are discarded (and counted).  All runs are
deterministic in the seed.

Every harness draws and classifies through :func:`_classify_draws`.  It draws
``_CHUNK_ROWS`` rows at a time with ``rng.random((rows, theta))``, which reads
the generator's stream exactly as one ``(n, theta)`` draw would.  Per chunk it
copies the raw uniforms into contiguous columns, adds them up per row, sorts
the columns ascending with Batcher's odd-even merge sort network of
elementwise minima and maxima (:func:`_sort_network`, built once per theta),
and only then divides by the row sum.  The results are bit-identical to
normalizing first, sorting each row and summing the sorted rows with numpy:

* any sorting network leaves the same doubles in the same order, so which
  network runs does not show in the output;
* both sums, the raw row sum and S = Y_1 + ... + Y_{theta-2} (largest entry
  first), add their terms in the order numpy's row reduction uses
  (:func:`_row_sum`); adding S from the smallest entry up changes last bits
  from theta = 5 on;
* division by the same positive sum is monotone, so ``sorted(w) / s`` and
  ``sorted(w / s)`` hold the same doubles in the same order;
* with the columns sorted, min(Y_1..Y_{theta-3}) > Y_{theta-1} follows from
  Y_{theta-2} > Y_{theta-1}, so the ordering test reads three columns.

Each chunk's revenues are compressed straight into one buffer per class, so
a row keeps only its class revenues, in draw order.  Those are the doubles a
full-batch ``rev[mask]`` would select, in the same order, so the class means
(numpy's pairwise sum over a contiguous array) and maxima come out the same
bits.  The harnesses build each row from the kernel's result at once, which
frees one row's buffers before the next row draws.  The tests keep the
sort-based implementation as the reference and compare bit for bit.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np

from .equilibrium import DegenerateRatioError

logger = logging.getLogger(__name__)

DEFAULT_SEED = 20240501

# Rows per Y chunk: large enough to amortise the per-column numpy calls and to
# draw a table-4 valuation (10^4 draws by default) as one chunk, small enough
# that a chunk's working set stays a few MB.
_CHUNK_ROWS = 16_384


def _require_int(name: str, value) -> int:
    """``value`` as an int; floats, strings and bools are rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration for the revenue experiments."""

    valuations: tuple[tuple[float, float, float], ...] = ()
    thetas: tuple[int, ...] = (3,)
    draws: int = 10_000
    n_valuations: int = 1_000
    value_max: float = 1_000.0
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        for name in ("draws", "n_valuations", "seed"):
            object.__setattr__(self, name, _require_int(name, getattr(self, name)))
        if self.draws < 1:
            raise ValueError("draws must be >= 1")
        if self.n_valuations < 1:
            raise ValueError("n_valuations must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.value_max < math.inf:
            # value_max = 0 would make table 4's tie retry draw (0, 0, 0) forever.
            raise ValueError(f"value_max must be positive and finite, got {self.value_max}")
        vals = tuple(tuple(float(x) for x in v) for v in self.valuations)
        for v in vals:
            finite = all(map(math.isfinite, v))
            if len(v) != 3 or not finite or v[2] <= 0 or sorted(v, reverse=True) != list(v):
                raise ValueError(f"valuations must be finite positive descending triples: {v}")
        thetas = tuple(_require_int("thetas", t) for t in self.thetas)
        if not thetas:
            raise ValueError("thetas must name at least one theta")
        if any(t < 3 for t in thetas):
            raise ValueError(f"thetas must be >= 3 (a top block and two tail entries): {thetas}")
        object.__setattr__(self, "valuations", vals)
        object.__setattr__(self, "thetas", thetas)


@dataclass(frozen=True)
class ExperimentRow:
    experiment_id: str
    v: tuple[float, float, float]
    theta: int
    risky_count: int
    risky_avg_rev: float | None
    truthful_count: int
    truthful_avg_rev: float | None
    # Y draws in neither class (unordered or on the boundary); not written to the CSV.
    discarded: int = 0

    @property
    def increment_pct(self) -> float | None:
        if not self.risky_count or not self.truthful_count:
            return None
        if self.risky_avg_rev is None or self.truthful_avg_rev is None:
            return None
        return 100.0 * (self.risky_avg_rev - self.truthful_avg_rev) / self.truthful_avg_rev


def _row_sum(cols: list[np.ndarray]) -> np.ndarray:
    """Elementwise sum of ``cols`` in numpy's pairwise order for one row.

    ``a.sum(axis=1)`` on a (rows, k) array adds each row's k entries left to
    right when k < 8, and otherwise in eight interleaved partial sums (split
    in halves above 128 entries); repeating that order over whole columns
    gives the same bits.  The tests compare the result with numpy's own sum.
    """
    k = len(cols)
    if k < 8:
        out = cols[0].copy()
        for col in cols[1:]:
            out += col
        return out
    if k > 128:
        half = k // 2 - (k // 2) % 8
        return _row_sum(cols[:half]) + _row_sum(cols[half:])
    stop = k - k % 8
    r = [col.copy() for col in cols[:8]]
    for i in range(8, stop, 8):
        for j in range(8):
            r[j] += cols[i + j]
    out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for col in cols[stop:]:
        out += col
    return out


@functools.cache
def _sort_network(n: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd-even merge sort on ``n`` wires as comparators (i, j), i < j.

    A comparator puts the smaller value on wire i.  This is Knuth's merge
    exchange form (TAOCP vol. 3, 5.2.2, Algorithm M), which handles any n:
    3, 5, 9 and 12 comparators for n = 3..6 and O(n log^2 n) in general.
    """
    out = []
    p = top = (1 << (n - 1).bit_length()) >> 1
    while p:
        q, r, d = top, 0, p
        while d:
            out.extend((i, i + d) for i in range(n - d) if i & p == r)
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return tuple(out)


def _classify_draws(
    rng: np.random.Generator, theta: int, n: int, v: tuple[float, float, float]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Draw ``n`` exclusion vectors Y and classify each against valuations ``v``.

    Returns (rev_risky, rev_truthful, discarded): the revenues of the
    risky-class and the truthful-class draws, each in draw order.  A draw is
    risky-class when the tail-gap ratio (Y_{theta-1} - Y_theta) / S exceeds
    the valuation gap ratio r = (v1-v2)/(v2-v3), truthful-class when it falls
    short; exact boundaries and draws violating the strict ordering
    constraint are discarded.  S = Y_1 + ... + Y_{theta-2} is summed from the
    largest entry down (as numpy sums a descending row), A = Y_{theta-1} +
    Y_theta, and a class's revenue is S * v1 + A * v3 (risky) or
    S * v2 + A * v3 (truthful).  Needs theta >= 3.
    """
    v1, v2, v3 = v
    if v2 == v3:
        raise DegenerateRatioError(f"v2 == v3 in {v}: gap ratio undefined")
    r = (v1 - v2) / (v2 - v3)
    network = _sort_network(theta)
    rev_risky = np.empty(n)
    rev_truthful = np.empty(n)
    n_risky = n_truthful = 0
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        # One contiguous array per column; the row sums are taken in numpy's
        # order (as w.sum(axis=1) would) before the network sorts the columns
        # ascending.
        cols = list(np.ascontiguousarray(rng.random((stop - start, theta)).T))
        total = _row_sum(cols)
        spare = np.empty_like(total)
        for i, j in network:
            lo, hi = cols[i], cols[j]
            np.minimum(lo, hi, out=spare)
            np.maximum(lo, hi, out=hi)
            cols[i], spare = spare, lo
        for col in cols:
            np.divide(col, total, out=col)
        y_last, y_pen = cols[0], cols[1]
        S = _row_sum(cols[:1:-1])
        A = y_pen + y_last
        ratio = (y_pen - y_last) / S
        ordered = (cols[2] > y_pen) & (y_pen > y_last)
        A *= v3
        risky = ratio > r
        risky &= ordered
        truthful = ratio < r
        truthful &= ordered
        k = int(np.count_nonzero(risky))
        np.compress(risky, S * v1 + A, out=rev_risky[n_risky : n_risky + k])
        n_risky += k
        k = int(np.count_nonzero(truthful))
        np.compress(truthful, S * v2 + A, out=rev_truthful[n_truthful : n_truthful + k])
        n_truthful += k
    return rev_risky[:n_risky], rev_truthful[:n_truthful], n - n_risky - n_truthful


def _class_row(
    experiment_id: str,
    v: tuple[float, float, float],
    theta: int,
    rev_risky: np.ndarray,
    rev_truthful: np.ndarray,
    discarded: int,
) -> ExperimentRow:
    if discarded:
        logger.debug(
            "%s: discarded %d draws (ordering constraint or classification boundary)",
            experiment_id,
            discarded,
        )
    return ExperimentRow(
        experiment_id=experiment_id,
        v=v,
        theta=theta,
        risky_count=len(rev_risky),
        risky_avg_rev=float(rev_risky.mean()) if len(rev_risky) else None,
        truthful_count=len(rev_truthful),
        truthful_avg_rev=float(rev_truthful.mean()) if len(rev_truthful) else None,
        discarded=discarded,
    )


def run_gap_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """Sweep valuation triples at fixed theta (default 3)."""
    if not config.valuations:
        raise ValueError("gap experiment needs a list of valuation triples")
    theta = config.thetas[0]
    rng = np.random.default_rng(config.seed)
    return [
        _class_row(f"gap-{idx}", v, theta, *_classify_draws(rng, theta, config.draws, v))
        for idx, v in enumerate(config.valuations, start=1)
    ]


def run_theta_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """Sweep theta at a fixed valuation triple."""
    if len(config.valuations) != 1:
        raise ValueError("theta experiment needs exactly one valuation triple")
    v = config.valuations[0]
    rng = np.random.default_rng(config.seed)
    return [
        _class_row(f"theta-{idx}", v, theta, *_classify_draws(rng, theta, config.draws, v))
        for idx, theta in enumerate(config.thetas, start=1)
    ]


def run_random_valuation_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """Random valuations; per valuation record each class's best revenue.

    For every theta, ``n_valuations`` descending triples are drawn uniformly
    from (0, value_max); each gets its own batch of Y draws.  A valuation is
    retained only when both equilibrium classes are non-empty in its batch;
    per retained valuation the maximum revenue within each class is recorded,
    and the row reports the average of those maxima (counts are retained
    valuations).
    """
    rng = np.random.default_rng(config.seed)
    rows = []
    for idx, theta in enumerate(config.thetas, start=1):
        risky_best: list[float] = []
        truthful_best: list[float] = []
        skipped = discarded = 0
        for _ in range(config.n_valuations):
            v = tuple(np.sort(rng.uniform(0.0, config.value_max, size=3))[::-1])
            while v[0] == v[1] or v[1] == v[2]:
                v = tuple(np.sort(rng.uniform(0.0, config.value_max, size=3))[::-1])
            rev_risky, rev_truthful, lost = _classify_draws(rng, theta, config.draws, v)
            discarded += lost
            if not len(rev_risky) or not len(rev_truthful):
                skipped += 1
                continue
            risky_best.append(float(rev_risky.max()))
            truthful_best.append(float(rev_truthful.max()))
        retained = len(risky_best)
        logger.info(
            "random-valuation theta=%d: retained %d/%d valuations (%d skipped)",
            theta,
            retained,
            config.n_valuations,
            skipped,
        )
        rows.append(
            ExperimentRow(
                experiment_id=f"random-{idx}",
                v=(float("nan"),) * 3,
                theta=theta,
                risky_count=retained,
                risky_avg_rev=float(np.mean(risky_best)) if retained else None,
                truthful_count=retained,
                truthful_avg_rev=float(np.mean(truthful_best)) if retained else None,
                discarded=discarded,
            )
        )
    return rows


CSV_COLUMNS = (
    "experiment_id",
    "v1",
    "v2",
    "v3",
    "theta",
    "risky_count",
    "risky_avg_rev",
    "truthful_count",
    "truthful_avg_rev",
    "increment_pct",
)


def write_rows_csv(rows: Sequence[ExperimentRow], fh: TextIO) -> None:
    """Write the header and one record per row as LF-terminated CSV lines."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(rows_to_record(row))


def rows_to_record(row: ExperimentRow) -> list:
    def fmt(x: float | None) -> str:
        if x is None or (isinstance(x, float) and np.isnan(x)):
            return ""
        return f"{x:.6f}"

    inc = row.increment_pct
    return [
        row.experiment_id,
        fmt(row.v[0]),
        fmt(row.v[1]),
        fmt(row.v[2]),
        row.theta,
        row.risky_count,
        fmt(row.risky_avg_rev),
        row.truthful_count,
        fmt(row.truthful_avg_rev),
        "" if inc is None else f"{inc:.4f}",
    ]
