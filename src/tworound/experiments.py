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

Every harness classifies through :func:`_classify_draws`, which draws
through its front half :func:`_ordered_chunks`.  That draws ``_CHUNK_ROWS``
rows at a time with ``rng.random((rows, theta))``, which reads the
generator's stream exactly as one ``(n, theta)`` draw would.  Per chunk it
copies the raw uniforms into contiguous columns, adds them up per row, sorts
the columns ascending with Batcher's odd-even merge sort network of
elementwise minima and maxima (:func:`_sort_network`, built once per theta),
and only then divides by the row sum.  The results are bit-identical to
normalizing first, sorting each row and summing the sorted rows with numpy:

* any sorting network leaves the same doubles in the same order, so which
  network runs does not show in the output;
* both sums, the raw row sum and S = Y_1 + ... + Y_{theta-2} (largest entry
  first), add their terms in the order numpy's row reduction uses
  (:func:`tworound.selection._pairwise_sum` over columns, the same function
  that sums the sampling CDF's weights); adding S from the smallest entry up
  changes last bits from theta = 5 on;
* division by the same positive sum is monotone, so ``sorted(w) / s`` and
  ``sorted(w / s)`` hold the same doubles in the same order;
* with the columns sorted, min(Y_1..Y_{theta-3}) > Y_{theta-1} follows from
  Y_{theta-2} > Y_{theta-1}, so the ordering test reads three columns.

The kernel's memory is allocated once per table, in a :class:`_Workspace`
sized for its largest theta: the column block and the chunk's working
buffers, which every chunk fills in place, and one class buffer of n
doubles.  Each chunk's risky revenues are compressed into that buffer from
the front and its truthful revenues from the back, backwards, so a row keeps
8 bytes per classified draw and the truthful class reads in draw order as a
reversed view.  Those are the doubles a full-batch ``rev[mask]`` would
select, in the same order, so the class maxima and means come out the same
bits (numpy sums a reversed 1-D view in its own order, as it sums a
contiguous copy).  Every row, table 4's included, is built by
:func:`_class_row`; gap and theta rows are built from the kernel's result at
once (:func:`_sweep`), before the next row overwrites the buffer.  The tests
keep the sort-based implementation as the reference and compare bit for bit.

Table 4 classifies a valuation's draws only while its r is at most
1/(theta-2) with a 2**-40 relative margin (:func:`_risky_bound`): every
ordered Y has R = (Y_{theta-1} - Y_theta) / S < 1/(theta-2), so above that
a valuation has no risky and no boundary draw.  Its batch still runs through
the front half, which keeps the generator's stream, and only its ordered
draws, all truthful-class, are counted.
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
from .selection import _as_floats, _as_ints, _pairwise_sum

logger = logging.getLogger(__name__)

DEFAULT_SEED = 20240501

# Rows per Y chunk: large enough to amortise the per-column numpy calls and to
# draw a table-4 valuation (10^4 draws by default) as one chunk, small enough
# that a chunk's working set stays a few MB.
_CHUNK_ROWS = 16_384


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration for the revenue experiments.  The counts, seed and thetas are ints or
    numpy integers of any size; value_max and the valuations are finite numbers, kept as floats."""

    valuations: tuple[tuple[float, float, float], ...] = ()
    thetas: tuple[int, ...] = (3,)
    draws: int = 10_000
    n_valuations: int = 1_000
    value_max: float = 1_000.0
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        for name in ("draws", "n_valuations", "seed"):
            (value,) = _as_ints((getattr(self, name),), ValueError, f"{name} must be an integer")
            object.__setattr__(self, name, value)
        if self.draws < 1:
            raise ValueError("draws must be >= 1")
        if self.n_valuations < 1:
            raise ValueError("n_valuations must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        what = "value_max must be positive and finite"
        (value_max,) = _as_floats((self.value_max,), ValueError, what)
        if not value_max > 0:
            # value_max = 0 would make table 4's tie retry draw (0, 0, 0) forever.
            raise ValueError(f"{what}, got {value_max!r}")
        object.__setattr__(self, "value_max", value_max)
        what = "valuations must be finite positive descending triples"
        vals = tuple(_as_floats(v, ValueError, what) for v in self.valuations)
        for v in vals:
            if len(v) != 3 or v[2] <= 0 or sorted(v, reverse=True) != list(v):
                raise ValueError(f"{what}, got {v}")
        thetas = _as_ints(self.thetas, ValueError, "each of thetas must be an integer")
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


class _Workspace:
    """The buffers of :func:`_classify_draws` for up to ``theta`` columns and ``n`` draws.

    A harness makes one per call and passes it to every row or valuation: per chunk the kernel
    allocates only the generator's block, and one class buffer ``rev`` serves every row (with
    one per row, the tables benchmark's peak RSS alternated between two levels 6 MB apart)."""

    def __init__(self, theta: int, n: int) -> None:
        rows = min(n, _CHUNK_ROWS)
        self.cols, self.rev = np.empty((theta, rows)), np.empty(n)
        self.floats = np.empty((6, rows))  # total, the sort spare, S, A, ratio, a revenue
        self.masks = np.empty((3, rows), dtype=bool)  # ordered, risky, truthful
        self._views: dict[tuple[int, int], tuple] = {}

    def views(self, theta: int, rows: int) -> tuple:
        """The (theta, rows) column block, its rows and every float and mask buffer, ``rows`` long;
        made once per shape, as slicing them per chunk costs 3-7% of a table-4 call."""
        key = theta, rows
        if key not in self._views:
            block = self.cols[:theta, :rows]
            self._views[key] = (block, tuple(block), *self.floats[:, :rows], *self.masks[:, :rows])
        return self._views[key]


def _ordered_chunks(rng: np.random.Generator, theta: int, n: int, ws: _Workspace):
    """Draw ``n`` exclusion vectors in chunks of up to ``_CHUNK_ROWS`` rows and yield per chunk
    (cols, ordered, bufs): the columns sorted ascending (cols[0] holds Y_theta), of which the
    three smallest are divided by the raw row sum ``bufs[0]`` and the others not yet; the mask of
    rows with Y_{theta-2} > Y_{theta-1} > Y_theta; and the chunk's float buffers (total, S, A,
    ratio, a revenue) and risky and truthful masks.  All are views of ``ws``."""
    network = _sort_network(theta)
    for start in range(0, n, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, n - start)
        # One contiguous row of ws.cols per column; the row sums are taken in
        # numpy's order (as w.sum(axis=1) would) before the network sorts the
        # columns ascending.
        block, cols, total, spare, *bufs, ordered, risky, truthful = ws.views(theta, rows)
        np.copyto(block, rng.random((rows, theta)).T)
        cols = list(cols)
        _pairwise_sum(cols, out=total)
        for i, j in network:
            lo, hi = cols[i], cols[j]
            np.minimum(lo, hi, out=spare)
            np.maximum(lo, hi, out=hi)
            cols[i], spare = spare, lo
        for col in cols[:3]:
            np.divide(col, total, out=col)
        np.greater(cols[2], cols[1], out=ordered)
        ordered &= np.greater(cols[1], cols[0], out=risky)
        yield cols, ordered, (total, *bufs, risky, truthful)


def _classify_draws(
    rng: np.random.Generator, theta: int, n: int, v: tuple[float, float, float], ws=None
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
    S * v2 + A * v3 (truthful).  Needs theta >= 3.  The revenues are views of
    the :class:`_Workspace` ``ws`` (a new one if None), valid until its next call.
    """
    v1, v2, v3 = v
    if v2 == v3:
        raise DegenerateRatioError(f"v2 == v3 in {v}: gap ratio undefined")
    r = (v1 - v2) / (v2 - v3)
    if ws is None:
        ws = _Workspace(theta, n)
    # Risky revenues fill rev from the front, truthful ones from the back, backwards.
    rev = ws.rev[:n]
    n_risky = n_truthful = 0
    chunks = _ordered_chunks(rng, theta, n, ws)
    for cols, ordered, (total, S, A, ratio, tmp, risky, truthful) in chunks:
        for col in cols[3:]:
            np.divide(col, total, out=col)
        y_last, y_pen = cols[0], cols[1]
        _pairwise_sum(cols[:1:-1], out=S)
        np.add(y_pen, y_last, out=A)
        np.divide(np.subtract(y_pen, y_last, out=ratio), S, out=ratio)
        A *= v3
        np.greater(ratio, r, out=risky)
        risky &= ordered
        np.less(ratio, r, out=truthful)
        truthful &= ordered
        k = int(np.count_nonzero(risky))
        np.add(np.multiply(S, v1, out=tmp), A, out=tmp)
        np.compress(risky, tmp, out=rev[n_risky : n_risky + k])
        n_risky += k
        k = int(np.count_nonzero(truthful))
        np.add(np.multiply(S, v2, out=tmp), A, out=tmp)
        np.compress(truthful, tmp, out=rev[n - n_truthful - k : n - n_truthful][::-1])
        n_truthful += k
    return rev[:n_risky], rev[n - n_truthful :][::-1], n - n_risky - n_truthful


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


def _sweep(config: ExperimentConfig, cells) -> list[ExperimentRow]:
    """One row per ``(experiment_id, v, theta)`` cell, in order, all drawn from one generator."""
    rng = np.random.default_rng(config.seed)
    ws = _Workspace(max(theta for _, _, theta in cells), config.draws)
    return [
        _class_row(eid, v, theta, *_classify_draws(rng, theta, config.draws, v, ws))
        for eid, v, theta in cells
    ]


def run_gap_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """Sweep valuation triples at fixed theta (default 3)."""
    if not config.valuations:
        raise ValueError("gap experiment needs a list of valuation triples")
    theta = config.thetas[0]
    cells = [(f"gap-{idx}", v, theta) for idx, v in enumerate(config.valuations, start=1)]
    return _sweep(config, cells)


def run_theta_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """Sweep theta at a fixed valuation triple."""
    if len(config.valuations) != 1:
        raise ValueError("theta experiment needs exactly one valuation triple")
    v = config.valuations[0]
    cells = [(f"theta-{idx}", v, theta) for idx, theta in enumerate(config.thetas, start=1)]
    return _sweep(config, cells)


def _risky_bound(theta: int) -> float:
    """A float above the tail-gap ratio R of every ordered Y draw at ``theta``, as the kernel
    computes R: a valuation whose gap ratio r exceeds it has no risky and no boundary draw.

    An ordered draw has S >= (theta-2) Y_{theta-2} > (theta-2) Y_{theta-1}, so R < 1/(theta-2).
    Float R can reach fl(1/(theta-2)) itself: it exceeds the exact ratio of the normalized
    doubles by less than (theta-1) 2**-52 relative.  The margin, 2**-40 (theta 2**-52 above
    theta = 4096), covers that error and the rounding of the bound.
    """
    return (1 + max(2**-40, theta * 2**-52)) / (theta - 2)


def run_random_valuation_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """Random valuations; per valuation record each class's best revenue.

    For every theta, ``n_valuations`` descending triples are drawn uniformly
    from (0, value_max); each gets its own batch of Y draws.  A valuation is
    retained only when both equilibrium classes are non-empty in its batch;
    per retained valuation the maximum revenue within each class is recorded,
    and the row reports the average of those maxima (counts are retained
    valuations).

    No ordered draw is risky once r = (v1-v2)/(v2-v3) reaches 1/(theta-2), so
    a valuation's draws are classified only while r is at most that bound
    with a 2**-40 relative margin for rounding (:func:`_risky_bound`).  Above
    it the valuation is skipped: its batch is still drawn, and its ordered
    draws, all truthful-class, are counted for its discards.
    """
    rng = np.random.default_rng(config.seed)
    ws = _Workspace(max(config.thetas), config.draws)
    rows = []
    for idx, theta in enumerate(config.thetas, start=1):
        bound = _risky_bound(theta)
        risky_best: list[float] = []
        truthful_best: list[float] = []
        skipped = settled = discarded = 0
        for _ in range(config.n_valuations):
            v = tuple(np.sort(rng.uniform(0.0, config.value_max, size=3))[::-1])
            while v[0] == v[1] or v[1] == v[2]:
                v = tuple(np.sort(rng.uniform(0.0, config.value_max, size=3))[::-1])
            if (v[0] - v[1]) / (v[1] - v[2]) > bound:
                chunks = _ordered_chunks(rng, theta, config.draws, ws)
                discarded += config.draws - sum(int(np.count_nonzero(o)) for _, o, _ in chunks)
                skipped += 1
                settled += 1
                continue
            rev_risky, rev_truthful, lost = _classify_draws(rng, theta, config.draws, v, ws)
            discarded += lost
            if not len(rev_risky) or not len(rev_truthful):
                skipped += 1
                continue
            risky_best.append(float(rev_risky.max()))
            truthful_best.append(float(rev_truthful.max()))
        logger.info(
            "random-valuation theta=%d: retained %d/%d valuations"
            " (%d skipped, %d by r >= 1/(theta-2))",
            theta,
            len(risky_best),
            config.n_valuations,
            skipped,
            settled,
        )
        risky, truthful = np.array(risky_best), np.array(truthful_best)
        rows.append(_class_row(f"random-{idx}", (math.nan,) * 3, theta, risky, truthful, discarded))
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
