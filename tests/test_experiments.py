import csv
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from tworound import experiments
from tworound.cli import main
from tworound.equilibrium import DegenerateRatioError, n11_classify, n11_revenue
from tworound.experiments import (
    CSV_COLUMNS,
    DEFAULT_SEED,
    ExperimentConfig,
    ExperimentRow,
    _CHUNK_ROWS,
    _Workspace,
    _classify_draws,
    _sort_network,
    run_gap_experiment,
    run_random_valuation_experiment,
    run_theta_experiment,
    rows_to_record,
    write_rows_csv,
)
from tworound.selection import ExclusionY

GAP_VALUATIONS = (
    (450.0, 350.0, 200.0),
    (450.0, 400.0, 200.0),
    (450.0, 425.0, 200.0),
    (450.0, 440.0, 200.0),
)


class TestConfig:
    def test_rejects_unordered_valuations(self):
        with pytest.raises(ValueError):
            ExperimentConfig(valuations=((350, 450, 200),))

    def test_rejects_nonpositive_floor(self):
        with pytest.raises(ValueError):
            ExperimentConfig(valuations=((450, 350, 0),))

    @pytest.mark.parametrize("top", [float("nan"), float("inf")])
    def test_rejects_non_finite_valuations(self, top):
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig(valuations=((top, 350, 200),))

    def test_rejects_empty_thetas(self):
        with pytest.raises(ValueError, match="thetas"):
            ExperimentConfig(thetas=())

    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError):
            ExperimentConfig(draws=0)

    @pytest.mark.parametrize(
        "field",
        [
            {"n_valuations": 0},
            {"value_max": 0.0},
            {"value_max": float("inf")},
            {"value_max": 10**400},
            {"value_max": True},
            {"value_max": "1000"},
            {"value_max": None},
            {"valuations": ((10**400, 350, 200),)},
            {"valuations": ((450, "350", 200),)},
        ],
    )
    def test_rejects_empty_or_degenerate_valuation_draws(self, field):
        with pytest.raises(ValueError):
            ExperimentConfig(**field)

    def test_value_max_is_stored_as_a_float(self):
        config = ExperimentConfig(value_max=np.int64(500))
        assert type(config.value_max) is float and config.value_max == 500.0

    @pytest.mark.parametrize(
        "field",
        [
            {"draws": 2.5},
            {"draws": True},
            {"draws": "10"},
            {"n_valuations": 3.7},
            {"n_valuations": True},
            {"thetas": (3, 4.5)},
            {"thetas": (True,)},
            {"seed": 2.5},
            {"seed": True},
        ],
    )
    def test_rejects_non_integer_counts(self, field):
        with pytest.raises(ValueError, match="must be an integer"):
            ExperimentConfig(valuations=((450, 400, 200),), **field)

    def test_accepts_numpy_integers(self):
        config = ExperimentConfig(
            draws=np.int64(5), n_valuations=np.int32(2), thetas=(np.int64(4),), seed=np.uint64(7)
        )
        assert (config.draws, config.n_valuations, config.thetas, config.seed) == (5, 2, (4,), 7)
        fields = (config.draws, config.n_valuations, config.thetas[0], config.seed)
        assert {type(x) for x in fields} == {int}

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ExperimentConfig(seed=-1)

    def test_rejects_theta_below_three(self):
        with pytest.raises(ValueError, match="thetas must be >= 3"):
            ExperimentConfig(valuations=((450, 400, 200),), thetas=(3, 2))


def _draw_sorted_Y(rng: np.random.Generator, theta: int, n: int) -> np.ndarray:
    """Reference: n simplex draws (normalized independent uniforms), sorted descending."""
    w = rng.random((n, theta))
    Y = w / w.sum(axis=1, keepdims=True)
    Y.sort(axis=1)
    return Y[:, ::-1]


def _classify_batch(Y: np.ndarray, v: tuple[float, float, float]):
    """Reference classification of sorted Y rows, one numpy expression per quantity."""
    v1, v2, v3 = v
    theta = Y.shape[1]
    ordered = (Y[:, theta - 3] > Y[:, theta - 2]) & (Y[:, theta - 2] > Y[:, theta - 1])
    if theta > 3:
        ordered &= Y[:, : theta - 3].min(axis=1) > Y[:, theta - 2]
    S = Y[:, : theta - 2].sum(axis=1)
    A = Y[:, theta - 2] + Y[:, theta - 1]
    ratio = (Y[:, theta - 2] - Y[:, theta - 1]) / S
    r = (v1 - v2) / (v2 - v3)
    risky = ordered & (ratio > r)
    truthful = ordered & (ratio < r)
    discarded = int(Y.shape[0] - risky.sum() - truthful.sum())
    revenues = (S * v1 + A * v3, S * v2 + A * v3)
    return risky, truthful, revenues, discarded


class TestDrawSortedY:
    def test_rows_are_descending_simplex_points(self, rng):
        Y = _draw_sorted_Y(rng, 4, 500)
        assert Y.shape == (500, 4)
        assert np.allclose(Y.sum(axis=1), 1.0)
        assert (np.diff(Y, axis=1) <= 0).all()
        assert (Y >= 0).all()


def _class_arrays(risky, truthful, revenues, discarded):
    """The reference result in the kernel's form: each class's revenues in draw order."""
    rev_risky, rev_truthful = revenues
    return rev_risky[risky], rev_truthful[truthful], discarded


def _assert_same_classes(got, want):
    for got_rev, want_rev in zip(got[:2], want[:2]):
        assert got_rev.dtype == want_rev.dtype == np.float64
        np.testing.assert_array_equal(got_rev.view(np.int64), want_rev.view(np.int64))
    assert got[2] == want[2]


class TestClassifyDraws:
    # theta 10 and 11 sum S with numpy's eight-way pairwise order; n spans
    # partial chunks, one chunk ± 1 row and several chunks.
    @pytest.mark.parametrize("theta", [3, 4, 5, 6, 7, 8, 10, 11])
    @pytest.mark.parametrize("n", [1, 3, 8191, 8193, _CHUNK_ROWS - 1, _CHUNK_ROWS + 1, 100_000])
    @pytest.mark.parametrize("v", [(450.0, 350.0, 200.0), (812.5, 301.25, 17.0)])
    def test_bit_identical_to_reference(self, theta, n, v):
        seed = 1000 * theta + n
        want = _classify_batch(_draw_sorted_Y(np.random.default_rng(seed), theta, n), v)
        got = _classify_draws(np.random.default_rng(seed), theta, n, v)
        _assert_same_classes(got, _class_arrays(*want))

    def test_bit_identical_beyond_128_summands(self):
        # numpy splits a row sum of more than 128 entries in halves (twice at
        # 300); at r = 2e-5 both classes are populated, at r = 1 only the
        # truthful one.
        for theta in (131, 140, 300):
            for v in ((9.0, 5.0, 1.0), (3.00004, 3.0, 1.0)):
                want = _classify_batch(_draw_sorted_Y(np.random.default_rng(4), theta, 200), v)
                got = _classify_draws(np.random.default_rng(4), theta, 200, v)
                _assert_same_classes(got, _class_arrays(*want))

    @pytest.mark.parametrize("n", [1, 3, 8191, 8193, _CHUNK_ROWS - 1, _CHUNK_ROWS + 1, 100_000])
    def test_a_dirty_workspace_gives_the_bits_of_a_fresh_one(self, n):
        # One workspace for theta <= 6 serves calls of other thetas and valuations in turn;
        # each call after the first starts from the buffers the previous one left.
        ws = _Workspace(6, n)
        wide, narrow = (812.5, 301.25, 17.0), (450.0, 440.0, 200.0)
        calls = [(6, wide), (4, narrow), (6, narrow), (3, wide), (5, wide)]
        for seed, (theta, v) in enumerate(calls):
            fresh = _classify_draws(np.random.default_rng(seed), theta, n, v)
            got = _classify_draws(np.random.default_rng(seed), theta, n, v, ws)
            _assert_same_classes(got, fresh)
            Y = _draw_sorted_Y(np.random.default_rng(seed), theta, n)
            _assert_same_classes(got, _class_arrays(*_classify_batch(Y, v)))
            # The truthful class is a reversed view; its mean has the bits of its copy's.
            for rev in got[:2]:
                if len(rev):
                    assert rev.mean() == np.ascontiguousarray(rev).mean()

    @pytest.mark.parametrize("theta", [3, 4, 6])
    def test_bit_identical_to_reference_with_ties(self, theta):
        # Four uniform values: many rows tie, at the top and at the bottom alike.
        v = (450.0, 350.0, 200.0)
        Y = _draw_sorted_Y(CoarseGenerator(theta), theta, 3000)
        assert (Y[:, -2] == Y[:, -1]).any()
        got = _classify_draws(CoarseGenerator(theta), theta, 3000, v)
        _assert_same_classes(got, _class_arrays(*_classify_batch(Y, v)))

    def test_reads_the_stream_like_one_draw(self):
        rng = np.random.default_rng(9)
        _classify_draws(rng, 5, 2 * _CHUNK_ROWS + 7, (450.0, 350.0, 200.0))
        ref = np.random.default_rng(9)
        ref.random((2 * _CHUNK_ROWS + 7, 5))
        assert rng.random() == ref.random()


class TestSortNetwork:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_sorts_every_zero_one_input(self, n):
        # 0-1 principle: a comparator network that sorts all 2^n zero-one
        # inputs sorts every input.
        cols = list(((np.arange(2**n)[:, None] >> np.arange(n)) & 1).T)
        for i, j in _sort_network(n):
            assert 0 <= i < j < n
            cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
        assert (np.diff(np.stack(cols), axis=0) >= 0).all()

    @pytest.mark.parametrize("n, size", [(2, 1), (3, 3), (4, 5), (5, 9), (6, 12), (8, 19), (16, 63)])
    def test_comparator_counts(self, n, size):
        assert len(_sort_network(n)) == size


class TestClassifyBatch:
    def test_matches_pointwise_classification(self):
        v = (450.0, 350.0, 200.0)
        Y = _draw_sorted_Y(np.random.default_rng(12345), 3, 300)
        rev_r, rev_t, discarded = _classify_draws(np.random.default_rng(12345), 3, 300, v)
        want = {"risky": [], "truthful": []}
        for i in range(300):
            row = tuple(Y[i])
            if not (row[0] > row[1] > row[2]):
                continue
            c = n11_classify(*v, ExclusionY(row))
            if c.indeterminate:
                continue
            kind = "risky" if c.risky_ne else "truthful"
            want[kind].append(n11_revenue(kind, *v, ExclusionY(row)))
        assert len(rev_r) == len(want["risky"]) > 0
        assert len(rev_t) == len(want["truthful"]) > 0
        assert discarded == 300 - len(rev_r) - len(rev_t)
        assert list(rev_r) == pytest.approx(want["risky"])
        assert list(rev_t) == pytest.approx(want["truthful"])

    def test_degenerate_valuations_rejected(self, rng):
        with pytest.raises(DegenerateRatioError):
            _classify_draws(rng, 3, 10, (450.0, 200.0, 200.0))


# SHA-256 of `reproduce` stdout, recorded with the sort-based classifier the
# kernel replaced (the reference functions above).
GOLDEN_REPRODUCE = {
    ("0", "2"): "ee8271fdb25a642b62d73947f4a1424325c553c19aa7829d70f6e971ae4e0f3f",
    ("0", "3"): "a5fa30c81d3bb36a71deaea36c0ea0fa67c0034eaf1dff7cb974c3b358534371",
    ("0", "4"): "648c8ca0a69218d398b16442028a737ad02fd8c3b0ca28b70a05bbd89d09cdd9",
    ("7", "2"): "80fc6ea48f54222418b641f5c6de2e2ef270ca7d12dcb852d735e9f9a31d9879",
    ("7", "3"): "e0da27b3323fe96e4b808d61868f039b133a5494feff5a265f54ba22f82c2282",
    ("7", "4"): "1bd6e301da9c5e8b03430c02e61a2324b4dadbc8e44a668cb1779680622c170c",
}


@pytest.mark.parametrize("seed, table", sorted(GOLDEN_REPRODUCE))
def test_reproduce_output_is_pinned(seed, table, capsys):
    sizes = ["--n-valuations", "20", "--draws", "2000"] if table == "4" else ["--draws", "20000"]
    assert main(["reproduce", "--table", table, *sizes, "--seed", seed]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_REPRODUCE[seed, table]


@pytest.fixture(scope="module")
def gap_rows():
    config = ExperimentConfig(valuations=GAP_VALUATIONS, thetas=(3,))
    return run_gap_experiment(config)


@pytest.fixture(scope="module")
def theta_rows():
    config = ExperimentConfig(valuations=((450.0, 400.0, 200.0),), thetas=(3, 4, 5, 6))
    return run_theta_experiment(config)


class TestGapExperiment:

    def test_reference_row_levels(self, gap_rows):
        rows = gap_rows
        # Narrow-gap triple: risky class earns ~17% more on average.
        first = rows[0]
        assert first.risky_avg_rev == pytest.approx(325.49, rel=0.03)
        assert first.truthful_avg_rev == pytest.approx(279.04, rel=0.03)
        assert first.increment_pct > 0

    def test_increment_flips_sign_as_gap_narrows(self, gap_rows):
        rows = gap_rows
        assert rows[0].increment_pct > 0
        assert rows[-1].increment_pct < 0
        # The advantage of the risky class shrinks monotonically in v2.
        increments = [r.increment_pct for r in rows]
        assert increments == sorted(increments, reverse=True)

    def test_counts_cover_all_draws(self, gap_rows):
        rows = gap_rows
        for row in rows:
            assert 0 < row.risky_count + row.truthful_count <= 10_000

    def test_deterministic_in_seed(self):
        config = ExperimentConfig(valuations=GAP_VALUATIONS[:1], thetas=(3,), draws=2000)
        assert run_gap_experiment(config) == run_gap_experiment(config)

    def test_requires_valuations(self):
        with pytest.raises(ValueError):
            run_gap_experiment(ExperimentConfig(thetas=(3,)))


def test_gap_experiment_keeps_only_the_class_revenues():
    # Per draw, one double in the class buffer that every row reuses (risky
    # revenues from the front, truthful ones from the back), plus the chunk
    # workspace (theta columns, six float and three bool buffers) and the
    # generator's (rows, theta) block: no full-length masks or revenue arrays.
    draws, theta = 1_000_000, 3
    config = ExperimentConfig(valuations=GAP_VALUATIONS, thetas=(theta,), draws=draws)
    # Warm up first, so that imports made on a first call are not counted.
    run_gap_experiment(ExperimentConfig(valuations=GAP_VALUATIONS, thetas=(theta,), draws=10))
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        run_gap_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk = _CHUNK_ROWS * (8 * (theta + 6) + 3 + 8 * theta)
    assert peak - base < 8 * draws + chunk + 64 * 2**10


class TestThetaExperiment:

    def test_risky_class_vanishes_at_the_bound(self, theta_rows):
        rows = theta_rows
        # (450-400)/(400-200) = 0.25 = 1/(6-2): no strictly ordered exclusion
        # vector reaches that tail-gap ratio, so theta=6 has no risky draws.
        last = rows[-1]
        assert last.theta == 6
        assert last.risky_count == 0
        assert last.risky_avg_rev is None
        assert last.increment_pct is None
        assert last.truthful_avg_rev == pytest.approx(372.98, rel=0.03)

    def test_risky_count_decreases_with_theta(self, theta_rows):
        rows = theta_rows
        counts = [r.risky_count for r in rows]
        assert counts == sorted(counts, reverse=True)

    def test_truthful_average_grows_with_theta(self, theta_rows):
        rows = theta_rows
        avgs = [r.truthful_avg_rev for r in rows]
        assert avgs == sorted(avgs)

    def test_single_triple_enforced(self):
        with pytest.raises(ValueError):
            run_theta_experiment(
                ExperimentConfig(valuations=GAP_VALUATIONS[:2], thetas=(3,))
            )


class TestRandomValuationExperiment:
    def test_buffers_do_not_grow_with_n_valuations(self, monkeypatch):
        # Keep every class array the kernel returns alive: buffers allocated per
        # valuation would then all stay traced; the one workspace stays one.
        kept = []

        def keep(*args):
            kept.append(_classify_draws(*args))
            return kept[-1]

        monkeypatch.setattr(experiments, "_classify_draws", keep)
        traced = []
        for n_valuations in (1, 4, 40):
            kept.clear()
            config = ExperimentConfig(thetas=(3, 4), draws=2_000, n_valuations=n_valuations)
            tracemalloc.start()
            try:
                run_random_valuation_experiment(config)
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
            numpy_domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
            traces = snapshot.filter_traces([numpy_domain]).traces
            traced.append((len(traces), sum(t.size for t in traces)))
        # The first run is a warm-up: it may trace a one-time allocation.
        assert traced[1] == traced[2] == (1, 8 * config.draws)

    def test_structure_of_small_run(self):
        config = ExperimentConfig(thetas=(3, 4), draws=300, n_valuations=40)
        rows = run_random_valuation_experiment(config)
        assert [r.experiment_id for r in rows] == ["random-1", "random-2"]
        for row in rows:
            assert row.risky_count == row.truthful_count
            assert 0 < row.risky_count <= 40
            # Per-valuation maxima: the risky best beats the truthful best
            # whenever retained, so the averages keep that order.
            assert row.risky_avg_rev > row.truthful_avg_rev

    def test_deterministic_in_seed(self):
        # NaN placeholder valuations defeat dataclass equality; compare the
        # rendered records instead.
        config = ExperimentConfig(thetas=(3,), draws=200, n_valuations=25)
        first = [rows_to_record(r) for r in run_random_valuation_experiment(config)]
        second = [rows_to_record(r) for r in run_random_valuation_experiment(config)]
        assert first == second


_default_rng = np.random.default_rng


class CoarseGenerator:
    """A generator whose uniforms take four values, so many Y draws tie and are discarded."""

    def __init__(self, seed):
        self._rng = _default_rng(seed)

    def random(self, size):
        return self._rng.integers(1, 5, size=size) / 4

    def uniform(self, low, high, size):
        return self._rng.uniform(low, high, size=size)


class TestDiscarded:
    @pytest.fixture(autouse=True)
    def coarse(self, monkeypatch):
        monkeypatch.setattr(experiments.np.random, "default_rng", CoarseGenerator)

    def test_gap_and_theta_rows_count_the_draws_of_neither_class(self):
        config = ExperimentConfig(valuations=GAP_VALUATIONS, thetas=(3,), draws=2000)
        rows = run_gap_experiment(config)
        config = ExperimentConfig(valuations=GAP_VALUATIONS[:1], thetas=(3, 4, 5), draws=2000)
        rows += run_theta_experiment(config)
        for row in rows:
            assert row.discarded == config.draws - row.risky_count - row.truthful_count
        assert all(row.discarded > 0 for row in rows)

    def test_table4_rows_sum_the_discards_of_every_valuation(self):
        config = ExperimentConfig(thetas=(3, 4), draws=50, n_valuations=30)
        rows = run_random_valuation_experiment(config)
        rng = CoarseGenerator(config.seed)
        for row in rows:
            total = 0
            for _ in range(config.n_valuations):
                v = tuple(np.sort(rng.uniform(0.0, config.value_max, size=3))[::-1])
                while v[0] == v[1] or v[1] == v[2]:
                    v = tuple(np.sort(rng.uniform(0.0, config.value_max, size=3))[::-1])
                total += _classify_draws(rng, row.theta, config.draws, v)[2]
            assert row.discarded == total > 0


class TestCsv:
    def test_columns_and_blank_cells(self, tmp_path):
        row = ExperimentRow(
            experiment_id="theta-4",
            v=(450.0, 400.0, 200.0),
            theta=6,
            risky_count=0,
            risky_avg_rev=None,
            truthful_count=812,
            truthful_avg_rev=372.5,
        )
        record = rows_to_record(row)
        assert record[0] == "theta-4"
        assert record[6] == ""  # no risky average
        assert record[9] == ""  # no increment
        path = tmp_path / "rows.csv"
        with open(path, "w", newline="") as fh:
            write_rows_csv([row], fh)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            body = next(reader)
        assert tuple(header) == CSV_COLUMNS
        assert body[0] == "theta-4"
        assert body[5] == "0"

    def test_nan_valuations_render_blank(self):
        row = ExperimentRow("random-1", (float("nan"),) * 3, 3, 5, 300.0, 5, 290.0)
        record = rows_to_record(row)
        assert record[1] == record[2] == record[3] == ""
        assert record[9] != ""


def _threshold(theta):
    """1/(theta-2) widened by the 2**-40 relative margin table 4 skips valuations above."""
    return (1 + 2**-40) / (theta - 2)


def _triple_with_ratio(r):
    """A descending positive triple whose (v1 - v2) / (v2 - v3) is the float ``r`` exactly."""
    for i in range(1, 400):
        v3, v2 = 1.0, 1.0 + i / 7
        v1 = v2 + r * (v2 - v3)
        for _ in range(4):
            got = (v1 - v2) / (v2 - v3)
            if got == r:
                return v1, v2, v3
            v1 = math.nextafter(v1, math.inf if got < r else 0.0)
    raise AssertionError(f"no triple with gap ratio {r!r}")


def _edge_ratios(theta):
    """One ulp below the threshold, the threshold, and one ulp above it."""
    t = _threshold(theta)
    return math.nextafter(t, 0.0), t, math.nextafter(t, math.inf)


def _near_bound_block(theta):
    """Ordered-looking rows near R = 1/(theta-2): equal head entries, then (y, ~0), y a few
    ulps below the head, so the tail gap is nearly as large as a head entry."""
    rows = []
    for a in (0.5, 0.6, 0.625, 0.7, 0.75, 0.8, 0.875, 0.9, 1.0):
        y = a
        for _ in range(16):
            y = math.nextafter(y, 0.0)
            rows += [[a] * (theta - 2) + [y, tiny] for tiny in (0.0, 1e-300)]
    return np.array(rows)


class ScriptedGenerator:
    """Returns one hand-built block for every ``random`` call."""

    def __init__(self, block):
        self._block = block

    def random(self, size):
        assert size == self._block.shape
        return self._block.copy()


class TestRiskyBound:
    @pytest.mark.parametrize("theta", range(3, 9))
    def test_no_draw_is_risky_or_on_the_boundary_above_the_threshold(self, theta):
        block = _near_bound_block(theta)
        Y = _draw_sorted_Y(ScriptedGenerator(block), theta, len(block))
        head, pen, last = Y[:, theta - 3], Y[:, theta - 2], Y[:, theta - 1]
        ordered = (head > pen) & (pen > last)
        R = ((pen - last) / Y[:, : theta - 2].sum(axis=1))[ordered]
        # Float R comes within one ulp of fl(1/(theta-2)) (reaches it at theta 5 and 8): at r
        # equal to that, such a draw would be on the boundary or risky, hence the margin.
        assert len(R) > 0
        assert R.max() >= math.nextafter(1 / (theta - 2), 0.0)
        assert R.max() < _threshold(theta)
        if R.max() == 1 / (theta - 2):
            # At r = fl(1/(theta-2)) that draw is a boundary draw, discarded though ordered.
            v = _triple_with_ratio(1 / (theta - 2))
            lost = _classify_draws(ScriptedGenerator(block), theta, len(block), v)[2]
            assert lost > len(block) - int(ordered.sum())
        r = _edge_ratios(theta)[2]
        v = _triple_with_ratio(r)
        assert (v[0] - v[1]) / (v[1] - v[2]) == r > _threshold(theta)
        rev_risky, rev_truthful, discarded = _classify_draws(
            ScriptedGenerator(block), theta, len(block), v
        )
        assert len(rev_risky) == 0
        assert len(rev_truthful) == int(ordered.sum())
        assert discarded == len(block) - int(ordered.sum())

    def test_risky_bound_is_the_threshold_up_to_theta_4096(self):
        for theta in (3, 4, 5, 8, 100, 4096):
            assert experiments._risky_bound(theta) == _threshold(theta)
        assert experiments._risky_bound(8192) > _threshold(8192)

    def test_log_counts_the_valuations_settled_by_the_bound(self, caplog):
        config = ExperimentConfig(thetas=(3, 4, 5, 6), draws=200, n_valuations=60, seed=3)
        with caplog.at_level("INFO", logger="tworound.experiments"):
            run_random_valuation_experiment(config)
        settled = (re.search(r"(\d+) by r >= ", rec.getMessage()) for rec in caplog.records)
        logged = [int(m.group(1)) for m in settled if m]
        rng = np.random.default_rng(config.seed)
        want = []
        for theta in config.thetas:
            over = 0
            for _ in range(config.n_valuations):
                v = tuple(np.sort(rng.uniform(0.0, config.value_max, size=3))[::-1])
                while v[0] == v[1] or v[1] == v[2]:
                    v = tuple(np.sort(rng.uniform(0.0, config.value_max, size=3))[::-1])
                over += (v[0] - v[1]) / (v[1] - v[2]) > _threshold(theta)
                rng.random((config.draws, theta))
            want.append(over)
        assert logged == want
        assert all(want) and all(n < config.n_valuations for n in want)


class PlantedGenerator:
    """Wraps ``base``; every other ``uniform`` call returns the next of ``triples`` instead."""

    def __init__(self, base, triples):
        self._base, self._triples, self._calls = base, triples, 0

    def random(self, size):
        return self._base.random(size)

    def uniform(self, low, high, size):
        self._calls += 1
        if self._calls % 2:
            return self._base.uniform(low, high, size=size)
        return np.array(self._triples[self._calls // 2 % len(self._triples)])


def _reference_table4(config, rng):
    """Table 4 with every valuation classified by the full kernel, and each valuation's r."""
    rows, ratios = [], []
    for idx, theta in enumerate(config.thetas, start=1):
        risky, truthful, discarded = [], [], 0
        for _ in range(config.n_valuations):
            v = tuple(np.sort(rng.uniform(0.0, config.value_max, size=3))[::-1])
            while v[0] == v[1] or v[1] == v[2]:
                v = tuple(np.sort(rng.uniform(0.0, config.value_max, size=3))[::-1])
            ratios.append((theta, (v[0] - v[1]) / (v[1] - v[2])))
            rev_risky, rev_truthful, lost = _classify_draws(rng, theta, config.draws, v)
            discarded += lost
            if len(rev_risky) and len(rev_truthful):
                risky.append(float(rev_risky.max()))
                truthful.append(float(rev_truthful.max()))
        rows.append(
            (f"random-{idx}", theta, len(risky), float(np.array(risky).mean()) if risky else None,
             len(truthful), float(np.array(truthful).mean()) if truthful else None, discarded)
        )
    return rows, ratios


class TestTable4SkipsByBound:
    @pytest.mark.parametrize("base", [_default_rng, CoarseGenerator])
    def test_rows_and_stream_match_full_classification(self, base, monkeypatch):
        config = ExperimentConfig(thetas=(3, 4, 5, 6, 7, 8), draws=400, n_valuations=72, seed=5)
        triples = [_triple_with_ratio(r) for t in config.thetas for r in _edge_ratios(t)]
        made = []

        def planted(seed):
            made.append(PlantedGenerator(base(seed), triples))
            return made[-1]

        monkeypatch.setattr(experiments.np.random, "default_rng", planted)
        rows = run_random_valuation_experiment(config)
        ref_rng = PlantedGenerator(base(config.seed), triples)
        want, ratios = _reference_table4(config, ref_rng)
        got = [
            (r.experiment_id, r.theta, r.risky_count, r.risky_avg_rev, r.truthful_count,
             r.truthful_avg_rev, r.discarded)
            for r in rows
        ]
        assert got == want
        assert all(all(map(math.isnan, r.v)) for r in rows)
        np.testing.assert_array_equal(made[0].random((4,)), ref_rng.random((4,)))
        # Both paths are taken often, and every edge of every theta is met.
        over = sum(r > _threshold(t) for t, r in ratios)
        assert over >= 100 and len(ratios) - over >= 100
        for theta in config.thetas:
            for r in _edge_ratios(theta):
                assert (theta, r) in ratios
        if base is CoarseGenerator:
            assert all(row.discarded > 0 for row in rows)
