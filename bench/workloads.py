"""The four benchmark workloads: inputs from a seed, timed ops, output checks.

A workload is built from its seed, sets up its inputs once (``setup``), and
then hands out the ops of one job repetition (``ops``).  Every op is a call
into the public API or the in-process CLI; library functions are always
looked up on their module at call time, so the tracer's wrappers see them.

After the timed section the worker calls ``check`` on the outputs of the
first repetition (one message per failed op), compares every later
repetition's ``summary`` with the first, and derives the exact counters in
``counters`` from inputs and outputs alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from tworound import cli, dsic, engine, equilibrium, selection

REL_TOL = 1e-9
GAIN_TOL = 1e-9
# Derived from inputs and outputs alone; they must repeat exactly between runs
# with the same seed.  A workload reports the ones that apply, the rest are 0.
EXACT_COUNTERS = (
    "experiments.draws",
    "experiments.classified_ratio",
    "experiments.retained_ratio",
    "dsic.find_deviation.witness_ratio",
    "secondround.myerson_payment.calls",
    "equilibrium.n11_construct_better_Y.success_ratio",
)


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        """Callables of one job repetition, built fresh for every repetition."""
        raise NotImplementedError

    def summary(self, out):
        """Compact, comparable form of one op's output."""
        return out

    def check(self, outs: list) -> list[str | None]:
        raise NotImplementedError

    def counters(self, outs: list) -> dict:
        """The EXACT_COUNTERS that apply to this workload."""
        raise NotImplementedError

    def full_sweep_ops(self, outs: list) -> set[int]:
        """Ops whose deviation search ran to the end without a witness."""
        return set()

    def record(self, outs: list):
        """Values recorded per seed in recorded.json (None: nothing recorded)."""
        return None

    def compare_recorded(self, outs: list, recorded) -> list[str | None]:
        return [None] * len(outs)


# ---------------------------------------------------------------------------
# tables: reproduce --table 2|3|4 through the CLI
# ---------------------------------------------------------------------------

TABLE_ROWS = {2: 4, 3: 4, 4: 4}


class Tables(Workload):
    """Tables 2 and 3 sort a few large arrays; table 4 loops over small batches."""

    name = "tables"
    draws = 1_000_000
    table4_valuations = 300
    table4_draws = 10_000  # the CLI default for --draws

    def params(self) -> dict:
        return {
            "table2_draws": self.draws,
            "table3_draws": self.draws,
            "table4_n_valuations": self.table4_valuations,
            "table4_draws_per_valuation": self.table4_draws,
        }

    def setup(self) -> None:
        seed = str(self.seed)
        self.argvs = [
            ["reproduce", "--table", "2", "--draws", str(self.draws), "--seed", seed],
            ["reproduce", "--table", "3", "--draws", str(self.draws), "--seed", seed],
            [
                "reproduce", "--table", "4",
                "--n-valuations", str(self.table4_valuations),
                "--draws", str(self.table4_draws),
                "--seed", seed,
            ],
        ]

    def ops(self) -> list:
        return [lambda argv=argv: run_cli(argv) for argv in self.argvs]

    def summary(self, out: CliResult):
        return (out.code, digest(out.stdout))

    @staticmethod
    def _rows(out: CliResult) -> list[list[str]]:
        return [line.split(",") for line in out.stdout.strip().splitlines()]

    def check(self, outs: list) -> list[str | None]:
        from tworound.experiments import CSV_COLUMNS

        failures = []
        for table, out in zip((2, 3, 4), outs):
            if out.code != 0:
                failures.append(f"table {table}: exit {out.code}: {out.stderr.strip()}")
                continue
            lines = self._rows(out)
            if tuple(lines[0]) != CSV_COLUMNS:
                failures.append(f"table {table}: bad CSV header {lines[0]}")
                continue
            rows = [dict(zip(CSV_COLUMNS, r)) for r in lines[1:]]
            problem = None
            if len(rows) != TABLE_ROWS[table]:
                problem = f"{len(rows)} rows, want {TABLE_ROWS[table]}"
            for row in rows:
                risky, truthful = int(row["risky_count"]), int(row["truthful_count"])
                if table == 4:
                    if risky != truthful or not 0 <= risky <= self.table4_valuations:
                        problem = f"retained counts {risky}/{truthful} out of range"
                elif risky < 0 or truthful < 0 or risky + truthful > self.draws:
                    problem = f"class counts {risky}+{truthful} exceed {self.draws} draws"
            failures.append(f"table {table}: {problem}" if problem else None)
        return failures

    def counters(self, outs: list) -> dict:
        # Columns 5 and 7 are risky_count and truthful_count; in table 4 both
        # hold the number of retained valuations.
        classified = sum(int(r[5]) + int(r[7]) for out in outs[:2] for r in self._rows(out)[1:])
        retained = sum(int(r[5]) for r in self._rows(outs[2])[1:])
        table4_valuations = TABLE_ROWS[4] * self.table4_valuations
        draws_23 = (TABLE_ROWS[2] + TABLE_ROWS[3]) * self.draws
        return {
            "experiments.draws": draws_23 + table4_valuations * self.table4_draws,
            "experiments.classified_ratio": classified / draws_23,
            "experiments.retained_ratio": retained / table4_valuations,
            "secondround.myerson_payment.calls": 0,
        }

    def record(self, outs: list):
        return [digest(out.stdout) for out in outs]

    def compare_recorded(self, outs: list, recorded) -> list[str | None]:
        return [
            None if digest(out.stdout) == want else f"CSV sha256 differs from recorded {want[:12]}"
            for out, want in zip(outs, recorded)
        ]


# ---------------------------------------------------------------------------
# oracle: check-dsic --oracle through the CLI
# ---------------------------------------------------------------------------

def _allocation(rng: np.random.Generator, alpha: int, beta: int) -> tuple[float, ...]:
    raw = np.sort(rng.uniform(0.2, 1.0, size=beta))[::-1]
    raw = raw / raw.sum()
    return tuple(float(v) for v in raw) + (0.0,) * (alpha - beta)


def _exclusion_doc(theta: int, q: np.ndarray, x: tuple[float, ...]) -> dict:
    probs = []
    for excluded in range(1, theta + 1):
        subset = [i for i in range(1, theta + 1) if i != excluded]
        probs.append({"subset": subset, "p": float(q[excluded - 1])})
    return {"theta": theta, "alpha": theta - 1, "probs": probs, "x": list(x)}


def _dsic_doc(rng: np.random.Generator, theta: int, beta: int) -> dict:
    # Top beta+1 exclusion probabilities equal, the rest no smaller: equal top
    # marginals and no larger marginals below, so the closed form says DSIC.
    k = beta + 1
    if k == theta:
        q = np.full(theta, 1.0 / theta)
    else:
        c = rng.uniform(0.02, 1.0 / theta)
        extra = rng.uniform(0.0, 1.0, size=theta - k)
        q = np.concatenate([np.full(k, c), c + (1.0 - theta * c) * extra / extra.sum()])
    return _exclusion_doc(theta, q, _allocation(rng, theta - 1, beta))


def _non_dsic_doc(rng: np.random.Generator, theta: int, beta: int, margin: float = 0.15) -> dict:
    # A violation of at least `margin` is always visible on the 0..8 grid.
    k = beta + 1
    while True:
        q = rng.dirichlet(np.ones(theta))
        top, rest = q[:k], q[k:]
        if top.max() - top.min() >= margin or (rest.size and rest.min() <= top[k - 1] - margin):
            return _exclusion_doc(theta, q, _allocation(rng, theta - 1, beta))


def _all_advance_doc(rng: np.random.Generator, theta: int, beta: int) -> dict:
    subset = list(range(1, theta + 1))
    return {
        "theta": theta,
        "alpha": theta,
        "probs": [{"subset": subset, "p": 1.0}],
        "x": list(_allocation(rng, theta, beta)),
    }


class Oracle(Workload):
    """The DSIC grid oracle over a fixed mix of DSIC, non-DSIC and all-advance mechanisms."""

    name = "oracle"
    n_mechanisms = 100
    grid = "0:8:1"

    def params(self) -> dict:
        return {
            "mechanisms": self.n_mechanisms,
            "grid": self.grid,
            "mix": "per 5: 2 DSIC, 2 non-DSIC, 1 all-advance; theta cycles 2,3,4",
        }

    def _plan(self, i: int, rng: np.random.Generator) -> tuple[str, dict, int]:
        # The structure (kind, theta, beta, n) is fixed by the index so that
        # every seed does the same amount of search; the seed draws the numbers.
        kind = ("dsic", "dsic", "non-dsic", "non-dsic", "all-advance")[i % 5]
        group = i // 5
        theta = 2 + group % 3
        beta = 1 + (group // 3) % (theta - 1)
        if kind == "dsic":
            doc = _dsic_doc(rng, theta, beta)
        elif kind == "non-dsic":
            doc = _non_dsic_doc(rng, theta, beta)
        else:
            beta = 1 + (group // 3) % theta
            doc = _all_advance_doc(rng, theta, beta)
        # Acceptance criterion 2's rule: when beta = alpha a crowded field
        # always invites entry, so those and theta = 4 are checked at n = theta.
        free_entry = beta == doc["alpha"]
        n = theta if theta == 4 or free_entry else theta + (group // 3) % 2
        return kind, doc, n

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        folder = os.path.join(self.workdir, f"oracle-{self.seed}")
        os.makedirs(folder, exist_ok=True)
        self.kinds, self.ns, self.paths, self.docs = [], [], [], []
        for i in range(self.n_mechanisms):
            kind, doc, n = self._plan(i, rng)
            path = os.path.join(folder, f"mechanism-{i:03d}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            self.kinds.append(kind)
            self.ns.append(n)
            self.paths.append(path)
            self.docs.append(doc)
        self.argvs = [
            ["check-dsic", "--mechanism", path, "--oracle", "--grid", self.grid, "--n", str(n)]
            for path, n in zip(self.paths, self.ns)
        ]

    def ops(self) -> list:
        return [lambda argv=argv: run_cli(argv) for argv in self.argvs]

    def summary(self, out: CliResult):
        return (out.code, out.stdout)

    def check(self, outs: list) -> list[str | None]:
        failures = []
        for kind, doc, n, out in zip(self.kinds, self.docs, self.ns, outs):
            failures.append(self._check_one(kind, doc, n, out))
        return failures

    def _check_one(self, kind: str, doc: dict, n: int, out: CliResult) -> str | None:
        mech = engine.Mechanism.from_json_dict(doc)
        closed_form = dsic.check_dsic(mech).is_dsic
        if closed_form != (kind != "non-dsic"):
            return f"{kind} mechanism got closed-form is_dsic={closed_form}"
        want_code = cli.EXIT_OK if closed_form else cli.EXIT_NEGATIVE
        if out.code != want_code:
            return f"exit {out.code}, want {want_code}: {out.stderr.strip()}"
        result = json.loads(out.stdout)
        if result.get("is_dsic") != closed_form:
            return "stdout is_dsic disagrees with the closed form"
        if result.get("oracle_witness_found") != (not closed_form):
            return f"oracle_witness_found={result.get('oracle_witness_found')} for is_dsic={closed_form}"
        if not closed_form:
            w = result["oracle_witness"]
            witness = dsic.DeviationWitness(
                value=w["value"],
                first_round_bid=w["first_round_bid"],
                second_round_bid=w["second_round_bid"],
                opponent_bids=tuple(w["opponent_bids"]),
                truthful_utility=0.0,
                deviation_utility=w["gain"],
            )
            gain = dsic.verify_witness(mech, witness, n=n)
            if not gain > GAIN_TOL:
                return f"witness does not re-verify: engine gain {gain}"
        return None

    def witnesses(self, outs: list) -> list[bool]:
        return [bool(json.loads(out.stdout).get("oracle_witness_found")) for out in outs]

    def full_sweep_ops(self, outs: list) -> set[int]:
        return {i for i, found in enumerate(self.witnesses(outs)) if not found}

    def counters(self, outs: list) -> dict:
        found = self.witnesses(outs)
        return {
            "dsic.find_deviation.witness_ratio": sum(found) / len(found),
            "secondround.myerson_payment.calls": 0,
        }


# ---------------------------------------------------------------------------
# exact-large: exact enumeration over hundreds to thousands of subsets
# ---------------------------------------------------------------------------

class ExactLarge(Workload):
    """evaluate / expected_revenue / simulate_run on mechanisms with large C(theta, alpha)."""

    name = "exact-large"
    # Three shapes with equally many draws put op_p50_ms in the middle of the
    # (12,8,3) draws and op_p90_ms inside the (14,7,2) draws, away from the
    # jumps between groups.
    shapes = ((12, 8, 1), (12, 8, 3), (14, 7, 2))
    sim_draws = 100

    def params(self) -> dict:
        return {
            "mechanisms": [
                {"theta": t, "alpha": a, "beta": b, "subsets": math.comb(t, a)}
                for t, a, b in self.shapes
            ],
            "bidders": "theta + 2",
            "simulate_draws_per_mechanism": self.sim_draws,
        }

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.mechs, self.truthful, self.overbid, self.values = [], [], [], []
        for theta, alpha, beta in self.shapes:
            subsets = selection.enumerate_subsets(theta, alpha)
            p = rng.dirichlet(np.ones(len(subsets)))
            doc = {
                "theta": theta,
                "alpha": alpha,
                "probs": [{"subset": list(s), "p": float(q)} for s, q in zip(subsets, p)],
                "x": list(_allocation(rng, alpha, beta)),
            }
            # Round-trip through JSON text, the way the CLI loads a document.
            self.mechs.append(engine.Mechanism.from_json_dict(json.loads(json.dumps(doc))))
            n = theta + 2
            values = rng.permutation(np.linspace(50.0, 1000.0, n) + rng.uniform(0, 10, n))
            self.values.append(tuple(float(v) for v in values))
            self.truthful.append(engine.BidProfile.truthful(values))
            # Two bidders outside the top two overbid in both rounds.
            order = np.argsort(-values)
            movers = rng.choice(order[2:], size=2, replace=False)
            first = values.copy()
            first[movers] *= rng.uniform(1.05, 1.5, size=2)
            self.overbid.append(engine.BidProfile(tuple(first), tuple(first)))

    def ops(self) -> list:
        ops = []
        for k, mech in enumerate(self.mechs):
            values, truthful, overbid = self.values[k], self.truthful[k], self.overbid[k]
            ops.append(lambda m=mech, v=values, b=truthful: engine.evaluate(m, v, b))
            ops.append(lambda m=mech, b=overbid: engine.expected_revenue(m, b))
            rng = np.random.default_rng([self.seed, 2, k])
            ops.extend(
                lambda m=mech, b=truthful, g=rng: engine.simulate_run(m, b, g)
                for _ in range(self.sim_draws)
            )
        return ops

    def _kinds(self):
        for k in range(len(self.mechs)):
            yield k, "evaluate"
            yield k, "expected_revenue"
            for _ in range(self.sim_draws):
                yield k, "simulate_run"

    def summary(self, out):
        if isinstance(out, engine.AuctionResult) and out.realized_subset is not None:
            return (out.realized_subset, out.realized_winner, out.realized_payment)
        if isinstance(out, engine.AuctionResult):
            return (out.expected_revenue, out.expected_utilities)
        return out

    def check(self, outs: list) -> list[str | None]:
        failures = []
        for (k, kind), out in zip(self._kinds(), outs):
            mech = self.mechs[k]
            problem = None
            if kind == "evaluate":
                reference = engine.expected_revenue(mech, self.truthful[k])
                total_p = sum(o.probability for o in out.outcomes)
                if not rel_close(out.expected_revenue, reference):
                    problem = f"evaluate revenue {out.expected_revenue} != expected_revenue {reference}"
                elif abs(total_p - 1.0) > REL_TOL:
                    problem = f"outcome probabilities sum to {total_p}"
                elif min(out.expected_utilities) < -REL_TOL:
                    problem = f"negative truthful utility {min(out.expected_utilities)}"
            elif kind == "expected_revenue":
                if not (math.isfinite(out) and out >= 0.0):
                    problem = f"expected revenue {out}"
            elif out.realized_subset not in mech.selection.probs or out.realized_payment < 0:
                problem = f"bad sampled run {out.realized_subset} paying {out.realized_payment}"
            failures.append(f"mechanism {k} {kind}: {problem}" if problem else None)
        return failures

    def myerson_calls(self) -> int:
        """Payments one repetition settles: every positive-allocation rank of every subset visited."""
        calls = 0
        for mech, bids in zip(self.mechs, self.truthful):
            c = len(mech.selection.probs)
            nonzero = sum(1 for p in mech.selection.probs.values() if p != 0.0)
            in_top = min(bids.n, mech.theta)
            # evaluate: one outcome pass plus one utility pass per top-theta bidder;
            # expected_revenue: one outcome pass; each sampled run: one subset.
            calls += mech.beta * (c + in_top * nonzero + c + self.sim_draws)
        return calls

    def counters(self, outs: list) -> dict:
        return {"secondround.myerson_payment.calls": self.myerson_calls()}

    def record(self, outs: list):
        rec, sims = [], []
        for (k, kind), out in zip(self._kinds(), outs):
            if kind == "evaluate":
                rec.append([out.expected_revenue, *out.expected_utilities])
            elif kind == "expected_revenue":
                rec.append([out])
            else:
                sims.append((k, out))
        for k in range(len(self.mechs)):
            runs = [o for kk, o in sims if kk == k]
            rec.append(
                [
                    sum(o.realized_payment for o in runs),
                    digest(json.dumps([[list(o.realized_subset), o.realized_winner] for o in runs])),
                ]
            )
        return rec

    def compare_recorded(self, outs: list, recorded) -> list[str | None]:
        now = self.record(outs)
        failures = [None] * len(outs)
        per_mech = 2 + self.sim_draws
        for idx, (got, want) in enumerate(zip(now, recorded)):
            if idx < 2 * len(self.mechs):
                k, slot = divmod(idx, 2)
                op = k * per_mech + slot
                same = len(got) == len(want) and all(rel_close(a, b) for a, b in zip(got, want))
            else:
                k = idx - 2 * len(self.mechs)
                op = k * per_mech + 2
                same = rel_close(got[0], want[0]) and got[1] == want[1]
            if not same:
                failures[op] = f"mechanism {k}: values differ from those recorded"
        return failures


# ---------------------------------------------------------------------------
# analysis-small: thousands of tiny n11 / n12 equilibrium instances
# ---------------------------------------------------------------------------

def _sorted_simplex(rng: np.random.Generator, k: int, min_gap: float, min_last: float = 0.0):
    while True:
        y = np.sort(rng.dirichlet(np.ones(k)))[::-1]
        if np.min(y[:-1] - y[1:]) > min_gap and y[-1] > min_last:
            return tuple(float(v) for v in y)


def _descending(rng: np.random.Generator, k: int, lo: float, hi: float, min_gap: float):
    while True:
        v = np.sort(rng.uniform(lo, hi, size=k))[::-1]
        if np.min(v[:-1] - v[1:]) > min_gap:
            return tuple(float(x) for x in v)


@dataclass
class Instance:
    theta: int
    values: tuple[float, ...]  # theta descending values for the n11 instance
    Y: selection.ExclusionY
    n12_values: tuple[float, ...]
    n12_Y: tuple[float, ...]
    x2: float
    sim_seed: int


class AnalysisSmall(Workload):
    """n11 closed forms, the position-deviation check and n12 conditions on tiny mechanisms."""

    name = "analysis-small"
    n_instances = 1_500
    sim_draws = 3

    def params(self) -> dict:
        return {
            "instances": self.n_instances,
            "theta": "cycles 3,4,5,6",
            "n12": "theta=4, alpha=3, beta=2, six orderings",
            "simulate_draws_per_instance": self.sim_draws,
        }

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.instances = []
        for i in range(self.n_instances):
            theta = 3 + i % 4
            self.instances.append(
                Instance(
                    theta=theta,
                    values=_descending(rng, theta, 1.0, 1000.0, 1.0),
                    Y=selection.ExclusionY(_sorted_simplex(rng, theta, 1e-4)),
                    n12_values=_descending(rng, 5, 10.0, 1000.0, 1.0),
                    n12_Y=_sorted_simplex(rng, 4, 1e-3, 1e-3),
                    x2=float(rng.uniform(0.05, 0.45)),
                    sim_seed=int(rng.integers(2**32)),
                )
            )

    def ops(self) -> list:
        return [lambda inst=inst: self._run(inst) for inst in self.instances]

    def _run(self, inst: Instance) -> dict:
        v1, v2, v3 = inst.values[:3]
        cls = equilibrium.n11_classify(v1, v2, v3, inst.Y)
        out = {"cls": cls, "better": None}
        if cls.truthful_ne:
            out["rev_truthful"] = equilibrium.n11_revenue("truthful", v1, v2, v3, inst.Y)
            try:
                out["better"] = equilibrium.n11_construct_better_Y(inst.Y, v1, v2, v3)
            except equilibrium.ConstructionFailure as exc:
                out["better"] = exc
        if cls.risky_ne:
            out["rev_risky"] = equilibrium.n11_revenue("risky", v1, v2, v3, inst.Y)
        mech = equilibrium.n11_mechanism(inst.Y)
        rank = equilibrium.RankProfile(tuple(range(inst.theta)), inst.values)
        out["ne"] = equilibrium.is_nash_equilibrium(mech, inst.values, rank)
        params = equilibrium.N12Params(inst.n12_values, inst.n12_Y, inst.x2)
        out["n12"] = [equilibrium.n12_check_rank(params, o) for o in equilibrium.N12_ORDERINGS]
        rng = np.random.default_rng(inst.sim_seed)
        bids = engine.BidProfile.truthful(inst.values)
        out["sims"] = [engine.simulate_run(mech, bids, rng) for _ in range(self.sim_draws)]
        return out

    def summary(self, out):
        if not isinstance(out, dict):
            return out
        better = out["better"]
        return (
            out["cls"],
            better.y_vec if isinstance(better, selection.ExclusionY) else str(better),
            out["ne"][0],
            tuple((r.utility_current, r.utility_deviation) for r in out["ne"][1]),
            tuple((r.is_ne, r.indeterminate, tuple(c.margin for c in r.conditions)) for r in out["n12"]),
            tuple((s.realized_subset, s.realized_winner, s.realized_payment) for s in out["sims"]),
        )

    def check(self, outs: list) -> list[str | None]:
        return [self._check_one(inst, out) for inst, out in zip(self.instances, outs)]

    def _check_one(self, inst: Instance, out: dict) -> str | None:
        v = inst.values
        mech = equilibrium.n11_mechanism(inst.Y)
        # Criterion 11: closed-form n11 revenue equals exact enumeration.
        truthful = engine.BidProfile.truthful(v)
        risky_bids = list(v)
        risky_bids[1] = v[0] + 50.0
        risky = engine.BidProfile(tuple(risky_bids), tuple(risky_bids))
        for kind, bids in (("truthful", truthful), ("risky", risky)):
            closed = equilibrium.n11_revenue(kind, v[0], v[1], v[2], inst.Y)
            exact = engine.expected_revenue(mech, bids)
            if abs(closed - exact) > REL_TOL * max(1.0, abs(exact)):
                return f"n11 {kind} revenue {closed} != engine {exact}"
        # Every improved Y' must support the risky order and earn more.
        better = out["better"]
        if isinstance(better, selection.ExclusionY):
            cls = equilibrium.n11_classify(v[0], v[1], v[2], better)
            rev = equilibrium.n11_revenue("risky", v[0], v[1], v[2], better)
            if not cls.risky_ne or not rev > out["rev_truthful"]:
                return f"constructed Y' {better.y_vec} is not a better risky vector"
        # Criterion 10: non-boundary n12 verdicts agree with the position oracle.
        params = equilibrium.N12Params(inst.n12_values, inst.n12_Y, inst.x2)
        n12_mech = params.mechanism()
        for report in out["n12"]:
            rank = equilibrium.n12_rank_profile(params, report.ordering)
            ok, records = equilibrium.is_nash_equilibrium(n12_mech, params.v[:4], rank)
            u = {}
            for rec in records:
                u[(rec.bidder + 1, rec.from_position)] = rec.utility_current
                u[(rec.bidder + 1, rec.to_position)] = rec.utility_deviation
            for cond in report.conditions:
                hi, lo = (1, 2) if cond.comparison == "1<->2" else (2, 3)
                want_upper = cond.position == 1 if cond.comparison == "1<->2" else cond.position <= 2
                diff = u[(cond.bidder, hi)] - u[(cond.bidder, lo)]
                oracle_margin = diff if want_upper else -diff
                if abs(oracle_margin) <= 1e-6 * max(abs(oracle_margin), abs(cond.margin), 1.0):
                    continue
                if cond.holds != (oracle_margin > 0):
                    return f"n12 {report.ordering} condition {cond.comparison} disagrees with the oracle"
            if report.is_ne and not report.indeterminate and not ok:
                return f"n12 {report.ordering} NE verdict not confirmed by is_nash_equilibrium"
        return None

    def counters(self, outs: list) -> dict:
        attempts = successes = 0
        myerson = 0
        for inst, out in zip(self.instances, outs):
            if out["cls"].truthful_ne:
                attempts += 1
                successes += isinstance(out["better"], selection.ExclusionY)
            # One exact utility per competitive position plus one per recorded
            # deviation, each over theta subsets with one paying rank (beta = 1);
            # one settled subset per sampled run.
            utility_calls = len({(r.bidder, r.from_position) for r in out["ne"][1]}) + len(out["ne"][1])
            myerson += utility_calls * inst.theta + self.sim_draws
        return {
            "secondround.myerson_payment.calls": myerson,
            "equilibrium.n11_construct_better_Y.success_ratio": successes / attempts if attempts else 0.0,
        }


WORKLOADS = {w.name: w for w in (Tables, Oracle, ExactLarge, AnalysisSmall)}
