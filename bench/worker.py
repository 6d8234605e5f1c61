"""Run one benchmark workload inside this (fresh) process.

Started by ``run.py``; prints one JSON record as its last line of stdout.

Modes:
  setup    import, build the inputs, report set-up time and exit;
  measure  set up, repeat the job untraced until --seconds have passed, then
           check every output;
  trace    set up under the tracer, run untraced repetitions for half of
           --seconds, then two traced repetitions, and report per-module
           metrics from the set-up plus the first traced repetition.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import tworound  # noqa: E402
from tworound import selection  # noqa: E402

from tracer import SETUP_OP, SpanTable, Tracer  # noqa: E402
from workloads import EXACT_COUNTERS, WORKLOADS  # noqa: E402

MAX_FAILURE_MESSAGES = 10
# The reference loop and its time at the typical speed of the 2-core host the
# benchmark was written on.  Scaling by it removes the host's speed drift,
# which moves every piece of code by the same factor (see README.md).
REFERENCE_LOOP = 40_000
REFERENCE_MS = 3.2
CALIBRATE_EVERY_S = 0.1


@dataclass
class Reps:
    latencies: list = field(default_factory=list)  # measured, per op
    adjusted: list = field(default_factory=list)  # scaled to the reference host speed, per op
    walls: list = field(default_factory=list)  # measured, per repetition
    adjusted_walls: list = field(default_factory=list)
    host_ms: list = field(default_factory=list)  # every timing of the reference loop
    first: list = field(default_factory=list)  # outputs of the first repetition
    reference: list = field(default_factory=list)  # their summaries
    errors: list = field(default_factory=list)  # per repetition: {op index: message}

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def host_ms() -> float:
    """Time of a fixed pure-Python loop, in ms: how fast the host runs right now."""
    t0 = perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    return 1e3 * (perf_counter() - t0)


def run_reps(wl, seconds: float, min_reps: int, reps: Reps, tracer=None) -> Reps:
    """Repeat the job until ``seconds`` have passed and ``min_reps`` ran.

    The reference loop is timed before the first op and again whenever
    CALIBRATE_EVERY_S of ops have run; each op's adjusted latency is its
    measured latency times REFERENCE_MS over the mean of the two loop timings
    around it.  Later repetitions are compared with the first as they finish
    and then dropped, so memory does not grow with the number of repetitions.
    """
    began = perf_counter()
    done = 0
    while done < min_reps or perf_counter() - began < seconds:
        ops = wl.ops()
        outs, errors = [], {}
        start = len(reps.latencies)
        before = host_ms()
        reps.host_ms.append(before)
        pending = start
        since = perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = done * len(ops) + i
            t0 = perf_counter()
            try:
                out = op()
            except Exception as exc:  # an op that raises counts as failed
                out = None
                errors[i] = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            reps.latencies.append(t1 - t0)
            outs.append(out)
            if t1 - since >= CALIBRATE_EVERY_S or i == len(ops) - 1:
                after = host_ms()
                reps.host_ms.append(after)
                factor = REFERENCE_MS / ((before + after) / 2)
                reps.adjusted.extend(x * factor for x in reps.latencies[pending:])
                before, pending, since = after, len(reps.latencies), perf_counter()
        reps.walls.append(math.fsum(reps.latencies[start:]))
        reps.adjusted_walls.append(math.fsum(reps.adjusted[start:]))
        if not reps.errors:
            reps.first = outs
            reps.reference = [None if i in errors else wl.summary(o) for i, o in enumerate(outs)]
        else:
            for i, out in enumerate(outs):
                if i not in errors and wl.summary(out) != reps.reference[i]:
                    errors[i] = "output differs from the first repetition"
        reps.errors.append(errors)
        done += 1
    return reps


def judge(wl, reps: Reps, recorded) -> tuple[int, list[str]]:
    """Failed-op count over all repetitions, and the first failure messages."""
    n = len(reps.first)
    first_fail: dict[int, str] = dict(reps.errors[0])
    if not first_fail:
        try:
            checked = wl.check(reps.first)
            if recorded is not None:
                checked = [a or b for a, b in zip(checked, wl.compare_recorded(reps.first, recorded))]
        except Exception as exc:  # a check that cannot run fails every op
            checked = [f"check raised {type(exc).__name__}: {exc}"] * n
        first_fail = {i: m for i, m in enumerate(checked) if m}
    failed = len(first_fail)
    messages = [f"op {i}: {m}" for i, m in sorted(first_fail.items())]
    for k, errors in enumerate(reps.errors[1:], start=1):
        # An op whose first output failed is wrong in every repetition.
        failed += len(first_fail.keys() | errors.keys())
        messages.extend(f"rep {k} op {i}: {m}" for i, m in sorted(errors.items()))
    return failed, messages[:MAX_FAILURE_MESSAGES]


def counters(wl, reps: Reps) -> dict:
    """Exact counters derived from the first repetition (all 0 if its outputs are unusable)."""
    derived = dict.fromkeys(EXACT_COUNTERS, 0)
    try:
        if not reps.errors[0]:
            derived.update(wl.counters(reps.first))
    except Exception:  # such outputs already count as failed ops
        pass
    return derived


def percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q))


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points at the names tworound looks them up by."""

    def subsets(mech, *args, **kwargs):
        return float(len(mech.selection.probs))

    def profiles(mech, grid, n=None):
        n = mech.theta if n is None else n
        return float(math.comb(len(grid) + n - 2, n - 1))

    targets = [
        ("tworound.cli", "main", "cli.main", None),
        ("tworound.experiments", "run_gap_experiment", "experiments.run_gap_experiment", None),
        ("tworound.experiments", "run_theta_experiment", "experiments.run_theta_experiment", None),
        (
            "tworound.experiments",
            "run_random_valuation_experiment",
            "experiments.run_random_valuation_experiment",
            None,
        ),
        ("tworound.dsic", "check_dsic", "dsic.check_dsic", None),
        ("tworound.dsic", "find_deviation", "dsic.find_deviation", profiles),
        ("tworound.engine", "evaluate", "engine.evaluate", subsets),
        ("tworound.engine", "expected_utility", "engine.expected_utility", subsets),
        ("tworound.engine", "expected_revenue", "engine.expected_revenue", subsets),
        ("tworound.engine", "simulate_run", "engine.simulate_run", None),
        ("tworound.secondround", "myerson_payment", "secondround.myerson_payment", None),
        ("tworound.selection", "sample_subset", "selection.sample_subset", None),
        ("tworound.selection", "marginal_probabilities", "selection.marginal_probabilities", None),
        ("tworound.equilibrium", "n11_classify", "equilibrium.n11_classify", None),
        ("tworound.equilibrium", "n11_construct_better_Y", "equilibrium.n11_construct_better_Y", None),
        ("tworound.equilibrium", "n12_check_rank", "equilibrium.n12_check_rank", None),
        ("tworound.equilibrium", "is_nash_equilibrium", "equilibrium.is_nash_equilibrium", None),
    ]
    for module, attr, label, weight in targets:
        tracer.wrap_function(module, attr, label, weight)
    tracer.wrap_method(
        selection.SelectionDistribution, "__post_init__", "selection.SelectionDistribution"
    )


def per_layer(wl, table: SpanTable, outs: list, derived: dict) -> dict:
    busy, calls, self_s = table.busy, table.calls, table.self_s
    m = {
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
    }
    experiments = [
        "experiments.run_gap_experiment",
        "experiments.run_theta_experiment",
        "experiments.run_random_valuation_experiment",
    ]
    for label in experiments:
        m[f"{label}.busy_s"] = busy(label)
    exp_busy = sum(busy(label) for label in experiments)
    m["experiments.busy_s"] = exp_busy
    m["experiments.draws"] = derived["experiments.draws"]
    m["experiments.draws_per_s"] = derived["experiments.draws"] / exp_busy if exp_busy else 0.0
    m["experiments.classified_ratio"] = derived["experiments.classified_ratio"]
    m["experiments.retained_ratio"] = derived["experiments.retained_ratio"]

    m["dsic.find_deviation.calls"] = calls("dsic.find_deviation")
    m["dsic.find_deviation.busy_s"] = busy("dsic.find_deviation")
    sweep = table.mask("dsic.find_deviation") & np.isin(table.cols["op"], sorted(wl.full_sweep_ops(outs)))
    sweep_s = float(table.dur[sweep].sum())
    m["dsic.find_deviation.profiles_per_s"] = float(table.cols["weight"][sweep].sum()) / sweep_s if sweep_s else 0.0
    m["dsic.find_deviation.witness_ratio"] = derived["dsic.find_deviation.witness_ratio"]
    m["dsic.check_dsic.busy_s"] = busy("dsic.check_dsic")

    m["engine.evaluate.calls"] = calls("engine.evaluate")
    m["engine.evaluate.self_s"] = self_s("engine.evaluate")
    m["engine.expected_utility.calls"] = calls("engine.expected_utility")
    m["engine.expected_utility.busy_s"] = busy("engine.expected_utility")
    m["engine.expected_revenue.busy_s"] = busy("engine.expected_revenue")
    # Subsets per second over the top-level enumeration calls: an evaluate
    # counts its C subsets once, however it enumerates them inside.
    top = table.top_level(["engine.evaluate", "engine.expected_revenue", "engine.expected_utility"])
    top_s = float(table.dur[top].sum())
    m["engine.subsets_per_s"] = float(table.cols["weight"][top].sum()) / top_s if top_s else 0.0
    m["engine.simulate_run.calls"] = calls("engine.simulate_run")
    m["engine.simulate_run.busy_s"] = busy("engine.simulate_run")

    m["secondround.myerson_payment.calls"] = calls("secondround.myerson_payment")
    m["secondround.myerson_payment.busy_s"] = busy("secondround.myerson_payment")

    m["selection.SelectionDistribution.calls"] = calls("selection.SelectionDistribution")
    m["selection.SelectionDistribution.busy_s"] = busy("selection.SelectionDistribution")
    m["selection.sample_subset.calls"] = calls("selection.sample_subset")
    m["selection.sample_subset.busy_s"] = busy("selection.sample_subset")
    m["selection.marginal_probabilities.busy_s"] = busy("selection.marginal_probabilities")

    m["equilibrium.n11_classify.busy_s"] = busy("equilibrium.n11_classify")
    m["equilibrium.n11_construct_better_Y.busy_s"] = busy("equilibrium.n11_construct_better_Y")
    m["equilibrium.n11_construct_better_Y.success_ratio"] = derived[
        "equilibrium.n11_construct_better_Y.success_ratio"
    ]
    m["equilibrium.n12_check_rank.busy_s"] = busy("equilibrium.n12_check_rank")
    m["equilibrium.is_nash_equilibrium.calls"] = calls("equilibrium.is_nash_equilibrium")
    m["equilibrium.is_nash_equilibrium.self_s"] = self_s("equilibrium.is_nash_equilibrium")
    return m


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--recorded", default=None, help="JSON file of recorded outputs per seed")
    parser.add_argument("--spans", default=None, help="where the trace mode writes its spans")
    args = parser.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        install(tracer)
    wl.setup()
    setup_s = perf_counter() - PROCESS_START
    record = {
        "setup_s": setup_s,
        "tworound_path": os.path.dirname(tworound.__file__),
        "numpy": np.__version__,
        "params": wl.params(),
    }
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    recorded = None
    if args.recorded and os.path.exists(args.recorded):
        with open(args.recorded) as fh:
            recorded = json.load(fh).get(args.workload, {}).get(str(args.seed))

    if args.mode == "measure":
        reps = run_reps(wl, args.seconds, min_reps=1, reps=Reps())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, messages = judge(wl, reps, recorded)
        record.update(
            wall_s=statistics.median(reps.adjusted_walls),
            op_p50_ms=1e3 * percentile(reps.adjusted, 50),
            op_p90_ms=1e3 * percentile(reps.adjusted, 90),
            measured_wall_s=statistics.median(reps.walls),
            measured_op_p50_ms=1e3 * percentile(reps.latencies, 50),
            measured_op_p90_ms=1e3 * percentile(reps.latencies, 90),
            rep_walls_s=reps.walls,
            op_latencies_s=[round(x, 9) for x in reps.latencies],
            host_ms=[round(x, 4) for x in reps.host_ms],
            op_samples=len(reps.latencies),
            ops_per_rep=len(reps.first),
            peak_rss_mb=peak_rss_mb,
        )
    else:
        tracer.uninstall()
        reps = run_reps(wl, args.seconds / 2, min_reps=1, reps=Reps())
        untraced_walls = list(reps.adjusted_walls)
        n_ops = len(reps.first)
        install(tracer)
        run_reps(wl, 0.0, min_reps=2, reps=reps, tracer=tracer)
        tracer.uninstall()
        traced_walls = reps.adjusted_walls[len(untraced_walls):]
        failed, messages = judge(wl, reps, recorded)

        derived = counters(wl, reps)
        rep1 = SpanTable(tracer, {SETUP_OP, *range(n_ops)})
        rep1_only = SpanTable(tracer, set(range(n_ops)))
        rep2_only = SpanTable(tracer, set(range(n_ops, 2 * n_ops)))
        traced_counts = rep1_only.counts()
        metrics = per_layer(wl, rep1, reps.first, derived)
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
        metrics["trace.spans"] = len(rep1.dur)
        record.update(
            per_layer=metrics,
            derived_counters=derived,
            traced_counts=traced_counts,
            traced_counts_repeat=traced_counts == rep2_only.counts(),
            nested_same_name_spans=rep1.nested_same_name(),
            myerson_calls_match_derivation=derived["secondround.myerson_payment.calls"]
            == metrics["secondround.myerson_payment.calls"],
            untraced_wall_s=statistics.median(untraced_walls),
            traced_wall_s=statistics.median(traced_walls),
        )
        if args.spans:
            tracer.save(args.spans)

    record.update(
        reps=len(reps.walls),
        attempted=reps.attempted,
        failed=failed,
        failures=messages,
        recorded_compared=recorded is not None,
    )
    if args.mode == "measure":
        record["derived_counters"] = counters(wl, reps)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
