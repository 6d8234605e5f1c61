"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload tables --seed 1 --seconds 15 --trace 0

Every measurement runs in a fresh worker process (bench/worker.py) with the
thread pools of numpy's BLAS back ends pinned to one thread and the package
imported from ``src/`` of this checkout.  With ``--trace 0`` the result holds
the end-to-end metrics: set-up time is the median over SETUP_SAMPLES fresh
processes, everything else comes from one untraced measuring process.  With
``--trace 1`` a separate traced process gives the per-module metrics.

A run record with the full detail (versions, parameters, sample counts,
failures, counters) is written to .bench_runs/ in the checkout; traced runs
also write their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
RECORDED = HERE / "recorded.json"
WORKLOADS = ("tables", "oracle", "exact-large", "analysis-small")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"calls": "count", "draws": "count", "spans": "count"}


def per_layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "1/s" if last.endswith("per_s") else "s"
    if last.endswith("ratio"):
        return "ratio"
    return PER_LAYER_UNITS[last]


def source_digest() -> str:
    """Digest of the package and of the benchmark code that defines the workloads."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "tworound").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("TWOROUND_SEED", None)  # the seed comes from --seed only
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
    )
    return env


def run_worker(args, mode: str, deadline: float, extra: list[str] = ()) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--workdir", str(RUNS),
        "--recorded", str(RECORDED),
        *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"no time left for the {mode} worker")
    # subprocess.run kills and reaps the worker if it overruns.
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    got = Path(record["tworound_path"]).resolve()
    if got != (SRC / "tworound").resolve():
        raise RuntimeError(f"worker imported tworound from {got}, not from this checkout")
    return record


def check_counter_repeat(args, code_sha: str, counters: dict) -> str | None:
    """Compare exact counters with an earlier run of the same source and seed."""
    path = RUNS / "counters" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{code_sha[:16]}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counters:
            return f"exact counters differ from an earlier run with this seed: {earlier} != {counters}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, sort_keys=True))
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "tworound" / "__init__.py").is_file():
        print(f"error: no tworound package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    RUNS.mkdir(exist_ok=True)
    code_sha = source_digest()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace == 0:
            setups = [run_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
            record = run_worker(args, "measure", deadline)
            setups.append(record["setup_s"])
            record["setup_samples_s"] = setups
            record["setup_s"] = statistics.median(setups)
            metrics = {name: record[name] for name in END_TO_END}
            units = END_TO_END
        else:
            spans = RUNS / f"spans-{args.workload}-seed{args.seed}.npz"
            record = run_worker(args, "trace", deadline, ["--spans", str(spans)])
            metrics = record["per_layer"]
            units = {name: per_layer_unit(name) for name in metrics}
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = []
    counters = dict(record["derived_counters"])
    if args.trace == 1:
        counters["traced_counts"] = record["traced_counts"]
        if not record["traced_counts_repeat"]:
            problems.append("traced counts differ between the two traced repetitions")
        if record["nested_same_name_spans"]:
            problems.append("spans nested under a span of the same name")
    repeat = check_counter_repeat(args, code_sha, counters)
    if repeat:
        problems.append(repeat)

    attempted, failed = record["attempted"], record["failed"]
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        commit=commit(),
        code_sha256=code_sha,
        python=platform.python_version(),
        cpu_count=os.cpu_count(),
        machine=platform.machine(),
        thread_pins={k: worker_env()[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        error_rate=failed / attempted,
        problems=problems,
    )
    (RUNS / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    for message in record["failures"] + problems:
        print(f"{args.workload}: {message}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
