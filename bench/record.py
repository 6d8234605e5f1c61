"""Re-record the reference outputs the benchmark compares against.

    python3 bench/record.py --seeds 50

For each seed below --seeds, runs one job repetition of the workloads whose
outputs are pinned (the table CSV digests and the exact-large values) and
writes them to bench/recorded.json.  Run it only at a commit whose outputs
are known to be right: afterwards every benchmark run with a recorded seed
fails any op whose output differs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.pop("TWOROUND_SEED", None)

from workloads import WORKLOADS  # noqa: E402

RECORDED_WORKLOADS = ("tables", "exact-large")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=50, help="record seeds 0 .. N-1")
    args = parser.parse_args()
    recorded = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as workdir:
        for name in RECORDED_WORKLOADS:
            recorded[name] = {}
            for seed in range(args.seeds):
                wl = WORKLOADS[name](seed, workdir)
                wl.setup()
                outs = [op() for op in wl.ops()]
                failures = [f for f in wl.check(outs) if f]
                if failures:
                    raise SystemExit(f"{name} seed {seed} fails its checks: {failures[:3]}")
                recorded[name][str(seed)] = wl.record(outs)
                print(f"{name} seed {seed} recorded", file=sys.stderr)
    (HERE / "recorded.json").write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
