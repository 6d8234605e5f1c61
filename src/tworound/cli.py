"""Command-line interface for the two-round auction toolkit.

Subcommands: ``validate``, ``check-dsic``, ``analyze-ne``, ``simulate`` and
``reproduce``.  Exit codes: 0 success, 1 usage/parse error, 2 schema or
invariant violation, 3 negative analytic verdict (mechanism not DSIC, or no
equilibrium found).  Errors are emitted as single JSON lines on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import experiments
from .dsic import MAX_GRID_POINTS, ResourceLimitError, check_dsic, find_deviation
from .engine import BidProfile, ConfigurationError, Mechanism, simulate_run
from .equilibrium import N12_ORDERINGS, N12Params, n11_classify, n11_revenue, n12_check_rank
from .selection import ExclusionY, SelectionError, _as_floats

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCHEMA = 2
EXIT_NEGATIVE = 3

SEED_ENV_VAR = "TWOROUND_SEED"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        _error("usage", message)
        raise SystemExit(EXIT_USAGE)


def _error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _seed(args) -> int:
    """``--seed``, else ``TWOROUND_SEED``, else the experiments' default seed."""
    if args.seed is not None:
        return _parse_seed("--seed", args.seed)
    env = os.environ.get(SEED_ENV_VAR)
    if not env:
        return experiments.DEFAULT_SEED
    return _parse_seed(SEED_ENV_VAR, env)


def _parse_seed(name: str, text: str) -> int:
    """A seed written with the digits 0-9 only."""
    with contextlib.suppress(ValueError):  # more digits than int() converts
        if text.isascii() and text.isdigit():  # int() also takes "-3", "1_0", " 7", non-ASCII digits
            return int(text)
    raise SchemaError(f"{name} must be a nonnegative integer (digits 0-9), got {text!r}")


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    # ValueError: bad syntax, bytes or integer length; RecursionError: nesting too deep
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"malformed JSON in {path}: {exc}") from exc


class SchemaError(ValueError):
    pass


def _load_mechanism(path: str) -> Mechanism:
    doc = _load_json(path)
    try:
        return Mechanism.from_json_dict(doc)
    except ValueError as exc:
        raise SchemaError(f"invalid mechanism in {path}: {exc}") from exc


def _load_vector(path: str, key: str) -> list[float]:
    doc = _load_json(path)
    if isinstance(doc, dict):
        doc = doc.get(key)
    what = f"{path}: expected a list of finite numbers (or {{\"{key}\": [...]}})"
    if not isinstance(doc, list):
        raise SchemaError(what)
    return list(_as_floats(doc, SchemaError, what))


def _load_bids(path: str) -> BidProfile:
    doc = _load_json(path)
    try:
        rounds = (doc["first_round"], doc["second_round"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"invalid bid profile in {path}: {exc}") from exc
    if not all(isinstance(bids, list) for bids in rounds):
        raise SchemaError(f"invalid bid profile in {path}: bids must be lists of finite numbers")
    try:
        return BidProfile(*rounds)
    except ConfigurationError as exc:
        raise SchemaError(f"invalid bid profile in {path}: {exc}") from exc


def _parse_grid(spec: str) -> list[float]:
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise SchemaError(f"--grid must look like start:stop:step, got {spec!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise SchemaError(f"--grid needs finite start:stop:step, got {spec!r}")
    if start < 0 or step <= 0 or stop < start:
        raise SchemaError(f"bad --grid bounds {spec!r}")
    end = stop + step / 2
    if math.isinf(end):
        raise SchemaError(f"--grid {spec!r} overflows: stop + step/2 is past the float range")
    # np.arange below makes ceil of this many points.
    if (end - start) / step > MAX_GRID_POINTS:
        raise SchemaError(f"--grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return np.arange(start, end, step).tolist()


def _cmd_validate(args) -> int:
    checked = []
    if args.mechanism:
        _load_mechanism(args.mechanism)
        checked.append("mechanism")
    if args.values:
        vals = _load_vector(args.values, "values")
        if any(v < 0 for v in vals):
            raise SchemaError("values must be nonnegative")
        checked.append("values")
    if args.Y:
        try:
            ExclusionY(tuple(_load_vector(args.Y, "Y")))
        except SelectionError as exc:
            raise SchemaError(f"invalid exclusion vector: {exc}") from exc
        checked.append("Y")
    if args.bids:
        _load_bids(args.bids)
        checked.append("bids")
    if not checked:
        raise SchemaError("nothing to validate: pass --mechanism/--values/--Y/--bids")
    print(json.dumps({"valid": True, "checked": checked}))
    return EXIT_OK


def _cmd_check_dsic(args) -> int:
    if not args.oracle and (args.grid is not None or args.n is not None):
        raise SchemaError("--grid and --n configure the deviation search; pass them with --oracle")
    mech = _load_mechanism(args.mechanism)
    verdict = check_dsic(mech)
    doc = verdict.to_json_dict()
    if args.oracle:
        grid = _parse_grid("0:8:1" if args.grid is None else args.grid)
        try:
            witness = find_deviation(mech, grid, n=args.n)
        except ResourceLimitError as exc:
            raise SchemaError(str(exc)) from exc
        doc["oracle_witness_found"] = witness is not None
        if witness is not None:
            doc["oracle_witness"] = witness.to_json_dict()
    print(json.dumps(doc))
    return EXIT_OK if verdict.is_dsic else EXIT_NEGATIVE


def _cmd_analyze_ne(args) -> int:
    values = _load_vector(args.values, "values")
    y_vec = _load_vector(args.Y, "Y")
    if args.mode == "n11":
        if len(values) < 3:
            raise SchemaError("n11 analysis needs at least three values")
        try:
            Y = ExclusionY(tuple(y_vec))
            cls = n11_classify(values[0], values[1], values[2], Y)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        doc = cls.to_json_dict()
        if cls.truthful_ne:
            doc["truthful_revenue"] = n11_revenue("truthful", *values[:3], Y)
        if cls.risky_ne:
            doc["risky_revenue"] = n11_revenue("risky", *values[:3], Y)
        print(json.dumps(doc))
        return EXIT_OK if (cls.truthful_ne or cls.risky_ne) else EXIT_NEGATIVE
    # n12
    if len(values) != 5:
        raise SchemaError("n12 analysis needs exactly five values")
    try:
        params = N12Params(tuple(values), tuple(y_vec), args.x2, args.b2, args.b3)
        reports = [n12_check_rank(params, ordering) for ordering in N12_ORDERINGS]
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    doc = {"mode": "n12", "x2": args.x2, "ranks": [r.to_json_dict() for r in reports]}
    print(json.dumps(doc))
    return EXIT_OK if any(r.is_ne for r in reports) else EXIT_NEGATIVE


def _cmd_simulate(args) -> int:
    if args.runs < 1:
        raise SchemaError(f"--runs must be at least 1, got {args.runs}")
    mech = _load_mechanism(args.mechanism)
    bids = _load_bids(args.bids)
    rng = np.random.default_rng(_seed(args))
    results = []
    for _ in range(args.runs):
        res = simulate_run(mech, bids, rng)
        results.append(
            {
                "subset": list(res.realized_subset),
                "winner_bidder": res.realized_winner,
                "payment": res.realized_payment,
            }
        )
    print(json.dumps({"runs": results}))
    return EXIT_OK


GAP_VALUATIONS = ((450, 350, 200), (450, 400, 200), (450, 425, 200), (450, 440, 200))
THETA_VALUATION = (450, 400, 200)
# Each table's harness in `experiments` (looked up by name per call), valuations and thetas.
_TABLES = {
    2: ("run_gap_experiment", GAP_VALUATIONS, (3,)),
    3: ("run_theta_experiment", (THETA_VALUATION,), (3, 4, 5, 6)),
    4: ("run_random_valuation_experiment", (), (3, 4, 5, 6)),
}


def _cmd_reproduce(args) -> int:
    name, valuations, thetas = _TABLES[args.table]
    # Every table checks --n-valuations, which only table 4 reads.
    config = experiments.ExperimentConfig(
        valuations, thetas, args.draws, args.n_valuations, seed=_seed(args)
    )
    run = getattr(experiments, name)
    # --out is opened before the experiment runs, so a bad path fails fast.
    try:
        with open(args.out, "w", newline="") if args.out else contextlib.nullcontext() as fh:
            rows = run(config)
            if fh is not None:
                experiments.write_rows_csv(rows, fh)
    except OSError as exc:
        raise SchemaError(f"cannot write {args.out}: {exc}") from exc
    except MemoryError as exc:  # the class buffers hold one float per draw
        raise SchemaError(f"--draws {args.draws} is too large for memory: {exc}") from exc
    experiments.write_rows_csv(rows, sys.stdout)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; each parse returns a fresh Namespace.

    ``parser.commands`` maps each subcommand's name to its parser, with which :func:`main`
    parses a call that names one, so its arguments are scanned once.
    """
    parser = _Parser(prog="tworound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("validate", help="validate input documents")
    p.add_argument("--mechanism")
    p.add_argument("--values")
    p.add_argument("--Y")
    p.add_argument("--bids")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check-dsic", help="closed-form DSIC verdict, optional oracle")
    p.add_argument("--mechanism", required=True)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--grid", default=None, help="oracle grid lo:hi:step (default 0:8:1)")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_check_dsic)

    p = sub.add_parser("analyze-ne", help="classify Nash equilibria")
    p.add_argument("--mode", choices=("n11", "n12"), required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--Y", required=True)
    p.add_argument("--x2", type=float, default=0.25)
    p.add_argument("--b2", type=float, default=None)
    p.add_argument("--b3", type=float, default=None)
    p.set_defaults(func=_cmd_analyze_ne)

    p = sub.add_parser("simulate", help="sampled single runs of a mechanism")
    p.add_argument("--mechanism", required=True)
    p.add_argument("--bids", required=True)
    p.add_argument("--seed", default=None)
    p.add_argument("--runs", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reproduce", help="run a revenue experiment table")
    p.add_argument("--table", type=int, choices=(2, 3, 4), required=True)
    p.add_argument("--seed", default=None)
    p.add_argument("--draws", type=int, default=10_000)
    p.add_argument("--n-valuations", type=int, default=1_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is None:  # no subcommand, --help or an unknown name
            args = parser.parse_args(argv)
        else:
            # What the full parse does after the name, but leftovers get the top-level usage.
            args, extra = command.parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SchemaError as exc:
        _error("schema", str(exc))
        return EXIT_SCHEMA
    except ValueError as exc:
        _error("invariant", str(exc))
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
