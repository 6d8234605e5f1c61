import contextlib
import copy
import functools
import hashlib
import io
import itertools
import json
import math
import operator
import os
import signal
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import off_grid_violation

import tworound
from tworound import experiments
from tworound.cli import (
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_USAGE,
    SEED_ENV_VAR,
    _parse_grid,
    main,
)
from tworound.dsic import MAX_GRID_POINTS
from tworound.engine import Mechanism
from tworound.equilibrium import N12_ORDERINGS, n11_mechanism
from tworound.selection import ExclusionY


def run_main(argv):
    """``main(argv)`` with its stdout and stderr captured: (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class Hung(Exception):
    """Raised by :func:`time_limit`; not an OSError or ValueError, so no CLI handler catches it."""


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the test, instead of hanging the suite, when the block runs longer than ``seconds``."""

    def fail(signum, frame):
        raise Hung(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, fail)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def strict_json(text):
    """``json.loads`` that also rejects NaN and Infinity, which are not JSON."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def dsic_mech_file(tmp_path):
    # theta=4, alpha=3, beta=1 with equal top marginals.
    mech = n11_mechanism(ExclusionY((0.4, 0.2, 0.2, 0.2)))
    return write_json(tmp_path, "dsic.json", mech.to_json_dict())


@pytest.fixture
def non_dsic_mech_file(tmp_path):
    mech = n11_mechanism(ExclusionY((0.6, 0.3, 0.1)))
    return write_json(tmp_path, "nondsic.json", mech.to_json_dict())


def _probs(subsets, weights):
    total = sum(weights)
    return [{"subset": list(s), "p": w / total} for s, w in zip(subsets, weights)]


# (values, Y) documents for `analyze-ne --mode n12`: the six-orderings example, two random draws
# and a random draw for which no ordering is an equilibrium.
N12_CASES = {
    "example": ([450, 350, 300, 200, 100], [0.4, 0.3, 0.2, 0.1]),
    "random-a": (
        [875.8812326093579, 860.4352597752891, 736.7469133124079, 392.24253149263905, 43.71479144726679],
        [0.7011125963881061, 0.23548740885744818, 0.043213111467836164, 0.02018688328660968],
    ),
    "random-b": (
        [782.5191633381711, 765.5017147629915, 182.35767195155142, 126.64885971676092, 36.837387394915936],
        [0.7880904319859969, 0.1544353779234208, 0.03376315972548974, 0.023711030365092537],
    ),
    "no-ne": (
        [898.2416629598797, 777.9288333427415, 628.8445119386203, 307.16462206211315, 232.95511809068594],
        [0.4992132716235512, 0.4144645676061322, 0.08488313543639575, 0.0014390253339208203],
    ),
}

# (mechanism, bids) documents for `simulate`: zero-probability subsets, an allocation summing
# below 1 (so some runs have no winner) and tied first-round bids.
N12_EDGE_CASES = {
    "overbid-overflow": ([1e308, 9e307, 8e307, 1e-300, 1e-310], [0.4, 0.3, 0.2, 0.1]),
    "v-value-overflow": (
        [1.744066568970485e250, 1.6430287499992953e-31, 3.415288317044645e-116, 1.7493387307082858e-173,
         1.702115731297645e-290],
        [0.46586527206327766, 0.19575587864140162, 0.1929990834134391, 0.14537976588188165],
    ),
    # v1 + gap rounds to exactly the largest double, leaving no room for v1 + 2 * gap above it.
    "lower-overbid-at-max": ([sys.float_info.max / 2, 1.0, 0.5, 0.25, 0.1], [0.4, 0.3, 0.2, 0.1]),
}
SIMULATE_CASES = {
    "zero-prob": (
        {
            "theta": 4,
            "alpha": 2,
            "probs": _probs(itertools.combinations(range(1, 5), 2), [0, 6, 5, 4, 0, 5]),
            "x": [0.7, 0.3],
        },
        {"first_round": [9, 7, 7, 5, 3], "second_round": [9, 8, 7, 6, 3]},
    ),
    "partial-x": (
        {
            "theta": 5,
            "alpha": 3,
            "probs": _probs(itertools.combinations(range(1, 6), 3), [1] * 10),
            "x": [0.5, 0.25, 0.0],
        },
        {"first_round": [10, 8, 8, 6, 4, 2], "second_round": [10, 8, 8, 6, 4, 2]},
    ),
    "all-advance": (
        {"theta": 3, "alpha": 3, "probs": [{"subset": [1, 2, 3], "p": 1.0}], "x": [0.6, 0.3, 0.1]},
        {"first_round": [5, 5, 5, 5], "second_round": [5, 5, 5, 5]},
    ),
    "mod4-6-3": (
        {
            "theta": 6,
            "alpha": 3,
            "probs": _probs(itertools.combinations(range(1, 7), 3), [i % 4 for i in range(20)]),
            "x": [0.4, 0.35, 0.1],
        },
        {"first_round": [12, 11, 11, 9, 7, 5, 3], "second_round": [12, 11, 11, 9, 7, 5, 3]},
    ),
}


def _exclusion_doc(weights, x):
    """alpha = theta - 1 mechanism that leaves out position e with weight ``weights[e - 1]``."""
    theta = len(weights)
    subsets = [[q for q in range(1, theta + 1) if q != e] for e in range(1, theta + 1)]
    return {"theta": theta, "alpha": theta - 1, "probs": _probs(subsets, weights), "x": x}


def _all_advance_doc(x):
    theta = len(x)
    return {"theta": theta, "alpha": theta, "probs": [{"subset": list(range(1, theta + 1)), "p": 1.0}], "x": x}


# (mechanism, n) for `check-dsic --oracle` on the default 0:8:1 grid, the criterion-2 mix: DSIC,
# non-DSIC and all-advance mechanisms, theta 2-4, alpha = 1 and beta = alpha among them.  With
# n = 5 or 6 the 495 or 1,287 opponent profiles fill 8 or 21 chunks of 64; the "late" witnesses
# sit in the eighth and ninth.
ORACLE_CASES = {
    "dsic-2-alpha-1": (_exclusion_doc([1, 1], [1.0]), 2),
    "dsic-3": (_exclusion_doc([1, 1, 2], [0.7, 0.0]), 4),
    "dsic-4": (_exclusion_doc([1, 1, 1, 3], [0.5, 0.3, 0.0]), 5),
    "dsic-3-free-entry": (_exclusion_doc([1, 1, 1], [0.6, 0.4]), 4),
    "non-dsic-2-alpha-1": (_exclusion_doc([3, 1], [1.0]), 3),
    "non-dsic-3-late": (_exclusion_doc([5, 5, 4], [0.53, 0.0]), 6),
    "non-dsic-4-late": (_exclusion_doc([3, 4, 4, 4], [0.34, 0.11, 0.0]), 6),
    "non-dsic-4": (_exclusion_doc([1, 2, 3, 4], [0.5, 0.3, 0.0]), 4),
    "all-advance-2": (_all_advance_doc([0.6, 0.4]), 2),
    "all-advance-3": (_all_advance_doc([0.5, 0.2, 0.0]), 5),
    "all-advance-4-free-entry": (_all_advance_doc([0.4, 0.3, 0.2, 0.1]), 5),
}


class TestValidate:
    def test_accepts_good_documents(self, tmp_path, dsic_mech_file, capsys):
        values = write_json(tmp_path, "values.json", [450, 350, 200])
        y = write_json(tmp_path, "y.json", {"Y": [0.6, 0.25, 0.15]})
        bids = write_json(
            tmp_path,
            "bids.json",
            {"first_round": [450, 350, 200, 100], "second_round": [450, 350, 200, 100]},
        )
        code = main(
            [
                "validate",
                "--mechanism",
                dsic_mech_file,
                "--values",
                values,
                "--Y",
                y,
                "--bids",
                bids,
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"valid": True, "checked": ["mechanism", "values", "Y", "bids"]}

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        bad = write_json(tmp_path, "bad.json", {"theta": 3, "alpha": 2, "probs": []})
        assert main(["validate", "--mechanism", bad]) == EXIT_SCHEMA
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "schema"

    def test_nothing_to_validate_exits_2(self, capsys):
        assert main(["validate"]) == EXIT_SCHEMA

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--mechanism", str(path)]) == EXIT_SCHEMA

    def test_missing_file_exits_2(self, capsys):
        assert main(["validate", "--mechanism", "/no/such/file.json"]) == EXIT_SCHEMA

    def test_non_finite_values_exit_2(self, tmp_path, capsys):
        values = write_json(tmp_path, "values.json", [450, math.nan, 200])
        assert main(["validate", "--values", values]) == EXIT_SCHEMA
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "schema"

    @pytest.mark.parametrize("bad", ["5", True, None, [5]])
    def test_non_numeric_bids_exit_2(self, tmp_path, capsys, bad):
        doc = {"first_round": [bad, 3, 2], "second_round": [5, 3, 2]}
        assert main(["validate", "--bids", write_json(tmp_path, "bids.json", doc)]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line)["error"] == "schema"


    @pytest.mark.parametrize(
        "flag,doc",
        [
            ("--mechanism", {"theta": math.inf, "alpha": 1, "probs": [], "x": [1]}),
            ("--mechanism", {"theta": 1, "alpha": 1, "probs": [{"subset": [None], "p": 1}], "x": [1]}),
            ("--mechanism", {"theta": 1, "alpha": 1, "probs": [{"subset": [1], "p": 1}], "x": [2**1024]}),
            ("--values", [2**1024, 1]),
            ("--bids", {"first_round": [2**1024], "second_round": [1]}),
        ],
    )
    def test_loader_crashes_found_by_fuzzing_exit_2(self, tmp_path, capsys, flag, doc):
        assert main(["validate", flag, write_json(tmp_path, "doc.json", doc)]) == EXIT_SCHEMA
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "schema"

    @pytest.mark.parametrize(
        "field,value",
        [
            (None, None),
            ("theta", 2.9),
            ("theta", 2.0),
            ("theta", True),
            ("theta", "2"),
            ("alpha", "1"),
            ("alpha", 1.0),
            ("subset", [True]),
            ("subset", [2.7]),
            ("subset", ["2"]),
            ("p", "0.5"),
            ("p", True),
            ("p", 2**1024),
            ("x", ["1"]),
            ("x", [True]),
            ("x", [math.inf]),
        ],
    )
    def test_mechanism_types_are_checked(self, tmp_path, field, value):
        # field=None is the whole document as first found: every field of the wrong type at once.
        doc = {
            "theta": 2.9,
            "alpha": "1",
            "probs": [{"subset": [True], "p": "0.5"}, {"subset": [2.7], "p": "0.5"}],
            "x": ["1"],
        }
        if field is not None:
            doc = copy.deepcopy(VALID["--mechanism"])
            if field in ("theta", "alpha", "x"):
                doc[field] = value
            else:
                doc["probs"][1][field] = value
        code, out, err = run_main(["validate", "--mechanism", write_json(tmp_path, "mech.json", doc)])
        assert (code, out) == (EXIT_SCHEMA, "")
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "schema"

    @pytest.mark.parametrize("again", [[1, 2], [2, 1]])
    def test_duplicate_subset_exits_2(self, tmp_path, again):
        # The listed p sum to 1.3, and to 1 without the first entry: a later entry must not
        # overwrite an earlier one, whichever way it spells (1, 2).
        doc = {
            "theta": 3,
            "alpha": 2,
            "probs": [
                {"subset": [1, 2], "p": 0.3},
                {"subset": [1, 3], "p": 0.3},
                {"subset": [2, 3], "p": 0.2},
                {"subset": again, "p": 0.5},
            ],
            "x": [1.0, 0.0],
        }
        code, out, err = run_main(["validate", "--mechanism", write_json(tmp_path, "dup.json", doc)])
        assert (code, out) == (EXIT_SCHEMA, "")
        (line,) = err.splitlines()
        error = json.loads(line)
        assert error["error"] == "schema"
        assert "duplicate subset (1, 2)" in error["message"]


class TestCheckDsic:
    def test_dsic_mechanism_exits_0(self, dsic_mech_file, capsys):
        assert main(["check-dsic", "--mechanism", dsic_mech_file]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["is_dsic"] is True

    def test_non_dsic_mechanism_exits_3(self, non_dsic_mech_file, capsys):
        assert main(["check-dsic", "--mechanism", non_dsic_mech_file]) == EXIT_NEGATIVE
        doc = json.loads(capsys.readouterr().out)
        assert doc["violated_condition"] == "condition-2"

    def test_oracle_attaches_witness(self, non_dsic_mech_file, capsys):
        code = main(
            ["check-dsic", "--mechanism", non_dsic_mech_file, "--oracle", "--grid", "0:8:1"]
        )
        assert code == EXIT_NEGATIVE
        doc = json.loads(capsys.readouterr().out)
        assert doc["oracle_witness_found"] is True
        assert doc["oracle_witness"]["gain"] > 0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_oracle_reports_an_off_grid_violation(self, tmp_path):
        # check_dsic says condition-2; the grid oracle sees no witness, since the value must lie
        # off the grid (see tests/test_dsic.py).
        mech = write_json(tmp_path, "m.json", off_grid_violation().to_json_dict())
        code, out, _ = run_main(["check-dsic", "--mechanism", mech, "--oracle", "--n", "3"])
        assert code == EXIT_NEGATIVE
        assert json.loads(out)["oracle_witness_found"] is True

    # SHA-256 of `check-dsic --oracle` stdout and its exit code: every verdict, witness and
    # gain must stay bit for bit the same.
    @pytest.mark.parametrize(
        "case,code,digest",
        [
            ("dsic-2-alpha-1", EXIT_OK,
             "8c3f390d10c3df03e53bd67d7d47139392e4a2beb73d7b3f0d014e3407817c30"),
            ("dsic-3", EXIT_OK,
             "8c3f390d10c3df03e53bd67d7d47139392e4a2beb73d7b3f0d014e3407817c30"),
            ("dsic-4", EXIT_OK,
             "8c3f390d10c3df03e53bd67d7d47139392e4a2beb73d7b3f0d014e3407817c30"),
            ("dsic-3-free-entry", EXIT_OK,
             "b1b71c18b5c0f7c679504a34e3bae65240ecb64ecdb0ead235b1d138c3d55980"),
            ("non-dsic-2-alpha-1", EXIT_NEGATIVE,
             "9e43331f42483c93ca22eb8d2700dcbcaf570fafe8c53cfe2dc43424564de5db"),
            ("non-dsic-3-late", EXIT_NEGATIVE,
             "0d2470747de591b55a44ba55a1bcc3eb211641c787b974e8b536655aea5dae74"),
            ("non-dsic-4-late", EXIT_NEGATIVE,
             "2f68a45fa61f72b7145f21ef4ca04d054867b710b255555b5695f9c47fe5adef"),
            ("non-dsic-4", EXIT_NEGATIVE,
             "94dfba6e643cb36bf92e2170eb1cef6e64c68ce9561d143a848858145cd99def"),
            ("all-advance-2", EXIT_OK,
             "8c3f390d10c3df03e53bd67d7d47139392e4a2beb73d7b3f0d014e3407817c30"),
            ("all-advance-3", EXIT_OK,
             "8c3f390d10c3df03e53bd67d7d47139392e4a2beb73d7b3f0d014e3407817c30"),
            ("all-advance-4-free-entry", EXIT_OK,
             "10d27010685a32fde1b21bd0524c078f3bcdaf6d4a0f78f6d88ee710f764f119"),
        ],
    )
    def test_oracle_stdout_pinned(self, tmp_path, case, code, digest):
        doc, n = ORACLE_CASES[case]
        argv = ["check-dsic", "--mechanism", write_json(tmp_path, "m.json", doc), "--oracle", "--n", str(n)]
        got_code, out, err = run_main(argv)
        assert got_code == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert err == ""

    def test_bad_grid_exits_2(self, dsic_mech_file, capsys):
        code = main(
            ["check-dsic", "--mechanism", dsic_mech_file, "--oracle", "--grid", "oops"]
        )
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize(
        "spec",
        [
            "0:nan:1",
            "0:inf:1",
            "nan:1:1",
            "-inf:1:1",
            "0:1:inf",
            "0:1e9:1",
            "0:12:1",
            "0:1:1e-300",
            "-3:3:1",
            "-0.5:1:0.5",
        ],
    )
    def test_grid_rejected_before_it_is_built(self, dsic_mech_file, spec, capsys):
        code = main(["check-dsic", "--mechanism", dsic_mech_file, "--oracle", f"--grid={spec}"])
        assert code == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "schema"
        assert "--grid" in err["message"]

    def test_grid_at_the_point_limit_is_built(self):
        assert len(_parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_probability_exits_2(self, tmp_path, bad, capsys):
        doc = n11_mechanism(ExclusionY((0.4, 0.2, 0.2, 0.2))).to_json_dict()
        doc["probs"][0]["p"] = bad  # json.dumps writes NaN / Infinity
        mech = write_json(tmp_path, "nan.json", doc)
        assert main(["check-dsic", "--mechanism", mech, "--oracle"]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line)["error"] == "schema"

    def test_missing_mechanism_flag_exits_1(self, capsys):
        assert main(["check-dsic"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag", [["--grid", "oops"], ["--grid", "0:8:1"], ["--n", "-5"], ["--n", "4"]]
    )
    def test_oracle_flags_without_oracle_exit_2(self, dsic_mech_file, flag):
        code, out, err = run_main(["check-dsic", "--mechanism", dsic_mech_file, *flag])
        assert (code, out) == (EXIT_SCHEMA, "")
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "schema"


class TestAnalyzeNe:
    def test_n11_truthful(self, tmp_path, capsys):
        values = write_json(tmp_path, "v.json", [450, 350, 200])
        y = write_json(tmp_path, "y.json", [0.6, 0.25, 0.15])
        code = main(["analyze-ne", "--mode", "n11", "--values", values, "--Y", y])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["truthful_ne"] is True
        assert doc["truthful_revenue"] == pytest.approx(290.0)

    def test_n11_risky_reports_witness(self, tmp_path, capsys):
        values = write_json(tmp_path, "v.json", [450, 350, 200])
        y = write_json(tmp_path, "y.json", [0.45, 0.44, 0.11])
        code = main(["analyze-ne", "--mode", "n11", "--values", values, "--Y", y])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["risky_ne"] is True
        assert doc["risky_witness_bid"] == pytest.approx(633.34)
        assert doc["risky_revenue"] == pytest.approx(312.5)

    # At 1e16, b2 + 0.01 == b2: the witness steps one ulp at a time.  At 1e308 the smallest
    # risky overbid, 1.8e308, is no double.
    @pytest.mark.parametrize(
        "values,witness", [([1e16, 9.9e15, 1], 1.8000000000000002e16), ([1e308, 9.9e307, 1], None)]
    )
    def test_n11_witness_at_the_float_edge(self, tmp_path, values, witness):
        argv = ["analyze-ne", "--mode", "n11", "--values", write_json(tmp_path, "v.json", values)]
        argv += ["--Y", write_json(tmp_path, "y.json", [0.5, 0.45, 0.05])]
        with time_limit(1.0):
            code, out, err = run_main(argv)
        assert (code, err) == (EXIT_OK, "")
        doc = strict_json(out)
        assert doc["risky_ne"] is True
        assert doc["risky_witness_bid"] == witness

    def test_n11_gap_ratio_overflow_exits_2(self, tmp_path):
        values = write_json(tmp_path, "v.json", [1e308, 2e-300, 1e-300])
        y = write_json(tmp_path, "y.json", [0.5, 0.45, 0.05])
        code, out, err = run_main(["analyze-ne", "--mode", "n11", "--values", values, "--Y", y])
        assert (code, out) == (EXIT_SCHEMA, "")
        (line,) = err.splitlines()
        assert "gap ratio" in json.loads(line)["message"]

    def test_n11_unordered_y_exits_2(self, tmp_path, capsys):
        values = write_json(tmp_path, "v.json", [450, 350, 200])
        y = write_json(tmp_path, "y.json", [0.25, 0.6, 0.15])
        assert (
            main(["analyze-ne", "--mode", "n11", "--values", values, "--Y", y])
            == EXIT_SCHEMA
        )

    def test_n11_indeterminate_exits_3(self, tmp_path):
        # r = 0.6666666666666666 and D/S = 0.6666666666666667 lie within the EQ_ATOL band.
        values = write_json(tmp_path, "v.json", [450, 350, 200])
        y = write_json(tmp_path, "y.json", [0.6, 0.4, 0.0])
        code, out, err = run_main(["analyze-ne", "--mode", "n11", "--values", values, "--Y", y])
        assert (code, err) == (EXIT_NEGATIVE, "")
        doc = strict_json(out)
        assert (doc["indeterminate"], doc["truthful_ne"], doc["risky_ne"]) == (True, False, False)
        assert (doc["gap_ratio"], doc["y_ratio"]) == (0.6666666666666666, 0.6666666666666667)

    def test_n11_theta_below_3_exits_2(self, tmp_path):
        values = write_json(tmp_path, "v.json", [450, 350, 200])
        y = write_json(tmp_path, "y.json", [0.6, 0.4])
        code, out, err = run_main(["analyze-ne", "--mode", "n11", "--values", values, "--Y", y])
        assert (code, out) == (EXIT_SCHEMA, "")
        (line,) = err.splitlines()
        assert "theta >= 3" in json.loads(line)["message"]

    def test_n12_reports_six_orderings(self, tmp_path, capsys):
        values = write_json(tmp_path, "v.json", [450, 350, 300, 200, 100])
        y = write_json(tmp_path, "y.json", [0.4, 0.3, 0.2, 0.1])
        code = main(
            ["analyze-ne", "--mode", "n12", "--values", values, "--Y", y, "--x2", "0.25"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["ranks"]) == 6
        assert code in (EXIT_OK, EXIT_NEGATIVE)
        assert (code == EXIT_OK) == any(r["is_ne"] for r in doc["ranks"])

    @pytest.mark.parametrize("flag", ["--b2", "--b3"])
    def test_n12_non_finite_overbid_exits_2(self, tmp_path, capsys, flag):
        values = write_json(tmp_path, "v.json", [450, 350, 300, 200, 100])
        y = write_json(tmp_path, "y.json", [0.4, 0.3, 0.2, 0.1])
        argv = ["analyze-ne", "--mode", "n12", "--values", values, "--Y", y, flag, "nan"]
        assert main(argv) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag[2:] in json.loads(captured.err)["message"]

    # SHA-256 of `analyze-ne --mode n12` stdout and its exit code: every margin,
    # v_value and ycoef must stay bit for bit the same.
    @pytest.mark.parametrize(
        "case,extra,code,digest",
        [
            ("example", ["--x2", "0.25"], EXIT_OK,
             "e590398e8c47190b4cd700fefaecfdbeb805827d2844d91b89286e046a4228a1"),
            ("random-a", ["--x2", "0.1484253372123855"], EXIT_OK,
             "3edbd9533363aa13da7282e2ee44daa8fceeaa5c76401181c673f503f1236377"),
            ("random-b", ["--x2", "0.1071570909185292"], EXIT_OK,
             "8440d6fed37d957265674756a3248891ffae83bbc4f4e9b549c439b87c3914eb"),
            ("no-ne", ["--x2", "0.23717398113748833"], EXIT_NEGATIVE,
             "befc601d080ea60c073ce9ec17db0e7893bae918f482c9a042bd283606c0812f"),
            ("example", ["--x2", "0.25", "--b2", "800"], EXIT_OK,
             "ed85de08de350dbbf5ca69a244173d82d9e2385e8aee7e64b48bf5104d136b56"),
            ("random-a", ["--x2", "0.1484253372123855", "--b2", "1500.25"], EXIT_OK,
             "d02445afd568e26f3b93919f9b754eaabf2e745e6a0e3e1ee03fa1dc858c92f8"),
            # An ordering the overrides do not realize keeps its default bids: with b3 = 900,
            # (1, 3, 2) bids (450, 400, 350) and, beside b2 = 800, so does (2, 3, 1).
            ("example", ["--x2", "0.25", "--b2", "800", "--b3", "900"], EXIT_OK,
             "dabf0d98b1b91b692cd109c5abd20eda7d6ed77683b1e66467e3c920c46a8360"),
            ("example", ["--x2", "0.25", "--b3", "900"], EXIT_OK,
             "d2801ae2daa89c77de50cc889214ed30b7f078a06af3c5a0109120f9d6279c8a"),
        ],
    )
    def test_n12_stdout_pinned(self, tmp_path, case, extra, code, digest):
        values, y = N12_CASES[case]
        argv = [
            "analyze-ne", "--mode", "n12",
            *("--values", write_json(tmp_path, "v.json", values)),
            *("--Y", write_json(tmp_path, "y.json", y)),
            *extra,
        ]
        got_code, out, err = run_main(argv)
        assert got_code == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert err == ""

    # Near the float maximum the default overbids v1 + gap and v1 + 2 * gap overflow, or leave no
    # room between them, and fall back to finite bids; far-apart values make V23 and V12 overflow,
    # reported as null.  Only the at-max case has an equilibrium (the truthful ordering).
    @pytest.mark.parametrize(
        "case, nulls", [("overbid-overflow", 0), ("v-value-overflow", 3), ("lower-overbid-at-max", 6)]
    )
    def test_n12_float_edge_prints_strict_json(self, tmp_path, case, nulls):
        values, y = N12_EDGE_CASES[case]
        argv = ["analyze-ne", "--mode", "n12", "--values", write_json(tmp_path, "v.json", values)]
        with time_limit(1.0):
            code, out, err = run_main([*argv, "--Y", write_json(tmp_path, "y.json", y)])
        assert (code, err) == (EXIT_OK if case == "lower-overbid-at-max" else EXIT_NEGATIVE, "")
        ranks = strict_json(out)["ranks"]
        assert [r["ordering"] for r in ranks] == [list(o) for o in N12_ORDERINGS]
        assert all(b < math.inf for r in ranks for b in r["bids"])
        assert sum(c["v_value"] is None for r in ranks for c in r["conditions"]) == nulls

    def test_n12_margin_overflow_exits_2(self, tmp_path):
        # x1 = 1 - 1e-300 rounds to 1, and the top three Y sum above 1, so the top bidder's
        # expected utility at position 1 exceeds the largest double.
        values = write_json(tmp_path, "v.json", [sys.float_info.max * (1 - 1e-10), 1.0, 0.5, 0.25, 0.1])
        y = write_json(tmp_path, "y.json", [0.5, 0.3, 0.2 + 5e-10, 1e-300])
        argv = ["analyze-ne", "--mode", "n12", "--values", values, "--Y", y, "--x2", "1e-300"]
        code, out, err = run_main(argv)
        assert (code, out) == (EXIT_SCHEMA, "")
        (line,) = err.splitlines()
        assert "utility margin overflows" in json.loads(line)["message"]

    def test_n12_wrong_value_count_exits_2(self, tmp_path, capsys):
        values = write_json(tmp_path, "v.json", [450, 350, 200])
        y = write_json(tmp_path, "y.json", [0.4, 0.3, 0.2, 0.1])
        assert (
            main(["analyze-ne", "--mode", "n12", "--values", values, "--Y", y])
            == EXIT_SCHEMA
        )


class TestSimulate:
    def test_runs_and_reports(self, tmp_path, dsic_mech_file, capsys):
        bids = write_json(
            tmp_path,
            "bids.json",
            {"first_round": [450, 350, 200, 100], "second_round": [450, 350, 200, 100]},
        )
        code = main(
            ["simulate", "--mechanism", dsic_mech_file, "--bids", bids, "--runs", "5", "--seed", "7"]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["runs"]) == 5
        for run in doc["runs"]:
            assert len(run["subset"]) == 3
            assert run["payment"] >= 0

    def test_seed_makes_runs_reproducible(self, tmp_path, dsic_mech_file, capsys):
        bids = write_json(
            tmp_path,
            "bids.json",
            {"first_round": [450, 350, 200, 100], "second_round": [450, 350, 200, 100]},
        )
        argv = ["simulate", "--mechanism", dsic_mech_file, "--bids", bids, "--runs", "10", "--seed", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    # SHA-256 of `simulate` stdout for fixed documents and seeds: the subset and
    # winner draws must stay bit for bit the same.
    @pytest.mark.parametrize(
        "case,seed,digest",
        [
            ("zero-prob", 7, "c19be10bd0d80095ab8c3bf156851108d800bc4120a4d9ebd9be72eb9a9c559d"),
            ("zero-prob", 2024, "42f02813176f484317ab63c23c5db38fbffb700320b47f372b4027f62ca8040c"),
            ("partial-x", 7, "4d206f0cd57f95708af3d0df7eb37a062f9aa7d773480bdaacf8750f0da6ad20"),
            ("partial-x", 11, "ab4aa64f77970d349721daccdda2a26214d8b820462fe8689ee9e73292b82429"),
            ("all-advance", 3, "c0d9e8773e883b9cef6de9d65e3e8580041a967038afd32d5ec9bb560f95ba98"),
            ("mod4-6-3", 5, "473cf9e297cb46d01cb7803b17049e4924d772f014363a9b33afa943fd21d9d0"),
        ],
    )
    def test_stdout_pinned(self, tmp_path, case, seed, digest):
        mech, bids = SIMULATE_CASES[case]
        argv = [
            "simulate",
            *("--mechanism", write_json(tmp_path, "mech.json", mech)),
            *("--bids", write_json(tmp_path, "bids.json", bids)),
            *("--runs", "200", "--seed", str(seed)),
        ]
        code, out, err = run_main(argv)
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_lowered_second_round_bid_exits_2(self, tmp_path):
        mech = {"theta": 2, "alpha": 2, "probs": [{"subset": [1, 2], "p": 1.0}], "x": [1, 0]}
        bids = {"first_round": [5, 3], "second_round": [1, 1]}
        argv = [
            "simulate",
            *("--mechanism", write_json(tmp_path, "mech.json", mech)),
            *("--bids", write_json(tmp_path, "bids.json", bids)),
        ]
        code, out, err = run_main(argv)
        assert (code, out) == (EXIT_SCHEMA, "")
        (line,) = err.splitlines()
        assert "line of competition" in json.loads(line)["message"]

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_runs_below_one_exit_2(self, tmp_path, dsic_mech_file, runs, capsys):
        bids = write_json(
            tmp_path,
            "bids.json",
            {"first_round": [450, 350, 200, 100], "second_round": [450, 350, 200, 100]},
        )
        argv = ["simulate", "--mechanism", dsic_mech_file, "--bids", bids, "--runs", runs]
        assert main(argv) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--runs" in json.loads(captured.err)["message"]


class TestReproduce:
    def test_table2_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "table2.csv"
        code = main(
            ["reproduce", "--table", "2", "--draws", "500", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",")[0] == "experiment_id"
        assert len(lines) == 5  # header + four valuation rows
        assert out.read_text().splitlines()[0].startswith("experiment_id")

    @pytest.mark.parametrize(
        "argv",
        [["--table", "2", "--draws", "500"], ["--table", "4", "--draws", "100", "--n-valuations", "10"]],
    )
    def test_out_file_matches_stdout(self, tmp_path, capsys, argv):
        out = tmp_path / "table.csv"
        assert main(["reproduce", *argv, "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == capsys.readouterr().out.encode()

    def test_unwritable_out_exits_2(self, tmp_path):
        out = tmp_path / "missing" / "table.csv"
        code, stdout, err = run_main(["reproduce", "--table", "2", "--draws", "10", "--out", str(out)])
        assert (code, stdout) == (EXIT_SCHEMA, "")
        (line,) = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "schema"
        assert doc["message"].startswith(f"cannot write {out}")

    @pytest.mark.parametrize("table", ["2", "3", "4"])
    def test_unwritable_out_fails_before_drawing(self, tmp_path, monkeypatch, table):
        def never(config):
            raise AssertionError("the experiment ran before --out was opened")

        for name in ("run_gap_experiment", "run_theta_experiment", "run_random_valuation_experiment"):
            monkeypatch.setattr(experiments, name, never)
        out = tmp_path / "missing" / "table.csv"
        code, stdout, err = run_main(["reproduce", "--table", table, "--out", str(out)])
        assert (code, stdout) == (EXIT_SCHEMA, "")
        (line,) = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "schema"
        assert doc["message"].startswith(f"cannot write {out}")

    # 10^17 draws ask for 711 PiB per class buffer, more than any address space holds, so the
    # allocation is refused at once whatever the machine's overcommit policy.
    @pytest.mark.parametrize("table", ["2", "3", "4"])
    def test_draws_too_large_for_memory_exit_2(self, table):
        code, stdout, err = run_main(["reproduce", "--table", table, "--draws", str(10**17)])
        assert (code, stdout) == (EXIT_SCHEMA, "")
        (line,) = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "schema"
        assert doc["message"].startswith(f"--draws {10**17} is too large for memory")

    def test_table3_has_four_theta_rows(self, capsys):
        code = main(["reproduce", "--table", "3", "--draws", "500"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        ids = [line.split(",")[0] for line in lines[1:]]
        assert ids == ["theta-1", "theta-2", "theta-3", "theta-4"]

    def test_table4_runs_small(self, capsys):
        code = main(
            ["reproduce", "--table", "4", "--draws", "100", "--n-valuations", "10"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5

    def test_seed_env_var_applies(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "4242")
        main(["reproduce", "--table", "2", "--draws", "400"])
        with_env = capsys.readouterr().out
        monkeypatch.delenv(SEED_ENV_VAR)
        main(["reproduce", "--table", "2", "--draws", "400", "--seed", "4242"])
        explicit = capsys.readouterr().out
        assert with_env == explicit

    def test_bad_seed_env_var_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        assert main(["reproduce", "--table", "2", "--draws", "400"]) == EXIT_SCHEMA
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line)["error"] == "schema"

    def test_invalid_table_exits_1(self, capsys):
        assert main(["reproduce", "--table", "9"]) == EXIT_USAGE

    @pytest.mark.parametrize("table", ["2", "3", "4"])
    def test_n_valuations_is_checked_for_every_table(self, table):
        argv = ["reproduce", "--table", table, "--draws", "10", "--n-valuations", "0"]
        code, out, err = run_main(argv)
        assert (code, out) == (EXIT_SCHEMA, "")
        (line,) = err.splitlines()
        assert json.loads(line) == {"error": "invariant", "message": "n_valuations must be >= 1"}


class TestSeedBoundary:
    """``--seed`` and ``TWOROUND_SEED`` take nonnegative integers; anything else is one schema line."""

    @pytest.fixture
    def argvs(self, tmp_path, dsic_mech_file):
        bids = {"first_round": [450, 350, 200, 100], "second_round": [450, 350, 200, 100]}
        return {
            "simulate": [
                *("simulate", "--mechanism", dsic_mech_file),
                *("--bids", write_json(tmp_path, "bids.json", bids), "--runs", "3"),
            ],
            "reproduce": ["reproduce", "--table", "2", "--draws", "20"],
        }

    @staticmethod
    def assert_schema_error_naming(result, name):
        code, out, err = result
        assert (code, out) == (EXIT_SCHEMA, "")
        (line,) = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "schema"
        assert name in doc["message"]

    @pytest.mark.parametrize("command", ["simulate", "reproduce"])
    def test_negative_seed_flag_exits_2(self, argvs, command, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        self.assert_schema_error_naming(run_main([*argvs[command], "--seed", "-1"]), "--seed")

    @pytest.mark.parametrize("command", ["simulate", "reproduce"])
    @pytest.mark.parametrize(
        "seed", ["1_0", " 7", "7 ", "+7", "\u0663", "0x10", "", "abc", pytest.param("1" * 5000, id="5000-digits")]
    )
    def test_seed_flag_takes_only_digits(self, argvs, command, seed, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        self.assert_schema_error_naming(run_main([*argvs[command], "--seed", seed]), "--seed")

    @pytest.mark.parametrize("command", ["simulate", "reproduce"])
    @pytest.mark.parametrize(
        "env", ["-3", "1_0", " 7", "7 ", "+7", "\u0663", "0x10", pytest.param("1" * 5000, id="5000-digits")]
    )
    def test_seed_variable_takes_only_digits(self, argvs, command, env, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, env)
        self.assert_schema_error_naming(run_main(argvs[command]), SEED_ENV_VAR)

    @pytest.mark.parametrize("command", ["simulate", "reproduce"])
    def test_digit_strings_are_seeds(self, argvs, command, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "0010")
        with_env = run_main(argvs[command])
        monkeypatch.delenv(SEED_ENV_VAR)
        assert with_env[0] == EXIT_OK
        assert with_env == run_main([*argvs[command], "--seed", "10"])


class TestTopLevel:
    def test_no_subcommand_exits_1(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE


    def test_python_m_runs_the_cli(self):
        env = {**os.environ, "PYTHONPATH": str(Path(tworound.__file__).parent.parent)}
        argv = [sys.executable, "-m", "tworound", "check-dsic", "--help"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == EXIT_OK
        assert done.stdout.startswith("usage: tworound check-dsic")


class TestParserReuse:
    """``main`` reuses one parser; consecutive calls must not see each other's arguments."""

    def test_usage_error_then_valid_call(self, dsic_mech_file):
        assert run_main(["check-dsic", "--oracle"])[0] == EXIT_USAGE
        code, out, err = run_main(["check-dsic", "--mechanism", dsic_mech_file])
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out) == {"is_dsic": True, "violated_condition": None}

    def test_seed_is_not_carried_over(self, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        argv = ["reproduce", "--table", "2", "--draws", "50"]
        seeded = run_main([*argv, "--seed", "7"])
        unseeded = run_main(argv)
        assert unseeded == run_main([*argv, "--seed", str(experiments.DEFAULT_SEED)])
        assert unseeded[1] != seeded[1]

    def test_n_is_not_carried_over(self, dsic_mech_file):
        argv = ["check-dsic", "--mechanism", dsic_mech_file, "--oracle"]
        code, out, err = run_main([*argv, "--n", "3"])
        assert (code, out) == (EXIT_SCHEMA, "")
        assert "need n >= theta=4" in json.loads(err)["message"]
        code, out, err = run_main(argv)
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["oracle_witness_found"] is False


# A valid document of each kind; the fuzz replaces one node of it (or all of it) with any value.
VALID = {
    "--mechanism": {
        "theta": 2,
        "alpha": 1,
        "probs": [{"subset": [1], "p": 0.5}, {"subset": [2], "p": 0.5}],
        "x": [1.0],
    },
    "--values": {"values": [3.0, 2.0, 1.0]},
    "--Y": {"Y": [0.5, 0.3, 0.2]},
    "--bids": {"first_round": [3.0, 2.0], "second_round": [3.0, 2.0]},
}
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=4,
)
# 2**1024 is the smallest integer no float can hold.
ANY = st.sampled_from([math.inf, -math.inf, math.nan, 2**1024, -1, 0, 1.5, None, True, "1", [], {}]) | JSON


def node_paths(doc, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from node_paths(value, (*path, key))


def replace_node(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    parent[path[-1]] = value
    return doc


# Valid valuations from 1e-300 to 1e308, spread over the magnitudes.
EXTREME = st.floats(1e-300, 1e308) | st.floats(-300, 308).map(lambda e: 10.0**e)
N11_Y = ([0.5, 0.45, 0.05], [0.6, 0.25, 0.15], [0.4, 0.3, 0.2, 0.1])
N12_Y = ([0.4, 0.3, 0.2, 0.1], [0.7, 0.2, 0.07, 0.03], N12_EDGE_CASES["v-value-overflow"][1])

ENV_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8)


def assert_clean_exit(code, out, err):
    """Exit 0, 2 or 3, with one JSON error line on stderr exactly when the exit is 2."""
    assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_NEGATIVE)
    lines = err.splitlines()
    assert len(lines) == (code == EXIT_SCHEMA)
    if lines:
        assert json.loads(lines[0])["error"] in ("schema", "invariant")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestFuzz:
    @pytest.mark.parametrize("flag", sorted(VALID))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_document_loaders(self, fuzz_dir, flag, data):
        node = data.draw(st.sampled_from(list(node_paths(VALID[flag]))))
        doc = replace_node(VALID[flag], node, data.draw(ANY))
        path = fuzz_dir / f"{flag[2:]}.json"
        path.write_text(json.dumps(doc))
        assert_clean_exit(*run_main(["validate", flag, str(path)]))

    @pytest.mark.parametrize(
        "data",
        [b"[" * 200_000 + b"]" * 200_000, b"[" + b"9" * 5000 + b"]", b'[1, "\xff"]'],
        ids=["deeply-nested", "long-int", "not-utf-8"],
    )
    @pytest.mark.parametrize("flag", sorted(VALID))
    def test_unparsable_document(self, fuzz_dir, flag, data):
        # json raises RecursionError past the recursion limit, and a ValueError that is no
        # JSONDecodeError for an integer over 4,300 digits or bytes that are not UTF-8.
        path = fuzz_dir / f"unparsable-{flag[2:]}.json"
        path.write_bytes(data)
        code, out, err = run_main(["validate", flag, str(path)])
        assert_clean_exit(code, out, err)
        assert code == EXIT_SCHEMA
        error = json.loads(err)
        assert error["error"] == "schema" and error["message"].startswith(f"malformed JSON in {path}: ")

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(EXTREME, min_size=3, max_size=3), y=st.sampled_from(N11_Y))
    def test_n11_extreme_valuations(self, fuzz_dir, values, y):
        argv = ["analyze-ne", "--mode", "n11", "--Y", str(fuzz_dir / "y.json")]
        (fuzz_dir / "y.json").write_text(json.dumps(y))
        (fuzz_dir / "v.json").write_text(json.dumps(sorted(values, reverse=True)))
        with time_limit(1.0):
            code, out, err = run_main([*argv, "--values", str(fuzz_dir / "v.json")])
        assert_clean_exit(code, out, err)
        if code != EXIT_SCHEMA:
            strict_json(out)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(EXTREME, min_size=5, max_size=5, unique=True),
        y=st.sampled_from(N12_Y),
        x2=st.floats(0.01, 0.49),
    )
    def test_n12_extreme_valuations(self, fuzz_dir, values, y, x2):
        argv = ["analyze-ne", "--mode", "n12", "--Y", str(fuzz_dir / "y4.json"), "--x2", repr(x2)]
        (fuzz_dir / "y4.json").write_text(json.dumps(y))
        (fuzz_dir / "v5.json").write_text(json.dumps(sorted(values, reverse=True)))
        with time_limit(1.0):
            code, out, err = run_main([*argv, "--values", str(fuzz_dir / "v5.json")])
        assert_clean_exit(code, out, err)
        if code != EXIT_SCHEMA:
            strict_json(out)

    @settings(max_examples=30, deadline=None)
    @given(env=ENV_TEXT | st.integers().map(str))
    def test_seed_variable(self, env):
        with mock.patch.dict(os.environ, {SEED_ENV_VAR: env}):
            assert_clean_exit(*run_main(["reproduce", "--table", "2", "--draws", "20"]))
