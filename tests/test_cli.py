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
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tworound.equilibrium import n11_mechanism
from tworound.selection import ExclusionY


def run_main(argv):
    """``main(argv)`` with its stdout and stderr captured: (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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

    def test_n11_unordered_y_exits_2(self, tmp_path, capsys):
        values = write_json(tmp_path, "v.json", [450, 350, 200])
        y = write_json(tmp_path, "y.json", [0.25, 0.6, 0.15])
        assert (
            main(["analyze-ne", "--mode", "n11", "--values", values, "--Y", y])
            == EXIT_SCHEMA
        )

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
            ("example", ["--x2", "0.25", "--b2", "800", "--b3", "900"], EXIT_SCHEMA,
             hashlib.sha256(b"").hexdigest()),
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
        if code == EXIT_SCHEMA:
            (line,) = err.splitlines()
            assert "do not realize ordering (1, 3, 2)" in json.loads(line)["message"]
        else:
            assert err == ""

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

    @settings(max_examples=30, deadline=None)
    @given(env=ENV_TEXT | st.integers().map(str))
    def test_seed_variable(self, env):
        with mock.patch.dict(os.environ, {SEED_ENV_VAR: env}):
            assert_clean_exit(*run_main(["reproduce", "--table", "2", "--draws", "20"]))
