import json
import math

import pytest

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


class TestTopLevel:
    def test_no_subcommand_exits_1(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
