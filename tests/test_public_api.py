"""The package's public surface is pinned: adding or removing a name, or changing a public
class's constructor parameters, edits a list here.  Every numeric parameter of every public name
follows one input rule, swept below."""

import inspect
import math
from pathlib import Path

import numpy as np
import pytest

import tworound
from tworound import (
    AllocationRule,
    BidProfile,
    ExclusionY,
    ExperimentConfig,
    Mechanism,
    N12Params,
    RankProfile,
    SelectionDistribution,
    enumerate_subsets,
    evaluate,
    expected_utility,
    find_deviation,
    is_nash_equilibrium,
    n11_classify,
    n11_construct_better_Y,
    n11_mechanism,
    n11_revenue,
    n11_supremum_bound,
    n12_check_rank,
    u2,
    verify_witness,
)

PUBLIC_NAMES = [
    "AllocationRule",
    "AuctionResult",
    "BidProfile",
    "ConstructionFailure",
    "DsicVerdict",
    "ExclusionY",
    "ExperimentConfig",
    "ExperimentRow",
    "Mechanism",
    "N12Params",
    "NEClassification",
    "RankProfile",
    "SelectionDistribution",
    "check_dsic",
    "enumerate_subsets",
    "evaluate",
    "expected_revenue",
    "expected_utility",
    "find_deviation",
    "from_exclusion_Y",
    "is_nash_equilibrium",
    "marginal_probabilities",
    "n11_classify",
    "n11_construct_better_Y",
    "n11_mechanism",
    "n11_revenue",
    "n11_supremum_bound",
    "n12_check_rank",
    "run_gap_experiment",
    "run_random_valuation_experiment",
    "run_theta_experiment",
    "sample_subset",
    "settle_round",
    "simulate_run",
    "u2",
    "verify_witness",
]


def test_public_names_are_pinned():
    assert sorted(tworound.__all__) == PUBLIC_NAMES

# The constructor parameter names of every public class, in order.
PUBLIC_CONSTRUCTORS = {
    "AllocationRule": ["x"],
    "AuctionResult": [
        "expected_utilities",
        "expected_revenue",
        "outcomes",
        "realized_subset",
        "realized_winner",
        "realized_payment",
    ],
    "BidProfile": ["first_round", "second_round"],
    "ConstructionFailure": ["certificate"],
    "DsicVerdict": ["is_dsic", "violated_condition"],
    "ExclusionY": ["y_vec"],
    "ExperimentConfig": ["valuations", "thetas", "draws", "n_valuations", "value_max", "seed"],
    "ExperimentRow": [
        "experiment_id",
        "v",
        "theta",
        "risky_count",
        "risky_avg_rev",
        "truthful_count",
        "truthful_avg_rev",
        "discarded",
    ],
    "Mechanism": ["selection", "allocation"],
    "N12Params": ["v", "Y", "x2", "b2", "b3"],
    "NEClassification": [
        "mode",
        "truthful_ne",
        "risky_ne",
        "indeterminate",
        "risky_witness_bid",
        "gap_ratio",
        "y_ratio",
    ],
    "RankProfile": ["ordering", "bids"],
    "SelectionDistribution": ["theta", "alpha", "probs"],
}


def test_public_constructors_are_pinned():
    classes = {name: getattr(tworound, name) for name in tworound.__all__}
    params = {
        name: list(inspect.signature(cls).parameters) for name, cls in classes.items() if inspect.isclass(cls)
    }
    assert params == PUBLIC_CONSTRUCTORS


# ---------------------------------------------------------------------------
# One numeric-input rule over the public surface
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "tworound"

# Values that no public numeric parameter takes, by the rule the README states once: a bool, NaN,
# an infinity, an int past the float range, a numeric string, None.  Numpy scalars of the base
# value are substituted as well and must be accepted where the parameter's kind allows them.
HOSTILE = {"True": True, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
           "10**400": 10**400, "str": "450", "None": None}

FLOAT, INT, ANY_INT = "float", "int", "any-size int"  # ANY_INT: an int of any size is valid

Y_TRUTH = ExclusionY((0.6, 0.25, 0.15))
N11 = n11_mechanism(ExclusionY((0.6, 0.3, 0.1)))
WITNESS = find_deviation(N11, range(9), n=4)
N12 = N12Params((450, 400, 300, 200, 100), (0.4, 0.3, 0.2, 0.1), 0.25)

# Per public entry point: a call whose keyword defaults are valid base values, and the kind of
# every numeric parameter it exposes.  A trailing "|None" also accepts None, as documented.
SWEEP = {
    "AllocationRule": (lambda x1=0.75: AllocationRule((x1, 0.25)), {"x1": FLOAT}),
    "BidProfile": (
        lambda b=5.0, s=6.0: BidProfile((b, 4.0), (s, 4.0)), {"b": FLOAT, "s": FLOAT}
    ),
    "BidProfile.truthful": (lambda v=5.0: BidProfile.truthful((v, 4.0)), {"v": FLOAT}),
    "ExclusionY": (lambda y=0.6: ExclusionY((y, 0.25, 0.15)), {"y": FLOAT}),
    "ExperimentConfig": (
        lambda v1=450, value_max=1000, draws=10, n_valuations=2, seed=7, theta=3: ExperimentConfig(
            ((v1, 350, 200),), (theta,), draws, n_valuations, value_max, seed
        ),
        {"v1": FLOAT, "value_max": FLOAT, "draws": ANY_INT, "n_valuations": ANY_INT,
         "seed": ANY_INT, "theta": ANY_INT},
    ),
    "Mechanism.from_json_dict": (
        lambda x1=1: Mechanism.from_json_dict({**N11.to_json_dict(), "x": [x1, 0.0]}),
        {"x1": FLOAT},
    ),
    "N12Params": (
        lambda v1=450, y1=0.4, x2=0.25, b2=700, b3=600: N12Params(
            (v1, 400, 300, 200, 100), (y1, 0.3, 0.2, 0.1), x2, b2, b3
        ),
        {"v1": FLOAT, "y1": FLOAT, "x2": FLOAT, "b2": FLOAT + "|None", "b3": FLOAT + "|None"},
    ),
    "RankProfile": (
        lambda o=0, b=5.0: RankProfile((o, 1, 2), (b, 4.0, 3.0)), {"o": INT, "b": FLOAT}
    ),
    "SelectionDistribution": (
        lambda theta=3, alpha=2, k=1, p=0.5: SelectionDistribution(
            theta, alpha, {(k, 2): p, (1, 3): 0.25, (2, 3): 0.25}
        ),
        {"theta": INT, "alpha": INT, "k": INT, "p": FLOAT},
    ),
    "SelectionDistribution.uniform": (
        lambda theta=3, alpha=2: SelectionDistribution.uniform(theta, alpha),
        {"theta": INT, "alpha": INT},
    ),
    "SelectionDistribution.point_mass": (
        lambda theta=3, k=1: SelectionDistribution.point_mass(theta, (k, 2)),
        {"theta": INT, "k": INT},
    ),
    "SelectionDistribution.from_json_dict": (
        lambda theta=2, p=0.5: SelectionDistribution.from_json_dict(
            {"theta": theta, "alpha": 1, "probs": [{"subset": [1], "p": p}, {"subset": [2], "p": 0.5}]}
        ),
        {"theta": INT, "p": FLOAT},
    ),
    "enumerate_subsets": (
        lambda theta=3, alpha=2: enumerate_subsets(theta, alpha), {"theta": INT, "alpha": INT}
    ),
    "evaluate": (
        lambda v=450: evaluate(N11, (v, 350, 200), BidProfile.truthful((450, 350, 200))),
        {"v": FLOAT},
    ),
    "expected_utility": (
        lambda v=450, bidder=0: expected_utility(
            N11, (v, 350, 200), BidProfile.truthful((450, 350, 200)), bidder
        ),
        {"v": FLOAT, "bidder": INT},
    ),
    "find_deviation": (
        lambda g=0, n=3: find_deviation(N11, (g, 1, 2), n), {"g": FLOAT, "n": INT + "|None"}
    ),
    "verify_witness": (lambda n=4: verify_witness(N11, WITNESS, n), {"n": INT + "|None"}),
    "is_nash_equilibrium": (
        lambda v=450: is_nash_equilibrium(N11, (v, 350, 200), RankProfile((0, 1, 2), (450, 350, 200))),
        {"v": FLOAT},
    ),
    "n11_classify": (
        lambda v1=450, v2=350, v3=200: n11_classify(v1, v2, v3, Y_TRUTH),
        {"v1": FLOAT, "v2": FLOAT, "v3": FLOAT},
    ),
    "n11_construct_better_Y": (
        lambda v1=450, v2=350, v3=200: n11_construct_better_Y(Y_TRUTH, v1, v2, v3),
        {"v1": FLOAT, "v2": FLOAT, "v3": FLOAT},
    ),
    "n11_revenue": (
        lambda v1=450, v2=350, v3=200: n11_revenue("truthful", v1, v2, v3, Y_TRUTH),
        {"v1": FLOAT, "v2": FLOAT, "v3": FLOAT},
    ),
    "n11_supremum_bound": (
        lambda v1=450, v2=440: n11_supremum_bound(v1, v2, Y_TRUTH), {"v1": FLOAT, "v2": FLOAT}
    ),
    "n12_check_rank": (lambda o=1: n12_check_rank(N12, (o, 2, 3)), {"o": INT}),
    "u2": (
        lambda value=10, own=10, other=8: u2(value, own, [other], AllocationRule((0.7, 0.3))),
        {"value": FLOAT, "own": FLOAT, "other": FLOAT},
    ),
}

# Public names with no numeric parameter of their own to sweep, each with the reason.
NOT_SWEPT = {
    "AuctionResult": "a result record the engine fills; it checks nothing",
    "ConstructionFailure": "takes a certificate string",
    "DsicVerdict": "a result record check_dsic fills",
    "ExperimentRow": "a result record the experiments fill",
    "NEClassification": "a result record n11_classify fills",
    "check_dsic": "takes a Mechanism",
    "expected_revenue": "takes a Mechanism and a BidProfile",
    "from_exclusion_Y": "takes an ExclusionY",
    "marginal_probabilities": "takes a SelectionDistribution",
    "n11_mechanism": "takes an ExclusionY",
    "run_gap_experiment": "takes an ExperimentConfig",
    "run_random_valuation_experiment": "takes an ExperimentConfig",
    "run_theta_experiment": "takes an ExperimentConfig",
    "sample_subset": "takes a SelectionDistribution and a Generator",
    "settle_round": "its docstring leaves the bids unchecked: its callers pass checked ones",
    "simulate_run": "takes a Mechanism, a BidProfile and a Generator",
}


def test_every_public_name_is_swept_or_excused():
    swept = {key.split(".")[0] for key in SWEEP}
    assert not swept & NOT_SWEPT.keys()
    assert sorted(swept | NOT_SWEPT.keys()) == sorted(tworound.__all__)


def _accepts(kind: str, label: str) -> bool:
    """Whether a parameter of ``kind`` takes the substitution ``label``."""
    if label == "None":
        return kind.endswith("|None")
    if label == "10**400":
        return kind == ANY_INT
    if label == "np.float64":
        return kind.startswith(FLOAT)
    return label == "np.int64"  # numpy integers count as numbers and as integers


def _cases():
    for name, (call, kinds) in SWEEP.items():
        defaults = {k: p.default for k, p in inspect.signature(call).parameters.items()}
        for param, kind in kinds.items():
            base = defaults[param]
            values = dict(HOSTILE, **{"np.float64": np.float64(base)})
            if float(base).is_integer():  # np.int64 of 0.6 would be another number, not a type
                values["np.int64"] = np.int64(base)
            for label, value in values.items():
                yield pytest.param(call, param, value, _accepts(kind, label), id=f"{name}-{param}-{label}")


@pytest.mark.parametrize("call, param, value, accept", list(_cases()))
def test_numeric_inputs_follow_one_rule(call, param, value, accept):
    if not accept:
        with pytest.raises(ValueError):
            call(**{param: value})
    elif isinstance(value, np.generic):  # a numpy scalar reads as the number it holds
        assert call(**{param: value}) == call()
    else:  # None where documented, or an int of any size
        call(**{param: value})


def test_only_selection_decides_what_a_number_is():
    # Every other module converts through selection._as_floats or selection._as_ints.
    users = sorted(p.name for p in SRC.glob("*.py") if "is_finite_number" in p.read_text())
    assert users == ["selection.py"]
