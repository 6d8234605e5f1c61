"""The package's public surface is pinned: adding or removing a name, or changing a public
class's constructor parameters, edits a list here."""

import inspect

import tworound

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
