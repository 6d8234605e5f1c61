"""The package's public surface is pinned: adding or removing a name edits this list."""

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
