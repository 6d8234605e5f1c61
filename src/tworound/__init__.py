"""Two-round auctions with probabilistic advancement to an incentive-compatible second round."""

from .selection import (
    ExclusionY,
    SelectionDistribution,
    enumerate_subsets,
    from_exclusion_Y,
    marginal_probabilities,
    sample_subset,
)
from .secondround import AllocationRule, settle_round, u2
from .engine import (
    AuctionResult,
    BidProfile,
    Mechanism,
    evaluate,
    expected_revenue,
    expected_utility,
    simulate_run,
)
from .dsic import DsicVerdict, check_dsic, find_deviation, verify_witness
from .equilibrium import (
    ConstructionFailure,
    N12Params,
    NEClassification,
    RankProfile,
    is_nash_equilibrium,
    n11_classify,
    n11_construct_better_Y,
    n11_mechanism,
    n11_revenue,
    n11_supremum_bound,
    n12_check_rank,
)
from .experiments import (
    ExperimentConfig,
    ExperimentRow,
    run_gap_experiment,
    run_random_valuation_experiment,
    run_theta_experiment,
)

# The imported classes and functions, not the submodules that importing them binds here.
__all__ = [name for name in dir() if not name.startswith("_") and callable(globals()[name])]
__version__ = "0.1.0"
