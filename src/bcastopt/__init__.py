"""bcastopt: joint broadcast bandwidth, pricing, and file-scheduling
optimization for a mixed unicast/broadcast cell, with Monte Carlo
validation of the analytic revenue bound."""

from .channel import (
    RateModel,
    broadcast_rate,
    prob_high_from_area_ratio,
    unicast_rate,
)
from .demand import (
    FileCatalog,
    ZipfParams,
    aggregate_delay_tolerance,
    build_catalog,
    zipf_pmf,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    InvalidParameterError,
    InvalidPermutationError,
    PayoffDomainError,
    PreconditionError,
)
from .optimizer import (
    CellConfig,
    OptimizationResult,
    bound_argmax_bandwidth,
    bound_argmax_price,
    closed_form_bandwidth,
    closed_form_price,
    joint_optimize,
    lower_bound_revenue,
    optimal_schedule,
    price_validity_floor,
    revenue_gain,
)
from .payoff import (
    PricePair,
    SimulationReport,
    simulate_revenue,
    unicast_grants,
)
from .scenario import (
    ExperimentSpec,
    NormalizationScheme,
    load_spec,
    normalize,
    operating_point,
    run_sweep,
    run_validation,
)
from .scheduler import (
    Schedule,
    brute_force_best_order,
    cumulative_sizes,
    popularity_schedule,
    smith_cost,
    smith_schedule,
    suboptimal_schedule,
)

__version__ = "0.1.0"
