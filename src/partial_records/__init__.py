"""Record events from partial comparisons in i.i.d. sequences.

Pick increasing time indices, attach nested comparison sets, and the record
indicators become independent Bernoulli variables with exact rational odds.
This package provides plan construction and validation, the closed-form
laws (joint events, count moments, record times and values), independent
verification oracles, a deterministic Monte Carlo engine, and the discrete
grid approximation with its O(1/m) error analysis.
"""

from .errors import (
    BadFirstIndex,
    BadParams,
    EmptySelection,
    IndexOutOfRange,
    InversionFailure,
    NonIntegerGrid,
    PartialRecordsError,
    PlanValidationError,
    RankTooLarge,
    StateSpaceTooLarge,
    TooManyIndices,
    UnboundedSupport,
    UnknownFamily,
    ZeroMass,
)
from .plan import (
    ComparisonPlan,
    EventQuery,
    EventTerm,
    ValidatedPlan,
    ValidationReport,
    Violation,
    as_validated,
    chained_plan,
    check_positions,
    load_plan_file,
    plan_from_json_dict,
    plan_hash,
    plan_to_json_dict,
    random_compatible_plan,
    save_plan_file,
    total_comparison_plan,
    validate,
)
from .distributions import (
    BUILTIN_FAMILIES,
    DensitySpec,
    builtin,
    power_density,
    rational_density,
    smoothstep_density,
    tabulated_density,
    tabulated_from_csv,
    triangular_density,
    truncated_ramp_density,
    uniform01,
)
from .exact import (
    CdfInterval,
    RecordCountStats,
    RecordTimePmf,
    cumulative_intensity,
    joint_record_prob,
    joint_record_prob_bounded,
    record_count_moments,
    record_prob,
    record_time_pmf,
    record_value_cdf,
)
from .oracle import (
    exact_joint,
    exact_joint_table,
    exhaustive_discrete_joint,
    relevant_indices,
)
from .simulate import (
    RecordValueCurve,
    Replay,
    RunResult,
    SimConfig,
    TrajectoryPoint,
    column,
    record_value_ecdf,
    replay,
    run,
    strong_law_trajectory,
)
from .discrete import (
    DiscreteModel,
    LemmaDeviation,
    SweepRow,
    bounded_profile,
    discretize,
    error_bound,
    error_sweep,
    joint_record_prob_discrete,
    lemma_checks,
)

__version__ = "0.1.0"
