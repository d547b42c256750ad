"""Price-taker energy storage scheduling.

Schedules a lossy storage system against an energy price series, solves
the relaxed linear program, the exclusivity-constrained MILP and a
refined MILP with binaries only at strictly negative prices, and decides
a priori, from the storage characteristics and the price sign pattern,
whether the relaxation already yields a physically valid schedule.
"""

from .conditions import (
    Advice,
    AssumptionViolated,
    Lemma1Class,
    Lemma1Verdict,
    NoNegativePrices,
    NotNegativePrice,
    Prop1Case,
    Recommendation,
    ShatSequence,
    advise,
    corollary2_inexact,
    lemma1_classify,
    prop1_classify,
    theorem1_condition1,
    theorem2_check,
    theorem3_shat,
)
from .dp import (
    DpConfig,
    GridTooCoarse,
    HorizonTooLong,
    dp_value_error_bound,
    exhaustive_micro_oracle,
    solve_dp,
)
from .lp import (
    DualVector,
    MissingDuals,
    SolveReport,
    build_lp,
    kkt_verify,
    solve_lp,
    solve_storage_lp,
)
from .milp import BnbStats, MilpProblem, build_milp, solve_milp, solve_storage_milp
from .prices import (
    PriceCsvError,
    PricePartition,
    PriceSeries,
    partition,
    read_price_csv,
    write_price_csv,
)
from .simplex import LpProblem, LpSolution, LpStatus, SimplexFailure, solve_bounded_lp
from .storage import (
    EPS,
    FeasibilityReport,
    InfeasibleStorage,
    RepairNotApplicable,
    Schedule,
    ScdEvent,
    StorageParams,
    check_assumption_leakage,
    detect_scd,
    duration_of_charge,
    duration_of_discharge,
    feasibility_check,
    objective,
    propagate_soe,
    repair_scd,
    require_compatible,
    require_schedulable,
    schedule_from_dict,
    schedule_to_dict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
