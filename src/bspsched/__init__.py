"""BSP DAG scheduling toolkit: validation, cost models, exact solvers."""

from .dag import (  # noqa: F401
    Dag,
    DagClass,
    DagError,
    DagCycleError,
    classify,
    gen_layered,
    gen_taxonomy_fixture,
    parse_dag,
    random_dag,
    serialize_dag,
)
from .schedule import (  # noqa: F401
    DB,
    DS,
    FB,
    FS,
    MODELS,
    BspSchedule,
    CommModel,
    CostBreakdown,
    MachineParams,
    ScheduleError,
    ValidityReport,
    check_validity,
    cost,
    normalize,
    parse_schedule,
    serialize_schedule,
)
from .variants import (  # noqa: F401
    TimedSchedule,
    check_classical,
    check_commdelay,
    check_maxbsp,
    check_spd,
    convert_spd_to_bsp,
    makespan,
    parse_timed_schedule,
    serialize_timed_schedule,
)
from .hrelation import (  # noqa: F401
    DemandMatrix,
    HRelationError,
    decompose,
    fits_nonpreemptive,
    weighted_counterexample,
)
from .chains import (  # noqa: F401
    ChainDecomposition,
    ChainError,
    decompose_chains,
    greedy_chain,
    solve_chain,
    solve_connected_chain,
)
from .commsched import (  # noqa: F401
    CsError,
    CsInstance,
    comm_cost,
    cross_requirements,
    cs_bruteforce,
    cs_eager,
    cs_greedy_p2,
    cs_lazy,
)
from .ilp import (  # noqa: F401
    IlpError,
    IlpModel,
    check_assignment,
    count_vars_constraints,
    emit_ilp,
    encode_schedule,
    parse_solution,
    read_solution,
    render_lp,
)
from .oracle import (  # noqa: F401
    BudgetExceeded,
    OracleBudget,
    brute_opt_bsp,
    brute_opt_timed,
    ratio_report,
)
