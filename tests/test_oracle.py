import random

import pytest

from bspsched import oracle
from bspsched.dag import Dag, gen_layered, gen_taxonomy_fixture, random_dag
from bspsched.oracle import (
    RATIO_HEADER,
    BudgetExceeded,
    OracleBudget,
    brute_opt_bsp,
    brute_opt_timed,
    ratio_report,
)
from bspsched.schedule import (
    BspSchedule,
    DB,
    DS,
    FB,
    FS,
    MachineParams,
    ScheduleError,
    check_validity,
    cost,
)
from bspsched.variants import check_maxbsp, check_spd, convert_spd_to_bsp


def test_budget_guards():
    big = Dag(9, ())
    with pytest.raises(BudgetExceeded):
        brute_opt_bsp(big, 2, 1, 0)
    with pytest.raises(BudgetExceeded):
        brute_opt_bsp(Dag(2, ()), 4, 1, 0)
    brute_opt_bsp(big, 2, 1, 0, budget=OracleBudget(max_nodes=9))


def test_budget_from_env(monkeypatch):
    monkeypatch.setenv("BSPSCHED_BUDGET", "max_nodes=12,max_p=4")
    b = OracleBudget.from_env()
    assert b.max_nodes == 12 and b.max_p == 4
    # spd takes the common budget: its old fields are unknown too
    for unknown in ("bogus=1", "spd_max_nodes=8", "spd_max_g=2"):
        monkeypatch.setenv("BSPSCHED_BUDGET", unknown)
        with pytest.raises(ValueError, match="unknown budget field"):
            OracleBudget.from_env()


@pytest.mark.parametrize("field,value", [
    ("max_nodes", 0), ("max_p", 0), ("max_s", 0), ("max_s", -1),
    ("node_budget", -1),
])
def test_budget_rejects_out_of_range_fields(field, value):
    with pytest.raises(ValueError, match=f"budget field {field} must be"):
        OracleBudget(**{field: value})


def test_budget_accepts_zero_node_budget():
    OracleBudget(node_budget=0)


def test_max_s_refuses_when_more_supersteps_could_win():
    # the serial seed costs 7 in one superstep; the optimum 5 needs two, so
    # max_s=1 must refuse rather than return 7
    fork = gen_taxonomy_fixture("fork", length=3)
    with pytest.raises(BudgetExceeded, match="max_s=1"):
        brute_opt_bsp(fork, 2, 1, 0, budget=OracleBudget(max_s=1))
    # at S = 3 the floor 4 + 2 already reaches 5, so max_s=2 is enough
    assert brute_opt_bsp(fork, 2, 1, 0, budget=OracleBudget(max_s=2))[1] == 5


def test_budget_from_env_names_non_integer_field(monkeypatch):
    monkeypatch.setenv("BSPSCHED_BUDGET", "max_nodes")
    with pytest.raises(ValueError, match="budget field max_nodes needs an integer"):
        OracleBudget.from_env()
    monkeypatch.setenv("BSPSCHED_BUDGET", "max_s=-1")
    with pytest.raises(ValueError, match="budget field max_s must be >= 1"):
        OracleBudget.from_env()


def test_budget_from_env_refuses_repeated_field(monkeypatch):
    # the last value used to win: this ran with max_nodes=12
    monkeypatch.setenv("BSPSCHED_BUDGET", "max_nodes=1,max_nodes=12")
    with pytest.raises(ValueError, match="budget field max_nodes given twice"):
        OracleBudget.from_env()


def test_budget_has_no_time_horizon_field(monkeypatch):
    # the timed search never goes past the serial makespan, so a horizon
    # cap is no budget field
    monkeypatch.setenv("BSPSCHED_BUDGET", "max_time_horizon=5")
    with pytest.raises(ValueError, match="unknown budget field"):
        OracleBudget.from_env()


def test_single_node():
    sched, opt = brute_opt_bsp(Dag(1, ()), 2, 3, 2)
    assert opt == 1
    assert check_validity(Dag(1, ()), sched, DS).valid


def test_two_node_edge():
    _, opt = brute_opt_bsp(Dag(2, ((1, 2),)), 2, 1, 0)
    assert opt == 2


def test_fork_value_and_duplication_gain():
    fork = gen_taxonomy_fixture("fork", length=2)
    sched, opt = brute_opt_bsp(fork, 2, 1, 0)
    assert opt == 4
    assert check_validity(fork, sched, DS).valid
    assert cost(fork, sched, DS, MachineParams(1, 0)).cost == 4
    dup_sched, dup_opt = brute_opt_bsp(fork, 2, 1, 0, duplication=True)
    assert dup_opt == 3  # recompute the source on both processors
    assert check_validity(fork, dup_sched, DS, duplication=True).valid


def test_returned_schedule_cost_matches_opt():
    rng = random.Random(7)
    for _ in range(5):
        dag = random_dag(rng.randrange(3, 7), 0.4, rng)
        for model in (DS, FS):
            sched, opt = brute_opt_bsp(dag, 2, 2, 1, model)
            assert check_validity(dag, sched, model).valid
            assert cost(dag, sched, model, MachineParams(2, 1)).cost == opt



# a root feeding three 3-node chains
ARMS = Dag(10, ((1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7),
                (1, 8), (8, 9), (9, 10)))


@pytest.mark.parametrize("dag, optima", [
    # optima at P=3 under ds then maxbsp, each for (g, L) = (1, 0), (2, 1)
    pytest.param(gen_taxonomy_fixture("fork", length=3), (5, 7, 5, 7), id="fork3"),
    pytest.param(gen_taxonomy_fixture("fork", length=5), (7, 9, 7, 9), id="fork5"),
    pytest.param(ARMS, (6, 9, 5, 8), id="arms"),
])
def test_symmetric_dag_optima(dag, optima):
    budget = OracleBudget(max_nodes=11)
    got = tuple(
        brute_opt_bsp(dag, 3, g, L, DS, budget, maxbsp=maxbsp)[1]
        for maxbsp in (False, True) for (g, L) in ((1, 0), (2, 1))
    )
    assert got == optima


def test_model_orderings():
    rng = random.Random(11)
    for _ in range(6):
        dag = random_dag(rng.randrange(3, 7), 0.5, rng)
        opts = {
            code: brute_opt_bsp(dag, 2, 2, 1, model)[1]
            for code, model in (("ds", DS), ("db", DB), ("fs", FS), ("fb", FB))
        }
        assert opts["fb"] <= opts["fs"] <= opts["ds"]
        assert opts["fb"] <= opts["db"] <= opts["ds"]


def test_maxbsp_at_most_bsp():
    rng = random.Random(13)
    for _ in range(4):
        dag = random_dag(rng.randrange(3, 6), 0.5, rng)
        sched_m, opt_m = brute_opt_bsp(dag, 2, 2, 0, maxbsp=True)
        _, opt_b = brute_opt_bsp(dag, 2, 2, 0)
        assert opt_m <= opt_b
        report, total = check_maxbsp(dag, sched_m, MachineParams(2, 0))
        assert report.valid and total == opt_m


# a superstep without communication costs its work alone under maxbsp,
# which this witness uses in superstep 1
MAXBSP_GAP_DAG = Dag(5, ((1, 4), (2, 4), (2, 5), (3, 5)))


def test_maxbsp_gap_witness_costs_4():
    sched = BspSchedule(3, 3, {1: ((1, 1),), 2: ((1, 2),), 3: ((2, 1),),
                               4: ((1, 2),), 5: ((1, 3),)},
                        frozenset({(3, 2, 1, 2)}))
    report, total = check_maxbsp(MAXBSP_GAP_DAG, sched, MachineParams(1, 1))
    assert report.valid and total == 4


@pytest.mark.xfail(strict=True, reason="the maxbsp bound charges every "
                   "non-last superstep at least g + L, so it prunes the "
                   "witness above")
def test_maxbsp_optimum_reaches_gap_witness():
    _, opt = brute_opt_bsp(MAXBSP_GAP_DAG, 3, 1, 1, DS, maxbsp=True)
    assert opt <= 4


def test_sandwich_bounds():
    rng = random.Random(17)
    for _ in range(8):
        n = rng.randrange(2, 7)
        dag = random_dag(n, 0.4, rng)
        P = rng.choice((2, 3))
        _, opt = brute_opt_bsp(dag, P, 1, 0)
        assert -(-n // P) <= opt <= n


def test_timed_fixture_makespans():
    classww = gen_taxonomy_fixture("classWW")
    _, plain = brute_opt_timed(classww, 3, 1, "classical")
    _, barrier = brute_opt_timed(classww, 3, 1, "classical_barrier")
    assert (plain, barrier) == (5, 6)


def test_timed_default_horizon_reaches_serial_makespan():
    # two heavy nodes in sequence: the optimum is the serial makespan 6,
    # above the old default cap n * (1 + g) = 4
    dag = Dag(2, ((1, 2),), work_weight={1: 3, 2: 3})
    for model in ("classical", "classical_barrier", "commdelay", "spd"):
        _, opt = brute_opt_timed(dag, 2, 1, model)
        assert opt == 6, model


def test_timed_recomputation_fixture():
    recomp = gen_taxonomy_fixture("recomp")
    budget = OracleBudget(max_nodes=9)
    _, plain = brute_opt_timed(recomp, 3, 1, "classical", budget)
    _, barrier = brute_opt_timed(recomp, 3, 1, "classical_barrier", budget)
    _, dup = brute_opt_timed(
        recomp, 3, 1, "classical_barrier", budget, duplication=True
    )
    assert (plain, barrier, dup) == (5, 6, 5)


def test_timed_commdelay_vs_classical():
    dag = gen_layered(3, 2, "adjacent")
    _, classical = brute_opt_timed(dag, 2, 1, "classical")
    _, commdelay = brute_opt_timed(dag, 2, 1, "commdelay")
    assert classical == 3
    assert commdelay == (3 - 1) * 2 + 1


def test_spd_oracle_and_conversion_bound():
    rng = random.Random(19)
    for _ in range(3):
        dag = random_dag(rng.randrange(3, 6), 0.5, rng)
        g = rng.choice((1, 2))
        ts, ms = brute_opt_timed(dag, 2, g, "spd")
        report, got = check_spd(dag, ts, g)
        assert report.valid and got == ms
        sched = convert_spd_to_bsp(dag, ts, g)
        assert check_validity(dag, sched, DS).valid
        assert cost(dag, sched, DS, MachineParams(g, 0)).cost <= 2 * ms



@pytest.mark.parametrize("model", ["classical", "classical_barrier", "commdelay", "spd"])
def test_timed_rejects_negative_g(model):
    with pytest.raises(ScheduleError, match="nonnegative"):
        brute_opt_timed(Dag(2, ((1, 2),)), 2, -1, model)


# optima that need transfers: (dag, P, g, optimum, transfers). On the fork,
# 3 is impossible because value 1 cannot reach processor 2 before t = 3.
SPD_TRANSFER_CASES = [
    (gen_taxonomy_fixture("fork", length=2), 2, 1, 4, 1),
    (Dag(4, ((1, 2), (1, 3), (2, 4), (3, 4)), work_weight={2: 3, 3: 3}),
     2, 1, 6, 2),
]


@pytest.mark.parametrize("dag,P,g,optimum,transfers", SPD_TRANSFER_CASES,
                         ids=["fork2", "weighted-diamond"])
def test_spd_optimum_with_transfers(dag, P, g, optimum, transfers):
    ts, ms = brute_opt_timed(dag, P, g, "spd")
    assert ms == optimum
    report, got = check_spd(dag, ts, g)
    assert report.valid and got == optimum
    assert len(ts.timed_comms) == transfers
    sched = convert_spd_to_bsp(dag, ts, g)
    assert check_validity(dag, sched, DS).valid
    assert cost(dag, sched, DS, MachineParams(g, 0)).cost <= 2 * optimum


@pytest.mark.parametrize("P", [0, -1])
@pytest.mark.parametrize("model", ["classical", "classical_barrier", "commdelay", "spd"])
def test_timed_rejects_p_below_one(model, P):
    with pytest.raises(ScheduleError, match="processor count must be >= 1"):
        brute_opt_timed(Dag(3, ((1, 2), (2, 3))), P, 1, model)


@pytest.mark.parametrize("P", [0, -1])
@pytest.mark.parametrize("kw", [{}, {"maxbsp": True}, {"duplication": True}],
                         ids=["bsp", "maxbsp", "duplication"])
def test_bsp_rejects_p_below_one(kw, P):
    with pytest.raises(ScheduleError, match="processor count must be >= 1"):
        brute_opt_bsp(Dag(3, ((1, 2), (2, 3))), P, 1, 0, **kw)


def test_spd_solves_six_nodes():
    # above the old spd cap of 5 nodes: three per processor, no transfer
    dag = Dag(6, ())
    ts, ms = brute_opt_timed(dag, 2, 1, "spd")
    report, got = check_spd(dag, ts, 1)
    assert ms == 3 and report.valid and got == 3


def test_spd_solves_eight_nodes_on_three_processors():
    rng = random.Random(8)
    transfers = 0
    for _ in range(4):
        dag = random_dag(8, rng.choice((0.3, 0.45)), rng)
        g = rng.choice((1, 2))
        ts, ms = brute_opt_timed(dag, 3, g, "spd")
        report, got = check_spd(dag, ts, g)
        assert report.valid and got == ms
        # a value reaches another processor no sooner under spd than after
        # commdelay's delay g
        assert ms >= brute_opt_timed(dag, 3, g, "commdelay")[1]
        transfers += len(ts.timed_comms)
    assert transfers


def test_bsp_search_refuses_leaf_beyond_completion_limit(monkeypatch):
    # with cs_bruteforce taking one cross requirement, the optimum (node 1,
    # then 2, 3 and 4 side by side) has a leaf that needs two; it must end
    # the search, not vanish from it
    real = oracle.cs_bruteforce

    def limited(inst, model, limit, **kw):
        return real(inst, model, 1, **kw)

    monkeypatch.setattr(oracle, "cs_bruteforce", limited)
    fork = Dag(4, ((1, 2), (1, 3), (1, 4)))
    with pytest.raises(BudgetExceeded, match="search leaf refused"):
        brute_opt_bsp(fork, 3, 0, 0)


def test_ratio_report_layered():
    rows = ratio_report(
        "layered", [{"length": 4, "width": 2, "P": 2, "g": 1}]
    )
    assert RATIO_HEADER == "construction,params,model,opt,ratio"
    by_model = {r[2]: r for r in rows}
    assert by_model["classical"][3] == "4"
    assert by_model["commdelay"][3] == "7"
    assert by_model["commdelay"][4] == "7/4"


def test_ratio_report_overlap_family():
    rows = ratio_report(
        "two_minus_eps",
        [{"g": 2, "k": 1, "P": 3}],
        budget=OracleBudget(max_nodes=18),
    )
    by_model = {r[2]: r for r in rows}
    assert by_model["maxbsp"][3] == "6"
    assert by_model["bsp"][3] == "10"
    assert by_model["bsp"][4] == "5/3"


def test_ratio_report_skips_over_budget_cells():
    rows = ratio_report(
        "two_minus_eps",
        [{"g": 2, "k": 3, "P": 3}],
        budget=OracleBudget(max_nodes=10),
    )
    assert rows == [("two_minus_eps", "P=3;g=2;k=3", "-", "skipped", "")]
