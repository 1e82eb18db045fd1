"""Acceptance gate: one test per shipped criterion, each asserting exact
values and its stated wall-clock limit."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from bspsched.chains import ChainDecomposition, solve_chain
from bspsched.commsched import (
    CsError,
    CsInstance,
    comm_cost,
    cross_requirements,
    cs_bruteforce,
    cs_eager,
    cs_greedy_p2,
    cs_lazy,
)
from bspsched.dag import Dag, gen_layered, gen_taxonomy_fixture, random_dag
from bspsched.hrelation import (
    DemandMatrix,
    decompose,
    fits_nonpreemptive,
    weighted_counterexample,
)
from bspsched.ilp import (
    check_assignment,
    count_vars_constraints,
    emit_ilp,
    encode_schedule,
    read_solution,
)
from bspsched.oracle import OracleBudget, brute_opt_bsp, brute_opt_timed
from bspsched.schedule import (
    DB,
    DS,
    FB,
    FS,
    MODELS,
    BspSchedule,
    MachineParams,
    check_validity,
    cost,
)
from bspsched.variants import convert_spd_to_bsp


# ---------------------------------------------------------------- criterion 1

def test_criterion_01_cost_worked_example_under_1s():
    start = time.monotonic()
    dag = Dag(9, ())
    assign = {v: ((1, 1),) for v in range(1, 5)}
    assign.update({v: ((2, 1),) for v in range(5, 10)})
    comms = frozenset({(1, 1, 2, 1), (5, 2, 1, 1), (6, 2, 1, 1)})
    sched = BspSchedule(2, 1, assign, comms)
    for g in (0, 1, 2, 5):
        for L in (0, 1, 3):
            breakdown = cost(dag, sched, DS, MachineParams(g, L))
            assert breakdown.cost == 5 + 2 * g + L
    assert time.monotonic() - start < 1


# ---------------------------------------------------------------- criterion 2

def _check_slots(matrix, slots):
    """Exactly h slots, each a partial matching, rebuilding the matrix."""
    P = matrix.P
    assert len(slots) == matrix.h
    rebuilt = [[0] * P for _ in range(P)]
    for slot in slots:
        senders = [p for (p, _) in slot]
        receivers = [q for (_, q) in slot]
        assert len(set(senders)) == len(senders)
        assert len(set(receivers)) == len(receivers)
        for (p, q) in slot:
            rebuilt[p - 1][q - 1] += 1
    assert tuple(tuple(row) for row in rebuilt) == matrix.entries


def test_criterion_02_hrelation_decomposition_500_random_under_5s():
    start = time.monotonic()
    rng = random.Random(20240)
    for _ in range(500):
        P = rng.randrange(2, 6)
        entries = tuple(
            tuple(0 if p == q else rng.randrange(0, 7) for q in range(P))
            for p in range(P)
        )
        matrix = DemandMatrix(entries)
        _check_slots(matrix, decompose(matrix))
    assert time.monotonic() - start < 5


def test_criterion_02_hrelation_decomposition_at_scale_under_1s_each():
    rng = random.Random(24600)
    P, h = 24, 600
    dense = [[0] * P for _ in range(P)]
    for _ in range(h):  # h random derangements summed
        while True:
            perm = list(range(P))
            rng.shuffle(perm)
            if all(perm[i] != i for i in range(P)):
                break
        for i in range(P):
            dense[i][perm[i]] += 1
    single = [[0] * 8 for _ in range(8)]
    single[2][5] = 20000
    for entries in (dense, single):
        matrix = DemandMatrix(tuple(tuple(row) for row in entries))
        start = time.monotonic()
        slots = decompose(matrix)
        assert time.monotonic() - start < 1
        _check_slots(matrix, slots)


# ---------------------------------------------------------------- criterion 3

def _partitions(total):
    if total == 0:
        yield ()
        return
    def rec(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail
    yield from rec(total, total)


def _chain_dag(lengths):
    edges = []
    chains = []
    start = 1
    for ell in lengths:
        nodes = tuple(range(start, start + ell))
        chains.append(nodes)
        edges.extend(zip(nodes, nodes[1:]))
        start += ell
    return Dag(sum(lengths), tuple(edges)), tuple(chains)


def test_criterion_03_chain_solver_matches_oracle_under_5min():
    start = time.monotonic()
    budget = OracleBudget(max_nodes=9)
    for n in range(1, 10):
        for lengths in _partitions(n):
            dag, chains = _chain_dag(lengths)
            dec = ChainDecomposition(chains)
            for g in (1, 3):
                for L in (0, 1):
                    sched, got = solve_chain(dec, 2, g, L)
                    _, want = brute_opt_bsp(dag, 2, g, L, budget=budget)
                    assert got == want
                    rounds = {s for (_, _, _, s) in sched.comms}
                    assert len(rounds) <= 2 - 1
    assert time.monotonic() - start < 300


# ---------------------------------------------------------------- criterion 4

def _random_fixed_assignment(rng, P=2, n_hi=10, S_hi=5):
    n = rng.randrange(4, n_hi + 1)
    S = rng.randrange(2, S_hi + 1)
    dag = random_dag(n, 0.4, rng)
    pred = dag.pred()
    assign = {}
    for v in dag.topo_order():
        lo = 1
        for u in pred[v]:
            lo = max(lo, assign[u][0][1] + 1)
        if lo > S:
            return None
        assign[v] = ((rng.randrange(1, P + 1), rng.randrange(lo, S + 1)),)
    try:
        return CsInstance(dag, P, S, assign)
    except CsError:
        return None


def test_criterion_04_comm_greedy_optimal_300_random_under_2min():
    start = time.monotonic()
    rng = random.Random(20241)
    checked = 0
    while checked < 300:
        inst = _random_fixed_assignment(rng)
        if inst is None or len(cross_requirements(inst)) > 12:
            continue
        greedy = cs_greedy_p2(inst)
        got = comm_cost(inst, greedy, DS)
        _, want = cs_bruteforce(inst, DS)
        assert got == want
        checked += 1
    # fixed pipeline instance: one flexible value, greedy beats eager/lazy
    dag = Dag(12, ((1, 4), (2, 5), (3, 6), (7, 9), (8, 10), (11, 12)))
    assign = {
        1: ((1, 1),), 2: ((1, 2),), 3: ((1, 3),),
        4: ((2, 2),), 5: ((2, 3),), 6: ((2, 4),),
        7: ((2, 1),), 8: ((2, 3),),
        9: ((1, 2),), 10: ((1, 4),),
        11: ((2, 1),), 12: ((1, 4),),
    }
    inst = CsInstance(dag, 2, 4, assign)
    assert comm_cost(inst, cs_greedy_p2(inst), DS) == 3
    assert comm_cost(inst, cs_eager(inst), DS) == 4
    assert comm_cost(inst, cs_lazy(inst), DS) == 4
    assert time.monotonic() - start < 120


# ------------------------------------------------------- criteria 5, 6 and 9

# The optima of criteria 5 and 6 are computed once per module by fixtures,
# so criterion 9 can check model dominance over the same runs when it is run
# on its own or in any order.


@pytest.fixture(scope="module")
def sandwich_runs():
    """Criterion 5's searches on 200 random DAGs: per DAG (n, P, optima by
    BSP model, classical and commdelay makespans, plain BSP optimum at
    L = 0), and the seconds the searches took."""
    start = time.monotonic()
    rng = random.Random(20242)
    runs = []
    for i in range(200):
        n = rng.randrange(2, 8)
        dag = random_dag(n, 0.4, rng)
        P = 2 + i % 2
        g = 1 + i % 2
        L = i % 2
        opts = {code: brute_opt_bsp(dag, P, g, L, model)[1]
                for code, model in MODELS.items()}
        _, classical = brute_opt_timed(dag, P, 1, "classical")
        _, commdelay = brute_opt_timed(dag, P, g, "commdelay")
        _, bsp = brute_opt_bsp(dag, P, g, 0)
        runs.append((n, P, opts, classical, commdelay, bsp))
    return runs, time.monotonic() - start


@pytest.fixture(scope="module")
def taxonomy_runs():
    """Criterion 6's exact optima: (ell, g, classical, commdelay) on narrow
    grids, (g, k, overlap, plain) on the overlap family, and the seconds the
    searches took."""
    start = time.monotonic()
    grids = []
    g = 1
    for ell in range(2, 6):
        dag = gen_layered(ell, 3, "adjacent")
        budget = OracleBudget(max_nodes=15)
        _, classical = brute_opt_timed(dag, 3, g, "classical", budget)
        _, commdelay = brute_opt_timed(dag, 3, g, "commdelay", budget)
        grids.append((ell, g, classical, commdelay))
    overlaps = []
    g = 2
    for k in (1, 2):
        dag = gen_taxonomy_fixture("two_minus_eps", g=g, k=k, p=3)
        budget = OracleBudget(max_nodes=30, node_budget=10**10)
        _, overlap = brute_opt_bsp(dag, 3, g, 0, budget=budget, maxbsp=True)
        _, plain = brute_opt_bsp(dag, 3, g, 0, budget=budget)
        overlaps.append((g, k, overlap, plain))
    return grids, overlaps, time.monotonic() - start


def test_criterion_05_sandwich_200_random_under_5min(sandwich_runs):
    runs, seconds = sandwich_runs
    assert len(runs) == 200
    for n, P, opts, classical, commdelay, _ in runs:
        floor = -(-n // P)
        for opt in opts.values():
            assert floor <= opt <= n
        for span in (classical, commdelay):
            assert floor <= span <= n
    assert seconds < 300


def test_criterion_06_taxonomy_ratios_under_10min(taxonomy_runs):
    start = time.monotonic()
    grids, overlaps, seconds = taxonomy_runs
    # (a) pipelining delay of communication-delay scheduling on narrow grids
    for ell, g, classical, commdelay in grids:
        assert Fraction(commdelay, classical) == Fraction((ell - 1) * (1 + g) + 1, ell)
    # (b) overlap family: hiding communication under computation halves cost
    for g, k, overlap, plain in overlaps:
        assert Fraction(plain, overlap) == Fraction(1 + 2 * g * k, 1 + g * k)
    # (c) round-trip: timed schedules with explicit ports map into supersteps
    rng = random.Random(20243)
    solved = 0
    while solved < 10:
        n = rng.randrange(3, 6)
        dag = random_dag(n, 0.5, rng)
        g = rng.choice((1, 2))
        ts, ms = brute_opt_timed(dag, 2, g, "spd")
        sched = convert_spd_to_bsp(dag, ts, g)
        assert check_validity(dag, sched, DS).valid
        assert cost(dag, sched, DS, MachineParams(g, 0)).cost <= 2 * ms
        solved += 1
    assert seconds + time.monotonic() - start < 600


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_timed_fixture_makespans_under_1min():
    start = time.monotonic()
    classww = gen_taxonomy_fixture("classWW")
    _, plain = brute_opt_timed(classww, 3, 1, "classical")
    _, barrier = brute_opt_timed(classww, 3, 1, "classical_barrier")
    assert (plain, barrier) == (5, 6)
    recomp = gen_taxonomy_fixture("recomp")
    budget = OracleBudget(max_nodes=9)
    _, plain = brute_opt_timed(recomp, 3, 1, "classical", budget)
    _, barrier = brute_opt_timed(recomp, 3, 1, "classical_barrier", budget)
    _, dup = brute_opt_timed(
        recomp, 3, 1, "classical_barrier", budget, duplication=True
    )
    assert (plain, barrier, dup) == (5, 6, 5)
    assert time.monotonic() - start < 60


# ---------------------------------------------------------------- criterion 8

def _all_dags(n):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        yield Dag(n, tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1))


def test_criterion_08_ilp_matches_oracle_under_10min():
    """The oracle's optimum, encoded, is a feasible point of the emitted model
    whose objective is that optimum, so the ILP's optimum is no larger; the
    HiGHS test below checks that it is no smaller."""
    start = time.monotonic()
    P, S = 2, 3
    oracle_budget = OracleBudget(max_s=S)
    for n in range(1, 5):
        for dag in _all_dags(n):
            for model in MODELS.values():
                built = emit_ilp(dag, P, S=S, model=model)
                assert (len(built.variables), len(built.constraints)) == \
                    count_vars_constraints(dag, P, S, model)
                for g, L in ((1, 0), (1, 1), (2, 0), (2, 1)):
                    built = emit_ilp(dag, P, S=S, g=g, L=L, model=model)
                    sched, opt = brute_opt_bsp(dag, P, g, L, model,
                                               budget=oracle_budget)
                    assignment = encode_schedule(built, sched)
                    assert check_assignment(built, assignment) == []
                    got, total = read_solution(built, assignment)
                    assert total == opt
                    assert check_validity(dag, got, model).valid
                    assert cost(dag, got, model, MachineParams(g, L)).cost == opt
    assert time.monotonic() - start < 600


def _solve_with_highs(built):
    """Optimal assignment of an IlpModel by scipy's HiGHS MILP solver."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    nvars = len(built.variables)
    lo = [0 if kind[0] == "binary" else kind[1] for (_, kind) in built.variables]
    hi = [1 if kind[0] == "binary" else kind[2] for (_, kind) in built.variables]
    c = np.zeros(nvars)
    np.add.at(c, *built.objective)
    rows, cols, data, lhs, rhs = [], [], [], [], []
    for i, (_, (row_cols, row_coefs), rel, b) in enumerate(built.constraints):
        rows += [i] * len(row_cols)
        cols += row_cols
        data += row_coefs
        lhs.append(-np.inf if rel == "<=" else b)
        rhs.append(np.inf if rel == ">=" else b)
    a = coo_array((data, (rows, cols)), shape=(len(built.constraints), nvars))
    res = milp(c, integrality=np.ones(nvars), bounds=Bounds(lo, hi),
               constraints=LinearConstraint(a.tocsr(), lhs, rhs))
    assert res.success, res.message
    return ({name: float(x) for (name, _), x in zip(built.variables, res.x)},
            round(res.fun))


def test_criterion_08_highs_matches_oracle():
    """HiGHS solves the emitted model to the oracle's optimum: every cell of
    criterion 8 with n <= 3, and one cell per 4-node DAG, cycling through the
    models and (g, L)."""
    pytest.importorskip("scipy.optimize")
    P, S = 2, 3
    oracle_budget = OracleBudget(max_s=S)
    gls = ((1, 0), (1, 1), (2, 0), (2, 1))
    models = list(MODELS.values())
    cells = [(dag, model, g, L) for n in range(1, 4) for dag in _all_dags(n)
             for model in models for (g, L) in gls]
    cells += [(dag, models[i % 4], *gls[(i // 4) % 4])
              for i, dag in enumerate(_all_dags(4))]
    assert len(cells) == 176 + 64
    for dag, model, g, L in cells:
        built = emit_ilp(dag, P, S=S, g=g, L=L, model=model)
        assignment, obj = _solve_with_highs(built)
        _, opt = brute_opt_bsp(dag, P, g, L, model, budget=oracle_budget)
        assert obj == opt
        assert check_assignment(built, assignment) == []
        _, total = read_solution(built, assignment)
        assert total == opt


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_model_dominance_over_collected_runs(sandwich_runs, taxonomy_runs):
    chains = []
    for _, _, opts, classical, commdelay, bsp in sandwich_runs[0]:
        chains.append(("bsp-models", (opts["fb"], opts["fs"], opts["ds"])))
        chains.append(("bsp-models", (opts["fb"], opts["db"], opts["ds"])))
        chains.append(("timed-chain", (classical, commdelay, bsp)))
    grids, overlaps, _ = taxonomy_runs
    chains += [("timed-pair", (classical, commdelay)) for _, _, classical, commdelay in grids]
    chains += [("overlap-pair", (overlap, plain)) for _, _, overlap, plain in overlaps]
    assert len(chains) == 3 * 200 + 4 + 2
    for label, chain in chains:
        for lo, hi in zip(chain, chain[1:]):
            assert lo <= hi, (label, chain)


# --------------------------------------------------------------- criterion 10

def test_criterion_10_weighted_hrelation_counterexample_under_1min():
    start = time.monotonic()
    P, transfers, h, fits = weighted_counterexample()
    assert h == 4
    assert fits is False
    assert fits_nonpreemptive(P, transfers, h) is False
    units = [(p, q, 1) for (p, q, w) in transfers for _ in range(w)]
    assert fits_nonpreemptive(P, units, h) is True
    assert time.monotonic() - start < 60
