"""Plain-BSP optima of `brute_opt_bsp` against a reference with no bound, no
seed and no symmetry rule beyond first-use processor labels.

The reference enumerates every assignment of nodes to (processor,
superstep) with S <= n and every superstep holding a node, completes each
precedence-respecting one with `cs_bruteforce` and prices it with `cost`.
So a bound, a seed, the search order or the twin rule that drops an
optimum fails here. maxbsp and duplication are not covered."""

import random

import pytest

from bspsched.commsched import CsError, CsInstance, cs_bruteforce
from bspsched.dag import Dag, random_dag
from bspsched.oracle import OracleBudget, brute_opt_bsp
from bspsched.schedule import MODELS, BspSchedule, MachineParams, cost

GLS = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 1))


def _assignments(n, P, S):
    """Every assignment of nodes 1..n to (p, s), s <= S, using every
    superstep, each node on a used processor or the lowest unused one."""
    cells = []

    def grow(top):
        if len(cells) == n:
            if len({s for (_, s) in cells}) == S:
                yield {v: (c,) for v, c in enumerate(cells, start=1)}
            return
        for p in range(1, min(top + 1, P) + 1):
            for s in range(1, S + 1):
                cells.append((p, s))
                yield from grow(max(top, p))
                cells.pop()

    return grow(0)


def reference(dag, P, model, gls):
    """The least cost at each (g, L) in gls over every complete schedule."""
    best = {}
    for S in range(1, dag.node_count + 1):
        for assign in _assignments(dag.node_count, P, S):
            try:
                inst = CsInstance(dag, P, S, assign)
            except CsError:  # some edge admits no communication
                continue
            gamma, _ = cs_bruteforce(inst, model, limit=64)
            sched = BspSchedule(P, S, assign, comms=gamma)
            for g, L in gls:
                total = cost(dag, sched, model, MachineParams(g, L)).cost
                best[g, L] = min(best.get((g, L), total), total)
    return best


def _check(dag, P, model_codes, gls=GLS):
    for code in model_codes:
        want = reference(dag, P, MODELS[code], gls)
        for g, L in gls:
            _, got = brute_opt_bsp(dag, P, g, L, MODELS[code], OracleBudget())
            assert got == want[g, L], (dag, P, code, g, L)


def _all_dags(n):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        yield Dag(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))


# nodes with equal predecessors, successors and weights are twins, which
# the search places in order; twins that differ in one weight are not
TWINS = [
    pytest.param(Dag(4, ()), id="edgeless"),
    pytest.param(Dag(4, ((1, 2), (1, 3), (1, 4))), id="fork-leaves"),
    pytest.param(Dag(4, ((1, 3), (1, 4), (2, 3), (2, 4))), id="bipartite-layer"),
    pytest.param(Dag(4, (), work_weight={1: 2, 3: 2}), id="edgeless-work"),
    pytest.param(Dag(4, ((1, 2), (1, 3), (2, 4), (3, 4)), comm_weight={2: 2}),
                 id="diamond-comm"),
    pytest.param(Dag(4, ((1, 2), (1, 3), (1, 4)), work_weight={2: 2, 4: 2},
                     comm_weight={1: 2}), id="fork-work"),
]


@pytest.mark.parametrize("dag", TWINS)
def test_twin_dags_match_reference(dag):
    _check(dag, 2, MODELS)


def test_twins_differing_in_work_match_reference():
    # the twin classes are {1, 4} and {2, 3, 5}; a twin key without weights
    # would make all five twins, keep processors nondecreasing in node
    # order at S = 1, and miss the split {1, 4} | {2, 3, 5} of cost 6
    dag = Dag(5, (), work_weight={1: 3, 2: 2, 3: 2, 4: 3, 5: 2})
    assert reference(dag, 2, MODELS["ds"], [(1, 0)]) == {(1, 0): 6}
    assert brute_opt_bsp(dag, 2, 1, 0)[1] == 6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_small_dag_matches_reference(n):
    for dag in _all_dags(n):
        _check(dag, 2, MODELS)


def test_every_four_node_dag_matches_reference():
    # one model per DAG, cycling, to keep the reference affordable
    codes = sorted(MODELS)
    for i, dag in enumerate(_all_dags(4)):
        _check(dag, 2, [codes[i % 4]])


def _weighted(dag, rng):
    work = {v: rng.randint(1, 3) for v in range(1, dag.node_count + 1)
            if rng.random() < 0.5}
    comm = {v: rng.randint(1, 3) for v in range(1, dag.node_count + 1)
            if rng.random() < 0.5}
    return Dag(dag.node_count, dag.edges, work, comm)


def test_weighted_four_node_dags_match_reference():
    rng = random.Random(7)
    codes = sorted(MODELS)
    for i in range(32):
        _check(_weighted(random_dag(4, 0.5, rng), rng), 2, [codes[i % 4]])


def test_five_node_dags_at_three_processors_match_reference():
    # every other DAG weighted; the reference takes about 1 s a DAG here
    rng = random.Random(11)
    codes = sorted(MODELS)
    for i in range(6):
        dag = random_dag(5, 0.4, rng)
        if i % 2:
            dag = _weighted(dag, rng)
        _check(dag, 3, [codes[i % 4]], [(1, 0), (0, 1), (1, 1)])
