"""Pinned search-node counts of the exact searches.

Each search below finishes within exactly N search nodes (calls of the
search's place step, which `OracleBudget.node_budget` counts) and runs out
of budget at N - 1. A change to any bound value, to the branching order or
to the pruning moves some N. The counts were taken from the searches that
recomputed their bounds from scratch at every node; the incremental bound
state must reproduce them. `PYTHONPATH=src python tests/test_oracle_nodes.py`
recounts every pin and prints `name old → new`."""

import pytest
from hypothesis import given, settings, strategies as st

from bspsched.dag import Dag, gen_layered, gen_taxonomy_fixture
from bspsched.oracle import (
    BudgetExceeded,
    OracleBudget,
    _search_order,
    brute_opt_bsp,
    brute_opt_timed,
)
from bspsched.schedule import MODELS

GRID = gen_layered(3, 3, "adjacent")
HALVES = gen_taxonomy_fixture("three_halves", g=2, k0=2)  # 15 automorphisms
# the costliest searches of the benchmark's oracle round, at its P, g and L
HALVES_BENCH = gen_taxonomy_fixture("three_halves", g=2, k0=3)
GRID_BENCH = gen_layered(4, 3, "adjacent")
FORK_BENCH = gen_taxonomy_fixture("fork", length=6)
CLASSWW = gen_taxonomy_fixture("classWW")  # weighted
RECOMP = gen_taxonomy_fixture("recomp")  # weighted
FORK = gen_taxonomy_fixture("fork", length=4)
# the path-cover pipeline seed meets the maxbsp bound on both at once
TWO_MINUS_EPS = gen_taxonomy_fixture("two_minus_eps", g=2, k=1, p=3)
TWO_MINUS_EPS_P2 = gen_taxonomy_fixture("two_minus_eps", g=1, k=1, p=2)
WEIGHTED = Dag(
    8,
    ((1, 2), (1, 4), (1, 6), (1, 7), (2, 3), (2, 8), (3, 5), (3, 6), (3, 7),
     (3, 8), (4, 8), (5, 6), (5, 8)),
    work_weight={2: 2, 3: 3, 5: 2, 8: 2},
)
SMALL = Dag(5, ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (4, 5)))
WEIGHTED_DIAMOND = Dag(
    4, ((1, 2), (1, 3), (2, 4), (3, 4)), work_weight={2: 3, 3: 3}
)  # its spd optimum needs two transfers
# under the connectivity-first search order, without the path floor, this
# DAG took 1,087,486 nodes against 240,814 under topo_order()
ORDER_WORST = Dag(
    8,
    ((1, 2), (1, 3), (1, 5), (1, 7), (1, 8), (2, 5), (2, 6), (2, 8), (3, 5),
     (3, 6), (3, 7), (3, 8), (4, 6), (6, 8)),
    work_weight={1: 2, 2: 3, 4: 2, 6: 3, 8: 2},
    comm_weight={1: 3, 4: 2},
)
# the plain search of the benchmark's two_minus_eps ratio cell
TWO_MINUS_EPS_CELL = gen_taxonomy_fixture("two_minus_eps", g=1, k=2, p=3)
WEIGHTED_SMALL = Dag(
    5,
    ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5)),
    work_weight={2: 3, 4: 3, 5: 2},
)


def _bsp(dag, P, g, L, code, **kw):
    return lambda budget: brute_opt_bsp(dag, P, g, L, MODELS[code], budget, **kw)


def _timed(dag, P, g, kind, **kw):
    return lambda budget: brute_opt_timed(dag, P, g, kind, budget, **kw)


# (search, optimum, search nodes)
PINS = {
    "bsp-grid-ds": (_bsp(GRID, 3, 1, 0, "ds"), 7, 947),
    "bsp-grid-db": (_bsp(GRID, 3, 1, 0, "db"), 7, 952),
    "bsp-grid-fs": (_bsp(GRID, 3, 1, 0, "fs"), 7, 952),
    "bsp-grid-fb": (_bsp(GRID, 3, 1, 0, "fb"), 7, 952),
    "bsp-symmetric-ds": (_bsp(HALVES, 3, 1, 0, "ds"), 6, 188),
    "bsp-weighted-ds": (_bsp(WEIGHTED, 3, 1, 1, "ds"), 13, 81),
    "bsp-weighted-fs": (_bsp(WEIGHTED, 3, 1, 1, "fs"), 13, 81),
    "bsp-maxbsp": (_bsp(HALVES, 3, 2, 0, "ds", maxbsp=True), 6, 120),
    "bsp-bench-halves-ds": (_bsp(HALVES_BENCH, 3, 2, 0, "ds"), 9, 3568),
    "bsp-bench-grid-ds": (_bsp(GRID_BENCH, 3, 2, 0, "ds"), 12, 3862),
    "bsp-bench-two-minus-eps-ds": (
        _bsp(TWO_MINUS_EPS_CELL, 3, 1, 0, "ds"), 10, 28243),
    "bsp-order-worst-ds": (_bsp(ORDER_WORST, 3, 1, 0, "ds"), 14, 13029),
    "bsp-bench-fork-maxbsp": (
        _bsp(FORK_BENCH, 3, 1, 0, "ds", maxbsp=True), 8, 5004),
    "bsp-maxbsp-pipeline": (
        _bsp(TWO_MINUS_EPS, 3, 2, 0, "ds", maxbsp=True), 6, 1),
    "bsp-duplication-ds": (_bsp(FORK, 2, 1, 0, "ds", duplication=True), 5, 41),
    "bsp-duplication-weighted-fs": (
        _bsp(WEIGHTED_SMALL, 2, 1, 1, "fs", duplication=True), 10, 363),
    "bsp-duplication-maxbsp-pipeline": (
        _bsp(TWO_MINUS_EPS_P2, 2, 1, 0, "ds", duplication=True, maxbsp=True),
        4, 1),
    "timed-classical": (_timed(GRID, 2, 1, "classical"), 6, 1903),
    "timed-classical-barrier": (_timed(CLASSWW, 3, 1, "classical_barrier"), 6, 82),
    "timed-commdelay": (_timed(HALVES, 3, 1, "commdelay"), 5, 155),
    "timed-spd": (_timed(SMALL, 2, 2, "spd"), 5, 6),
    "timed-spd-transfers": (_timed(WEIGHTED_DIAMOND, 2, 1, "spd"), 6, 8),
    "timed-classical-barrier-duplication": (
        _timed(RECOMP, 3, 1, "classical_barrier", duplication=True), 5, 15),
}


def _run(search, nodes):
    return search(OracleBudget(max_nodes=18, node_budget=nodes))


@pytest.mark.parametrize("name", sorted(PINS))
def test_search_node_count_is_pinned(name):
    search, optimum, nodes = PINS[name]
    _, opt = _run(search, nodes)
    assert opt == optimum
    with pytest.raises(BudgetExceeded, match="node budget"):
        _run(search, nodes - 1)


def test_timed_search_skipped_when_list_schedule_meets_lower_bound():
    # the earliest-task-first schedule reaches the lower bound 4, so no
    # makespan is searched and no search node is spent
    _, opt = _timed(HALVES, 3, 1, "classical")(OracleBudget(max_nodes=12, node_budget=0))
    assert opt == 4


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)),
    st.sets(st.tuples(st.integers(1, n), st.integers(1, n))))))
def test_search_order_is_topological(case):
    # each pair points along a random ranking of the nodes, so edges run
    # both ways in node numbers while the graph stays acyclic
    rank, pairs = case
    edges = tuple({tuple(sorted((u, v), key=rank.index))
                   for u, v in pairs if u != v})
    order = _search_order(Dag(len(rank), edges))
    assert sorted(order) == sorted(rank)
    at = {v: i for i, v in enumerate(order)}
    assert all(at[u] < at[v] for u, v in edges)


def _finishes(search, nodes: int) -> bool:
    try:
        _run(search, nodes)
    except BudgetExceeded as e:
        if "node budget" not in str(e):
            raise
        return False
    return True


def recount():
    """Print `name old → new` for every pin: the least node budget the search
    finishes within (it then runs out at one less), found by bisection."""
    for name in sorted(PINS):
        search, optimum, nodes = PINS[name]
        lo, hi = 0, max(nodes, 1)
        while not _finishes(search, hi):
            lo, hi = hi + 1, 2 * hi
        while lo < hi:
            mid = (lo + hi) // 2
            if _finishes(search, mid):
                hi = mid
            else:
                lo = mid + 1
        opt = _run(search, hi)[1]
        moved = f" (optimum {optimum} → {opt})" if opt != optimum else ""
        print(f"{name} {nodes:,} → {hi:,}{moved}", flush=True)


if __name__ == "__main__":
    recount()
