"""Pinned search-node counts of the exact searches.

Each search below finishes within exactly N search nodes (calls of the
search's place step, which `OracleBudget.node_budget` counts) and runs out
of budget at N - 1. A change to any bound value, to the branching order or
to the pruning moves some N. The counts were taken from the searches that
recomputed their bounds from scratch at every node; the incremental bound
state must reproduce them."""

import pytest

from bspsched.dag import Dag, gen_layered, gen_taxonomy_fixture
from bspsched.oracle import (
    BudgetExceeded,
    OracleBudget,
    brute_opt_bsp,
    brute_opt_timed,
)
from bspsched.schedule import MODELS

GRID = gen_layered(3, 3, "adjacent")
HALVES = gen_taxonomy_fixture("three_halves", g=2, k0=2)  # 15 automorphisms
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
    "bsp-grid-ds": (_bsp(GRID, 3, 1, 0, "ds"), 7, 2097),
    "bsp-grid-db": (_bsp(GRID, 3, 1, 0, "db"), 7, 2121),
    "bsp-grid-fs": (_bsp(GRID, 3, 1, 0, "fs"), 7, 2121),
    "bsp-grid-fb": (_bsp(GRID, 3, 1, 0, "fb"), 7, 2121),
    "bsp-symmetric-ds": (_bsp(HALVES, 3, 1, 0, "ds"), 6, 1507),
    "bsp-weighted-ds": (_bsp(WEIGHTED, 3, 1, 1, "ds"), 13, 1307),
    "bsp-weighted-fs": (_bsp(WEIGHTED, 3, 1, 1, "fs"), 13, 1414),
    "bsp-maxbsp": (_bsp(HALVES, 3, 2, 0, "ds", maxbsp=True), 6, 6054),
    "bsp-maxbsp-pipeline": (
        _bsp(TWO_MINUS_EPS, 3, 2, 0, "ds", maxbsp=True), 6, 1),
    "bsp-duplication-ds": (_bsp(FORK, 2, 1, 0, "ds", duplication=True), 5, 53),
    "bsp-duplication-weighted-fs": (
        _bsp(WEIGHTED_SMALL, 2, 1, 1, "fs", duplication=True), 10, 363),
    "bsp-duplication-maxbsp-pipeline": (
        _bsp(TWO_MINUS_EPS_P2, 2, 1, 0, "ds", duplication=True, maxbsp=True),
        4, 1),
    "timed-classical": (_timed(GRID, 2, 1, "classical"), 6, 1903),
    "timed-classical-barrier": (_timed(CLASSWW, 3, 1, "classical_barrier"), 6, 23),
    "timed-commdelay": (_timed(HALVES, 3, 1, "commdelay"), 5, 559),
    "timed-spd": (_timed(SMALL, 2, 2, "spd"), 5, 6),
    "timed-spd-transfers": (_timed(WEIGHTED_DIAMOND, 2, 1, "spd"), 6, 8),
    "timed-classical-barrier-duplication": (
        _timed(RECOMP, 3, 1, "classical_barrier", duplication=True), 5, 21),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_search_node_count_is_pinned(name):
    search, optimum, nodes = PINS[name]
    _, opt = search(OracleBudget(max_nodes=12, node_budget=nodes))
    assert opt == optimum
    with pytest.raises(BudgetExceeded, match="node budget"):
        search(OracleBudget(max_nodes=12, node_budget=nodes - 1))


def test_timed_search_skipped_when_list_schedule_meets_lower_bound():
    # the earliest-task-first schedule reaches the lower bound 4, so no
    # makespan is searched and no search node is spent
    _, opt = _timed(HALVES, 3, 1, "classical")(OracleBudget(max_nodes=12, node_budget=0))
    assert opt == 4
