"""The timed oracle starts from a serial or list-scheduling incumbent and
searches only makespans below it. The reference is the same function with
the incumbent replaced by (serial schedule, total work + 1), which makes it
try every makespan from the lower bound up to the total work, the plain
upward loop. Both must agree on every optimum."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bspsched import oracle
from bspsched.dag import Dag, gen_taxonomy_fixture
from bspsched.oracle import BudgetExceeded, OracleBudget, brute_opt_timed
from bspsched.variants import (
    TimedSchedule,
    check_classical,
    check_commdelay,
    check_spd,
)

BUDGET = OracleBudget(max_nodes=18)

# (model, duplication)
VARIANTS = [
    ("classical", False),
    ("classical_barrier", False),
    ("commdelay", False),
    ("spd", False),
    ("classical", True),
    ("classical_barrier", True),
]


def _serial_bound(dag, P, *args):
    t, serial = 1, {}
    for v in dag.topo_order():
        serial[v] = ((1, t),)
        t += dag.w_work(v)
    return TimedSchedule(P, serial), dag.total_work() + 1


def reference(dag, P, g, model, duplication=False):
    with mock.patch.object(oracle, "_timed_incumbent", _serial_bound):
        return brute_opt_timed(dag, P, g, model, BUDGET, duplication)


def assert_valid(dag, ts, P, g, model, duplication, optimum):
    assert ts.processor_count == P
    if model == "commdelay":
        report, span = check_commdelay(dag, ts, g)
    elif model == "spd":
        report, span = check_spd(dag, ts, g)
    else:
        report, span = check_classical(dag, ts, model == "classical_barrier",
                                       duplication)
    assert report.valid, report.violations
    assert span == optimum


@st.composite
def dags(draw, max_nodes):
    n = draw(st.integers(1, max_nodes))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weights = {}
    if draw(st.booleans()):  # heavy nodes are what barriers have to respect
        drawn = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=n, max_size=n))
        weights = {v: x for v, x in enumerate(drawn, start=1) if x > 1}
    return Dag(n, tuple(e for e, k in zip(pairs, keep) if k), work_weight=weights)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_optimum_matches_plain_upward_loop(data):
    model, duplication = data.draw(st.sampled_from(VARIANTS))
    dag = data.draw(dags(8))
    P = data.draw(st.sampled_from((2, 3)))
    g = data.draw(st.sampled_from((0, 1, 2)))
    ts, opt = brute_opt_timed(dag, P, g, model, BUDGET, duplication)
    _, want = reference(dag, P, g, model, duplication)
    assert opt == want
    assert_valid(dag, ts, P, g, model, duplication, opt)


def _incumbent_and_search(dag, P, g, model):
    """The optimum, the incumbent's makespan and whether any makespan was
    searched (a zero node budget runs out as soon as one is)."""
    seen, incumbent = [], oracle._timed_incumbent

    def spy(*args):
        seen.append(incumbent(*args))
        return seen[-1]

    with mock.patch.object(oracle, "_timed_incumbent", spy):
        ts, opt = brute_opt_timed(dag, P, g, model, BUDGET)
    try:
        brute_opt_timed(dag, P, g, model, OracleBudget(max_nodes=18, node_budget=0))
        searched = False
    except BudgetExceeded:
        searched = True
    return ts, opt, seen[0][1], searched


@pytest.mark.parametrize("dag,P,g,optimum,incumbent,searched", [
    # the list schedule meets the lower bound: no makespan is searched
    (gen_taxonomy_fixture("three_halves", g=2, k0=3), 3, 2, 6, 6, False),
    # the list schedule spans 6; the search finds 5
    (gen_taxonomy_fixture("three_halves", g=2, k0=2), 3, 1, 5, 6, True),
], ids=["incumbent-optimal", "incumbent-beaten"])
def test_commdelay_incumbent(dag, P, g, optimum, incumbent, searched):
    ts, opt, upper, ran = _incumbent_and_search(dag, P, g, "commdelay")
    assert (opt, upper, ran) == (optimum, incumbent, searched)
    assert reference(dag, P, g, "commdelay")[1] == optimum
    assert_valid(dag, ts, P, g, "commdelay", False, optimum)


@pytest.mark.parametrize("dag,P,optimum", [
    # each list schedule has a cross edge (2 -> 4; 2 -> 3) with no free
    # boundary between its ends, because the heavy node 6 (4) straddles them
    (gen_taxonomy_fixture("classWW"), 3, 6),
    (Dag(4, ((1, 3), (2, 3)), work_weight={4: 3}), 3, 3),
], ids=["classWW", "heavy-solo"])
def test_barrier_checker_refuses_list_schedule(dag, P, optimum):
    ts, opt = brute_opt_timed(dag, P, 1, "classical_barrier", BUDGET)
    assert opt == reference(dag, P, 1, "classical_barrier")[1] == optimum
    assert_valid(dag, ts, P, 1, "classical_barrier", False, optimum)
