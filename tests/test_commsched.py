import random

import pytest
from hypothesis import given, settings, strategies as st

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
from bspsched.dag import Dag, random_dag
from bspsched.schedule import DB, DS, FB, FS, BspSchedule, check_validity


def instance(dag, P, S, assign, **kw):
    return CsInstance(dag, P, S, {v: (ps,) for v, ps in assign.items()}, **kw)


def test_instance_stores_read_only_copy():
    dag = Dag(2, ((1, 2),))
    assign = {1: [[1, 1]], 2: ((2, 2),)}
    inst = CsInstance(dag, 2, 2, assign)
    assign[1][0][0] = 2
    assign[2] = ((1, 1),)
    assert inst.assign == {1: ((1, 1),), 2: ((2, 2),)}
    with pytest.raises(TypeError):
        inst.assign[2] = ((1, 1),)
    with pytest.raises(TypeError):
        inst.assign[1][0][0] = 2
    assert cs_eager(inst) == {(1, 1, 2, 1)}


def pipeline_instance():
    """Forced transfers both ways in most supersteps plus one flexible value
    computed on p2 in superstep 1 and needed on p1 only in superstep 4."""
    dag = Dag(12, ((1, 4), (2, 5), (3, 6), (7, 9), (8, 10), (11, 12)))
    assign = {
        1: (1, 1), 2: (1, 2), 3: (1, 3),
        4: (2, 2), 5: (2, 3), 6: (2, 4),
        7: (2, 1), 8: (2, 3),
        9: (1, 2), 10: (1, 4),
        11: (2, 1), 12: (1, 4),
    }
    return dag, instance(dag, 2, 4, assign)


def relay_instance():
    """Forced p2->p1 in superstep 1 and p3->p2 in superstep 2; a flexible
    value from p3 needed on p1 collides with both direct windows but can be
    relayed through p2 without raising any superstep."""
    dag = Dag(6, ((1, 2), (3, 4), (5, 6)))
    assign = {
        1: (2, 1), 2: (1, 2),
        3: (3, 2), 4: (2, 3),
        5: (3, 1), 6: (1, 3),
    }
    return dag, instance(dag, 3, 3, assign)


def test_requirements_basic():
    dag = Dag(3, ((1, 2), (1, 3)))
    inst = instance(dag, 2, 3, {1: (1, 1), 2: (2, 2), 3: (2, 3)})
    reqs = cross_requirements(inst)
    assert len(reqs) == 1
    assert reqs[0].value == 1 and reqs[0].target == 2 and reqs[0].first_need == 2


def test_requirements_are_fresh_each_call():
    dag = Dag(3, ((1, 2), (1, 3)))
    inst = instance(dag, 2, 3, {1: (1, 1), 2: (2, 2), 3: (2, 3)})
    assert inst.needs == ((1, 2, 2, 2),)  # (value, target, first_need, consumer)
    cross_requirements(inst)[0].options.append(frozenset())
    assert cross_requirements(inst)[0].options == []


def ref_needs(dag, assign, maxbsp):
    """The per-consumer-copy scan: the earliest non-local need of each
    (value, processor), or None when some copy admits no send slot."""
    gap = 2 if maxbsp else 1
    need = {}
    for (u, v) in dag.edges:
        for (pv, sv) in assign[v]:
            if any(pu == pv and su <= sv for (pu, su) in assign[u]):
                continue
            if not any(su + gap <= sv for (_, su) in assign[u]):
                return None
            need[u, pv] = min(need.get((u, pv), sv), sv)
    return sorted((u, p, s) for (u, p), s in need.items())


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(2, 3), st.integers(1, 2), st.booleans(),
       st.integers(0, 10**6))
def test_needs_match_per_copy_scan(n, P, max_copies, maxbsp, seed):
    rng = random.Random(seed)
    dag = random_dag(n, 0.5, rng)
    S, pred, assign = 4 * n, dag.pred(), {}
    for v in dag.topo_order():  # copies near their inputs' supersteps
        s = max((assign[u][0][1] for u in pred[v]), default=1)
        assign[v] = tuple(sorted({(rng.randint(1, P), max(1, s + rng.randint(-1, 3)))
                                  for _ in range(rng.randint(1, max_copies))}))
    want = ref_needs(dag, assign, maxbsp)
    try:
        inst = CsInstance(dag, P, S, assign, maxbsp)
    except CsError:
        assert want is None
        return
    assert [(u, p, s) for (u, p, s, _) in inst.needs] == want


def test_node_outside_dag_rejected():
    with pytest.raises(CsError, match="outside the DAG"):
        instance(Dag(1, ()), 2, 1, {1: (1, 1), 99: (2, 1)})


def test_infeasible_assignment_rejected():
    dag = Dag(2, ((1, 2),))
    with pytest.raises(CsError):
        instance(dag, 2, 2, {1: (1, 2), 2: (2, 2)})


def test_eager_and_lazy_windows():
    dag = Dag(2, ((1, 2),))
    inst = instance(dag, 2, 4, {1: (1, 1), 2: (2, 4)})
    assert cs_eager(inst) == frozenset({(1, 1, 2, 1)})
    assert cs_lazy(inst) == frozenset({(1, 1, 2, 3)})


def test_eager_and_lazy_send_from_a_copy_off_the_target():
    # node 1's first copy lies on p1, which needs it; its copy on p2 sends
    dag = Dag(2, ((1, 2),))
    inst = CsInstance(dag, 2, 3, {1: ((1, 3), (2, 1)), 2: ((1, 2),)})
    assert cs_eager(inst) == cs_lazy(inst) == frozenset({(1, 2, 1, 1)})


def test_eager_and_lazy_complete_duplicated_instances():
    for seed in range(300):
        rng = random.Random(seed)
        n, P = rng.randint(2, 7), rng.randint(2, 3)
        dag = random_dag(n, 0.5, rng)
        S, pred, assign = 3 * n, dag.pred(), {}
        for v in dag.topo_order():  # copies near their inputs' earliest copies
            s = max((min(su for (_, su) in assign[u]) for u in pred[v]), default=1)
            assign[v] = tuple(sorted({(rng.randint(1, P), s + rng.randint(0, 2))
                                      for _ in range(rng.randint(1, 3))}))
        try:
            inst = CsInstance(dag, P, S, assign)
        except CsError:
            continue
        for gamma in (cs_eager(inst), cs_lazy(inst)):
            sched = BspSchedule(P, S, inst.assign, gamma)
            assert check_validity(dag, sched, DS, duplication=True).valid, seed


def test_greedy_refuses_communication_weights():
    # the greedy counts values; on these weights it sends 7 units where 6
    # suffice, so it refuses instead of returning a set above the optimum
    dag = Dag(7, ((2, 6), (2, 7), (3, 6), (4, 7), (5, 7), (6, 7)),
              comm_weight={2: 2, 3: 3, 6: 3, 7: 3})
    inst = instance(dag, 2, 5, {1: (2, 2), 2: (2, 2), 3: (1, 2), 4: (1, 1),
                                5: (2, 2), 6: (2, 4), 7: (1, 5)})
    _, best = cs_bruteforce(inst, DS)
    assert best == 6
    with pytest.raises(CsError, match="unit communication weights"):
        cs_greedy_p2(inst)


def test_single_slot_window():
    dag = Dag(2, ((1, 2),))
    inst = instance(dag, 2, 2, {1: (1, 1), 2: (2, 2)})
    assert cs_eager(inst) == cs_lazy(inst) == frozenset({(1, 1, 2, 1)})


def test_no_cross_edges_empty_gamma():
    dag = Dag(3, ((1, 2),))
    inst = instance(dag, 2, 2, {1: (1, 1), 2: (1, 2), 3: (2, 1)})
    assert cs_eager(inst) == cs_lazy(inst) == cs_greedy_p2(inst) == frozenset()
    assert comm_cost(inst, frozenset(), DS) == 0


def test_pipeline_costs():
    dag, inst = pipeline_instance()
    greedy = cs_greedy_p2(inst)
    assert comm_cost(inst, greedy, DS) == 3
    assert comm_cost(inst, cs_eager(inst), DS) == 4
    assert comm_cost(inst, cs_lazy(inst), DS) == 4
    _, brute = cs_bruteforce(inst, DS)
    assert brute == 3
    # the flexible value travels in superstep 2
    assert (11, 2, 1, 2) in greedy


def test_pipeline_gamma_valid():
    dag, inst = pipeline_instance()
    for gamma in (cs_greedy_p2(inst), cs_eager(inst), cs_lazy(inst)):
        sched = BspSchedule(2, 4, inst.assign, gamma)
        assert check_validity(dag, sched, DS).valid


def test_relay_models_differ():
    dag, inst = relay_instance()
    _, direct = cs_bruteforce(inst, DS)
    _, free = cs_bruteforce(inst, FS)
    assert direct == 3
    assert free == 2


def test_maxbsp_windows_shifted():
    dag = Dag(2, ((1, 2),))
    inst = instance(dag, 2, 3, {1: (1, 1), 2: (2, 3)}, maxbsp=True)
    assert cs_eager(inst) == frozenset({(1, 1, 2, 2)})
    with pytest.raises(CsError):
        instance(dag, 2, 2, {1: (1, 1), 2: (2, 2)}, maxbsp=True)


def test_bruteforce_limit_guard():
    dag = Dag(42, tuple((u, u + 21) for u in range(1, 22)))
    assign = {}
    for u in range(1, 22):
        assign[u] = (1, 1)
        assign[u + 21] = (2, 3)
    inst = instance(dag, 2, 3, assign)
    with pytest.raises(CsError):
        cs_bruteforce(inst, DS, limit=20)


def greedy_ordering_holds(inst, gamma):
    # a value sent before its last chance never jumps ahead of one whose
    # deadline is earlier and is still pending in the same direction
    reqs = {(r.value, r.target): r.first_need for r in cross_requirements(inst)}
    sent_at = {(v, p2): s for (v, p1, p2, s) in gamma}
    for (v, p2), s in sent_at.items():
        for (w, q2), t in sent_at.items():
            if (v, p2) == (w, q2) or q2 != p2:
                continue
            if reqs[(w, q2)] < reqs[(v, p2)] and t > s and reqs[(w, q2)] > s + 1:
                # w was pending, strictly more urgent, yet v went first even
                # though v was not yet forced
                if reqs[(v, p2)] > s + 1:
                    return False
    return True


def random_instance(rng, P=2, n_hi=10, S_hi=5):
    n = rng.randrange(4, n_hi + 1)
    S = rng.randrange(2, S_hi + 1)
    dag = random_dag(n, 0.4, rng)
    order = dag.topo_order()
    pred = dag.pred()
    assign = {}
    for v in order:
        lo = 1
        for u in pred[v]:
            assign[u] = assign[u]
            (pu, su) = assign[u]
            lo = max(lo, su + 1)
        if lo > S:
            return None
        assign[v] = (rng.randrange(1, P + 1), rng.randrange(lo, S + 1))
    return instance(dag, P, S, assign)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_greedy_matches_bruteforce_p2(seed):
    inst = random_instance(random.Random(seed))
    if inst is None:
        return
    if len(cross_requirements(inst)) > 12:
        return
    greedy = cs_greedy_p2(inst)
    got = comm_cost(inst, greedy, DS)
    _, want = cs_bruteforce(inst, DS)
    assert got == want
    assert got <= comm_cost(inst, cs_eager(inst), DS)
    assert got <= comm_cost(inst, cs_lazy(inst), DS)
    assert greedy_ordering_holds(inst, greedy)
    sched = BspSchedule(2, inst.S, inst.assign, greedy)
    dag = inst.dag
    assert check_validity(dag, sched, DS).valid


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_free_models_never_worse(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, P=rng.choice((2, 3)), n_hi=7, S_hi=4)
    if inst is None or len(cross_requirements(inst)) > 8:
        return
    _, ds = cs_bruteforce(inst, DS)
    _, fs = cs_bruteforce(inst, FS)
    _, db = cs_bruteforce(inst, DB)
    _, fb = cs_bruteforce(inst, FB)
    assert fs <= ds
    assert fb <= db
    assert db <= ds
    assert fb <= fs
