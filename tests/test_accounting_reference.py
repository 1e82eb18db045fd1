"""Differential test: the superstep-accounting kernel against the loops it
replaced.

The references below are the per-superstep work/sent/received loops that
schedule.cost, commsched.comm_cost and variants.check_maxbsp each wrote out
on their own before they shared schedule.work_loads and schedule.comm_loads
(the ILP's cost variables are checked against the kernel through
ilp.encode_schedule in criterion 8). The library must price random
weighted schedules, with duplicated copies and broadcast fan-out, exactly as
they did.
"""

import random

from hypothesis import given, settings, strategies as st

from bspsched.commsched import CsInstance, comm_cost, cs_bruteforce
from bspsched.dag import Dag, random_dag
from bspsched.schedule import DS, MODELS, BspSchedule, MachineParams, cost
from bspsched.variants import check_maxbsp


def ref_cost(dag, sched, model, params):
    P, S = sched.processor_count, sched.superstep_count
    work_ps = [[0] * P for _ in range(S)]
    for v, copies in sched.assign.items():
        for (p, s) in copies:
            work_ps[s - 1][p - 1] += dag.w_work(v)
    sent = [[0] * P for _ in range(S)]
    rec = [[0] * P for _ in range(S)]
    if model.cast == "broadcast":
        for (v, p1, s) in {(v, p1, s) for (v, p1, _, s) in sched.comms}:
            sent[s - 1][p1 - 1] += dag.w_comm(v)
    else:
        for (v, p1, p2, s) in sched.comms:
            sent[s - 1][p1 - 1] += dag.w_comm(v)
    for (v, p1, p2, s) in sched.comms:
        rec[s - 1][p2 - 1] += dag.w_comm(v)
    work = [max(row) if row else 0 for row in work_ps]
    comm = [max(max(sent[s][p], rec[s][p]) for p in range(P)) for s in range(S)]
    latency_supersteps = sum(1 for c in comm if c > 0)
    return dict(
        work=tuple(work),
        sent=tuple(tuple(r) for r in sent),
        rec=tuple(tuple(r) for r in rec),
        comm=tuple(comm),
        work_total=sum(work),
        comm_total=sum(comm),
        latency_total=params.L * latency_supersteps,
        cost=sum(work) + params.g * sum(comm) + params.L * latency_supersteps,
    )


def ref_comm_cost(inst, gamma, model):
    sent = [[0] * inst.P for _ in range(inst.S)]
    rec = [[0] * inst.P for _ in range(inst.S)]
    if model.cast == "broadcast":
        for (v, p1, s) in {(v, p1, s) for (v, p1, _, s) in gamma}:
            sent[s - 1][p1 - 1] += inst.dag.w_comm(v)
    else:
        for (v, p1, p2, s) in gamma:
            sent[s - 1][p1 - 1] += inst.dag.w_comm(v)
    for (v, p1, p2, s) in gamma:
        rec[s - 1][p2 - 1] += inst.dag.w_comm(v)
    return sum(
        max(max(sent[s][p], rec[s][p]) for p in range(inst.P)) for s in range(inst.S)
    )


def ref_maxbsp_total(dag, P, S, assign, comms, params, alt_latency):
    work_ps = [[0] * P for _ in range(S)]
    for v, copies in assign.items():
        for (p, s) in copies:
            work_ps[s - 1][p - 1] += dag.w_work(v)
    sent = [[0] * P for _ in range(S)]
    rec = [[0] * P for _ in range(S)]
    for (v, p1, p2, s) in comms:
        sent[s - 1][p1 - 1] += dag.w_comm(v)
        rec[s - 1][p2 - 1] += dag.w_comm(v)
    total = 0
    for s in range(S):
        w = max(work_ps[s])
        c = max(max(sent[s][p], rec[s][p]) for p in range(P))
        lat = params.L if c > 0 else 0
        if alt_latency:
            total += max(w, params.g * c) + lat
        else:
            total += max(w, params.g * c + lat)
    return total


def weighted_dag(n, rng):
    """Random DAG; some nodes weigh 2 or 3 in work and in communication."""
    edges = random_dag(n, 0.5, rng).edges
    work = {v: rng.choice((2, 3)) for v in range(1, n + 1) if rng.random() < 0.4}
    comm = {v: rng.choice((2, 3)) for v in range(1, n + 1) if rng.random() < 0.4}
    return Dag(n, edges, work, comm)


def layered_assign(dag, P, rng):
    """One copy per node, supersteps rising by at least two along each edge,
    so every cross edge has a communication slot."""
    depth = {}
    for v in dag.topo_order():
        depth[v] = 1 + max((depth[u] for (u, w) in dag.edges if w == v), default=0)
    return {v: ((rng.randint(1, P), 2 * depth[v] - 1 + rng.randint(0, 1)),)
            for v in range(1, dag.node_count + 1)}


def random_tuples(n, P, S, rng, count):
    """Tuples (v, p1, p2, s); some repeat (v, p1, s) with another target so
    broadcast has fan-out to charge once."""
    out = set()
    for _ in range(count):
        v, s = rng.randint(1, n), rng.randint(1, S)
        p1, p2 = rng.sample(range(1, P + 1), 2)
        out.add((v, p1, p2, s))
        if P > 2 and rng.random() < 0.5:
            out.add((v, p1, rng.choice([p for p in range(1, P + 1) if p not in (p1, p2)]), s))
    return frozenset(out)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(2, 4), st.integers(1, 5), st.integers(1, 3),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 10**6))
def test_cost_matches_reference(n, P, S, max_copies, g, L, seed):
    rng = random.Random(seed)
    dag = weighted_dag(n, rng)
    params = MachineParams(g, L)
    assign = {
        v: tuple(sorted({(rng.randint(1, P), rng.randint(1, S))
                         for _ in range(rng.randint(1, max_copies))}))
        for v in range(1, n + 1)
    }
    node = BspSchedule(P, S, assign, random_tuples(n, P, S, rng, rng.randint(0, 6)))
    for model in MODELS.values():
        assert vars(cost(dag, node, model, params)) == ref_cost(dag, node, model, params)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(2, 4), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 10**6))
def test_comm_cost_and_maxbsp_objective_match_reference(n, P, g, L, seed):
    rng = random.Random(seed)
    dag = weighted_dag(n, rng)
    assign = layered_assign(dag, P, rng)
    S = max(s for ((_, s),) in assign.values()) + 1
    inst = CsInstance(dag, P, S, assign)
    gamma = random_tuples(n, P, S, rng, rng.randint(0, 8))
    for model in MODELS.values():
        assert comm_cost(inst, gamma, model) == ref_comm_cost(inst, gamma, model)
    params = MachineParams(g, L)
    best, value = cs_bruteforce(inst, DS, objective="maxbsp", params=params)
    assert value == ref_maxbsp_total(dag, P, S, assign, best, params, False)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(2, 4), st.integers(1, 3), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 10**6))
def test_check_maxbsp_total_matches_reference(n, P, max_copies, g, L, seed):
    rng = random.Random(seed)
    dag = weighted_dag(n, rng)
    S = 2 * n + 1
    assign = {
        v: tuple(sorted({(rng.randint(1, P), rng.randint(1, S))
                         for _ in range(rng.randint(1, max_copies))}))
        for v in range(1, n + 1)
    }
    # tuples for node n + 1 are bogus sends; they are reported, and priced
    sched = BspSchedule(P, S, assign, random_tuples(n + 1, P, S, rng, rng.randint(0, 8)))
    params = MachineParams(g, L)
    for alt in (False, True):
        _, total = check_maxbsp(dag, sched, params, alt_latency=alt)
        assert total == ref_maxbsp_total(dag, P, S, assign, sched.comms, params, alt)
