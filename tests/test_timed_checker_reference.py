"""Differential test: the timed checkers against their earlier edge rules.

check_classical once wrote out its own placement, collision and barrier
passes, and check_commdelay restated the edge rule with its delay. Both are
kept below as they were, and now one checker with a delay serves both. On
random timed schedules with every node placed (weighted nodes, several
copies, overlaps and late or early consumers), validity, the violated
edges and the makespan must agree.
"""

import random
from collections import Counter
from typing import Dict, Tuple

from hypothesis import given, settings, strategies as st

from bspsched.dag import Dag, random_dag
from bspsched.schedule import ScheduleError, ValidityReport
from bspsched.variants import TimedSchedule, check_classical, check_commdelay


def ref_makespan(dag, ts):
    return max(
        t + dag.w_work(v) - 1 for v, copies in ts.assign.items() for (_, t) in copies
    )


def ref_single(ts, v):
    copies = ts.assign[v]
    if len(copies) != 1:
        raise ScheduleError(f"node {v} has {len(copies)} copies")
    return copies[0]


def ref_collisions(dag, ts, report):
    busy: Dict[Tuple[int, int], int] = {}
    for v, copies in ts.assign.items():
        for (p, t) in copies:
            for slot in range(t, t + dag.w_work(v)):
                key = (p, slot)
                if key in busy:
                    report.add(
                        "collision", v, f"nodes {busy[key]} and {v} overlap on p{p}"
                    )
                else:
                    busy[key] = v


def ref_blocked_boundaries(dag, ts):
    """Boundaries b (after slot b) straddled by some node's execution."""
    blocked = set()
    for v, copies in ts.assign.items():
        w = dag.w_work(v)
        for (_, t) in copies:
            for b in range(t, t + w - 1):
                blocked.add(b)
    return blocked


def ref_check_classical(dag, ts, barrier_sync=False, duplication=False):
    report = ValidityReport()
    for v in range(1, dag.node_count + 1):
        if v not in ts.assign:
            report.add("assign", v, f"node {v} not assigned")
            return report, 0
        if not duplication and len(ts.assign[v]) != 1:
            report.add("assign", v, f"node {v} duplicated without duplication mode")
    ref_collisions(dag, ts, report)
    blocked = ref_blocked_boundaries(dag, ts) if barrier_sync else set()
    for (u, v) in dag.edges:
        for (pv, tv) in ts.assign[v]:
            ok = False
            for (pu, tu) in ts.assign[u]:
                done = tu + dag.w_work(u)  # first slot after u
                if done > tv:
                    continue
                if pu == pv:
                    ok = True
                    break
                if not barrier_sync:
                    ok = True
                    break
                # cross edge needs a free synchronization boundary in between
                if any(b not in blocked for b in range(done - 1, tv)):
                    ok = True
                    break
            if not ok:
                report.add("edge", (u, v), f"dependency {u} -> {v} not satisfied")
    return report, ref_makespan(dag, ts)


def ref_check_commdelay(dag, ts, g):
    report = ValidityReport()
    for v in range(1, dag.node_count + 1):
        if v not in ts.assign:
            report.add("assign", v, f"node {v} not assigned")
            return report, 0
    ref_collisions(dag, ts, report)
    for (u, v) in dag.edges:
        pu, tu = ref_single(ts, u)
        pv, tv = ref_single(ts, v)
        need = tu + dag.w_work(u) + (g if pu != pv else 0)
        if tv < need:
            report.add("edge", (u, v), f"node {v} starts before {need}")
    return report, ref_makespan(dag, ts)


def random_timed(n, P, max_copies, heavy, rng):
    """A random DAG (weights 1-3 when heavy) and a timed schedule placing
    every node: each copy starts near the earliest finish of its inputs'
    first copies, so edges hold, fail by a slot or two, or cross
    barriers."""
    dag = random_dag(n, 0.5, rng)
    weights = {v: rng.randint(2, 3) for v in range(1, n + 1) if heavy and rng.random() < 0.5}
    dag = Dag(n, dag.edges, work_weight=weights)
    pred = dag.pred()
    assign = {}
    for v in dag.topo_order():
        ready = max((assign[u][0][1] + dag.w_work(u) for u in pred[v]), default=1)
        copies = {
            (rng.randint(1, P), max(1, ready + rng.randint(-1, 2)))
            for _ in range(rng.randint(1, max_copies))
        }
        assign[v] = tuple(sorted(copies))
    return dag, TimedSchedule(P, assign)


def rules(report):
    return Counter((rule, subject) for (rule, subject, _) in report.violations)


def edges(report):
    return {subject for (rule, subject, _) in report.violations if rule == "edge"}


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(1, 3), st.integers(1, 3), st.booleans(),
       st.integers(0, 10**6))
def test_check_classical_matches_reference(n, P, max_copies, heavy, seed):
    dag, ts = random_timed(n, P, max_copies, heavy, random.Random(seed))
    for barrier in (False, True):
        for duplication in (False, True):
            got, got_span = check_classical(dag, ts, barrier, duplication)
            want, want_span = ref_check_classical(dag, ts, barrier, duplication)
            assert got.valid == want.valid
            assert rules(got) == rules(want)
            assert got_span == want_span


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(1, 3), st.booleans(), st.integers(0, 10**6))
def test_check_commdelay_matches_reference(n, P, heavy, seed):
    dag, ts = random_timed(n, P, 1, heavy, random.Random(seed))
    for g in (0, 1, 2):
        got, got_span = check_commdelay(dag, ts, g)
        want, want_span = ref_check_commdelay(dag, ts, g)
        assert got.valid == want.valid
        assert edges(got) == edges(want)
        assert rules(got) == rules(want)
        assert got_span == want_span


def test_generator_reaches_every_outcome():
    """The random schedules include valid ones, and edges that only a
    barrier or only a delay refuses, so the comparisons above are not
    vacuous."""
    seen = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        dag, ts = random_timed(rng.randint(2, 7), rng.randint(2, 3), 1, True, rng)
        plain = ref_check_classical(dag, ts)[0]
        seen["valid"] += plain.valid
        seen["barrier"] += bool(edges(ref_check_classical(dag, ts, True)[0]) - edges(plain))
        seen["delay"] += bool(edges(ref_check_commdelay(dag, ts, 1)[0]) - edges(plain))
    assert all(seen[k] >= 10 for k in ("valid", "barrier", "delay")), seen
