"""Differential test: the delivery index against brute-force validity checks.

The reference checkers below restate the delivery rules the slow way: a
nested scan of every communication tuple per cross edge under direct
transfer, and a fixed-point sweep over (value, processor, superstep)
presence triples under free transfer. The library must report the same
violations on random schedules with duplicated copies, relay chains,
same-superstep relays, deleted tuples and bogus tuples.
"""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from bspsched.dag import random_dag
from bspsched.schedule import (
    MODELS,
    BspSchedule,
    MachineParams,
    ValidityReport,
    check_validity,
)
from bspsched.variants import check_maxbsp


def ref_presence(sched):
    """Set of (v, p, s): v computed on p by s, or received on p before s,
    closed under relaying until nothing changes."""
    S = sched.superstep_count
    pres = set()
    for v, copies in sched.assign.items():
        for (p, s0) in copies:
            pres.update((v, p, s) for s in range(s0, S + 1))
    changed = True
    while changed:
        changed = False
        for (v, p1, p2, s) in sched.comms:
            if (v, p1, s) in pres:
                for s2 in range(s + 1, S + 1):
                    if (v, p2, s2) not in pres:
                        pres.add((v, p2, s2))
                        changed = True
    return pres


def ref_check_validity(dag, sched, model, duplication):
    report = ValidityReport()
    for v in range(1, dag.node_count + 1):
        copies = sched.assign[v]
        if not duplication and len(copies) != 1:
            report.add("assign", v, f"node {v} has {len(copies)} copies without duplication")
    free = model.transfer == "free"
    pres = ref_presence(sched) if free else None
    for t in sched.comms:
        v, p1, p2, s = t
        if free:
            if (v, p1, s) not in pres:
                report.add("send", t, f"value {v} not present on p{p1} at superstep {s}")
        elif not any(p == p1 and sv <= s for (p, sv) in sched.assign.get(v, ())):
            report.add("send", t, f"value {v} not computed on p{p1} by superstep {s}")
    for (u, v) in dag.edges:
        for (pv, sv) in sched.assign[v]:
            if any(pu == pv and su <= sv for (pu, su) in sched.assign[u]):
                continue
            if free:
                if (u, pv, sv) not in pres:
                    report.add(
                        "edge", (u, v),
                        f"value {u} absent on p{pv} when node {v} runs in superstep {sv}",
                    )
            elif not any(
                cu == u and c2 == pv and cs < sv
                and any(pu == c1 and su <= cs for (pu, su) in sched.assign[u])
                for (cu, c1, c2, cs) in sched.comms
            ):
                report.add(
                    "edge", (u, v),
                    f"no tuple delivers value {u} to p{pv} before superstep {sv}",
                )
    return report


def ref_maxbsp_violations(dag, sched):
    report = ValidityReport()
    for t in sched.comms:
        v, p1, p2, s = t
        if not any(p == p1 and sv < s for (p, sv) in sched.assign.get(v, ())):
            report.add("send", t, f"value {v} not computed on p{p1} before superstep {s}")
    for (u, v) in dag.edges:
        for (pv, sv) in sched.assign[v]:
            if any(pu == pv and su <= sv for (pu, su) in sched.assign[u]):
                continue
            if not any(
                cu == u and c2 == pv and cs < sv
                and any(pu == c1 and su < cs for (pu, su) in sched.assign[u])
                for (cu, c1, c2, cs) in sched.comms
            ):
                report.add("edge", (u, v), f"value {u} not delivered to p{pv} in time")
    return report


def random_schedule(dag, P, S, rng, max_copies):
    """Copies near topological depth, plus direct sends, relay chains
    (some within one superstep), deleted tuples and bogus tuples."""
    depth = {}
    for v in dag.topo_order():
        depth[v] = 1 + max((depth[u] for (u, w) in dag.edges if w == v), default=0)
    assign = {}
    for v in range(1, dag.node_count + 1):
        slots = {
            (rng.randint(1, P), min(S, max(1, 2 * depth[v] - 1 + rng.randint(-1, 1))))
            for _ in range(rng.randint(1, max_copies))
        }
        assign[v] = tuple(sorted(slots))
    comms = set()
    for (u, v) in dag.edges:
        for (pv, sv) in assign[v]:
            pu, su = rng.choice(assign[u])
            if pu == pv or su >= sv:
                continue
            kind = rng.random()
            if kind < 0.4:
                comms.add((u, pu, pv, rng.randint(su, sv - 1)))
            elif kind < 0.8 and P > 2:
                q = rng.choice([p for p in range(1, P + 1) if p not in (pu, pv)])
                s1 = rng.randint(su, sv - 1)
                s2 = rng.randint(s1, sv - 1)  # s2 == s1 must not relay
                comms.update({(u, pu, q, s1), (u, q, pv, s2)})
    for t in rng.sample(sorted(comms), k=min(len(comms), rng.randint(0, 2))):
        comms.discard(t)
    for _ in range(rng.randint(0, 3)):
        p1, p2 = rng.sample(range(1, P + 1), 2)
        comms.add((rng.randint(1, dag.node_count + 1), p1, p2, rng.randint(1, S)))
    return BspSchedule(P, S, assign, frozenset(comms))


def multiset(report):
    return Counter(report.violations)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(2, 4), st.integers(1, 3), st.integers(0, 10**6))
def test_check_validity_matches_reference(n, P, max_copies, seed):
    rng = random.Random(seed)
    dag = random_dag(n, 0.5, rng)
    sched = random_schedule(dag, P, 2 * n + 1, rng, max_copies)
    for model in MODELS.values():
        for duplication in (False, True):
            got = check_validity(dag, sched, model, duplication)
            want = ref_check_validity(dag, sched, model, duplication)
            assert multiset(got) == multiset(want)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(2, 4), st.integers(1, 3), st.integers(0, 10**6))
def test_check_maxbsp_matches_reference(n, P, max_copies, seed):
    rng = random.Random(seed)
    dag = random_dag(n, 0.5, rng)
    sched = random_schedule(dag, P, 2 * n + 1, rng, max_copies)
    report, _ = check_maxbsp(dag, sched, MachineParams(1, 1))
    assert multiset(report) == multiset(ref_maxbsp_violations(dag, sched))
