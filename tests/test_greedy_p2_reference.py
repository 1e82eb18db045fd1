"""Differential test: `cs_greedy_p2` against the per-superstep reference.

The reference below is the straightforward form of the two-processor
greedy: in every superstep it re-sorts each direction's released, still
pending requirements by (first_need, value), counts those needed in the next
superstep, and sends the first `phase` of each direction. It is quadratic in
the number of cross requirements. The library must return exactly the same
communication set.
"""

import random
import time
from typing import Dict, List, Tuple

from bspsched.commsched import CsError, CsInstance, Requirement, cross_requirements, cs_greedy_p2
from bspsched.dag import Dag, random_dag


def reference(inst: CsInstance):
    if inst.P != 2:
        raise CsError("greedy applies to P = 2 only")
    if inst.maxbsp:
        raise CsError("greedy covers the standard superstep model only")
    reqs = cross_requirements(inst)
    # pending[(a, b)] = requirements a -> b not yet sent
    remaining: Dict[Tuple[int, int], List[Requirement]] = {(1, 2): [], (2, 1): []}
    for req in reqs:
        src = inst.assign[req.value][0][0]
        remaining[(src, req.target)].append(req)
    gamma = set()
    for s in range(1, inst.S):
        avail = {
            d: sorted(
                (r for r in remaining[d] if inst.assign[r.value][0][1] <= s),
                key=lambda r: (r.first_need, r.value),
            )
            for d in remaining
        }
        phase = max(
            sum(1 for r in avail[d] if r.first_need == s + 1) for d in avail
        )
        for d, ordered in avail.items():
            for r in ordered[:phase]:
                gamma.add((r.value, d[0], d[1], s))
                remaining[d].remove(r)
    if any(remaining.values()):
        raise CsError("instance infeasible for greedy")  # cannot happen
    return frozenset(gamma)


def two_proc_instance(dag: Dag, rng, slack: float) -> CsInstance:
    """Random processors; each node computed at a random superstep after its
    first possible one (a geometric delay with continuation `slack`), so
    many requirements share a first_need and many have room to move."""
    pred, assign = dag.pred(), {}
    for v in dag.topo_order():
        p = rng.randrange(1, 3)
        s = max((assign[u][1] + (assign[u][0] != p) for u in pred[v]), default=1)
        while rng.random() < slack:
            s += 1
        assign[v] = (p, s)
    S = max(s for (_, s) in assign.values())
    return CsInstance(dag, 2, S, {v: (a,) for v, a in assign.items()})


def sparse_dag(n: int, m: int, rng) -> Dag:
    """m distinct forward edges drawn uniformly."""
    edges = set()
    while len(edges) < m:
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, v), max(u, v)))
    return Dag(n, tuple(sorted(edges)))


def test_seeded_random_instances():
    rng = random.Random(21)
    ties = 0
    for _ in range(2000):
        n = rng.randint(2, 40)
        dag = random_dag(n, rng.choice((0.05, 0.15, 0.4)), rng)
        inst = two_proc_instance(dag, rng, rng.choice((0.0, 0.3, 0.6)))
        firsts = [(inst.assign[u][0][0], s) for (u, _, s, _) in inst.needs]
        ties += len(firsts) > len(set(firsts))
        assert cs_greedy_p2(inst) == reference(inst), inst.assign
    assert ties > 500  # tied first_need in one direction is common


def test_scale_16000_nodes():
    rng = random.Random(16)
    dag = sparse_dag(16000, 32000, rng)
    inst = two_proc_instance(dag, rng, 0.3)
    assert len(inst.needs) > 5000
    t0 = time.perf_counter()
    gamma = cs_greedy_p2(inst)
    elapsed = time.perf_counter() - t0
    assert len(gamma) == len(inst.needs)
    assert elapsed < 0.5, f"greedy took {elapsed:.2f} s"
