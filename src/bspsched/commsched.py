"""Communication scheduling: complete a fixed (processor, superstep)
assignment with a minimum-cost communication set.

Costs here are communication units (multiples of g) summed over supersteps;
a maxbsp instance is priced in full instead. Latency is left out, though two
feasible sets of equal units can pay it in different numbers of supersteps.
The oracle is exact all the same: at an optimum's least superstep count
every boundary communicates, since two supersteps with no communication
between them merge at no extra cost, so a minimum-unit completion of that
assignment pays no more latency than the optimum.
"""

from collections import Counter
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, FrozenSet, Iterator, List, Mapping, NamedTuple, Optional, \
    Tuple

from .dag import Dag
from .schedule import CommModel, MachineParams, ValidityReport, comm_loads, \
    frozen_assign, overlapped_cost, placed, work_loads


class CsError(Exception):
    pass


@dataclass(frozen=True)
class CsInstance:
    """A DAG with fixed processors and supersteps, communications still open.

    assign maps node -> ((p, s), ...), kept as a read-only copy; multiple
    copies appear only when the caller works with duplication. maxbsp shifts
    the legal send windows by one (values sendable only strictly after being
    computed, consumed strictly after arriving). needs holds, sorted, one
    (value, target, first_need, consumer) per value and processor that some
    consumer copy cannot serve locally: first_need is the earliest such
    copy's superstep and consumer its node.
    """

    dag: Dag
    P: int
    S: int
    assign: Mapping[int, Tuple[Tuple[int, int], ...]]
    maxbsp: bool = False
    needs: Tuple[Tuple[int, int, int, int], ...] = field(init=False, compare=False)

    def __post_init__(self):
        assign = frozen_assign(self.assign, self.P, self.S)
        report = ValidityReport()
        if not placed(self.dag, assign, True, report):
            raise CsError(report.violations[-1][2])
        object.__setattr__(self, "assign", assign)
        need: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for (u, v) in self.dag.edges:
            for (pv, sv) in assign[v]:
                if any(pu == pv and su <= sv for (pu, su) in assign[u]):
                    continue
                if (u, pv) not in need or sv < need[u, pv][0]:
                    need[u, pv] = (sv, v)
        gap = 2 if self.maxbsp else 1
        for (u, _), (s, v) in need.items():
            if not any(su + gap <= s for (_, su) in assign[u]):
                raise CsError(f"edge ({u}, {v}) admits no communication slot")
        object.__setattr__(self, "needs", tuple(
            (u, p, s, v) for (u, p), (s, v) in sorted(need.items())))


class Requirement(NamedTuple):
    value: int
    target: int
    first_need: int


def cross_requirements(inst: CsInstance) -> List[Requirement]:
    """One requirement per (value, target processor) pair that some
    consumer copy cannot satisfy locally; first_need is the earliest such
    superstep."""
    return [Requirement(u, p, s) for (u, p, s, _) in inst.needs]


def _send_at(inst: CsInstance, lazy: bool) -> FrozenSet[Tuple[int, int, int, int]]:
    # each value leaves its earliest copy off the target, whose direct
    # window CsInstance has checked to be nonempty
    off = 1 if inst.maxbsp else 0
    gamma = set()
    for (u, p, s, _) in inst.needs:
        (s1, p1) = min((su, pu) for (pu, su) in inst.assign[u] if pu != p)
        gamma.add((u, p1, p, s - 1 if lazy else s1 + off))
    return frozenset(gamma)


def cs_eager(inst: CsInstance) -> FrozenSet[Tuple[int, int, int, int]]:
    """Send every needed cross value in the superstep it is computed."""
    return _send_at(inst, False)


def cs_lazy(inst: CsInstance) -> FrozenSet[Tuple[int, int, int, int]]:
    """Send every needed cross value in the superstep before first use."""
    return _send_at(inst, True)


def comm_cost(
    inst: CsInstance,
    gamma: FrozenSet[Tuple[int, int, int, int]],
    model: CommModel,
) -> int:
    """Total communication units over supersteps (h-relation sum)."""
    _, _, h = comm_loads(inst.dag, inst.P, inst.S, gamma, model.cast == "broadcast")
    return sum(h)


def cs_greedy_p2(inst: CsInstance) -> FrozenSet[Tuple[int, int, int, int]]:
    """Optimal communication set for two processors, for unit
    communication weights (it counts values, not units).

    Per superstep, send every value needed next superstep; the direction with
    fewer such values tops up with pending values in earliest-need order
    (ties: lower node index) up to the forced phase cost.

    The requirements are sorted once by the superstep that computes their
    value; each direction keeps a heap of the released ones keyed
    (first_need, value) and a count of those still due per first_need, so
    the phase cost is a lookup, each send one pop, and the whole greedy
    O(R log R + S) for R cross requirements.
    """
    if inst.P != 2:
        raise CsError("greedy applies to P = 2 only")
    if inst.maxbsp:
        raise CsError("greedy covers the standard superstep model only")
    if any(len(copies) > 1 for copies in inst.assign.values()):
        raise CsError("greedy covers single-copy assignments only")
    if inst.dag.comm_weight:
        raise CsError("greedy covers unit communication weights only")
    # (release superstep, first_need, value, direction) per requirement
    reqs = sorted(
        (inst.assign[u][0][1], s, u, (inst.assign[u][0][0], p))
        for (u, p, s, _) in inst.needs
    )
    heaps: Dict[Tuple[int, int], List[Tuple[int, int]]] = {(1, 2): [], (2, 1): []}
    due = Counter((d, s) for (_, s, _, d) in reqs)
    gamma = set()
    i = 0
    for s in range(1, inst.S):
        while i < len(reqs) and reqs[i][0] <= s:
            _, need, u, d = reqs[i]
            heappush(heaps[d], (need, u))
            i += 1
        phase = max(due[d, s + 1] for d in heaps)
        for d, heap in heaps.items():
            for _ in range(min(phase, len(heap))):
                need, u = heappop(heap)
                due[d, need] -= 1
                gamma.add((u, d[0], d[1], s))
    if len(gamma) != len(reqs):
        raise CsError("instance infeasible for greedy")  # cannot happen
    return frozenset(gamma)


def _plans(
    value: int, path: Tuple[int, ...], lo: int, target: int, first_need: int,
    hops: int, P: int,
) -> Iterator[Tuple[Tuple[int, int, int, int], ...]]:
    """Every delivery plan of value from path[-1] to target in at most hops
    sends, each leaving in a superstep from lo up to first_need - 1 and
    later than the hop before it, through no processor of path twice. The
    last allowed hop goes only to the target."""
    nexts = [target] if hops == 1 else [q for q in range(1, P + 1) if q not in path]
    for q in nexts:
        for s in range(lo, first_need):
            hop = (value, path[-1], q, s)
            if q == target:
                yield (hop,)
            else:
                for rest in _plans(value, path + (q,), s + 1, target,
                                   first_need, hops - 1, P):
                    yield (hop,) + rest


def cs_bruteforce(
    inst: CsInstance,
    model: CommModel,
    limit: int = 20,
    params: Optional[MachineParams] = None,
) -> Tuple[FrozenSet[Tuple[int, int, int, int]], int]:
    """Exact minimum communication set by branch and bound over delivery plans.

    A maxbsp instance minimizes the overlapped-superstep cost
    sum_s max(work_s, g*comm_s [+ L]) and requires params. Every other
    instance minimizes communication units; that set may pay more latency
    than another of equal units, but not at the least superstep count of an
    optimum, where every boundary communicates (see the module docstring).
    A value travels in one hop under direct transfer, in up to P - 1 under
    free transfer.
    """
    if len(inst.needs) > limit:
        raise CsError(f"{len(inst.needs)} cross requirements exceed the limit {limit}")
    work = None
    if inst.maxbsp:
        if params is None:
            raise CsError("a maxbsp instance needs machine parameters")
        work = work_loads(inst.dag, inst.P, inst.S, inst.assign)

    off = 1 if inst.maxbsp else 0
    hops = inst.P - 1 if model.transfer == "free" else 1
    options = []  # nonempty: CsInstance checked a direct window for each need
    for (u, p, s, _) in inst.needs:
        plans = {frozenset(plan) for (pu, su) in inst.assign[u] if pu != p
                 for plan in _plans(u, (pu,), su + off, p, s, hops, inst.P)}
        options.append(sorted(plans, key=lambda f: (len(f), sorted(f))))
    options.sort(key=len)

    def evaluate(tuples: FrozenSet) -> int:
        if work is None:
            return comm_cost(inst, tuples, model)
        # every tuple pays its sender, as under singlecast
        _, _, h = comm_loads(inst.dag, inst.P, inst.S, tuples, False)
        return overlapped_cost(work, h, params)

    best: List = [None, None]

    def run(i: int, tuples: FrozenSet):
        val = evaluate(tuples)
        if best[1] is not None and val >= best[1]:
            return
        if i == len(options):
            best[0], best[1] = tuples, val
            return
        for opt in options[i]:
            run(i + 1, tuples | opt)

    run(0, frozenset())
    return best[0], best[1]
