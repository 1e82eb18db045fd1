"""BSP schedules: validity under the four communication models and exact cost."""

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from .dag import Dag


class ScheduleError(Exception):
    """Malformed schedule structure or file."""


@dataclass(frozen=True)
class CommModel:
    """Communication model: direct/free transfer crossed with single/broadcast."""

    transfer: str  # "direct" | "free"
    cast: str      # "singlecast" | "broadcast"

    def __post_init__(self):
        if self.transfer not in ("direct", "free"):
            raise ScheduleError(f"bad transfer {self.transfer!r}")
        if self.cast not in ("singlecast", "broadcast"):
            raise ScheduleError(f"bad cast {self.cast!r}")

    @property
    def code(self) -> str:
        return ("d" if self.transfer == "direct" else "f") + (
            "s" if self.cast == "singlecast" else "b"
        )


DS = CommModel("direct", "singlecast")
DB = CommModel("direct", "broadcast")
FS = CommModel("free", "singlecast")
FB = CommModel("free", "broadcast")
MODELS = {"ds": DS, "db": DB, "fs": FS, "fb": FB}


@dataclass(frozen=True)
class MachineParams:
    g: int
    L: int

    def __post_init__(self):
        if self.g < 0 or self.L < 0:
            raise ScheduleError("g and L must be nonnegative")


@dataclass(frozen=True)
class BspSchedule:
    """Assignment of nodes to (processor, superstep) plus communication tuples.

    assign maps each node to a tuple of (p, s) pairs; a single pair unless
    duplication is in play. comms holds 4-tuples (v, p1, p2, s). Edge-based
    schedules instead carry 5-tuples (u, v, p1, p2, s) in edge_comms.
    """

    processor_count: int
    superstep_count: int
    assign: Dict[int, Tuple[Tuple[int, int], ...]]
    comms: FrozenSet[Tuple[int, int, int, int]] = frozenset()
    edge_comms: FrozenSet[Tuple[int, int, int, int, int]] = frozenset()

    def __post_init__(self):
        P, S = self.processor_count, self.superstep_count
        if P < 1 or S < 1:
            raise ScheduleError("processor and superstep counts must be >= 1")
        for v, copies in self.assign.items():
            if not copies:
                raise ScheduleError(f"node {v} has no assignment")
            for (p, s) in copies:
                if not (1 <= p <= P and 1 <= s <= S):
                    raise ScheduleError(f"node {v} assigned out of range ({p},{s})")
            if len(set(copies)) != len(copies):
                raise ScheduleError(f"node {v} has duplicate copies")
        for (v, p1, p2, s) in self.comms:
            if p1 == p2:
                raise ScheduleError(f"comm tuple for {v} has p1 == p2")
            if not (1 <= p1 <= P and 1 <= p2 <= P and 1 <= s <= S):
                raise ScheduleError(f"comm tuple {(v, p1, p2, s)} out of range")

    def copies(self, v: int) -> Tuple[Tuple[int, int], ...]:
        return self.assign[v]

    def single(self, v: int) -> Tuple[int, int]:
        copies = self.assign[v]
        if len(copies) != 1:
            raise ScheduleError(f"node {v} has {len(copies)} copies")
        return copies[0]


@dataclass(frozen=True)
class CostBreakdown:
    work: Tuple[int, ...]                     # per superstep, max over processors
    sent: Tuple[Tuple[int, ...], ...]         # [s][p] indices 0-based
    rec: Tuple[Tuple[int, ...], ...]
    comm: Tuple[int, ...]                     # per superstep h-relation
    work_total: int
    comm_total: int
    latency_total: int
    cost: int


@dataclass
class ValidityReport:
    violations: List[Tuple[str, object, str]] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    def add(self, rule: str, subject: object, message: str) -> None:
        self.violations.append((rule, subject, message))


_NEVER = float("inf")


def delivery_index(
    sched: BspSchedule, free: bool, lag: int = 0
) -> Tuple[Dict[Tuple[int, int], int], List[Tuple[int, int, int, int]]]:
    """Where and from when each value is present, in one pass over the
    communication tuples in superstep order.

    Returns (ready, bad): ready[(v, p)] is the first superstep in which value
    v is present on processor p, computed there by any copy or received; bad
    lists, in superstep order, the tuples whose sender does not hold the
    value, which deliver nothing. A copy computed in superstep s may be sent
    from s + lag on; under free transfer a value received in superstep s may
    also be passed on from s. A good send in superstep s delivers for s + 1,
    so sends of one superstep never feed each other and one sorted pass
    suffices. O(n*c + |comms| log |comms|) for c copies per node.
    """
    ready: Dict[Tuple[int, int], int] = {}
    for v, copies in sched.assign.items():
        for (p, s) in copies:
            if s < ready.get((v, p), _NEVER):
                ready[(v, p)] = s
    held = ready if free else dict(ready)
    bad = []
    for t in sorted(sched.comms, key=lambda t: (t[3], t)):
        v, p1, p2, s = t
        if held.get((v, p1), _NEVER) + lag <= s:
            if s + 1 < ready.get((v, p2), _NEVER):
                ready[(v, p2)] = s + 1
        else:
            bad.append(t)
    return ready, bad


def check_validity(
    dag: Dag,
    sched: BspSchedule,
    model: CommModel,
    duplication: bool = False,
) -> ValidityReport:
    """Check every node is assigned, every tuple is sent by a holder of its
    value and every edge's value is present where and when its consumer runs.

    Direct transfer: a tuple (v, p1, p2, s) is good when some copy of v is
    computed on p1 in superstep s or earlier. Free transfer: also when p1
    received v after a good send in a superstep before s, so values may be
    relayed. Either way a good tuple makes v present on p2 from superstep
    s + 1; singlecast and broadcast only differ in cost. A consumer copy on p
    in superstep s needs its input computed on p by s or delivered to p by s.
    Unknown values in tuples are bad sends. Schedules with edge_comms follow
    the edge-based rule instead. O(n*c + |comms| log |comms| + m*c) for c
    copies per node.
    """
    report = ValidityReport()
    if sched.edge_comms and sched.comms:
        report.add("structure", None, "both node and edge comm tuples present")
        return report
    if sched.edge_comms:
        return _check_validity_edge_based(dag, sched, report)

    for v in range(1, dag.node_count + 1):
        if v not in sched.assign:
            report.add("assign", v, f"node {v} not assigned")
            return report
        copies = sched.assign[v]
        if not duplication and len(copies) != 1:
            report.add("assign", v, f"node {v} has {len(copies)} copies without duplication")
        procs = [p for (p, _) in copies]
        if len(set(procs)) != len(procs):
            report.warnings.append(
                f"node {v} duplicated on one processor across supersteps"
            )

    free = model.transfer == "free"
    ready, bad = delivery_index(sched, free)
    for t in bad:
        v, p1, p2, s = t
        if free:
            report.add("send", t, f"value {v} not present on p{p1} at superstep {s}")
        else:
            report.add("send", t, f"value {v} not computed on p{p1} by superstep {s}")

    for (u, v) in dag.edges:
        for (pv, sv) in sched.assign[v]:
            if ready.get((u, pv), _NEVER) <= sv:
                continue
            if free:
                why = f"value {u} absent on p{pv} when node {v} runs in superstep {sv}"
            else:
                why = f"no tuple delivers value {u} to p{pv} before superstep {sv}"
            report.add("edge", (u, v), why)
    return report


def _check_validity_edge_based(
    dag: Dag, sched: BspSchedule, report: ValidityReport
) -> ValidityReport:
    """A tuple (u, v, p1, p2, s) must carry a DAG edge (u, v) from u's
    processor, sent in u's superstep or later; it serves the edge when it
    goes to v's processor before v's superstep."""
    edges = set(dag.edges)
    first_send: Dict[Tuple[int, int, int], int] = {}  # (u, v, target) -> superstep
    for t in sched.edge_comms:
        u, v, p1, p2, s = t
        if (u, v) not in edges:
            report.add("send", t, f"edge ({u}, {v}) not in the DAG")
            continue
        pu, su = sched.single(u)
        if p1 != pu or su > s:
            report.add("send", t, f"edge tuple {t} does not originate at node {u}")
        if su <= s < first_send.get((u, v, p2), _NEVER):
            first_send[(u, v, p2)] = s
    for (u, v) in dag.edges:
        pu, su = sched.single(u)
        pv, sv = sched.single(v)
        if pu == pv:
            if su > sv:
                report.add("edge", (u, v), "superstep order violated on one processor")
            continue
        if first_send.get((u, v, pv), _NEVER) >= sv:
            report.add("edge", (u, v), f"no edge tuple delivers ({u}, {v})")
    return report


def cost(
    dag: Dag,
    sched: BspSchedule,
    model: CommModel,
    params: MachineParams,
    edge_based: bool = False,
) -> CostBreakdown:
    P, S = sched.processor_count, sched.superstep_count
    if edge_based and sched.comms:
        raise ScheduleError("edge_based cost requested on a node-tuple schedule")
    if not edge_based and sched.edge_comms:
        raise ScheduleError("node-based cost requested on an edge-tuple schedule")

    work_ps = [[0] * P for _ in range(S)]
    for v, copies in sched.assign.items():
        for (p, s) in copies:
            work_ps[s - 1][p - 1] += dag.w_work(v)

    sent = [[0] * P for _ in range(S)]
    rec = [[0] * P for _ in range(S)]
    if edge_based:
        for (u, v, p1, p2, s) in sched.edge_comms:
            sent[s - 1][p1 - 1] += 1
            rec[s - 1][p2 - 1] += 1
    else:
        if model.cast == "broadcast":
            for (v, p1, s) in {(v, p1, s) for (v, p1, _, s) in sched.comms}:
                sent[s - 1][p1 - 1] += dag.w_comm(v)
        else:
            for (v, p1, p2, s) in sched.comms:
                sent[s - 1][p1 - 1] += dag.w_comm(v)
        for (v, p1, p2, s) in sched.comms:
            rec[s - 1][p2 - 1] += dag.w_comm(v)

    work = [max(row) if row else 0 for row in work_ps]
    comm = [
        max(max(sent[s][p], rec[s][p]) for p in range(P)) for s in range(S)
    ]
    latency_supersteps = sum(1 for c in comm if c > 0)
    work_total = sum(work)
    comm_total = sum(comm)
    total = work_total + params.g * comm_total + params.L * latency_supersteps
    return CostBreakdown(
        work=tuple(work),
        sent=tuple(tuple(r) for r in sent),
        rec=tuple(tuple(r) for r in rec),
        comm=tuple(comm),
        work_total=work_total,
        comm_total=comm_total,
        latency_total=params.L * latency_supersteps,
        cost=total,
    )


def normalize(sched: BspSchedule) -> BspSchedule:
    """Strip empty supersteps (no work, no comm anywhere) and renumber."""
    used = set()
    for copies in sched.assign.values():
        for (_, s) in copies:
            used.add(s)
    for (_, _, _, s) in sched.comms:
        used.add(s)
    for t in sched.edge_comms:
        used.add(t[4])
    if not used:
        used = {1}
    remap = {s: i + 1 for i, s in enumerate(sorted(used))}
    return BspSchedule(
        processor_count=sched.processor_count,
        superstep_count=len(remap),
        assign={
            v: tuple((p, remap[s]) for (p, s) in copies)
            for v, copies in sched.assign.items()
        },
        comms=frozenset((v, p1, p2, remap[s]) for (v, p1, p2, s) in sched.comms),
        edge_comms=frozenset(
            (u, v, p1, p2, remap[s]) for (u, v, p1, p2, s) in sched.edge_comms
        ),
    )


def parse_schedule(text: str, dag: Dag) -> BspSchedule:
    """Parse the line-based schedule format: "p v x [k]", "s v y [k]",
    "t v p1 p2 s"."""
    proc: Dict[Tuple[int, int], int] = {}
    sup: Dict[Tuple[int, int], int] = {}
    comms = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        try:
            if parts[0] == "p" and len(parts) in (3, 4):
                v, x = int(parts[1]), int(parts[2])
                k = int(parts[3]) if len(parts) == 4 else 1
                proc[(v, k)] = x
            elif parts[0] == "s" and len(parts) in (3, 4):
                v, y = int(parts[1]), int(parts[2])
                k = int(parts[3]) if len(parts) == 4 else 1
                sup[(v, k)] = y
            elif parts[0] == "t" and len(parts) == 5:
                comms.add(tuple(int(x) for x in parts[1:]))
                v = int(parts[1])
            else:
                raise ValueError
        except ValueError:
            raise ScheduleError(f"line {lineno}: malformed schedule line") from None
        if not 1 <= v <= dag.node_count:
            raise ScheduleError(f"line {lineno}: node {v} is not in the DAG")
    assign: Dict[int, List[Tuple[int, int]]] = {}
    for (v, k), x in sorted(proc.items()):
        if (v, k) not in sup:
            raise ScheduleError(f"node {v} copy {k}: processor without superstep")
        assign.setdefault(v, []).append((x, sup[(v, k)]))
    for (v, k) in sup:
        if (v, k) not in proc:
            raise ScheduleError(f"node {v} copy {k}: superstep without processor")
    if set(assign) != set(range(1, dag.node_count + 1)):
        missing = sorted(set(range(1, dag.node_count + 1)) - set(assign))
        raise ScheduleError(f"nodes without assignment: {missing}")
    P = max(
        [x for x in proc.values()]
        + [t[1] for t in comms]
        + [t[2] for t in comms]
    )
    S = max([y for y in sup.values()] + [t[3] for t in comms])
    return BspSchedule(
        processor_count=P,
        superstep_count=S,
        assign={v: tuple(pairs) for v, pairs in assign.items()},
        comms=frozenset(comms),
    )


def serialize_schedule(sched: BspSchedule) -> str:
    out = []
    for v in sorted(sched.assign):
        copies = sched.assign[v]
        if len(copies) == 1:
            (p, s) = copies[0]
            out.append(f"p {v} {p}")
            out.append(f"s {v} {s}")
        else:
            for k, (p, s) in enumerate(sorted(copies), start=1):
                out.append(f"p {v} {p} {k}")
                out.append(f"s {v} {s} {k}")
    for (v, p1, p2, s) in sorted(sched.comms):
        out.append(f"t {v} {p1} {p2} {s}")
    return "\n".join(out) + "\n"
