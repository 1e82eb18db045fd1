"""BSP schedules: validity under the four communication models and exact cost."""

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set, Tuple

from .dag import Dag


# cost tabulates every (superstep, processor) cell; larger P * S is refused
MAX_CELLS = 10**6


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


def frozen_assign(
    assign: Mapping[int, Iterable[Sequence[int]]], P: int, S: float
) -> Mapping[int, Tuple[Tuple[int, int], ...]]:
    """A read-only copy of node -> copies, every node with at least one copy,
    every copy a distinct (p, s) with 1 <= p <= P and 1 <= s <= S. A node's
    copies are rebuilt only when they are not already a tuple of tuples."""
    out = {}
    for v, copies in assign.items():
        if not copies:
            raise ScheduleError(f"node {v} has no assignment")
        frozen = type(copies) is tuple
        for c in copies:
            p, s = c
            if not (1 <= p <= P and 1 <= s <= S):
                raise ScheduleError(f"node {v} assigned out of range ({p},{s})")
            frozen = frozen and type(c) is tuple
        if not frozen:
            copies = tuple(map(tuple, copies))
        if len(copies) > 1 and len(set(copies)) != len(copies):
            raise ScheduleError(f"node {v} has duplicate copies")
        out[v] = copies
    return MappingProxyType(out)


@dataclass(frozen=True)
class BspSchedule:
    """Assignment of nodes to (processor, superstep) plus communication tuples.

    assign maps each node to a tuple of (p, s) pairs; a single pair unless
    duplication is in play. comms holds 4-tuples (v, p1, p2, s). Both are
    kept as read-only copies: assign as a mapping of tuples, comms as a
    frozenset.
    """

    processor_count: int
    superstep_count: int
    assign: Mapping[int, Tuple[Tuple[int, int], ...]]
    comms: FrozenSet[Tuple[int, int, int, int]] = frozenset()

    def __post_init__(self):
        P, S = self.processor_count, self.superstep_count
        if P < 1 or S < 1:
            raise ScheduleError("processor and superstep counts must be >= 1")
        if P * S > MAX_CELLS:
            raise ScheduleError(f"{P} processors x {S} supersteps exceed {MAX_CELLS} cells")
        object.__setattr__(self, "assign", frozen_assign(self.assign, P, S))
        object.__setattr__(self, "comms", frozenset(self.comms))
        for (v, p1, p2, s) in self.comms:
            if p1 == p2:
                raise ScheduleError(f"comm tuple for {v} has p1 == p2")
            if not (1 <= p1 <= P and 1 <= p2 <= P and 1 <= s <= S):
                raise ScheduleError(f"comm tuple {(v, p1, p2, s)} out of range")


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


def placed(
    dag: Dag, assign: Mapping[int, Sequence], duplication: bool, report: ValidityReport
) -> bool:
    """The placement rule every model shares: each DAG node has a copy, one
    unless duplication is allowed, and only DAG nodes have any. Reports each
    entry outside the DAG, each node with several copies without
    duplication and the first unplaced node. Returns False after an entry
    outside the DAG or an unplaced node, since then neither the edges nor
    the cost can be read."""
    n = dag.node_count
    inside = True
    for v in assign:
        if not 1 <= v <= n:
            report.add("assign", v, f"node {v} is placed but lies outside the DAG")
            inside = False
    for v in range(1, n + 1):
        if v not in assign:
            report.add("assign", v, f"node {v} not assigned")
            return False
        if not duplication and len(assign[v]) != 1:
            report.add("assign", v, f"node {v} has {len(assign[v])} copies without duplication")
    return inside


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
    """Check the placement rule (see placed), that every tuple is sent by a
    holder of its value and that every edge's value is present where and
    when its consumer runs.

    Direct transfer: a tuple (v, p1, p2, s) is good when some copy of v is
    computed on p1 in superstep s or earlier. Free transfer: also when p1
    received v after a good send in a superstep before s, so values may be
    relayed. Either way a good tuple makes v present on p2 from superstep
    s + 1; singlecast and broadcast only differ in cost. A consumer copy on p
    in superstep s needs its input computed on p by s or delivered to p by s.
    Unknown values in tuples are bad sends. O(n*c + |comms| log |comms| +
    m*c) for c copies per node.
    """
    report = ValidityReport()
    if not placed(dag, sched.assign, duplication, report):
        return report
    for v in range(1, dag.node_count + 1):
        procs = [p for (p, _) in sched.assign[v]]
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


def work_loads(
    dag: Dag, P: int, S: int, assign: Mapping[int, Tuple[Tuple[int, int], ...]]
) -> List[int]:
    """Largest work of one processor in each superstep (index s - 1); every
    copy of a node counts."""
    work = [[0] * P for _ in range(S)]
    for v, copies in assign.items():
        for (p, s) in copies:
            work[s - 1][p - 1] += dag.w_work(v)
    return [max(row) for row in work]


def comm_loads(
    dag: Dag,
    P: int,
    S: int,
    tuples: Iterable[Tuple[int, int, int, int]],
    broadcast: bool,
) -> Tuple[List[List[int]], List[List[int]], List[int]]:
    """Per-superstep communication loads (sent, rec, h), all 0-based:
    sent[s][p] and rec[s][p] are the units processor p sends and receives in
    superstep s, and h[s] = max over p of max(sent[s][p], rec[s][p]) is the
    h-relation. A tuple (v, p1, p2, s) charges w_comm(v) to p2 and to p1;
    under broadcast p1 pays once per (v, s) however many targets it serves."""
    w_comm = dag.w_comm
    sent = [[0] * P for _ in range(S)]
    rec = [[0] * P for _ in range(S)]
    charged = set()
    for (v, p1, p2, s) in tuples:
        w = w_comm(v)
        rec[s - 1][p2 - 1] += w
        if broadcast:
            if (v, p1, s) in charged:
                continue
            charged.add((v, p1, s))
        sent[s - 1][p1 - 1] += w
    h = [max(max(a, b) for a, b in zip(out, into)) for out, into in zip(sent, rec)]
    return sent, rec, h


def overlapped_cost(
    work: Sequence[int], h: Sequence[int], params: MachineParams, alt_latency: bool = False
) -> int:
    """Overlapped supersteps: sum over s of max(work, g*h + L), or of
    max(work, g*h) + L with alt_latency; L only where h > 0."""
    total = 0
    for w, c in zip(work, h):
        lat = params.L if c > 0 else 0
        if alt_latency:
            total += max(w, params.g * c) + lat
        else:
            total += max(w, params.g * c + lat)
    return total


def cost(
    dag: Dag,
    sched: BspSchedule,
    model: CommModel,
    params: MachineParams,
) -> CostBreakdown:
    """BSP cost sum_s [work(s) + g*h(s)] + L*#{s : h(s) > 0}, each value
    priced with the model's cast. An assignment entry or a tuple naming a
    node outside the DAG is an error."""
    P, S = sched.processor_count, sched.superstep_count
    n = dag.node_count
    for v in sched.assign:
        if not 1 <= v <= n:
            raise ScheduleError(f"node {v} is assigned but lies outside the DAG")
    for t in sched.comms:
        if not 1 <= t[0] <= n:
            raise ScheduleError(f"comm tuple {t} names a node outside the DAG")
    sent, rec, comm = comm_loads(dag, P, S, sched.comms, model.cast == "broadcast")
    work = work_loads(dag, P, S, sched.assign)
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
        comms=[(v, p1, p2, remap[s]) for (v, p1, p2, s) in sched.comms],
    )


def read_schedule_lines(
    text: str, dag: Dag, key: str
) -> Tuple[Dict[int, List[Tuple[int, int]]], Set[Tuple[int, int, int, int]], int]:
    """Read the line-based schedule formats: "p v x [k]" puts copy k
    (default 1) of node v on processor x, "<key> v y [k]" gives that copy's
    superstep (key "s") or start time (key "at"), and "t v p1 p2 y" is a
    communication tuple; '#' starts a comment. Every node of the DAG must be
    placed and no line may name another node. Returns (assign, comms, P),
    P the largest processor named."""
    what = {"s": "superstep", "at": "start time"}[key]
    proc: Dict[Tuple[int, int], Tuple[int, int]] = {}  # (v, k) -> (x, line)
    when: Dict[Tuple[int, int], Tuple[int, int]] = {}  # (v, k) -> (y, line)
    comms = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            nums = [int(x) for x in parts[1:]]
        except ValueError:
            nums = []
        if parts[0] in ("p", key) and len(nums) in (2, 3):
            copy = (nums[0], nums[2] if len(nums) == 3 else 1)
            (proc if parts[0] == "p" else when)[copy] = (nums[1], lineno)
        elif parts[0] == "t" and len(nums) == 4:
            comms.add(tuple(nums))
        else:
            raise ScheduleError(f"line {lineno}: malformed schedule line")
        if not 1 <= nums[0] <= dag.node_count:
            raise ScheduleError(f"line {lineno}: node {nums[0]} is not in the DAG")
    assign: Dict[int, List[Tuple[int, int]]] = {}
    for (v, k), (x, lineno) in sorted(proc.items()):
        if (v, k) not in when:
            raise ScheduleError(f"line {lineno}: node {v} copy {k}: processor without {what}")
        assign.setdefault(v, []).append((x, when[(v, k)][0]))
    for (v, k), (_, lineno) in sorted(when.items()):
        if (v, k) not in proc:
            raise ScheduleError(f"line {lineno}: node {v} copy {k}: {what} without processor")
    if set(assign) != set(range(1, dag.node_count + 1)):
        missing = sorted(set(range(1, dag.node_count + 1)) - set(assign))
        raise ScheduleError(f"nodes without assignment: {missing}")
    P = max([x for (x, _) in proc.values()] + [t[i] for t in comms for i in (1, 2)])
    return assign, comms, P


def write_schedule_lines(
    assign: Mapping[int, Sequence[Tuple[int, int]]],
    comms: Iterable[Tuple[int, int, int, int]],
    key: str,
) -> str:
    """Write the format read_schedule_lines reads, with "<key> v y" lines for
    superstep or start time; a node of several copies numbers them in
    sorted order."""
    out = []
    for v in sorted(assign):
        copies = sorted(assign[v])
        for k, (x, y) in enumerate(copies, start=1):
            tag = f" {k}" if len(copies) > 1 else ""
            out += (f"p {v} {x}{tag}", f"{key} {v} {y}{tag}")
    out += (f"t {v} {p1} {p2} {y}" for (v, p1, p2, y) in sorted(comms))
    return "\n".join(out) + "\n"


def parse_schedule(text: str, dag: Dag) -> BspSchedule:
    """Parse a BSP schedule file: "p v x [k]", "s v y [k]", "t v p1 p2 s"."""
    assign, comms, P = read_schedule_lines(text, dag, "s")
    S = max([s for copies in assign.values() for (_, s) in copies] + [t[3] for t in comms])
    return BspSchedule(processor_count=P, superstep_count=S, assign=assign, comms=comms)


def serialize_schedule(sched: BspSchedule) -> str:
    return write_schedule_lines(sched.assign, sched.comms, "s")
