"""Evaluators for neighboring machine models: classical list scheduling,
communication delays, single-port duplex timing, and overlapped supersteps.

Timed conventions: a node with start time t >= 1 and work weight w occupies the
unit slots [t, t+w-1]; makespan = max over nodes of t+w-1. The edge rule
t(u) + w(u) <= t(v) covers both unit and weighted inputs. Every checker first
applies the placement rule shared with the BSP models (schedule.placed).
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Tuple

from .dag import Dag
from .schedule import (
    BspSchedule,
    MachineParams,
    ScheduleError,
    ValidityReport,
    comm_loads,
    delivery_index,
    frozen_assign,
    overlapped_cost,
    placed,
    read_schedule_lines,
    work_loads,
    write_schedule_lines,
)


@dataclass(frozen=True)
class TimedSchedule:
    """Copies placed at (processor, start time) plus timed transfers, both
    kept as read-only copies."""

    processor_count: int
    assign: Mapping[int, Tuple[Tuple[int, int], ...]]  # node -> ((p, t), ...)
    timed_comms: FrozenSet[Tuple[int, int, int, int]] = frozenset()  # (v,p1,p2,t0)

    def __post_init__(self):
        P = self.processor_count
        if P < 1:
            raise ScheduleError("processor count must be >= 1")
        object.__setattr__(self, "assign", frozen_assign(self.assign, P, float("inf")))
        object.__setattr__(self, "timed_comms", frozenset(self.timed_comms))
        for (v, p1, p2, t0) in self.timed_comms:
            if p1 == p2 or not (1 <= p1 <= P and 1 <= p2 <= P) or t0 < 1:
                raise ScheduleError(f"bad timed comm {(v, p1, p2, t0)}")


def makespan(dag: Dag, ts: TimedSchedule) -> int:
    return max(
        t + dag.w_work(v) - 1 for v, copies in ts.assign.items() for (_, t) in copies
    )


def _occupy(dag: Dag, ts: TimedSchedule, report: ValidityReport) -> set:
    """Report copies that overlap on a processor; return the boundaries b
    (after slot b) that some copy's execution straddles."""
    busy: Dict[Tuple[int, int], int] = {}
    blocked = set()
    for v, copies in ts.assign.items():
        w = dag.w_work(v)
        for (p, t) in copies:
            blocked.update(range(t, t + w - 1))
            for slot in range(t, t + w):
                if (p, slot) in busy:
                    report.add("collision", v, f"nodes {busy[p, slot]} and {v} overlap on p{p}")
                else:
                    busy[p, slot] = v
    return blocked


def check_classical(
    dag: Dag,
    ts: TimedSchedule,
    barrier_sync: bool = False,
    duplication: bool = False,
    delay: int = 0,
) -> Tuple[ValidityReport, int]:
    """Classical scheduling: a copy of v at (p, t) needs, for each edge
    (u, v), a copy of u that finishes by t on p, or by t - delay on another
    processor. Under barrier_sync a handoff between processors also needs a
    synchronization boundary between u's finish and t that no copy
    straddles. delay = g is the communication delay model."""
    report = ValidityReport()
    if not placed(dag, ts.assign, duplication, report):
        return report, 0
    blocked = _occupy(dag, ts, report)
    for (u, v) in dag.edges:
        for (pv, tv) in ts.assign[v]:
            for (pu, tu) in ts.assign[u]:
                done = tu + dag.w_work(u)  # first slot after u
                if pu == pv:
                    if done <= tv:
                        break
                elif done + delay <= tv and (
                    not barrier_sync or not blocked.issuperset(range(done - 1, tv))
                ):
                    break
            else:
                report.add("edge", (u, v), f"dependency {u} -> {v} not satisfied")
    return report, makespan(dag, ts)


def check_commdelay(dag: Dag, ts: TimedSchedule, g: int) -> Tuple[ValidityReport, int]:
    """Communication delay: classical scheduling in which a value reaches
    another processor g slots after it is computed."""
    return check_classical(dag, ts, delay=g)


def check_spd(dag: Dag, ts: TimedSchedule, g: int) -> Tuple[ValidityReport, int]:
    report = ValidityReport()
    if not placed(dag, ts.assign, False, report):
        return report, 0
    _occupy(dag, ts, report)
    at = {v: copies[0] for v, copies in ts.assign.items()}  # a node's first copy
    for t in ts.timed_comms:
        v, p1, p2, t0 = t
        if v not in at or at[v][0] != p1 or at[v][1] + dag.w_work(v) - 1 > t0:
            report.add("send", t, f"value {v} not ready on p{p1} at time {t0}")
    # single-port rule: per-processor send intervals disjoint, likewise receive
    for role, idx in (("send", 1), ("receive", 2)):
        by_proc: Dict[int, List[int]] = {}
        for t in ts.timed_comms:
            by_proc.setdefault(t[idx], []).append(t[3])
        for p, starts in by_proc.items():
            starts.sort()
            for a, b in zip(starts, starts[1:]):
                if b < a + g:
                    report.add(
                        "port", p, f"overlapping {role} intervals on p{p} at {a}, {b}"
                    )
    for (u, v) in dag.edges:
        (pu, tu), (pv, tv) = at[u], at[v]
        if pu == pv:
            if tu + dag.w_work(u) > tv:
                report.add("edge", (u, v), "order violated on one processor")
            continue
        ok = any(
            t[0] == u and t[1] == pu and t[2] == pv and tu <= t[3] and t[3] + g < tv
            for t in ts.timed_comms
        )
        if not ok:
            report.add("edge", (u, v), f"no transfer delivers {u} to p{pv} in time")
    return report, makespan(dag, ts)


def check_maxbsp(
    dag: Dag,
    sched: BspSchedule,
    params: MachineParams,
    alt_latency: bool = False,
) -> Tuple[ValidityReport, int]:
    """Overlapped-superstep variant under direct transfer: a value must be
    computed strictly before the superstep that sends it and consumed
    strictly after. A tuple (v, p1, p2, s) is good when some copy of v is
    computed on p1 before superstep s; it makes v present on p2 from s + 1.
    A consumer copy on p in superstep s needs its input computed on p by s or
    delivered to p by s. Superstep cost is max(work, g*comm + L) (or
    max(work, g*comm) + L with alt_latency). Validity takes
    O(n*c + |comms| log |comms| + m*c) for c copies per node."""
    report = ValidityReport()
    P, S = sched.processor_count, sched.superstep_count
    if not placed(dag, sched.assign, True, report):
        return report, 0
    ready, bad = delivery_index(sched, free=False, lag=1)
    for t in bad:
        v, p1, p2, s = t
        report.add("send", t, f"value {v} not computed on p{p1} before superstep {s}")
    for (u, v) in dag.edges:
        for (pv, sv) in sched.assign[v]:
            if ready.get((u, pv), sv + 1) > sv:
                report.add("edge", (u, v), f"value {u} not delivered to p{pv} in time")

    work = work_loads(dag, P, S, sched.assign)
    _, _, h = comm_loads(dag, P, S, sched.comms, False)
    return report, overlapped_cost(work, h, params, alt_latency)


def convert_spd_to_bsp(dag: Dag, ts: TimedSchedule, g: int) -> BspSchedule:
    """Chop the timeline into g-length windows; window m becomes superstep m.

    Nodes starting in a window compute there; transfers starting in a window
    are sent in its communication phase. Port-disjointness guarantees at most
    one send and one receive per processor per window. Raises ScheduleError
    if the schedule breaks the placement rule.
    """
    if g < 1:
        raise ScheduleError("conversion needs g >= 1")
    report = ValidityReport()
    placed(dag, ts.assign, False, report)
    if not report.valid:
        raise ScheduleError(report.violations[0][2])
    horizon = makespan(dag, ts)
    for t in ts.timed_comms:
        horizon = max(horizon, t[3] + g)
    S = (horizon + g - 1) // g

    def window(t: int) -> int:
        return (t - 1) // g + 1

    assign = {}
    for v, copies in ts.assign.items():
        (p, t) = copies[0]
        assign[v] = ((p, window(t)),)
    return BspSchedule(
        processor_count=ts.processor_count,
        superstep_count=max(S, 1),
        assign=assign,
        comms=[(v, p1, p2, window(t0)) for (v, p1, p2, t0) in ts.timed_comms],
    )


def parse_timed_schedule(text: str, dag: Dag) -> TimedSchedule:
    """Parse a timed schedule file: "p v x [k]", "at v t [k]", "t v p1 p2 t0"."""
    assign, comms, P = read_schedule_lines(text, dag, "at")
    return TimedSchedule(processor_count=P, assign=assign, timed_comms=comms)


def serialize_timed_schedule(ts: TimedSchedule) -> str:
    return write_schedule_lines(ts.assign, ts.timed_comms, "at")
