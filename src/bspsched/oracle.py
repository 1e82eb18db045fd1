"""Exhaustive exact optima for tiny instances, across all supported models.

Everything here is branch and bound with admissible lower bounds, so returned
values are true optima. Budgets make refusal explicit instead of thrashing.
"""

import heapq
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .dag import Dag
from .schedule import (
    BspSchedule,
    CommModel,
    DS,
    MachineParams,
    ScheduleError,
    cost as bsp_cost,
    normalize,
)
from .commsched import CsError, CsInstance, cs_bruteforce, cs_greedy_p2
from .variants import TimedSchedule


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class OracleBudget:
    max_nodes: int = 8
    max_p: int = 3
    max_s: Optional[int] = None          # defaults to n
    node_budget: int = 10**8

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            least = 0 if name == "node_budget" else 1
            if value is not None and value < least:
                raise ValueError(f"budget field {name} must be >= {least}")

    @staticmethod
    def from_env(base: "OracleBudget" = None) -> "OracleBudget":
        base = base or OracleBudget()
        raw = os.environ.get("BSPSCHED_BUDGET", "")
        if not raw.strip():
            return base
        updates = {}
        for part in raw.split(","):
            key, _, value = part.partition("=")
            key = key.strip()
            if key not in OracleBudget.__dataclass_fields__:
                raise ValueError(f"unknown budget field {key!r}")
            if key in updates:
                raise ValueError(f"budget field {key} given twice")
            try:
                updates[key] = int(value)
            except ValueError:
                raise ValueError(
                    f"budget field {key} needs an integer, not {value!r}"
                ) from None
        return replace(base, **updates)


class _Counter:
    __slots__ = ("left",)

    def __init__(self, budget: int):
        self.left = budget

    def tick(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("search node budget exhausted")


def _copy_sets(P: int, used: int, starts) -> List[Tuple[Tuple[int, int], ...]]:
    """The copy sets of one node under duplication: nonempty tuples of
    (p, x) on distinct processors in increasing order, each x drawn from
    starts(p). Processors 1..used are in use; one above used is offered only
    right after the one below it, so new processors open lowest first and
    relabelings of them are never enumerated. Each set precedes its
    extensions."""
    slots = [()] + [starts(p) for p in range(1, P + 1)]
    sets = []

    def grow(last: int, chosen: Tuple[Tuple[int, int], ...]):
        for p in range(last + 1, min(max(last, used) + 1, P) + 1):
            for x in slots[p]:
                copies = chosen + ((p, x),)
                sets.append(copies)
                grow(p, copies)

    grow(0, ())
    return sets


def _search_order(dag: Dag) -> List[int]:
    """The topological order both exact searches place nodes in: each step
    takes the ready node whose last predecessor was placed most recently
    (a source counts as placed at -1), ties to the lower node. So a node
    follows the nodes it reads from as closely as it can, and independent
    parts of the DAG are not interleaved."""
    succ = dag.succ()
    waiting = {v: len(us) for v, us in dag.pred().items()}
    ready = [(1, v) for v, k in waiting.items() if not k]  # a sorted heap
    order: List[int] = []
    while ready:
        _, u = heapq.heappop(ready)
        order.append(u)
        for x in succ[u]:
            waiting[x] -= 1
            if not waiting[x]:
                heapq.heappush(ready, (1 - len(order), x))
    return order


def _longest_from(order: List[int], succ, w: List[int]) -> List[int]:
    """lp[v]: the work of the heaviest path starting at v, v included."""
    lp = [0] * len(w)
    for v in reversed(order):
        lp[v] = w[v] + max((lp[x] for x in succ[v]), default=0)
    return lp


def _greedy_path_cover(dag: Dag) -> List[List[int]]:
    """Cover all nodes with vertex-disjoint paths, following the smallest
    unvisited successor; used only to build heuristic seed schedules."""
    succ = dag.succ()
    visited = set()
    paths = []
    for start in dag.topo_order():
        if start in visited:
            continue
        path = [start]
        visited.add(start)
        cur = start
        while True:
            nxt = [v for v in sorted(succ[cur]) if v not in visited]
            if not nxt:
                break
            cur = nxt[0]
            path.append(cur)
            visited.add(cur)
        paths.append(path)
    return paths


def _check_size(n: int, P: int, budget: OracleBudget) -> None:
    if P < 1:
        raise ScheduleError(f"P={P}: the processor count must be >= 1")
    if n > budget.max_nodes:
        raise BudgetExceeded(f"{n} nodes exceed the budget ({budget.max_nodes})")
    if P > budget.max_p:
        raise BudgetExceeded(f"P={P} exceeds the budget ({budget.max_p})")


def _seed_schedules(dag: Dag, P: int) -> List[BspSchedule]:
    """The serial schedule and the pipeline of a greedy path cover: path j
    on processor j % P + 1, its i-th node in superstep i. _complete_and_cost
    drops the pipeline when it admits no communication."""
    paths = _greedy_path_cover(dag)
    serial = {v: ((1, 1),) for v in range(1, dag.node_count + 1)}
    pipeline = {v: ((j % P + 1, i),) for j, path in enumerate(paths)
                for i, v in enumerate(path, start=1)}
    return [BspSchedule(P, 1, serial),
            BspSchedule(P, max(map(len, paths)), pipeline)]


def _complete_and_cost(
    dag: Dag,
    sched: BspSchedule,
    model: CommModel,
    params: MachineParams,
    maxbsp: bool,
) -> Optional[Tuple[BspSchedule, int]]:
    """Attach a communication set to a bare assignment and price it; None
    when the assignment admits no communication. Raises BudgetExceeded when
    the assignment has more cross requirements than cs_bruteforce takes."""
    try:
        inst = CsInstance(dag, sched.processor_count, sched.superstep_count,
                          sched.assign, maxbsp=maxbsp)
    except CsError:
        return None
    unit = not dag.comm_weight
    try:
        if not maxbsp and inst.P == 2 and unit and all(
            len(c) == 1 for c in sched.assign.values()
        ):
            gamma = cs_greedy_p2(inst)
        else:
            gamma, total = cs_bruteforce(inst, model, limit=64, params=params)
    except CsError as e:
        # CsInstance admits every requirement, so only the limit refuses
        raise BudgetExceeded(f"search leaf refused: {e}") from None
    full = BspSchedule(sched.processor_count, sched.superstep_count,
                       sched.assign, comms=gamma)
    return full, total if maxbsp else bsp_cost(dag, full, model, params).cost


def brute_opt_bsp(
    dag: Dag,
    P: int,
    g: int,
    L: int,
    model: CommModel = DS,
    budget: Optional[OracleBudget] = None,
    duplication: bool = False,
    maxbsp: bool = False,
) -> Tuple[BspSchedule, int]:
    """An optimal schedule and its exact optimum cost. The incumbent is the
    better of the serial schedule and the path-cover pipeline; each
    superstep count S then gets a branch and bound over assignments, placing
    nodes in _search_order and opening at most the lowest unused processor.
    The single-copy searches also place each twin (same predecessors,
    successors and weights) no lower than its earlier twin. The plain
    single-copy search (not maxbsp, not duplication) adds a path floor: a
    path's nodes in one superstep share a processor, so its work from a
    superstep on is at most the sum of those supersteps' maxima. Raises
    BudgetExceeded when the input exceeds the budget, when the node budget
    runs out, or when the superstep counts above budget.max_s could still
    beat the incumbent."""
    budget = budget or OracleBudget.from_env()
    n = dag.node_count
    _check_size(n, P, budget)
    params = MachineParams(g, L)
    counter = _Counter(budget.node_budget)

    best: List = [None, None]  # schedule, cost

    def consider(sched: BspSchedule, total: int):
        if best[1] is None or total < best[1]:
            best[0], best[1] = sched, total

    # incumbent seeds (cheap upper bounds; always valid schedules)
    for seed in _seed_schedules(dag, P):
        try:
            done = _complete_and_cost(dag, seed, model, params, maxbsp)
        except BudgetExceeded:  # a seed is only an incumbent
            continue
        if done is not None:
            consider(*done)

    order = _search_order(dag)
    pred = dag.pred()
    succ = dag.succ()
    w = [0] + [dag.w_work(v) for v in range(1, n + 1)]
    lp_from = _longest_from(order, succ, w)
    crit = 0 if maxbsp or duplication else max(lp_from)
    total_work = dag.total_work()
    work_floor = -(-total_work // P)
    gap = 2 if maxbsp else 1
    broadcast = model.cast == "broadcast"
    direct = model.transfer == "direct"
    # twin[v]: v's nearest earlier twin in the search order, 0 if none. The
    # twin rule lets v take only placements (p, s) >= twin[v]'s. Swapping
    # two twins' placements and sends is a DAG automorphism, so it keeps a
    # schedule valid at the same cost; so is relabeling processors. In the
    # orbit of an optimum under both, the member whose placements, read in
    # search order, are lexicographically least keeps the twin rule (else
    # the swap is smaller) and the lowest-unused-processor rule (else
    # relabeling by first use is smaller), so the search still reaches it.
    twin = [0] * (n + 1)
    if not duplication:
        last = {}
        for v in order:
            key = (tuple(sorted(pred[v])), tuple(sorted(succ[v])), w[v],
                   dag.w_comm(v))
            twin[v] = last.get(key, 0)
            last[key] = v

    max_s = budget.max_s or n

    def search_fixed_s(S: int):
        # _apply/_unapply keep the bound state below up to date: a search
        # node updates what its placement changed instead of recomputing it.
        work_ps = [[0] * P for _ in range(S)]
        sup_max = [0] * S
        sup_tot = [0] * S
        placed: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        ssum = 0  # sum of sup_max
        placed_w = 0  # sum of sup_tot: work of the placed copies
        rem = total_work  # work of the unplaced nodes
        used_hi = 0
        # earliest feasible superstep of each unplaced node (single-copy
        # searches); it only rises as predecessors are placed. tail_w[s] is
        # the unplaced work whose earliest superstep is s.
        est = [1] * (n + 1)
        tail_w = [0] * (S + 1)
        tail_w[1] = total_work
        # communication lower-bound state (single-copy searches only): for
        # every boundary interval [a, b], pairs whose whole legal send window
        # sits inside it force that many units of communication there.
        # tables[p - 1][a][b] counts them per receiver p, and under direct
        # singlecast tables[P + p - 1][a][b] per sender p. maxbsp reads only
        # single boundaries [s, s], through fac[s - 1] = max(g * f + L, 1)
        # with f the most pairs confined to s (fac[S - 1] = 1 closes the sum).
        # need[u][p]: earliest superstep a copy on p reads u from another
        # processor, S + 1 while there is none
        need = [[S + 1] * (P + 1) for _ in range(n + 1)]
        count_sent = direct and not broadcast
        tables = [[[0] * S for _ in range(S)]
                  for _ in range(2 * P if count_sent else P)]
        fac = [max(g + L, 1)] * (S - 1) + [1]
        ones = [1] * S
        off = 1 if maxbsp else 0
        # path floor (plain single-copy searches): an edge between
        # processors needs a later superstep, so a path's nodes in one
        # superstep t share a processor and weigh at most m_t, its final
        # maximum. seg[u] is the heaviest path ending at placed u within
        # u's (p, s); it and the rest of the heaviest path from u lie in
        # supersteps s.., so m_1 + ... + m_S >= sum(sup_max[:s - 1]) +
        # reach[s - 1], the most seg[u] + lp_from[u] - w[u] over u in s. An
        # unplaced v's term (prefix below est[v], plus lp_from[v]) is
        # dominated by its placed ancestor's or by crit in reach[0].
        seg = [0] * (n + 1)
        reach = [crit] + [0] * (S - 1)

        def _count(u: int, pv: int, b_lo: int, b_hi: int, sign: int):
            # (u, pv) is confined to the intervals [a, b] with a <= su + off
            # and b >= need - 1; add sign to those with b_lo <= b < b_hi
            (pu, su) = placed[u][0]
            lo = su + off
            tabs = ((tables[pv - 1], tables[P + pu - 1]) if count_sent
                    else (tables[pv - 1],))
            if maxbsp:
                if b_lo == lo:  # b_lo >= lo always
                    for tab in tabs:
                        tab[lo][lo] += sign
                    f = max(1, *[tab[lo][lo] for tab in tables])
                    fac[lo - 1] = max(g * f + L, 1)
                return
            for tab in tabs:
                for a in range(1, lo + 1):
                    row = tab[a]
                    for b in range(b_lo, b_hi):
                        row[b] += sign

        def comm_lb() -> int:
            # partition the boundaries into intervals; each interval [a, b]
            # costs at least max(1, most pairs one table confines to it)
            dp = [0] * S  # dp[b]: best partition bound on boundaries 1..b
            for a in range(1, S):
                conf = map(max, ones[a:], *[tab[a][a:] for tab in tables])
                dp[a:] = map(max, dp[a:], map(dp[a - 1].__add__, conf))
            return dp[S - 1]

        # comm_lb() of this node when comm_exact, else of an ancestor: pair
        # counts only grow down the search tree, so an ancestor's value is
        # no larger, and it is refreshed only when the bound it gives does
        # not already reach the cutoff
        comm_floor = comm_lb()
        comm_exact = True

        def lower_bound(cutoff: int) -> int:
            """The node's lower bound when it is below cutoff; otherwise some
            value at or above cutoff, so the pruning decision is the same."""
            nonlocal comm_floor, comm_exact
            slack = P * ssum - placed_w
            wlb = ssum
            if rem > slack:
                wlb += -(-(rem - slack) // P)
            if rem and not duplication:
                # precedence-aware tail bound: work whose earliest feasible
                # superstep is >= s shares supersteps s..S with the work
                # already placed there, so each prefix of superstep maxima
                # plus the packed tail or the path floor's reach is a floor
                suffix = rem + placed_w
                prefix = 0
                for s in range(S):
                    tail = -(-suffix // P)
                    r = reach[s]
                    cand = prefix + (tail if tail > r else r)
                    if cand > wlb:
                        wlb = cand
                    prefix += sup_max[s]
                    suffix -= sup_tot[s] + tail_w[s + 1]
                    if not suffix:  # nothing is placed or due later
                        break
            if S == 1:
                return max(wlb, 1) if maxbsp else wlb
            if duplication:
                # boundaries without communication would merge away
                return wlb + (g + L) * (S - 1)
            if maxbsp:
                total = 0
                for m, f in zip(sup_max, fac):
                    total += m if m > f else f
                return max(wlb, total)
            bound = wlb + g * comm_floor + L * (S - 1)
            if bound < cutoff and not comm_exact:
                comm_floor = comm_lb()
                comm_exact = True
                bound = wlb + g * comm_floor + L * (S - 1)
            return bound

        def place(idx: int):
            counter.tick()
            if best[1] is not None and lower_bound(best[1]) >= best[1]:
                return
            if idx == n:
                sched = BspSchedule(P, S, placed)
                done = _complete_and_cost(dag, sched, model, params, maxbsp)
                if done is not None:
                    consider(*done)
                return
            v = order[idx]
            used = used_hi
            options = []
            if duplication:
                options = _copy_sets(P, used, lambda p: starts(v, p))
            else:
                (tp, ts) = placed[twin[v]][0] if twin[v] else (1, 1)
                for p in range(tp, min(used + 1, P) + 1):
                    lo = ts if p == tp else 1
                    for u in pred[v]:
                        (pu, su) = placed[u][0]
                        first = su if pu == p else su + gap
                        if first > lo:
                            lo = first
                    for s in range(lo, S + 1):
                        options.append(((p, s),))
            for copies in options:
                undo = _apply(v, copies)
                place(idx + 1)
                _unapply(v, copies, undo)

        def starts(v: int, p: int) -> range:
            # supersteps of a copy of v on p: each predecessor's earliest
            # superstep on p over all of its copies bounds it from below
            lo = 1
            for u in pred[v]:
                lo = max(lo, min((su if pu == p else su + gap)
                                 for (pu, su) in placed[u]))
            return range(lo, S + 1)

        def _apply(v: int, copies):
            nonlocal ssum, placed_w, rem, used_hi, comm_exact
            placed[v] = copies
            wv = w[v]
            supmax_undo = []
            prev_used = used_hi
            for (p, s) in copies:
                row = work_ps[s - 1]
                row[p - 1] += wv
                sup_tot[s - 1] += wv
                old = sup_max[s - 1]
                if row[p - 1] > old:
                    supmax_undo.append((s - 1, old))
                    sup_max[s - 1] = row[p - 1]
                    ssum += row[p - 1] - old
                if p > used_hi:
                    used_hi = p
            placed_w += wv * len(copies)
            rem -= wv
            if duplication:
                return (supmax_undo, prev_used, None, None, None)
            (pv, sv) = copies[0]
            # v leaves the tail; its successors can start no earlier than sv
            tail_w[est[v]] -= wv
            est_undo = []
            stack = list(succ[v])
            while stack:
                x = stack.pop()
                e = est[x]
                if e < sv:
                    est_undo.append((x, e))
                    est[x] = sv
                    tail_w[e] -= w[x]
                    tail_w[sv] += w[x]
                    stack.extend(succ[x])
            pair_undo = []
            top = 0  # the heaviest seg of v's predecessors at (pv, sv)
            for u in pred[v]:
                (pu, su) = placed[u][0]
                if pu == pv:
                    if su == sv and seg[u] > top:
                        top = seg[u]
                    continue
                old = need[u][pv]
                if old <= sv:
                    continue
                # an earlier need confines the pair to more intervals
                need[u][pv] = sv
                _count(u, pv, sv - 1, old - 1, +1)
                pair_undo.append((u, old))
            exact_undo = (comm_floor, comm_exact, reach[sv - 1])
            if pair_undo:
                comm_exact = False
            if not maxbsp:
                seg[v] = wv + top
                if top + lp_from[v] > reach[sv - 1]:
                    reach[sv - 1] = top + lp_from[v]
            return (supmax_undo, prev_used, est_undo, pair_undo, exact_undo)

        def _unapply(v: int, copies, undo):
            nonlocal ssum, placed_w, rem, used_hi
            nonlocal comm_floor, comm_exact
            (supmax_undo, prev_used, est_undo, pair_undo, exact_undo) = undo
            wv = w[v]
            if not duplication:
                (pv, sv) = copies[0]
                (comm_floor, comm_exact, reach[sv - 1]) = exact_undo
                for (u, old) in reversed(pair_undo):
                    _count(u, pv, sv - 1, old - 1, -1)
                    need[u][pv] = old
                for (x, e) in reversed(est_undo):
                    est[x] = e
                    tail_w[sv] -= w[x]
                    tail_w[e] += w[x]
                tail_w[est[v]] += wv
            del placed[v]
            for (p, s) in copies:
                work_ps[s - 1][p - 1] -= wv
                sup_tot[s - 1] -= wv
            for (s, old) in reversed(supmax_undo):
                ssum += old - sup_max[s]
                sup_max[s] = old
            used_hi = prev_used
            placed_w -= wv * len(copies)
            rem += wv

        place(0)

    for S in range(1, n + 1):
        if best[1] is not None and S > 1:
            floor = work_floor + (g + L) * (S - 1) if not maxbsp else max(
                work_floor, S
            )
            if floor >= best[1]:
                break
        if S > max_s:
            raise BudgetExceeded(
                f"max_s={max_s}: {S} supersteps could still beat cost {best[1]}")
        search_fixed_s(S)

    return normalize(best[0]), best[1]


def _timed_incumbent(dag: Dag, P: int, delay: int,
                     rank: Sequence[int], span) -> Tuple[TimedSchedule, int]:
    """A valid schedule and its makespan: the one-processor serial schedule
    in topological order (valid in every timed model, makespan the total
    work), or an earliest-task-first list schedule (Hwang, Chow, Anger and
    Lee, 1989) if span (the model's checker: the makespan, or None for an
    invalid schedule) accepts it with a smaller makespan. The list schedule
    places, one at a time, the ready node and processor with the earliest
    start; a value from another processor arrives delay after its finish,
    and ties go to the larger rank, then the lower processor, then the
    lower node. It sends no messages, so spd's checker accepts it only when
    no edge crosses processors."""
    order, pred, succ = dag.topo_order(), dag.pred(), dag.succ()
    serial, t = {}, 1
    for v in order:
        serial[v] = ((1, t),)
        t += dag.w_work(v)
    best = (TimedSchedule(P, serial), t - 1)
    at: Dict[int, Tuple[int, int]] = {}  # placed node -> (processor, start)
    done: Dict[int, int] = {}  # placed node -> first slot after it
    free = [1] * (P + 1)  # first free slot of each processor
    waiting = {v: len(pred[v]) for v in order}
    ready = {v for v in order if not waiting[v]}
    while ready:
        t, _, p, v = min(
            (max([free[p]] + [done[u] + (0 if at[u][0] == p else delay)
                              for u in pred[v]]), -rank[v], p, v)
            for v in ready for p in range(1, P + 1))
        at[v], done[v] = (p, t), t + dag.w_work(v)
        free[p] = done[v]
        ready.remove(v)
        for x in succ[v]:
            waiting[x] -= 1
            if not waiting[x]:
                ready.add(x)
    listed = TimedSchedule(P, {v: (c,) for v, c in at.items()})
    mk = span(listed)
    return (listed, mk) if mk is not None and mk < best[1] else best


def brute_opt_timed(
    dag: Dag,
    P: int,
    g: int,
    model: str = "classical",
    budget: Optional[OracleBudget] = None,
    duplication: bool = False,
) -> Tuple[TimedSchedule, int]:
    """Exact minimum makespan for the timed models. The incumbent is the
    best of the one-processor serial schedule and an earliest-task-first
    list schedule that the model's checker accepts; candidate makespans
    then rise from the lower bound to just below the incumbent's, so the
    first feasible target, or else the incumbent, is optimal. Each target
    is a search placing nodes in _search_order."""
    from .variants import check_classical, check_spd

    budget = budget or OracleBudget.from_env()
    n = dag.node_count
    if model not in ("classical", "classical_barrier", "commdelay", "spd"):
        raise ValueError(f"unknown timed model {model!r}")
    MachineParams(g, 0)  # raises ScheduleError on a negative g
    _check_size(n, P, budget)
    if duplication and model in ("commdelay", "spd"):
        raise ValueError(f"duplication is not supported in the {model} model")

    counter = _Counter(budget.node_budget)
    order = _search_order(dag)
    pred = dag.pred()
    succ = dag.succ()
    w = [0] + [dag.w_work(v) for v in range(1, n + 1)]
    total = dag.total_work()
    lp_from = _longest_from(order, succ, w)
    lb = max(max(lp_from), -(-total // P))
    barrier = model == "classical_barrier"
    delay = g if model in ("commdelay", "spd") else 0

    def span(ts: TimedSchedule) -> Optional[int]:
        """The makespan of ts if the model's checker accepts it, else None."""
        if model == "spd":
            rep, mk = check_spd(dag, ts, g)
        else:
            rep, mk = check_classical(dag, ts, barrier, duplication, delay)
        return mk if rep.valid else None

    incumbent, U = _timed_incumbent(dag, P, delay, lp_from, span)

    def feasible(T: int) -> Optional[TimedSchedule]:
        ls = [T - lp_from[v] + 1 for v in range(n + 1)]
        busy = [0] * (P + 1)  # bit t set while slot t of processor p is taken
        placed: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        comms: List[Tuple[int, int, int, int]] = []
        blocked = [0] * (T + 2)  # copies straddling each barrier boundary

        def mark(v, copies, sign):
            # take (sign 1) or free (-1) the slots of v's copies; starts()
            # offers only free slots, so one XOR does either
            mask = (1 << w[v]) - 1
            for (p, t) in copies:
                busy[p] ^= mask << t
                for b in range(t, t + w[v] - 1):
                    blocked[b] += sign

        def prec_ok(v, p, t) -> bool:
            """Under barriers (delay 0): every predecessor has a copy done by
            t on p, or elsewhere with a free boundary since; boundaries only
            ever get more blocked, and the leaf re-checks."""
            for u in pred[v]:
                for (pu, tu) in placed[u]:
                    done = tu + w[u]
                    if done <= t and (pu == p or any(
                            not blocked[b] for b in range(done - 1, t))):
                        break
                else:
                    return False
            return True

        def starts(v, p) -> List[int]:
            """Feasible start times of a copy of v on p, in increasing order.
            A later start only makes precedence easier (under barriers too:
            the boundary range only widens), so the probe begins at the
            earliest time every predecessor's value can be on p."""
            t = 1
            for u in pred[v]:
                avail = min(tu + w[u] + (0 if pu == p else delay)
                            for (pu, tu) in placed[u])
                if avail > t:
                    t = avail
            if barrier:
                while t <= ls[v] and not prec_ok(v, p, t):
                    t += 1
            mask = (1 << w[v]) - 1
            free = busy[p]
            return [s for s in range(t, ls[v] + 1) if not (free >> s) & mask]

        def leaf() -> Optional[TimedSchedule]:
            ts = TimedSchedule(P, placed, comms)
            mk = span(ts)
            return ts if mk is not None and mk <= T else None

        def spd_comms(idx: int, used: int, p: int, t: int, edges,
                      k: int) -> Optional[TimedSchedule]:
            if k == len(edges):
                return place(idx + 1, used)
            u = edges[k]
            (pu, tu) = placed[u][0]
            lo = tu + w[u] - 1
            hi = t - g - 1
            for t0 in range(lo, hi + 1):
                if any(
                    (q1 == pu or q2 == p) and abs(t0 - s0) < g
                    for (_, q1, q2, s0) in comms
                ):
                    continue
                comms.append((u, pu, p, t0))
                found = spd_comms(idx, used, p, t, edges, k + 1)
                if found is not None:
                    return found
                comms.pop()
            return None

        def place(idx: int, used: int) -> Optional[TimedSchedule]:
            """Place order[idx:]; used is the highest processor in use."""
            counter.tick()
            if idx == n:
                return leaf()
            v = order[idx]
            if duplication:
                options = _copy_sets(P, used, lambda p: starts(v, p))
            else:
                options = [((p, t),) for p in range(1, min(used + 1, P) + 1)
                           for t in starts(v, p)]
            for copies in options:
                placed[v] = copies
                mark(v, copies, 1)
                top = max(used, copies[-1][0])
                if model == "spd":
                    ((p, t),) = copies  # spd never duplicates
                    cross = [u for u in pred[v] if placed[u][0][0] != p]
                    found = spd_comms(idx, top, p, t, cross, 0)
                else:
                    found = place(idx + 1, top)
                mark(v, copies, -1)
                del placed[v]
                if found is not None:
                    return found
            return None

        return place(0, 0)

    for T in range(lb, U):
        found = feasible(T)
        if found is not None:
            return found, T
    return incumbent, U


RATIO_HEADER = "construction,params,model,opt,ratio"
# the parameters each ratio construction reads from a grid cell
_RATIO_CELL_KEYS = {"layered": ("length", "width", "P", "g"),
                   "two_minus_eps": ("g", "k", "P")}


def _cell_nodes(construction: str, cell: Dict[str, int]) -> int:
    """Node count of a grid cell's DAG; 0 for a cell whose generator raises
    DagError, so that the generator reports it."""
    if construction == "layered":
        length, width = cell["length"], cell["width"]
        return length * width if length >= 1 and width >= 1 else 0
    k, p = cell["k"], cell["P"]
    return (2 * k + 2) * p if cell["g"] >= 1 and k >= 1 and p >= 2 else 0


def ratio_report(
    construction: str,
    grid: Sequence[Dict[str, int]],
    budget: Optional[OracleBudget] = None,
    threads: int = 1,
) -> List[Tuple[str, str, str, str, str]]:
    """Exact optima across model pairs for each parameter cell, as CSV rows
    (construction, params, model, opt, ratio-vs-first-model). A cell must
    hold exactly the construction's keys. Cells exceeding the budget are
    marked skipped instead of aborting the whole report."""
    from concurrent.futures import ThreadPoolExecutor

    from .dag import gen_layered, gen_taxonomy_fixture

    budget = budget or OracleBudget.from_env()
    if construction not in _RATIO_CELL_KEYS:
        raise ValueError(f"unknown construction {construction!r}")
    keys = _RATIO_CELL_KEYS[construction]
    for cell in grid:
        missing = [k for k in keys if k not in cell]
        if missing:
            raise ValueError(f"{construction} cell lacks {', '.join(missing)}")
        unknown = [k for k in cell if k not in keys]
        if unknown:
            raise ValueError(f"{construction} cells take no {', '.join(unknown)}")

    def cell_rows(cell: Dict[str, int]):
        params_str = ";".join(f"{k}={cell[k]}" for k in sorted(cell))
        P, g = cell["P"], cell["g"]
        try:
            nodes = _cell_nodes(construction, cell)
            if nodes:  # refuse an oversized cell before building its DAG
                _check_size(nodes, P, budget)
            if construction == "layered":
                dagx = gen_layered(cell["length"], cell["width"], "adjacent")
                _, opt_a = brute_opt_timed(dagx, P, g, "classical", budget)
                _, opt_b = brute_opt_timed(dagx, P, g, "commdelay", budget)
                pairs = [("classical", opt_a), ("commdelay", opt_b)]
            else:
                dagx = gen_taxonomy_fixture(
                    "two_minus_eps", g=g, k=cell["k"], p=P
                )
                _, opt_a = brute_opt_bsp(dagx, P, g, 0, DS, budget, maxbsp=True)
                _, opt_b = brute_opt_bsp(dagx, P, g, 0, DS, budget)
                pairs = [("maxbsp", opt_a), ("bsp", opt_b)]
        except BudgetExceeded:
            return [(construction, params_str, "-", "skipped", "")]
        base = pairs[0][1]
        rows = []
        for name, opt in pairs:
            frac = Fraction(opt, base)
            rows.append(
                (
                    construction,
                    params_str,
                    name,
                    str(opt),
                    f"{frac.numerator}/{frac.denominator}",
                )
            )
        return rows

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_cell = list(pool.map(cell_rows, grid))
    else:
        per_cell = [cell_rows(cell) for cell in grid]
    return [row for rows in per_cell for row in rows]
