"""Exhaustive exact optima for tiny instances, across all supported models.

Everything here is branch and bound with admissible lower bounds, so returned
values are true optima. Budgets make refusal explicit instead of thrashing.
"""

import os
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .dag import Dag
from .schedule import (
    BspSchedule,
    CommModel,
    DS,
    MachineParams,
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
    max_time_horizon: Optional[int] = None  # defaults to n*(1+g)
    node_budget: int = 10**8
    spd_max_nodes: int = 5
    spd_max_g: int = 2

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
            updates[key] = int(value)
        return replace(base, **updates)


class _Counter:
    __slots__ = ("left",)

    def __init__(self, budget: int):
        self.left = budget

    def tick(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("search node budget exhausted")


def _automorphisms(
    dag: Dag, order: List[int], max_count: int = 24
) -> List[Dict[int, int]]:
    """Non-identity weight-preserving automorphisms of the DAG. Relabeling a
    schedule along one preserves validity and cost, so the search may insist
    on the lexicographically minimal superstep sequence among the images.
    Returns [] (disabling the pruning) when the DAG is large or the group
    exceeds the cap."""
    n = dag.node_count
    if n > 64 or n < 2:
        return []
    pred = dag.pred()
    succ = dag.succ()
    level: Dict[int, int] = {}
    for v in order:
        level[v] = 1 + max((level[u] for u in pred[v]), default=0)
    sig = {
        v: (level[v], len(pred[v]), len(succ[v]), dag.w_work(v), dag.w_comm(v))
        for v in order
    }
    pred_sets = {v: set(pred[v]) for v in order}
    steps = [200000]  # effort cap
    found: List[Dict[int, int]] = []

    def extend(i: int, m: Dict[int, int], used: Set[int]) -> None:
        if len(found) > max_count:
            raise BudgetExceeded("too many automorphisms")
        if i == len(order):
            found.append(dict(m))
            return
        w = order[i]
        want = {m[x] for x in pred_sets[w]}
        for cand in order:
            steps[0] -= 1
            if steps[0] < 0:
                raise BudgetExceeded("automorphism search capped")
            if cand in used or sig[cand] != sig[w]:
                continue
            if pred_sets[cand] != want:
                continue
            m[w] = cand
            used.add(cand)
            extend(i + 1, m, used)
            del m[w]
            used.discard(cand)

    try:
        extend(0, {}, set())
    except BudgetExceeded:
        return []
    return [m for m in found if any(m[v] != v for v in m)]


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


def _seed_schedules(
    dag: Dag, P: int, maxbsp: bool
) -> List[BspSchedule]:
    """Cheap valid candidates used to prime the incumbent: the one-processor
    schedule plus pipelined splits of a greedy path cover."""
    n = dag.node_count
    seeds = [
        BspSchedule(P, 1, {v: ((1, 1),) for v in range(1, n + 1)})
    ]
    paths = _greedy_path_cover(dag)
    max_len = max(len(p) for p in paths)
    gap = 2 if maxbsp else 1

    def compositions():
        # (first, middle*m, last) block patterns, plus even splits
        for a in range(1, max_len + 1):
            for b in range(1, max_len + 1):
                for c in range(0, max_len + 1):
                    rest = max_len - a - c
                    if rest < 0 or (rest > 0 and rest % b != 0):
                        continue
                    parts = [a] + [b] * (rest // b) + ([c] if c else [])
                    yield parts

    seen = set()
    for parts in compositions():
        cuts = []
        acc = 0
        for x in parts:
            acc += x
            cuts.append(acc)
        key = tuple(cuts)
        if key in seen:
            continue
        seen.add(key)
        assign = {}
        for j, path in enumerate(paths):
            p = j % P + 1
            for idx, v in enumerate(path):
                s = next(i for i, cut in enumerate(cuts, start=1) if idx < cut)
                assign[v] = ((p, s),)
        S = len(parts)
        # quick feasibility screen before handing to the CS completer
        ok = True
        for (u, v) in dag.edges:
            (pu, su) = assign[u][0]
            (pv, sv) = assign[v][0]
            if pu == pv and su > sv:
                ok = False
                break
            if pu != pv and su + gap > sv:
                ok = False
                break
        if ok:
            seeds.append(BspSchedule(P, S, assign))
    return seeds


def _complete_and_cost(
    dag: Dag,
    sched: BspSchedule,
    model: CommModel,
    params: MachineParams,
    maxbsp: bool,
    exact: bool,
) -> Optional[Tuple[BspSchedule, int]]:
    """Attach a communication set to a bare assignment and price it."""
    try:
        inst = CsInstance(dag, sched.processor_count, sched.superstep_count,
                          sched.assign, maxbsp=maxbsp)
    except CsError:
        return None
    unit = not dag.comm_weight
    try:
        if maxbsp:
            gamma, total = cs_bruteforce(
                inst, model, limit=64, objective="maxbsp", params=params
            )
            full = BspSchedule(sched.processor_count, sched.superstep_count,
                               sched.assign, comms=gamma)
            return full, total
        if exact and inst.P == 2 and unit and all(
            len(c) == 1 for c in sched.assign.values()
        ):
            gamma = cs_greedy_p2(inst)
        elif exact:
            gamma, _ = cs_bruteforce(inst, model, limit=64)
        else:
            from .commsched import cs_eager

            gamma = cs_eager(inst)
    except CsError:
        return None
    full = BspSchedule(sched.processor_count, sched.superstep_count,
                       sched.assign, comms=gamma)
    return full, bsp_cost(dag, full, model, params).cost


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
    budget = budget or OracleBudget.from_env()
    n = dag.node_count
    if n > budget.max_nodes:
        raise BudgetExceeded(f"{n} nodes exceed the budget ({budget.max_nodes})")
    if P > budget.max_p:
        raise BudgetExceeded(f"P={P} exceeds the budget ({budget.max_p})")
    params = MachineParams(g, L)
    counter = _Counter(budget.node_budget)

    best: List = [None, None]  # schedule, cost

    def consider(sched: BspSchedule, total: int):
        if best[1] is None or total < best[1]:
            best[0], best[1] = sched, total

    # incumbent seeds (cheap upper bounds; always valid schedules)
    if not duplication:
        for seed in _seed_schedules(dag, P, maxbsp):
            done = _complete_and_cost(dag, seed, model, params, maxbsp, exact=True)
            if done is not None:
                consider(*done)
    else:
        base = BspSchedule(P, 1, {v: ((1, 1),) for v in range(1, n + 1)})
        consider(base, dag.total_work())

    order = dag.topo_order()
    pred = dag.pred()
    total_work = dag.total_work()
    work_floor = -(-total_work // P)
    gap = 2 if maxbsp else 1
    broadcast = model.cast == "broadcast"
    direct = model.transfer == "direct"

    max_s = budget.max_s or n

    # symmetry pruning: keep only schedules whose superstep sequence (in
    # search order) is lexicographically minimal among automorphic relabelings
    sym_maps: List[List[int]] = []
    if not duplication:
        pos = {v: i for i, v in enumerate(order)}
        for auto in _automorphisms(dag, order):
            # image_pos[i] = search position of the image of order[i]
            sym_maps.append([pos[auto[order[i]]] for i in range(n)])

    def search_fixed_s(S: int):
        s_of = [0] * n  # superstep per search position, 0 while unplaced
        sym_state = [[0, False] for _ in sym_maps]  # compare pointer, decided

        def _sym_check():
            # advance the prefix comparison against each automorphic image;
            # False means some image is lexicographically smaller
            changed = []
            ok = True
            for j, imap in enumerate(sym_maps):
                st = sym_state[j]
                if st[1]:
                    continue
                ptr0 = st[0]
                ptr = ptr0
                while ptr < n:
                    t = s_of[ptr]
                    u = s_of[imap[ptr]]
                    if not t or not u:
                        break
                    if t < u:
                        st[1] = True
                        break
                    if t > u:
                        ok = False
                        break
                    ptr += 1
                if ptr != ptr0 or st[1]:
                    changed.append((j, ptr0))
                    st[0] = ptr
                if not ok:
                    break
            return ok, changed

        def _sym_restore(changed):
            for (j, ptr0) in reversed(changed):
                sym_state[j][0] = ptr0
                sym_state[j][1] = False

        work_ps = [[0] * P for _ in range(S)]
        sup_max = [0] * S
        sup_tot = [0] * S
        placed: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        remaining = [total_work]
        used_hi = [0]
        # communication lower-bound state (single-copy searches only): for
        # every boundary interval [a, b], pairs whose whole legal send window
        # sits inside it force that many units of communication there
        pair_need: Dict[Tuple[int, int], int] = {}
        rec_cnt = [[[0] * S for _ in range(S)] for _ in range(P)]
        sent_cnt = [[[0] * S for _ in range(S)] for _ in range(P)]
        count_sent = direct and not broadcast
        off = 1 if maxbsp else 0

        def _cnt_update(pair, need: int, sign: int):
            u, pv = pair
            (pu, su) = placed[u][0]
            lo = su + off
            hi = need - 1
            for a in range(1, lo + 1):
                row = rec_cnt[pv - 1][a - 1]
                for b in range(hi, S):
                    row[b - 1] += sign
            if count_sent:
                for a in range(1, lo + 1):
                    row = sent_cnt[pu - 1][a - 1]
                    for b in range(hi, S):
                        row[b - 1] += sign

        def comm_lb() -> int:
            # partition the boundaries into intervals; each interval costs at
            # least max(1, max_p pairs confined to it)
            dp = [0] * S
            for b in range(1, S):
                best_b = 0
                for a in range(1, b + 1):
                    m = 1
                    for p in range(P):
                        c = rec_cnt[p][a - 1][b - 1]
                        if c > m:
                            m = c
                        if count_sent:
                            c = sent_cnt[p][a - 1][b - 1]
                            if c > m:
                                m = c
                    if dp[a - 1] + m > best_b:
                        best_b = dp[a - 1] + m
                dp[b] = best_b
            return dp[S - 1]

        w_of = {v: dag.w_work(v) for v in order}
        smin = [1] * (dag.node_count + 1)

        def lower_bound(idx: int) -> int:
            ssum = 0
            slack = 0
            for s in range(S):
                m = sup_max[s]
                ssum += m
                row = work_ps[s]
                for p in range(P):
                    slack += m - row[p]
            rem = remaining[0]
            wlb = ssum
            if rem > slack:
                wlb += -(-(rem - slack) // P)
            if wlb < work_floor:
                wlb = work_floor
            if rem and not duplication:
                # precedence-aware tail bound: work whose earliest feasible
                # superstep is >= s shares supersteps s..S with the work
                # already placed there, so each prefix of superstep maxima
                # plus the packed tail is a valid floor
                tail_w = [0] * (S + 1)
                for i in range(idx, n):
                    v = order[i]
                    sm = 1
                    for u in pred[v]:
                        t = placed[u][0][1] if u in placed else smin[u]
                        if t > sm:
                            sm = t
                    smin[v] = sm
                    tail_w[sm] += w_of[v]
                suffix = rem + sum(sup_tot)
                prefix = 0
                for s in range(1, S + 1):
                    cand = prefix + -(-suffix // P)
                    if cand > wlb:
                        wlb = cand
                    prefix += sup_max[s - 1]
                    suffix -= sup_tot[s - 1] + tail_w[s]
            if S == 1:
                return max(wlb, 1) if maxbsp else wlb
            if duplication:
                # boundaries without communication would merge away
                return wlb + (g + L) * (S - 1)
            if maxbsp:
                total = 0
                for s in range(S - 1):
                    f = 1
                    for p in range(P):
                        if rec_cnt[p][s][s] > f:
                            f = rec_cnt[p][s][s]
                        if count_sent and sent_cnt[p][s][s] > f:
                            f = sent_cnt[p][s][s]
                    total += max(sup_max[s], g * f + L, 1)
                total += max(sup_max[S - 1], 1)
                return max(wlb, total)
            return wlb + g * comm_lb() + L * (S - 1)

        def place(idx: int):
            counter.tick()
            if best[1] is not None and lower_bound(idx) >= best[1]:
                return
            if direct and not maxbsp and not duplication:
                # compute-free supersteps merge away; the unplaced nodes
                # must be able to fill every still-empty superstep
                empties = sum(1 for x in sup_max if x == 0)
                if empties > len(order) - idx:
                    return
            if idx == len(order):
                sched = BspSchedule(P, S, dict(placed))
                done = _complete_and_cost(dag, sched, model, params, maxbsp,
                                          exact=True)
                if done is not None:
                    consider(*done)
                return
            v = order[idx]
            used = used_hi[0]
            options = []
            if duplication:
                options = _dup_options(v, used)
            else:
                for p in range(1, min(used + 1, P) + 1):
                    lo = 1
                    ok = True
                    for u in pred[v]:
                        (pu, su) = placed[u][0]
                        lo = max(lo, su if pu == p else su + gap)
                        if lo > S:
                            ok = False
                            break
                    if not ok:
                        continue
                    for s in range(lo, S + 1):
                        options.append(((p, s),))
            for copies in options:
                undo = _apply(v, copies)
                if sym_maps:
                    s_of[idx] = copies[0][1]
                    ok, changed = _sym_check()
                    if ok:
                        place(idx + 1)
                    _sym_restore(changed)
                    s_of[idx] = 0
                else:
                    place(idx + 1)
                _unapply(v, copies, undo)

        def _dup_options(v: int, used: int):
            opts = []
            procs = list(range(1, min(used + len(pred[v]) + P, P) + 1))
            # enumerate nonempty copy sets on distinct processors
            def grow(start_p: int, chosen: List[Tuple[int, int]]):
                if chosen:
                    touched = {p for (p, _) in chosen}
                    hi = max(touched | {used})
                    if set(range(used + 1, hi + 1)) <= touched:
                        opts.append(tuple(sorted(chosen)))
                if len(chosen) >= P:
                    return
                for p in range(start_p, P + 1):
                    lo = 1
                    ok = True
                    for u in pred[v]:
                        avail = min(
                            (su if pu == p else su + gap)
                            for (pu, su) in placed[u]
                        )
                        lo = max(lo, avail)
                        if lo > S:
                            ok = False
                            break
                    if not ok:
                        continue
                    for s in range(lo, S + 1):
                        grow(p + 1, chosen + [(p, s)])

            grow(1, [])
            return opts

        def _apply(v: int, copies):
            placed[v] = copies
            wv = dag.w_work(v)
            supmax_undo = []
            prev_used = used_hi[0]
            for (p, s) in copies:
                work_ps[s - 1][p - 1] += wv
                sup_tot[s - 1] += wv
                if work_ps[s - 1][p - 1] > sup_max[s - 1]:
                    supmax_undo.append((s - 1, sup_max[s - 1]))
                    sup_max[s - 1] = work_ps[s - 1][p - 1]
                if p > used_hi[0]:
                    used_hi[0] = p
            remaining[0] -= wv
            pair_undo = []
            if not duplication:
                (pv, sv) = copies[0]
                for u in pred[v]:
                    (pu, su) = placed[u][0]
                    if pu == pv:
                        continue
                    pair = (u, pv)
                    old = pair_need.get(pair)
                    if old is not None and old <= sv:
                        continue
                    pair_undo.append((pair, old))
                    if old is not None:
                        _cnt_update(pair, old, -1)
                    pair_need[pair] = sv
                    _cnt_update(pair, sv, +1)
            return (supmax_undo, prev_used, pair_undo)

        def _unapply(v: int, copies, undo):
            (supmax_undo, prev_used, pair_undo) = undo
            wv = dag.w_work(v)
            for (pair, old) in reversed(pair_undo):
                _cnt_update(pair, pair_need[pair], -1)
                if old is None:
                    del pair_need[pair]
                else:
                    pair_need[pair] = old
                    _cnt_update(pair, old, +1)
            del placed[v]
            for (p, s) in copies:
                work_ps[s - 1][p - 1] -= wv
                sup_tot[s - 1] -= wv
            for (idx, old) in reversed(supmax_undo):
                sup_max[idx] = old
            used_hi[0] = prev_used
            remaining[0] += wv

        place(0)

    for S in range(1, min(max_s, n) + 1):
        if best[1] is not None and S > 1:
            floor = work_floor + (g + L) * (S - 1) if not maxbsp else max(
                work_floor, S
            )
            if floor >= best[1]:
                break
        search_fixed_s(S)

    return normalize(best[0]), best[1]


def brute_opt_timed(
    dag: Dag,
    P: int,
    g: int,
    model: str = "classical",
    budget: Optional[OracleBudget] = None,
    duplication: bool = False,
) -> Tuple[TimedSchedule, int]:
    """Exact minimum makespan for the timed models; iterates candidate
    makespans upward, so the first feasible target is optimal."""
    from .variants import check_classical, check_commdelay, check_spd

    budget = budget or OracleBudget.from_env()
    n = dag.node_count
    if model not in ("classical", "classical_barrier", "commdelay", "spd"):
        raise ValueError(f"unknown timed model {model!r}")
    if n > budget.max_nodes:
        raise BudgetExceeded(f"{n} nodes exceed the budget ({budget.max_nodes})")
    if P > budget.max_p:
        raise BudgetExceeded(f"P={P} exceeds the budget ({budget.max_p})")
    if model == "spd":
        if duplication:
            raise ValueError("duplication is not supported in the spd model")
        if n > budget.spd_max_nodes:
            raise BudgetExceeded(
                f"{n} nodes exceed the spd budget ({budget.spd_max_nodes})"
            )
        if g > budget.spd_max_g:
            raise BudgetExceeded(f"g={g} exceeds the spd budget ({budget.spd_max_g})")
    if duplication and model == "commdelay":
        raise ValueError("duplication is not supported in the commdelay model")

    counter = _Counter(budget.node_budget)
    order = dag.topo_order()
    pred = dag.pred()
    succ = dag.succ()
    total = dag.total_work()
    ef: Dict[int, int] = {}
    for v in order:
        ef[v] = dag.w_work(v) + max((ef[u] for u in pred[v]), default=0)
    lp_from: Dict[int, int] = {}
    for v in reversed(order):
        lp_from[v] = dag.w_work(v) + max((lp_from[x] for x in succ[v]), default=0)
    lb = max(max(ef.values()), -(-total // P))
    horizon_cap = budget.max_time_horizon or n * (1 + g)
    barrier = model == "classical_barrier"
    delay = g if model in ("commdelay", "spd") else 0

    def feasible(T: int) -> Optional[TimedSchedule]:
        ls = {v: T - lp_from[v] + 1 for v in order}
        busy = [set() for _ in range(P + 1)]
        placed: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        comms: List[Tuple[int, int, int, int]] = []
        blocked: Dict[int, int] = {}  # barrier boundaries straddled so far

        def add_copy(v, p, t):
            w = dag.w_work(v)
            busy[p].update(range(t, t + w))
            for b in range(t, t + w - 1):
                blocked[b] = blocked.get(b, 0) + 1

        def drop_copy(v, p, t):
            w = dag.w_work(v)
            busy[p].difference_update(range(t, t + w))
            for b in range(t, t + w - 1):
                blocked[b] -= 1
                if not blocked[b]:
                    del blocked[b]

        def copy_ok(v, p, t) -> bool:
            if t < 1 or t > ls[v]:
                return False
            w = dag.w_work(v)
            if any(slot in busy[p] for slot in range(t, t + w)):
                return False
            for u in pred[v]:
                sat = False
                for (pu, tu) in placed[u]:
                    done = tu + dag.w_work(u)
                    if pu == p:
                        if done <= t:
                            sat = True
                            break
                        continue
                    if done + delay <= t:
                        if not barrier:
                            sat = True
                            break
                        # boundaries only ever get more blocked; leaf re-checks
                        if any(b not in blocked for b in range(done - 1, t)):
                            sat = True
                            break
                if not sat:
                    return False
            return True

        def leaf() -> Optional[TimedSchedule]:
            ts = TimedSchedule(P, dict(placed), frozenset(comms))
            if model in ("classical", "classical_barrier"):
                rep, mk = check_classical(dag, ts, barrier, duplication)
            elif model == "commdelay":
                rep, mk = check_commdelay(dag, ts, g)
            else:
                rep, mk = check_spd(dag, ts, g)
            return ts if rep.valid and mk <= T else None

        def spd_comms(v: int, p: int, t: int, edges, k: int) -> Optional[TimedSchedule]:
            if k == len(edges):
                return place(order.index(v) + 1)
            u = edges[k]
            (pu, tu) = placed[u][0]
            lo = tu + dag.w_work(u) - 1
            hi = t - g - 1
            for t0 in range(lo, hi + 1):
                if any(
                    (q1 == pu or q2 == p) and abs(t0 - s0) < g
                    for (_, q1, q2, s0) in comms
                ):
                    continue
                comms.append((u, pu, p, t0))
                found = spd_comms(v, p, t, edges, k + 1)
                if found is not None:
                    return found
                comms.pop()
            return None

        def place(idx: int) -> Optional[TimedSchedule]:
            counter.tick()
            if idx == len(order):
                return leaf()
            v = order[idx]
            used = max(
                (p for cs in placed.values() for (p, _) in cs), default=0
            )
            if not duplication:
                for p in range(1, min(used + 1, P) + 1):
                    for t in range(1, ls[v] + 1):
                        if not copy_ok(v, p, t):
                            continue
                        placed[v] = ((p, t),)
                        add_copy(v, p, t)
                        if model == "spd":
                            cross = [
                                u for u in pred[v] if placed[u][0][0] != p
                            ]
                            found = spd_comms(v, p, t, cross, 0)
                        else:
                            found = place(idx + 1)
                        drop_copy(v, p, t)
                        del placed[v]
                        if found is not None:
                            return found
                return None
            # duplication: enumerate copy sets on distinct processors
            found_result: List[Optional[TimedSchedule]] = [None]

            def grow(start_p: int, chosen: List[Tuple[int, int]]):
                if found_result[0] is not None:
                    return
                if chosen:
                    touched = {p for (p, _) in chosen}
                    hi = max(touched | {used})
                    if set(range(used + 1, hi + 1)) <= touched:
                        placed[v] = tuple(chosen)
                        found = place(idx + 1)
                        del placed[v]
                        if found is not None:
                            found_result[0] = found
                            return
                if len(chosen) >= P:
                    return
                for p in range(start_p, P + 1):
                    for t in range(1, ls[v] + 1):
                        if not copy_ok(v, p, t):
                            continue
                        add_copy(v, p, t)
                        grow(p + 1, chosen + [(p, t)])
                        drop_copy(v, p, t)
                        if found_result[0] is not None:
                            return

            grow(1, [])
            return found_result[0]

        return place(0)

    for T in range(lb, total + 1):
        if T > horizon_cap:
            raise BudgetExceeded("time horizon budget exhausted")
        found = feasible(T)
        if found is not None:
            return found, T
    raise BudgetExceeded("no schedule found within the serial makespan")  # unreachable


RATIO_HEADER = "construction,params,model,opt,ratio"


def ratio_report(
    construction: str,
    grid: Sequence[Dict[str, int]],
    budget: Optional[OracleBudget] = None,
    threads: int = 1,
) -> List[Tuple[str, str, str, str, str]]:
    """Exact optima across model pairs for each parameter cell, as CSV rows
    (construction, params, model, opt, ratio-vs-first-model). Cells exceeding
    the budget are marked skipped instead of aborting the whole report."""
    from concurrent.futures import ThreadPoolExecutor

    from .dag import gen_layered, gen_taxonomy_fixture

    budget = budget or OracleBudget.from_env()

    def cell_rows(cell: Dict[str, int]):
        params_str = ";".join(f"{k}={cell[k]}" for k in sorted(cell))
        try:
            if construction == "layered":
                dagx = gen_layered(cell["length"], cell["width"], "adjacent")
                P, g = cell["P"], cell["g"]
                _, opt_a = brute_opt_timed(dagx, P, g, "classical", budget)
                _, opt_b = brute_opt_timed(dagx, P, g, "commdelay", budget)
                pairs = [("classical", opt_a), ("commdelay", opt_b)]
            elif construction == "two_minus_eps":
                dagx = gen_taxonomy_fixture(
                    "two_minus_eps", g=cell["g"], k=cell["k"], p=cell["P"]
                )
                P, g = cell["P"], cell["g"]
                _, opt_a = brute_opt_bsp(dagx, P, g, 0, DS, budget, maxbsp=True)
                _, opt_b = brute_opt_bsp(dagx, P, g, 0, DS, budget)
                pairs = [("maxbsp", opt_a), ("bsp", opt_b)]
            else:
                raise ValueError(f"unknown construction {construction!r}")
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
