"""Reference computations and output checks of the benchmark.

Nothing here imports bspsched. Every rule is written out again from the
definitions (BSP cost, delivery, the ILP's variables, h-relations), so a
fault in the library cannot hide inside its own check. Schedules are plain
data: ``assign`` maps a node to its ``(processor, superstep)``, ``comms`` is
a set of ``(value, from, to, superstep)`` tuples. Each ``check_*`` function
raises ``CheckError`` when an output is wrong.
"""

import re
from collections import defaultdict

INF = float("inf")


class CheckError(Exception):
    """An operation returned a wrong answer."""


def expect(ok, message):
    if not ok:
        raise CheckError(message)


def ceil_div(a, b):
    return -(-a // b)


# ---------------------------------------------------------------------------
# cost


def supersteps_used(assign, comms):
    return max([s for (_, s) in assign.values()] + [c[3] for c in comms])


def loads(commw, comms, P, S, broadcast):
    """Per-superstep h-relation: max over processors of max(sent, received).
    Under broadcast a (value, sender, superstep) is sent once."""
    sent = [[0] * (P + 1) for _ in range(S + 1)]
    rec = [[0] * (P + 1) for _ in range(S + 1)]
    senders = {(v, p1, s) for (v, p1, _, s) in comms} if broadcast else None
    for (v, p1, p2, s) in comms:
        rec[s][p2] += commw(v)
        if not broadcast:
            sent[s][p1] += commw(v)
    for (v, p1, s) in senders or ():
        sent[s][p1] += commw(v)
    return [max(max(a, b) for a, b in zip(sent[s], rec[s])) for s in range(1, S + 1)]


def cost_rows(work, commw, assign, comms, P, broadcast):
    """[(max work, h-relation)] for each superstep in use."""
    S = supersteps_used(assign, comms)
    w = [[0] * (P + 1) for _ in range(S + 1)]
    for v, (p, s) in assign.items():
        w[s][p] += work(v)
    return list(zip((max(w[s]) for s in range(1, S + 1)),
                    loads(commw, comms, P, S, broadcast)))


def bsp_cost(rows, g, L):
    return sum(w + g * h + (L if h else 0) for (w, h) in rows)


def maxbsp_cost(rows, g, L):
    """Overlapped supersteps: max(work, g*comm + L) each."""
    return sum(max(w, g * h + (L if h else 0)) for (w, h) in rows)


def comm_units(commw, comms, P, S):
    """Singlecast communication units summed over supersteps."""
    return sum(loads(commw, comms, P, S, False))


# ---------------------------------------------------------------------------
# validity


def violations(edges, assign, comms, direct, gap=1):
    """(bad sends, bad edges) of a single-copy schedule.

    A value computed on p in superstep s may be sent from p in superstep
    s + gap - 1 or later (gap 2 is the overlapped model); under free
    transfer, a processor that received it in superstep c may pass it on
    from c + 1. A consumer in superstep t needs it sent in t - 1 or earlier.
    """
    have = {}  # (value, processor) -> first superstep it may be sent from
    for v, (p, s) in assign.items():
        have[(v, p)] = s + gap - 1
    bad_sends = set()
    arrive = {}  # (value, processor) -> earliest arrival superstep
    for t in sorted(comms, key=lambda t: t[3]):
        v, p1, p2, s = t
        if (not direct or p1 == assign[v][0]) and have.get((v, p1), INF) <= s:
            arrive[(v, p2)] = min(arrive.get((v, p2), INF), s)
            if not direct and have.get((v, p2), INF) > s + 1:
                have[(v, p2)] = s + 1
        else:
            bad_sends.add(t)
    bad_edges = set()
    for (u, v) in edges:
        (pu, su), (pv, sv) = assign[u], assign[v]
        if pu == pv and su <= sv:
            continue
        if arrive.get((u, pv), INF) >= sv:
            bad_edges.add((u, v))
    return bad_sends, bad_edges


def check_schedule(edges, assign, comms, n, P, direct, gap=1):
    expect(sorted(assign) == list(range(1, n + 1)), "not every node is assigned once")
    expect(all(1 <= p <= P for (p, _) in assign.values()), "processor out of range")
    bad_sends, bad_edges = violations(edges, assign, comms, direct, gap)
    expect(not bad_sends, f"invalid sends {sorted(bad_sends)[:3]}")
    expect(not bad_edges, f"undelivered edges {sorted(bad_edges)[:3]}")


def timed_makespan(work, edges, assign, delay):
    """Makespan of a valid timed schedule (classical: delay 0; communication
    delay: g on cross edges); raises on overlaps or early starts."""
    busy = set()
    for v, (p, t) in assign.items():
        expect(t >= 1, f"node {v} starts before slot 1")
        for slot in range(t, t + work(v)):
            expect((p, slot) not in busy, f"slot {slot} on p{p} used twice")
            busy.add((p, slot))
    for (u, v) in edges:
        (pu, tu), (pv, tv) = assign[u], assign[v]
        expect(tu + work(u) + (delay if pu != pv else 0) <= tv,
               f"node {v} starts before {u} reaches it")
    return max(t + work(v) - 1 for v, (_, t) in assign.items())


def critical_path(work, edges, n):
    """Heaviest path by node work (Kahn order)."""
    succ, indeg = defaultdict(list), [0] * (n + 1)
    for (u, v) in edges:
        succ[u].append(v)
        indeg[v] += 1
    finish = [0] * (n + 1)
    ready = [v for v in range(1, n + 1) if not indeg[v]]
    while ready:
        u = ready.pop()
        finish[u] += work(u)
        for v in succ[u]:
            finish[v] = max(finish[v], finish[u])
            indeg[v] -= 1
            if not indeg[v]:
                ready.append(v)
    return max(finish)


# ---------------------------------------------------------------------------
# schedules the benchmark builds itself


def deliver(edges, assign, lazy):
    """One direct tuple per (value, target processor) that needs it: sent in
    the superstep it is computed (eager) or the one before first use (lazy)."""
    need = {}
    for (u, v) in edges:
        (pu, _), (pv, sv) = assign[u], assign[v]
        if pu != pv:
            need[(u, pv)] = min(need.get((u, pv), sv), sv)
    return {(u, assign[u][0], p, (s - 1) if lazy else assign[u][1])
            for (u, p), s in need.items()}


def relay(edges, assign, P, rng, share):
    """Eager delivery where a share of the (value, target) pairs that have a
    superstep to spare go through a third processor: first hop in the
    superstep the value is computed, second hop one superstep later."""
    need = {}
    for (u, v) in edges:
        (pu, _), (pv, sv) = assign[u], assign[v]
        if pu != pv:
            need[(u, pv)] = min(need.get((u, pv), sv), sv)
    comms = set()
    for (u, p), first in sorted(need.items()):
        pu, su = assign[u]
        if first - su >= 2 and P >= 3 and rng.random() < share:
            q = rng.choice([q for q in range(1, P + 1) if q not in (pu, p)])
            comms |= {(u, pu, q, su), (u, q, p, su + 1)}
        else:
            comms.add((u, pu, p, su))
    return comms


def block_schedule(edges, n, P, S, rng):
    """Nodes (ids topological) cut into S consecutive blocks, block b in
    superstep b; nodes joined by an edge inside a block share a processor,
    the rest are placed at random; cross values are delivered lazily."""
    parent = list(range(n + 1))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    block = {v: (v - 1) * S // n + 1 for v in range(1, n + 1)}
    for (u, v) in edges:
        if block[u] == block[v]:
            parent[root(u)] = root(v)
    proc = {}
    assign = {}
    for v in range(1, n + 1):
        r = root(v)
        if r not in proc:
            proc[r] = rng.randrange(1, P + 1)
        assign[v] = (proc[r], block[v])
    return assign, deliver(edges, assign, lazy=True)


# ---------------------------------------------------------------------------
# CLI output


_VIOLATION = re.compile(r"^invalid \[(\w+)\] \(([-\d, ]+)\):")


def check_validate_output(code, out, err, bad_sends, bad_edges):
    """validate must print "valid" and exit 0 exactly when nothing is wrong,
    and otherwise report exactly the bad sends and edges."""
    if not bad_sends and not bad_edges:
        expect(code == 0 and out.strip() == "valid", f"valid schedule rejected: {err[:200]}")
        return 0
    expect(code == 1, f"invalid schedule exited {code}")
    got = defaultdict(set)
    for line in err.splitlines():
        m = _VIOLATION.match(line)
        if m:
            got[m.group(1)].add(tuple(int(x) for x in m.group(2).split(",")))
    expect(set(got) <= {"send", "edge"}, f"unexpected rules {sorted(got)}")
    expect(got["send"] == set(bad_sends), "reported bad sends differ")
    expect(got["edge"] == set(bad_edges), "reported bad edges differ")
    return len(got["send"]) + len(got["edge"])


_TOTAL = re.compile(r"^total (\d+)\+(\d*)g\+(\d*)L = (\d+)$")


def check_cost_output(code, out, rows, g, L):
    """The cost table must list (superstep, work, comm) rows equal to rows and
    a total line "W+Cg+KL = cost" that adds up."""
    expect(code == 0, f"cost exited {code}")
    lines = out.strip().splitlines()
    expect(lines[0] == "superstep work comm", "missing table header")
    table = [tuple(int(x) for x in line.split()) for line in lines[1:-1]]
    expect(table == [(s + 1, w, h) for s, (w, h) in enumerate(rows)],
           "per-superstep work or comm differs")
    m = _TOTAL.match(lines[-1])
    expect(m is not None, f"bad total line {lines[-1]!r}")
    coeff = [int(x) if x else 1 for x in m.groups()]
    want = (sum(w for w, _ in rows), sum(h for _, h in rows),
            sum(1 for _, h in rows if h), bsp_cost(rows, g, L))
    expect(tuple(coeff) == want, f"total {lines[-1]!r}, expected {want}")


# ---------------------------------------------------------------------------
# exact optima


def check_bsp_optimum(dag, P, g, L, assign, comms, opt, direct, broadcast,
                      maxbsp=False):
    """An optimum returned with its schedule: the schedule is valid, costs
    exactly opt, and opt is at least the work and critical-path bounds."""
    n, edges = dag["n"], dag["edges"]
    check_schedule(edges, assign, comms, n, P, direct, gap=2 if maxbsp else 1)
    rows = cost_rows(dag["work"], dag["comm"], assign, comms, P,
                     broadcast and not maxbsp)
    priced = maxbsp_cost(rows, g, L) if maxbsp else bsp_cost(rows, g, L)
    expect(priced == opt, f"schedule costs {priced}, reported optimum {opt}")
    check_floor(dag, P, opt)


def check_timed_optimum(dag, P, assign, opt, delay):
    span = timed_makespan(dag["work"], dag["edges"], assign, delay)
    expect(span == opt, f"schedule spans {span}, reported optimum {opt}")
    check_floor(dag, P, opt)


def check_floor(dag, P, opt):
    total = sum(dag["work"](v) for v in range(1, dag["n"] + 1))
    expect(opt >= ceil_div(total, P), f"optimum {opt} below ceil(W/P)")
    expect(opt >= critical_path(dag["work"], dag["edges"], dag["n"]),
           f"optimum {opt} below the critical path")


def check_model_order(opt):
    """fb <= fs <= ds, fb <= db <= ds, maxbsp <= ds, and
    classical <= commdelay <= bsp(L = 0) for optima of one DAG."""
    for lo, hi in (("fb", "fs"), ("fs", "ds"), ("fb", "db"), ("db", "ds"),
                   ("maxbsp", "ds"), ("classical", "commdelay"),
                   ("commdelay", "ds")):
        if lo in opt and hi in opt:
            expect(opt[lo] <= opt[hi], f"{lo} optimum {opt[lo]} > {hi} {opt[hi]}")


# ---------------------------------------------------------------------------
# ILP


def lp_counts(n, m, P, S, code):
    """Variables and constraints of emit_ilp without duplication, counted
    from the formulation: comp, pres, used and the cost variables cwork_s_p,
    cwork_s, csent_s_p, crec_s_p, ccomm_s (3PS + 2S) in every model."""
    nps = n * P * S
    variables = 2 * nps + S + 3 * P * S + 2 * S
    constraints = n + nps + m * P * S + 6 * P * S
    if code in ("ds", "db"):
        variables += 2 * nps + n * P
        constraints += n * P + (5 if code == "ds" else 4) * nps
    elif code == "fb":
        variables += 2 * nps
        constraints += 3 * nps
    else:
        variables += n * P * (P - 1) * S
        constraints += 2 * n * P * (P - 1) * S
    return variables, constraints


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def check_lp_text(text, variables, constraints):
    """One " name: expr rel rhs" line per constraint, and every variable used
    in the objective or a constraint is declared once as binary or general."""
    lines = text.split("\n")
    expect(lines[0] == "Minimize" and lines[-2:] == ["End", ""], "bad LP frame")
    start = lines.index("Subject To")
    sections = [i for i, line in enumerate(lines) if line in ("Bounds", "Binaries", "Generals", "End")]
    stop = sections[0]
    expect(stop - start - 1 == constraints, f"{stop - start - 1} constraint lines, expected {constraints}")
    used = set()
    for line in lines[1:2] + lines[start + 1:stop]:
        name, _, body = line.partition(": ")
        expect(name.startswith(" ") and body, f"bad row {line[:60]!r}")
        used.update(_NAME.findall(body))
    declared = {}
    kind = None
    for line in lines[stop:-2]:
        if not line.startswith(" "):
            kind = line
            continue
        if kind == "Binaries" or kind == "Generals":
            name = line.strip()
            expect(name not in declared, f"{name} declared twice")
            declared[name] = kind
    expect(len(declared) == variables, f"{len(declared)} declared, expected {variables}")
    missing = used - set(declared)
    expect(not missing, f"undeclared variables {sorted(missing)[:3]}")


def ilp_assignment(code, n, P, S, work, commw, assign, comms):
    """Values of every emit_ilp variable for a known valid schedule, with
    presence closed under computation and receipt and every cost variable at
    the schedule's own per-superstep load."""
    direct, broadcast = code in ("ds", "db"), code in ("db", "fb")
    vals = {}
    recv = defaultdict(lambda: INF)  # (v, p) -> first superstep received
    for (v, p1, p2, s) in comms:
        recv[(v, p2)] = min(recv[(v, p2)], s)
    for v in range(1, n + 1):
        home, hs = assign[v]
        for p in range(1, P + 1):
            first = min(hs if p == home else INF, recv[(v, p)] + 1)
            for s in range(1, S + 1):
                vals[f"comp_{v}_{p}_{s}"] = int(p == home and s == hs)
                vals[f"pres_{v}_{p}_{s}"] = int(s >= first)
                if code == "fs":
                    for q in range(1, P + 1):
                        if q != p:
                            vals[f"comm_{v}_{p}_{q}_{s}"] = 0
                else:
                    vals[f"rec_{v}_{p}_{s}"] = 0
                if broadcast:
                    vals[f"sent_{v}_{p}_{s}"] = 0
                if code == "ds":
                    vals[f"senttimes_{v}_{p}_{s}"] = 0
            if direct:
                vals[f"home_{v}_{p}"] = int(p == home)
    for s in range(1, S + 1):
        vals[f"used_{s}"] = 0
    for (v, p1, p2, s) in comms:
        if code == "fs":
            vals[f"comm_{v}_{p1}_{p2}_{s}"] = 1
        else:
            vals[f"rec_{v}_{p2}_{s}"] = 1
        if broadcast:
            vals[f"sent_{v}_{p1}_{s}"] = 1
        if code == "ds":
            vals[f"senttimes_{v}_{p1}_{s}"] += 1
        vals[f"used_{s}"] = 1
    wk = defaultdict(int)
    for v, (p, s) in assign.items():
        wk[(s, p)] += work(v)
    sent, rec = defaultdict(int), defaultdict(int)
    for (v, p1, s) in ({(v, p1, s) for (v, p1, _, s) in comms} if broadcast
                       else [(v, p1, s) for (v, p1, _, s) in comms]):
        sent[(s, p1)] += commw(v)
    for (v, _, p2, s) in comms:
        rec[(s, p2)] += commw(v)
    for s in range(1, S + 1):
        for p in range(1, P + 1):
            vals[f"cwork_{s}_{p}"] = wk[(s, p)]
            vals[f"csent_{s}_{p}"] = sent[(s, p)]
            vals[f"crec_{s}_{p}"] = rec[(s, p)]
        vals[f"cwork_{s}"] = max(wk[(s, p)] for p in range(1, P + 1))
        vals[f"ccomm_{s}"] = max(max(sent[(s, p)], rec[(s, p)]) for p in range(1, P + 1))
    return vals


# ---------------------------------------------------------------------------
# h-relations


def check_slots(entries, slots):
    """Exactly h slots, each a partial matching, rebuilding the matrix."""
    P = len(entries)
    h = max(max(sum(row) for row in entries),
            max(sum(entries[p][q] for p in range(P)) for q in range(P)))
    expect(len(slots) == h, f"{len(slots)} slots for h = {h}")
    rebuilt = [[0] * P for _ in range(P)]
    for i, slot in enumerate(slots):
        senders = [p for (p, _) in slot]
        receivers = [q for (_, q) in slot]
        expect(len(set(senders)) == len(senders), f"slot {i + 1} repeats a sender")
        expect(len(set(receivers)) == len(receivers), f"slot {i + 1} repeats a receiver")
        for (p, q) in slot:
            expect(1 <= p <= P and 1 <= q <= P and p != q, f"bad pair {(p, q)}")
            rebuilt[p - 1][q - 1] += 1
    expect(rebuilt == [list(row) for row in entries], "slots do not rebuild the matrix")
    return h
