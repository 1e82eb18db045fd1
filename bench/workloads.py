"""The benchmark's four workloads.

``ROUNDS[name](seed, workdir)`` generates a workload's inputs from the seed
(writing the files the CLI reads into workdir) and returns its round: the
list of operations one round runs, in order. Every operation calls the
library's public functions through their module (``oracle.brute_opt_bsp``),
so a traced run can time them by replacing the module attribute.
"""

import contextlib
import io
import os
import random
from fractions import Fraction

import reference as ref
from reference import expect

from bspsched import chains, cli, commsched, hrelation, ilp, oracle
from bspsched import dag as dagmod
from bspsched.schedule import MODELS as LIB_MODELS

MODELS = ("ds", "db", "fs", "fb")
# untraced originals, for the traced run's untimed memory probe
_EMIT, _RENDER = ilp.emit_ilp, ilp.render_lp
DIRECT = {"ds": True, "db": True, "fs": False, "fb": False}
BROADCAST = {"ds": False, "db": True, "fs": False, "fb": True}


class Op:
    """One operation: call(prepare()) is timed; check(output) runs after
    the timer and raises ref.CheckError on a wrong answer (it may return a
    dict of per-layer counts). layer names the per-layer metric the whole
    call is charged to (None when only its inner calls are); units is how
    many of that layer's items one call covers; extra, if given, runs once
    in a traced run, untimed, and returns per-layer figures."""

    __slots__ = ("layer", "call", "check", "units", "prepare", "extra")

    def __init__(self, layer, call, check, units=1, prepare=None, extra=None):
        self.layer, self.call, self.check = layer, call, check
        self.units, self.prepare, self.extra = units, prepare, extra


def plain(dag):
    """The reference module's view of a Dag."""
    return {"n": dag.node_count, "edges": dag.edges,
            "work": dag.w_work, "comm": dag.w_comm}


# ---------------------------------------------------------------------------
# validate: the CLI on files


def _write(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _levels(dag):
    pred, level = dag.pred(), {}
    for v in dag.topo_order():
        level[v] = 1 + max((level[u] for u in pred[v]), default=0)
    return level


def validate_round(seed, workdir):
    rng = random.Random(seed)
    P, g, L = 8, 3, 5
    cases = []  # (name, dag, assign, comms)

    def placed(dag, superstep):
        return {v: (rng.randrange(1, P + 1), superstep(v))
                for v in range(1, dag.node_count + 1)}

    grid = dagmod.gen_layered(20, 15, "adjacent")
    trans = dagmod.gen_layered(10, 12, "transitive")
    rand4 = dagmod.random_dag(400, 0.02, rng)
    rand5 = dagmod.random_dag(500, 0.015, rng)
    for name, dag, superstep, lazy in (
            ("grid", grid, lambda v: (v - 1) // 15 + 1, True),
            ("transitive", trans, lambda v: (v - 1) // 12 + 1, False),
            ("random400", rand4, _levels(rand4).get, True),
            ("random500", rand5, _levels(rand5).get, False)):
        assign = placed(dag, superstep)
        comms = ref.deliver(dag.edges, assign, lazy)
        cases.append((name, dag, assign, comms))
        if lazy:  # a broken copy: some deliveries removed
            cases.append((name + "-broken", dag, assign,
                          comms - set(rng.sample(sorted(comms), 4))))
    # relays: valid under free transfer only; one superstep gap per layer
    relayed = dagmod.gen_layered(12, 12, "adjacent")
    assign = placed(relayed, lambda v: 2 * ((v - 1) // 12) + 1)
    cases.append(("relay", relayed, assign, ref.relay(relayed.edges, assign, P, rng, 0.5)))

    ops = []
    for name, dag, assign, comms in cases:
        dag_path = os.path.join(workdir, name + ".dag")
        sched_path = os.path.join(workdir, name + ".bsp")
        _write(dag_path, [f"{dag.node_count} {len(dag.edges)}"]
               + [f"{u} {v}" for (u, v) in dag.edges])
        _write(sched_path, [line for v, (p, s) in sorted(assign.items())
                            for line in (f"p {v} {p}", f"s {v} {s}")]
               + [f"t {v} {p1} {p2} {s}" for (v, p1, p2, s) in sorted(comms)])
        files = ["--dag", dag_path, "--sched", sched_path]
        for m in MODELS:
            # broken copies are invalid everywhere, relays under direct transfer
            broken = name.endswith("-broken") or (name == "relay" and DIRECT[m])
            bad = _lazy(lambda dag=dag, a=assign, c=comms, m=m:
                        ref.violations(dag.edges, a, c, DIRECT[m]))

            def check(res, bad=bad, broken=broken):
                expect(broken == any(bad()), "the input is not broken as built")
                return ref.check_validate_output(*res, *bad())
            ops.append(Op("cli.validate_ms",
                          lambda argv=["validate", *files, "--model", m]: _run_cli(argv),
                          check))
        if name.endswith("-broken"):
            continue
        d = plain(dag)
        for m in MODELS:
            rows = _lazy(lambda d=d, a=assign, c=comms, m=m:
                         ref.cost_rows(d["work"], d["comm"], a, c, P, BROADCAST[m]))
            ops.append(Op("cli.cost_ms",
                          lambda argv=["cost", *files, "--model", m, "-g", str(g),
                                       "-L", str(L)]: _run_cli(argv),
                          lambda res, rows=rows: ref.check_cost_output(res[0], res[1], rows(), g, L)))
    return ops


def _lazy(compute):
    """compute() on first use, then the same value."""
    memo = []

    def get():
        if not memo:
            memo.append(compute())
        return memo[0]
    return get


# ---------------------------------------------------------------------------
# oracle: exact optima on small instances


BUDGET = oracle.OracleBudget(max_nodes=30, max_p=3, node_budget=10**10)


def _bsp_op(dag, P, g, L, code, opts, last=False):
    maxbsp = code == "maxbsp"
    model = LIB_MODELS["ds" if maxbsp else code]
    d = plain(dag)

    def check(res):
        sched, opt = res
        ref.check_bsp_optimum(d, P, g, L, {v: c[0] for v, c in sched.assign.items()},
                              sched.comms, opt, maxbsp or DIRECT[code],
                              not maxbsp and BROADCAST[code], maxbsp)
        opts[code] = opt
        if last:
            ref.check_model_order(opts)

    return Op(f"oracle.{'maxbsp' if maxbsp else 'bsp_' + code}_ms",
              lambda: oracle.brute_opt_bsp(dag, P, g, L, model, BUDGET, maxbsp=maxbsp),
              check)


def _timed_op(dag, P, g, kind, opts, last=False):
    d = plain(dag)

    def check(res):
        ts, opt = res
        ref.check_timed_optimum(d, P, {v: c[0] for v, c in ts.assign.items()}, opt,
                                g if kind == "commdelay" else 0)
        opts[kind] = opt
        if last:
            ref.check_model_order(opts)

    return Op(f"oracle.{kind}_ms",
              lambda: oracle.brute_opt_timed(dag, P, g, kind, BUDGET), check)


def _ratio_op(construction, cells, closed_form):
    def check(rows):
        expect(len(rows) == 2 * len(cells), f"{len(rows)} rows for {len(cells)} cells")
        for cell, (base, other) in zip(cells, zip(rows[::2], rows[1::2])):
            a, b = int(base[3]), int(other[3])
            want = closed_form(cell)
            expect(base[4] == "1/1" and other[4] == f"{want.numerator}/{want.denominator}",
                   f"ratio {other[4]} for {cell}, expected {want}")
            expect(b * want.denominator == a * want.numerator, f"optima {a}, {b} for {cell}")

    return Op("oracle.ratio_cell_ms",
              lambda: oracle.ratio_report(construction, cells, BUDGET, threads=1),
              check, units=len(cells))


def oracle_round(seed, workdir):
    """Fixed instances of the paper's families take 0.2-2.6 s a search and
    outnumber the seeded 8-node searches (mostly milliseconds, heavy
    tailed), so the median operation is a fixed one: the middle of the four
    searches on the 4x3 grid."""
    rng = random.Random(seed)
    ops = []
    halves = dagmod.gen_taxonomy_fixture("three_halves", g=2, k0=3)
    opts = {}
    ops += [_bsp_op(halves, 3, 2, 0, m, opts) for m in MODELS]
    ops.append(_timed_op(halves, 3, 2, "commdelay", opts, last=True))
    opts = {}
    ops += [_bsp_op(dagmod.gen_layered(4, 3, "adjacent"), 3, 2, 0, m, opts, last=m == "fb")
            for m in MODELS]
    ops.append(_bsp_op(dagmod.gen_taxonomy_fixture("fork", length=6), 3, 1, 0, "maxbsp", {}))
    ops.append(_timed_op(dagmod.gen_taxonomy_fixture("two_minus_eps", g=2, k=1, p=4),
                         3, 2, "classical", {}))
    ops.append(_ratio_op(
        "layered", [{"length": ell, "width": 3, "P": 3, "g": 1} for ell in (2, 3, 4)],
        lambda c: Fraction((c["length"] - 1) * (1 + c["g"]) + 1, c["length"])))
    ops.append(_ratio_op(
        "two_minus_eps", [{"g": g, "k": k, "P": 3} for g, k in ((1, 1), (2, 1), (3, 1), (1, 2))],
        lambda c: Fraction(1 + 2 * c["g"] * c["k"], 1 + c["g"] * c["k"])))
    # a random 8-node DAG under every model
    rand = dagmod.random_dag(8, 0.4, rng)
    opts = {}
    ops += [_bsp_op(rand, 3, 2, 0, m, opts) for m in MODELS + ("maxbsp",)]
    ops += [_timed_op(rand, 3, 2, "classical", opts),
            _timed_op(rand, 3, 2, "commdelay", opts, last=True)]
    # a random 8-node chain DAG, against the chain solver
    cuts = sorted(rng.sample(range(1, 8), rng.randrange(1, 4)))
    lengths = [b - a for a, b in zip([0] + cuts, cuts + [8])]
    d, dec = _chain_dag(lengths, root=False)
    chain = dagmod.Dag(8, tuple(d["edges"]))
    op = _bsp_op(chain, 3, 2, 1, "ds", {})

    def check(res, inner=op.check):
        inner(res)
        _, want = chains.solve_chain(dec, 3, 2, 1)
        expect(res[1] == want, f"chain {lengths}: optimum {res[1]}, chain solver {want}")
    op.check = check
    ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# ilp: emit, render, and check a known solution


def ilp_round(seed, workdir):
    rng = random.Random(seed)
    g, L = 2, 3
    ops = []
    for (n, P, S) in ((50, 4, 10), (75, 6, 11), (100, 8, 12)):
        dag = dagmod.random_dag(n, 3.0 / n, rng)
        assign, comms = ref.block_schedule(dag.edges, n, P, S, rng)
        for code in MODELS:
            ops.append(_ilp_op(dag, P, S, g, L, code, assign, comms))
    return ops


def _rss_bytes():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _peak_growth_mb(work):
    """Peak resident-set growth while work() runs, in a forked copy of this
    (single-threaded) process; tracemalloc would slow emit_ilp sixty-fold."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            os.write(write, str(_rss_bytes()).encode())
            os.close(write)
            work()
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as f:
        before = int(f.read())
    _, status, usage = os.wait4(pid, 0)
    expect(status == 0, f"memory probe exited with status {status}")
    return (usage.ru_maxrss * 1024 - before) / 2**20


def _ilp_op(dag, P, S, g, L, code, assign, comms):
    n, m = dag.node_count, len(dag.edges)
    model = LIB_MODELS[code]
    d = plain(dag)

    def prepare():  # the solution file a user would hand to read_solution
        return ref.ilp_assignment(code, n, P, S, d["work"], d["comm"], assign, comms)

    def call(values):
        built = ilp.emit_ilp(dag, P, S=S, g=g, L=L, model=model)
        text = ilp.render_lp(built)
        bad = ilp.check_assignment(built, values)
        return (len(built.variables), len(built.constraints), text, bad,
                ilp.read_solution(built, values))

    def check(res):
        nvars, ncons, text, bad, (sched, total) = res
        want = ref.lp_counts(n, m, P, S, code)
        expect((nvars, ncons) == want, f"{code}: model size {(nvars, ncons)}, expected {want}")
        ref.check_lp_text(text, nvars, ncons)
        expect(bad == [], f"known solution violates {bad[:3]}")
        own = ref.bsp_cost(ref.cost_rows(d["work"], d["comm"], assign, comms, P,
                                         BROADCAST[code]), g, L)
        expect(total == own, f"read_solution cost {total}, schedule costs {own}")
        got = {v: c[0] for v, c in sched.assign.items()}
        ref.check_schedule(dag.edges, got, sched.comms, n, P, DIRECT[code])
        rows = ref.cost_rows(d["work"], d["comm"], got, sched.comms, P, BROADCAST[code])
        expect(ref.bsp_cost(rows, g, L) == own, "rebuilt schedule costs differ")
        return {"ilp.variables": nvars, "ilp.constraints": ncons, "ilp.lp_bytes": len(text)}

    def extra():
        return {"ilp.emit_peak_mb": _peak_growth_mb(
            lambda: _RENDER(_EMIT(dag, P, S=S, g=g, L=L, model=model)))}

    return Op(None, call, check, prepare=prepare, extra=extra)


# ---------------------------------------------------------------------------
# polysolve: the polynomial cases at sizes the oracle cannot reach


def _regular_matrix(P, h, rng):
    """h random derangements summed (every row and column sums to h), then
    one unit taken from a random entry of every other row."""
    m = [[0] * P for _ in range(P)]
    for _ in range(h):
        while True:
            perm = list(range(P))
            rng.shuffle(perm)
            if all(perm[i] != i for i in range(P)):
                break
        for i in range(P):
            m[i][perm[i]] += 1
    for i in range(0, P, 2):
        j = rng.choice([j for j in range(P) if m[i][j]])
        m[i][j] -= 1
    return tuple(tuple(row) for row in m)


def _two_proc_assignment(dag, rng):
    """P = 2, supersteps as early as the edges allow, with random slack."""
    pred, assign = dag.pred(), {}
    for v in dag.topo_order():
        p = rng.randrange(1, 3)
        s = max((assign[u][1] + (assign[u][0] != p) for u in pred[v]), default=1)
        assign[v] = (p, s + (rng.random() < 0.3))
    return assign


def polysolve_round(seed, workdir):
    """Four of the sixteen operations decompose 8-processor matrices of the
    same h, six are faster and six slower, so the median falls among
    operations of one kind and size."""
    rng = random.Random(seed)
    ops = []
    for (P, h) in ((8, 300),) * 4 + ((12, 400), (16, 500)):
        entries = _regular_matrix(P, h, rng)
        ops.append(Op("hrelation.decompose_ms",
                      lambda e=entries: hrelation.decompose(hrelation.DemandMatrix(e)),
                      lambda slots, e=entries: {"hrelation.slots": ref.check_slots(e, slots)}))
    small = []  # instances small enough for the exhaustive solver
    while len(small) < 4:
        dag = dagmod.random_dag(10, 0.3, rng)
        inst = _cs_instance(dag, _two_proc_assignment(dag, rng))
        if len(commsched.cross_requirements(inst)) <= 10:
            small.append(inst)
    for n in (2000, 4000):
        dag = _sparse_dag(n, 2 * n, rng)
        ops += _cs_ops(dag, _two_proc_assignment(dag, rng), small)
        small = []
    # solve_chain's time at P = 2 depends on the chain order: keep it fixed
    ops += _chain_ops([8000, 6000, 4000, 2000], (2,), (2, 3))
    lengths = [12, 8, 4]
    rng.shuffle(lengths)
    ops += _chain_ops(lengths, (3,), ())
    for P, lengths in ((2, [60, 40, 20]), (3, [7, 6, 5])):
        rng.shuffle(lengths)
        ops.append(_connected_op(lengths, P))
    return ops


def _sparse_dag(n, m, rng):
    """m distinct forward edges drawn uniformly; random_dag draws a coin
    for each of the n(n-1)/2 pairs, which set-up cannot afford at n = 4000."""
    edges = set()
    while len(edges) < m:
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((min(u, v), max(u, v)))
    return dagmod.Dag(n, tuple(sorted(edges)))


def _cs_instance(dag, assign):
    S = max(s for (_, s) in assign.values())
    return commsched.CsInstance(dag, 2, S, {v: (a,) for v, a in assign.items()})


def _cs_ops(dag, assign, small):
    """Baselines, then the greedy on one large instance; the greedy's check
    also holds it to the exhaustive optimum on the small instances."""
    inst = _cs_instance(dag, assign)
    d = plain(dag)
    ds = LIB_MODELS["ds"]
    base = {}

    def units(gamma):
        ref.check_schedule(dag.edges, assign, gamma, dag.node_count, 2, True)
        return ref.comm_units(d["comm"], gamma, 2, inst.S)

    def baselines():
        eager, lazy = commsched.cs_eager(inst), commsched.cs_lazy(inst)
        return eager, lazy, commsched.comm_cost(inst, eager, ds), commsched.comm_cost(inst, lazy, ds)

    def check_baselines(res):
        eager, lazy, ce, cl = res
        base["eager"], base["lazy"] = units(eager), units(lazy)
        expect((ce, cl) == (base["eager"], base["lazy"]), "comm_cost differs from the units")

    def check_greedy(gamma):
        got = units(gamma)
        expect(got <= min(base.values()), f"greedy {got} above a baseline {base}")
        for tiny in small:
            greedy = commsched.comm_cost(tiny, commsched.cs_greedy_p2(tiny), ds)
            _, best = commsched.cs_bruteforce(tiny, ds, limit=64)
            expect(greedy == best, f"greedy {greedy}, exhaustive {best} on a small instance")

    return [Op("commsched.baseline_ms", baselines, check_baselines),
            Op("commsched.greedy_p2_ms", lambda: commsched.cs_greedy_p2(inst), check_greedy)]


def _chain_dag(lengths, root):
    paths, start = [], 2 if root else 1
    for ell in lengths:
        paths.append(tuple(range(start, start + ell)))
        start += ell
    edges = [(p[i], p[i + 1]) for p in paths for i in range(len(p) - 1)]
    if root:
        edges += [(1, p[0]) for p in paths]
    dec = chains.ChainDecomposition(tuple(paths), root=1 if root else None)
    return plain(dagmod.Dag(start - 1, tuple(edges))), dec


def _check_chain(d, P, g, L, sched, total=None, floor=None):
    got = {v: c[0] for v, c in sched.assign.items()}
    ref.check_schedule(d["edges"], got, sched.comms, d["n"], P, True)
    priced = ref.bsp_cost(ref.cost_rows(d["work"], d["comm"], got, sched.comms, P, False), g, L)
    if total is not None:
        expect(priced == total, f"chain schedule costs {priced}, reported {total}")
    expect(priced >= ref.ceil_div(d["n"], P), f"cost {priced} below ceil(n/P)")
    if floor is not None:
        expect(priced >= floor(), f"greedy {priced} below the exact optimum")
    return priced


def _chain_ops(lengths, exact, greedy):
    """solve_chain for each P in exact, then greedy_chain for each P in
    greedy, held to the exact optimum where there is one."""
    d, dec = _chain_dag(lengths, root=False)
    g, L = 2, 1
    ops, best = [], {}
    for P in exact:
        def check(res, P=P):
            best[P] = _check_chain(d, P, g, L, *res)
        ops.append(Op("chains.solve_ms", lambda P=P: chains.solve_chain(dec, P, g, L), check))
    for P in greedy:
        ops.append(Op("chains.greedy_ms", lambda P=P: chains.greedy_chain(dec, P, g),
                      lambda sched, P=P: _check_chain(d, P, g, L, sched,
                                                      floor=lambda: best.get(P, 0))))
    return ops


def _connected_op(lengths, P):
    d, dec = _chain_dag(lengths, root=True)
    g, L = 2, 1
    return Op("chains.connected_ms",
              lambda: chains.solve_connected_chain(dec, P, g, L, LIB_MODELS["ds"]),
              lambda res: _check_chain(d, P, g, L, *res))


ROUNDS = {"validate": validate_round, "oracle": oracle_round,
          "ilp": ilp_round, "polysolve": polysolve_round}
