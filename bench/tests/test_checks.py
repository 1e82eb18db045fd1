"""The benchmark's checks accept right answers and reject wrong ones.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from bspsched import gen_layered, oracle  # noqa: E402
from bspsched.hrelation import DemandMatrix, decompose  # noqa: E402
from bspsched.schedule import MODELS  # noqa: E402

P, G, L = 3, 2, 1


@pytest.fixture
def grid(tmp_path):
    """A 4x3 layered grid, one layer per superstep, lazy delivery, and the
    CLI arguments naming its files."""
    dag = gen_layered(4, 3, "adjacent")
    rng = random.Random(5)
    assign = {v: (rng.randrange(1, P + 1), (v - 1) // 3 + 1) for v in range(1, 13)}
    comms = ref.deliver(dag.edges, assign, lazy=True)
    return dag, assign, comms, _files(tmp_path, dag, assign, comms)


def _files(tmp_path, dag, assign, comms):
    (tmp_path / "g.dag").write_text(
        "\n".join([f"{dag.node_count} {len(dag.edges)}"]
                  + [f"{u} {v}" for (u, v) in dag.edges]) + "\n")
    lines = [f"{k} {v} {x}" for v, (p, s) in sorted(assign.items())
             for (k, x) in (("p", p), ("s", s))]
    lines += [f"t {v} {a} {b} {s}" for (v, a, b, s) in sorted(comms)]
    (tmp_path / "g.bsp").write_text("\n".join(lines) + "\n")
    return ["--dag", str(tmp_path / "g.dag"), "--sched", str(tmp_path / "g.bsp")]


def _rows(dag, assign, comms, model):
    d = workloads.plain(dag)
    return ref.cost_rows(d["work"], d["comm"], assign, comms, P, workloads.BROADCAST[model])


@pytest.mark.parametrize("model", sorted(MODELS))
def test_cost_check_rejects_a_cost_one_too_low(grid, model):
    dag, assign, comms, files = grid
    code, out, _ = workloads._run_cli(["cost", *files, "--model", model,
                                       "-g", str(G), "-L", str(L)])
    rows = _rows(dag, assign, comms, model)
    ref.check_cost_output(code, out, rows, G, L)
    head, total = out.rstrip("\n").rsplit(" = ", 1)
    low = f"{head} = {int(total) - 1}\n"
    with pytest.raises(ref.CheckError):
        ref.check_cost_output(code, low, rows, G, L)
    # a table row one unit too cheap is caught as well
    cheap = out.replace(f"\n1 {rows[0][0]} ", f"\n1 {rows[0][0] - 1} ", 1)
    with pytest.raises(ref.CheckError):
        ref.check_cost_output(code, cheap, rows, G, L)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_validate_check_rejects_a_removed_delivery_reported_valid(grid, tmp_path, model):
    dag, assign, comms, _ = grid
    broken = set(comms)
    broken.remove(min(comms))
    files = _files(tmp_path, dag, assign, broken)
    bad = ref.violations(dag.edges, assign, broken, workloads.DIRECT[model])
    assert bad[1], "removing a delivery must break an edge"
    res = workloads._run_cli(["validate", *files, "--model", model])
    assert ref.check_validate_output(*res, *bad) == len(bad[1])
    with pytest.raises(ref.CheckError):
        ref.check_validate_output(0, "valid\n", "", *bad)
    # reporting only some of the broken edges is wrong too
    code, out, err = res
    partial = "\n".join(err.splitlines()[1:])
    with pytest.raises(ref.CheckError):
        ref.check_validate_output(code, out, partial, *bad)


def test_relay_schedule_is_valid_under_free_transfer_only():
    dag = gen_layered(6, 4, "adjacent")
    rng = random.Random(3)
    assign = {v: (rng.randrange(1, 5), 2 * ((v - 1) // 4) + 1) for v in range(1, 25)}
    comms = ref.relay(dag.edges, assign, 4, rng, 1.0)
    for model, direct in workloads.DIRECT.items():
        sends, edges = ref.violations(dag.edges, assign, comms, direct)
        assert bool(sends) == bool(edges) == direct, model


@pytest.mark.parametrize("code", ["ds", "db", "fs", "fb", "maxbsp"])
def test_optimum_check_rejects_an_optimum_one_too_high(code):
    dag = gen_layered(2, 3, "adjacent")
    op = workloads._bsp_op(dag, 2, G, 0, code, {})
    sched, opt = op.call()
    op.check((sched, opt))
    with pytest.raises(ref.CheckError):
        op.check((sched, opt + 1))
    with pytest.raises(ref.CheckError):
        op.check((sched, opt - 1))


def test_optimum_check_rejects_a_broken_model_order():
    opts = {}
    ops = [workloads._bsp_op(gen_layered(2, 3, "adjacent"), 2, G, 0, m, opts,
                             last=m == "fb") for m in ("ds", "db", "fs", "fb")]
    results = [op.call() for op in ops]
    for op, res in zip(ops, results):
        op.check(res)
    opts["ds"] = opts["fb"] - 1
    with pytest.raises(ref.CheckError):
        ref.check_model_order(opts)


def test_timed_check_rejects_a_makespan_one_too_high():
    dag = gen_layered(3, 2, "adjacent")
    op = workloads._timed_op(dag, 2, 1, "commdelay", {})
    ts, opt = op.call()
    op.check((ts, opt))
    with pytest.raises(ref.CheckError):
        op.check((ts, opt + 1))


def test_slot_check_rejects_a_repeated_sender():
    entries = ((0, 2, 1), (1, 0, 2), (2, 1, 0))
    slots = decompose(DemandMatrix(entries))
    assert ref.check_slots(entries, slots) == 3
    # move a pair of sender 1 into another slot that already has sender 1:
    # still h slots rebuilding the matrix, but one slot is no matching
    i, j = [k for k, slot in enumerate(slots) if any(p == 1 for p, _ in slot)][:2]
    moved = next(pair for pair in slots[j] if pair[0] == 1)
    bad = [list(slot) for slot in slots]
    bad[j].remove(moved)
    bad[i].append(moved)
    with pytest.raises(ref.CheckError, match="repeats a sender"):
        ref.check_slots(entries, bad)


@pytest.mark.parametrize("code", ["ds", "db", "fs", "fb"])
def test_ilp_checks_reject_a_wrong_model_or_solution(code):
    dag = gen_layered(3, 2, "adjacent")
    n, m, S = dag.node_count, len(dag.edges), 4
    assign, comms = ref.block_schedule(dag.edges, n, 2, S, random.Random(1))
    op = workloads._ilp_op(dag, 2, S, G, L, code, assign, comms)
    res = op.call(op.prepare())
    assert op.check(res)["ilp.variables"] == ref.lp_counts(n, m, 2, S, code)[0]
    nvars, ncons, text, _, (sched, total) = res
    lines = text.split("\n")
    del lines[next(i for i, line in enumerate(lines) if line.startswith(" prec_"))]
    with pytest.raises(ref.CheckError):  # one constraint line missing
        ref.check_lp_text("\n".join(lines), nvars, ncons)
    for wrong in ((nvars, ncons, text, [], (sched, total + 1)),
                  (nvars + 1, ncons, text, [], (sched, total)),
                  (nvars, ncons, text, ["assign_1"], (sched, total))):
        with pytest.raises(ref.CheckError):
            op.check(wrong)


def test_chain_check_rejects_a_misreported_cost():
    d, dec = workloads._chain_dag([3, 2], root=False)
    sched, total = oracle.brute_opt_bsp(
        workloads.dagmod.Dag(d["n"], tuple(d["edges"])), 2, G, L)
    workloads._check_chain(d, 2, G, L, sched, total)
    with pytest.raises(ref.CheckError):
        workloads._check_chain(d, 2, G, L, sched, total + 1)
