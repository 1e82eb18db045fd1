"""Command-line entry point: validate and cost schedules, classify and
generate DAGs, run the exact solvers, and emit/read ILP models.

Exit codes: 0 success, 1 domain error (invalid input, infeasible, budget
exceeded), 2 usage error.
"""

import argparse
import sys
from typing import List, Optional

from .dag import MAX_NODES, Dag, DagError, classify, gen_layered, \
    gen_taxonomy_fixture, parse_dag, serialize_dag
from .schedule import (
    MODELS,
    MachineParams,
    ScheduleError,
    check_validity,
    cost,
    parse_schedule,
    serialize_schedule,
)


# hrel writes one line per slot and h slots in all; larger h is refused
MAX_HREL_H = 10**6


class CliError(Exception):
    """Domain-level failure mapped to exit code 1."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None


def _write_out(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _load_dag(path: str) -> Dag:
    return parse_dag(_read(path))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    dag = _load_dag(args.dag)
    sched = parse_schedule(_read(args.sched), dag)
    report = check_validity(dag, sched, MODELS[args.model], args.duplication)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if report.valid:
        print("valid")
        return 0
    for (rule, subject, message) in report.violations:
        print(f"invalid [{rule}] {subject}: {message}", file=sys.stderr)
    return 1


def _coeff(k: int, unit: str) -> str:
    return unit if k == 1 else f"{k}{unit}"


def _cmd_cost(args) -> int:
    dag = _load_dag(args.dag)
    sched = parse_schedule(_read(args.sched), dag)
    params = MachineParams(g=args.g, L=args.L)
    breakdown = cost(dag, sched, MODELS[args.model], params)
    lat_steps = sum(1 for c in breakdown.comm if c > 0)
    sep = "," if args.csv else " "
    print(sep.join(("superstep", "work", "comm")))
    for s in range(sched.superstep_count):
        print(f"{s + 1}{sep}{breakdown.work[s]}{sep}{breakdown.comm[s]}")
    print(
        f"total {breakdown.work_total}+{_coeff(breakdown.comm_total, 'g')}"
        f"+{_coeff(lat_steps, 'L')} = {breakdown.cost}"
    )
    return 0


def _cmd_classify(args) -> int:
    cls = classify(_load_dag(args.dag))
    rows = [
        ("chain", "yes" if cls.is_chain else "no"),
        ("connected-chain", "yes" if cls.is_connected_chain else "no"),
        ("in-tree", "yes" if cls.is_in_tree else "no"),
        ("height", str(cls.height)),
    ]
    if args.csv:
        print("property,value")
    sep = "," if args.csv else " "
    for k, v in rows:
        print(f"{k}{sep}{v}")
    return 0


def _cmd_gen(args) -> int:
    name = args.name
    if name == "layered":
        if args.length is None or args.width is None:
            raise CliError("layered requires --length and --width")
        dag = gen_layered(args.length, args.width, args.variant, args.gap)
    elif name == "fork":
        if args.length is None:
            raise CliError("fork requires --length")
        dag = gen_taxonomy_fixture("fork", length=args.length)
    elif name == "two_minus_eps":
        dag = gen_taxonomy_fixture("two_minus_eps", g=args.g, k=args.k, p=args.P)
    elif name == "three_halves":
        dag = gen_taxonomy_fixture("three_halves", g=args.g, k0=args.k0)
    else:  # classWW, recomp
        dag = gen_taxonomy_fixture(name)
    _write_out(serialize_dag(dag), args.out)
    return 0


def _parse_chain_lengths(text: str) -> List[int]:
    try:
        lengths = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise CliError(f"bad chain lengths {text!r}") from None
    if not lengths or any(x < 1 for x in lengths):
        raise CliError("chain lengths must be positive integers")
    total = sum(lengths)
    if total > MAX_NODES:
        raise CliError(f"{total} chain nodes exceed the limit of {MAX_NODES}")
    return lengths


def _cmd_chain_solve(args) -> int:
    from .chains import ChainDecomposition, decompose_chains, greedy_chain, \
        solve_chain, solve_connected_chain

    if bool(args.dag) == bool(args.chains):
        raise CliError("provide exactly one of --dag and --chains")
    dag = None
    if args.chains:
        lengths = _parse_chain_lengths(args.chains)
        chains = []
        nxt = 1
        for ell in lengths:
            chains.append(tuple(range(nxt, nxt + ell)))
            nxt += ell
        dec = ChainDecomposition(tuple(chains))
    else:
        dag = _load_dag(args.dag)
        dec = decompose_chains(dag)
    if args.greedy:
        sched = greedy_chain(dec, args.P, args.g)
        edges = []
        for chain in dec.chains:
            edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
        ref = dag or Dag(dec.node_count, tuple(edges))
        c = cost(ref, sched, MODELS[args.model], MachineParams(args.g, args.L)).cost
    elif dec.root is None:
        sched, c = solve_chain(dec, args.P, args.g, args.L)
    else:
        sched, c = solve_connected_chain(
            dec, args.P, args.g, args.L, MODELS[args.model]
        )
    sys.stdout.write(serialize_schedule(sched))
    print(f"# cost {c}")
    return 0


def _cmd_cs(args) -> int:
    from .commsched import CsInstance, cs_bruteforce, cs_eager, cs_greedy_p2, \
        cs_lazy

    dag = _load_dag(args.dag)
    partial = parse_schedule(_read(args.partial), dag)
    inst = CsInstance(dag, partial.processor_count, partial.superstep_count,
                      partial.assign)
    model = MODELS[args.model]
    if args.method == "greedy2":
        gamma = cs_greedy_p2(inst)
    elif args.method == "eager":
        gamma = cs_eager(inst)
    elif args.method == "lazy":
        gamma = cs_lazy(inst)
    else:  # brute
        gamma, _ = cs_bruteforce(inst, model, limit=args.limit)
    for (v, p1, p2, s) in sorted(gamma):
        print(f"t {v} {p1} {p2} {s}")
    return 0


def _emit_ilp(args):
    """The model ilp-emit writes; ilp-read rebuilds it from the same options."""
    from .ilp import emit_ilp

    return emit_ilp(_load_dag(args.dag), args.P, S=args.supersteps, g=args.g,
                    L=args.L, model=MODELS[args.model],
                    duplication=args.duplication)


def _cmd_ilp_emit(args) -> int:
    from .ilp import render_lp

    _write_out(render_lp(_emit_ilp(args)), args.emit)
    return 0


def _cmd_ilp_read(args) -> int:
    from .ilp import parse_solution, read_solution

    model = _emit_ilp(args)
    sched, c = read_solution(model, parse_solution(_read(args.solution)))
    sys.stdout.write(serialize_schedule(sched))
    print(f"# cost {c}")
    return 0


def _cmd_hrel(args) -> int:
    from .hrelation import DemandMatrix, decompose

    rows = []
    for lineno, line in enumerate(_read(args.matrix).splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            rows.append([int(x) for x in stripped.replace(",", " ").split()])
        except ValueError:
            raise CliError(f"line {lineno}: bad matrix line {stripped!r}") from None
    matrix = DemandMatrix(rows)
    if matrix.h > MAX_HREL_H:
        raise CliError(f"h = {matrix.h} exceeds {MAX_HREL_H} slots")
    slots = decompose(matrix)
    print(f"h {matrix.h}")
    for i, slot in enumerate(slots, start=1):
        body = ", ".join(f"{a}->{b}" for (a, b) in sorted(slot))
        print(f"slot {i}: {body}")
    return 0


def _cmd_oracle(args) -> int:
    from .oracle import brute_opt_bsp, brute_opt_timed
    from .variants import serialize_timed_schedule

    dag = _load_dag(args.dag)
    timed = ("classical", "barrier", "commdelay", "spd")
    if args.model in timed:
        name = "classical_barrier" if args.model == "barrier" else args.model
        ts, opt = brute_opt_timed(
            dag, args.P, args.g, name, duplication=args.duplication
        )
        sys.stdout.write(serialize_timed_schedule(ts))
        print(f"# opt {opt}")
    else:
        model = MODELS["ds" if args.model == "maxbsp" else args.model]
        sched, opt = brute_opt_bsp(
            dag,
            args.P,
            args.g,
            args.L,
            model=model,
            duplication=args.duplication,
            maxbsp=args.model == "maxbsp",
        )
        sys.stdout.write(serialize_schedule(sched))
        print(f"# opt {opt}")
    return 0


def _parse_cell(text: str):
    cell = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if key in cell:
            raise CliError(f"cell key {key!r} given twice")
        try:
            cell[key] = int(value)
        except ValueError:
            raise CliError(f"bad cell entry {part!r}") from None
    if not cell:
        raise CliError("empty parameter cell")
    return cell


def _cmd_ratios(args) -> int:
    from .oracle import RATIO_HEADER, ratio_report

    grid = [_parse_cell(text) for text in args.cell]
    rows = ratio_report(args.construction, grid, threads=args.threads)
    print(RATIO_HEADER)
    for row in rows:
        print(",".join(row))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bspsched",
        description="BSP DAG scheduling: validation, cost, exact solvers, ILP",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def dag_arg(p):
        p.add_argument("--dag", required=True, help="DAG file")

    def machine_args(p, with_l=True):
        p.add_argument("-g", type=int, default=1, help="communication gap")
        if with_l:
            p.add_argument("-L", type=int, default=0, help="latency")

    p = sub.add_parser("validate", help="check a schedule against a DAG")
    dag_arg(p)
    p.add_argument("--sched", required=True)
    p.add_argument("--model", default="ds", choices=sorted(MODELS))
    p.add_argument("--duplication", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("cost", help="superstep cost table")
    dag_arg(p)
    p.add_argument("--sched", required=True)
    p.add_argument("--model", default="ds", choices=sorted(MODELS))
    machine_args(p)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("classify", help="structural DAG classes")
    dag_arg(p)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("gen", help="generate fixture DAGs")
    p.add_argument("name", choices=[
        "layered", "classWW", "recomp", "fork", "two_minus_eps", "three_halves",
    ])
    p.add_argument("--length", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--variant", default="adjacent",
                   choices=["adjacent", "transitive", "delayed"])
    p.add_argument("--gap", type=int, default=1)
    p.add_argument("-g", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--k0", type=int, default=2)
    p.add_argument("-P", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("chain-solve", help="exact chain scheduling")
    p.add_argument("--dag")
    p.add_argument("--chains", help="comma-separated chain lengths")
    p.add_argument("-P", type=int, required=True)
    machine_args(p)
    p.add_argument("--model", default="ds", choices=sorted(MODELS))
    p.add_argument("--greedy", action="store_true",
                   help="constructive splitter instead of the exact solver")
    p.set_defaults(func=_cmd_chain_solve)

    p = sub.add_parser("cs", help="complete a partial schedule with comms")
    p.add_argument("method", choices=["greedy2", "eager", "lazy", "brute"])
    dag_arg(p)
    p.add_argument("--partial", required=True, help="schedule file with p/s lines")
    p.add_argument("--model", default="ds", choices=sorted(MODELS))
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(func=_cmd_cs)

    p = sub.add_parser("ilp-emit", help="emit the LP model")
    dag_arg(p)
    p.add_argument("-P", type=int, required=True)
    p.add_argument("--supersteps", type=int)
    machine_args(p)
    p.add_argument("--model", default="ds", choices=sorted(MODELS))
    p.add_argument("--duplication", action="store_true")
    p.add_argument("--emit", help="output path (stdout if omitted)")
    p.set_defaults(func=_cmd_ilp_emit)

    p = sub.add_parser("ilp-read", help="reconstruct a schedule from a solution")
    dag_arg(p)
    p.add_argument("-P", type=int, required=True)
    p.add_argument("--supersteps", type=int)
    machine_args(p)
    p.add_argument("--model", default="ds", choices=sorted(MODELS))
    p.add_argument("--duplication", action="store_true")
    p.add_argument("--solution", required=True, help="name value lines")
    p.set_defaults(func=_cmd_ilp_read)

    p = sub.add_parser("hrel", help="decompose a demand matrix into h slots")
    p.add_argument("--matrix", required=True, help="file with P rows of P counts")
    p.set_defaults(func=_cmd_hrel)

    p = sub.add_parser("oracle", help="exact optimum by exhaustive search")
    dag_arg(p)
    p.add_argument("-P", type=int, required=True)
    machine_args(p)
    p.add_argument("--model", default="ds", choices=sorted(MODELS) + [
        "maxbsp", "classical", "barrier", "commdelay", "spd",
    ])
    p.add_argument("--duplication", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("ratios", help="cost-gap experiment CSV")
    p.add_argument("construction", choices=["layered", "two_minus_eps"])
    p.add_argument("--cell", action="append", required=True,
                   help="parameter cell, e.g. 'length=3;width=3;P=3;g=1'")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_ratios)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except (CliError, DagError, ScheduleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # domain errors from the solver modules
        from .chains import ChainError
        from .commsched import CsError
        from .hrelation import HRelationError
        from .ilp import IlpError
        from .oracle import BudgetExceeded

        if isinstance(e, (ChainError, CsError, HRelationError, IlpError,
                          BudgetExceeded, ValueError)):
            print(f"error: {e}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
