"""Integer linear program formulation of BSP scheduling.

Binary variables comp/pres describe where each value is computed and where it
is present; model-specific communication variables (sent/rec, comm, or
rec/senttimes) describe the communication phases; integer cost variables link
the binaries to the BSP objective. The module emits models, renders them in
the textual LP format, reconstructs schedules from solution files, encodes
schedules as assignments (so that a known optimum can be checked against the
emitted constraints), and counts variables and constraints in closed form.

Exact variable and constraint counts (n nodes, m edges):
  common vars:        2nPS (comp, pres) + S (used) + 3PS + 2S (cost vars)
  DS adds:            2nPS (rec, senttimes) + nP (home)
  DB adds:            2nPS (sent, rec) + nP (home)
  FB adds:            2nPS (sent, rec)
  FS adds:            nP(P-1)S (comm)
  common constraints: n + nPS + mPS + 6PS
  DS adds:            nP + 5nPS   DB adds: nP + 4nPS
  FB adds:            3nPS        FS adds: 2nP(P-1)S
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .dag import Dag, classify
from .schedule import (
    BspSchedule,
    CommModel,
    MachineParams,
    check_validity,
    comm_loads,
    cost,
    normalize,
)


class IlpError(Exception):
    pass


Term = Tuple[int, str]


@dataclass
class IlpModel:
    """Linear model: variables with kinds, named constraints, and a
    minimization objective; carries its build context for reconstruction."""

    variables: List[Tuple[str, Tuple]] = field(default_factory=list)
    constraints: List[Tuple[str, List[Term], str, int]] = field(default_factory=list)
    objective: List[Term] = field(default_factory=list)
    dag: Optional[Dag] = None
    P: int = 1
    S: int = 1
    g: int = 1
    L: int = 0
    model: Optional[CommModel] = None
    duplication: bool = False

    def var_names(self) -> List[str]:
        return [name for (name, _) in self.variables]

    def check(self) -> None:
        names = set(self.var_names())
        if len(names) != len(self.variables):
            raise IlpError("duplicate variable names")
        for (cname, terms, rel, rhs) in self.constraints:
            if rel not in ("<=", ">=", "="):
                raise IlpError(f"constraint {cname}: bad relation {rel!r}")
            for (_, vname) in terms:
                if vname not in names:
                    raise IlpError(f"constraint {cname}: unknown variable {vname}")


def _default_s(dag: Dag, P: int) -> int:
    cls = classify(dag)
    n = dag.node_count
    if cls.is_chain:
        return min(n, P)
    if cls.is_connected_chain:
        return min(n, 2 * P - 1)
    return n


def emit_ilp(
    dag: Dag,
    P: int,
    S: Optional[int] = None,
    g: int = 1,
    L: int = 0,
    model: CommModel = None,
    duplication: bool = False,
) -> IlpModel:
    from .schedule import DS as _DS

    if model is None:
        model = _DS
    if P < 1:
        raise IlpError("P must be >= 1")
    if S is None:
        S = _default_s(dag, P)
    if S < 1:
        raise IlpError("S must be >= 1")
    n = dag.node_count
    direct = model.transfer == "direct"
    broadcast = model.cast == "broadcast"
    ds = direct and not broadcast
    fs = (not direct) and not broadcast

    m = IlpModel(dag=dag, P=P, S=S, g=g, L=L, model=model, duplication=duplication)
    add_var = m.variables.append
    add = m.constraints.append

    vps = [(v, p, s) for v in range(1, n + 1)
           for p in range(1, P + 1) for s in range(1, S + 1)]

    for (v, p, s) in vps:
        add_var((f"comp_{v}_{p}_{s}", ("binary",)))
    for (v, p, s) in vps:
        add_var((f"pres_{v}_{p}_{s}", ("binary",)))
    if broadcast:
        for (v, p, s) in vps:
            add_var((f"sent_{v}_{p}_{s}", ("binary",)))
    if direct or broadcast:  # DS, DB, FB all use rec
        for (v, p, s) in vps:
            add_var((f"rec_{v}_{p}_{s}", ("binary",)))
    if fs:
        for v in range(1, n + 1):
            for p1 in range(1, P + 1):
                for p2 in range(1, P + 1):
                    if p1 == p2:
                        continue
                    for s in range(1, S + 1):
                        add_var((f"comm_{v}_{p1}_{p2}_{s}", ("binary",)))
    if ds:
        for (v, p, s) in vps:
            add_var((f"senttimes_{v}_{p}_{s}", ("general", 0, P)))
    if direct:
        for v in range(1, n + 1):
            for p in range(1, P + 1):
                add_var((f"home_{v}_{p}", ("binary",)))
    for s in range(1, S + 1):
        add_var((f"used_{s}", ("binary",)))

    wtot = sum(dag.w_work(v) for v in range(1, n + 1))
    ctot = P * sum(dag.w_comm(v) for v in range(1, n + 1))
    for s in range(1, S + 1):
        for p in range(1, P + 1):
            add_var((f"cwork_{s}_{p}", ("general", 0, wtot)))
    for s in range(1, S + 1):
        add_var((f"cwork_{s}", ("general", 0, wtot)))
    for s in range(1, S + 1):
        for p in range(1, P + 1):
            add_var((f"csent_{s}_{p}", ("general", 0, ctot)))
    for s in range(1, S + 1):
        for p in range(1, P + 1):
            add_var((f"crec_{s}_{p}", ("general", 0, ctot)))
    for s in range(1, S + 1):
        add_var((f"ccomm_{s}", ("general", 0, ctot)))

    # assignment: each value computed exactly once (at least once under
    # duplication)
    for v in range(1, n + 1):
        terms = [(1, f"comp_{v}_{p}_{s}")
                 for p in range(1, P + 1) for s in range(1, S + 1)]
        add((f"assign_{v}", terms, ">=" if duplication else "=", 1))

    # presence propagation
    for (v, p, s) in vps:
        terms = [(1, f"pres_{v}_{p}_{s}"), (-1, f"comp_{v}_{p}_{s}")]
        if s > 1:
            terms.append((-1, f"pres_{v}_{p}_{s - 1}"))
            if fs:
                for p1 in range(1, P + 1):
                    if p1 != p:
                        terms.append((-1, f"comm_{v}_{p1}_{p}_{s - 1}"))
            else:
                terms.append((-1, f"rec_{v}_{p}_{s - 1}"))
        add((f"presence_{v}_{p}_{s}", terms, "<=", 0))

    # precedence along edges via presence
    for (u, v) in sorted(dag.edges):
        for p in range(1, P + 1):
            for s in range(1, S + 1):
                add((
                    f"prec_{u}_{v}_{p}_{s}",
                    [(1, f"comp_{v}_{p}_{s}"), (-1, f"pres_{u}_{p}_{s}")],
                    "<=",
                    0,
                ))

    # home linkage for direct models
    if direct:
        for v in range(1, n + 1):
            for p in range(1, P + 1):
                terms = [(1, f"comp_{v}_{p}_{s}") for s in range(1, S + 1)]
                if duplication:
                    for s in range(1, S + 1):
                        add((
                            f"homelo_{v}_{p}_{s}",
                            [(1, f"comp_{v}_{p}_{s}"), (-1, f"home_{v}_{p}")],
                            "<=",
                            0,
                        ))
                    add((
                        f"homehi_{v}_{p}",
                        [(1, f"home_{v}_{p}")] + [(-c, x) for (c, x) in terms],
                        "<=",
                        0,
                    ))
                else:
                    add((
                        f"home_{v}_{p}",
                        terms + [(-1, f"home_{v}_{p}")],
                        "=",
                        0,
                    ))

    # send validity and receive covering
    if broadcast:
        for (v, p, s) in vps:
            add((
                f"sentpres_{v}_{p}_{s}",
                [(1, f"sent_{v}_{p}_{s}"), (-1, f"pres_{v}_{p}_{s}")],
                "<=",
                0,
            ))
        if direct:  # DB: only the computing processor may send
            for (v, p, s) in vps:
                add((
                    f"senthome_{v}_{p}_{s}",
                    [(1, f"sent_{v}_{p}_{s}"), (-1, f"home_{v}_{p}")],
                    "<=",
                    0,
                ))
        for (v, p, s) in vps:
            terms = [(1, f"rec_{v}_{p}_{s}")]
            for p1 in range(1, P + 1):
                if p1 != p:
                    terms.append((-1, f"sent_{v}_{p1}_{s}"))
            add((f"reccover_{v}_{p}_{s}", terms, "<=", 0))
    elif fs:
        for v in range(1, n + 1):
            for p1 in range(1, P + 1):
                for p2 in range(1, P + 1):
                    if p1 == p2:
                        continue
                    for s in range(1, S + 1):
                        add((
                            f"commpres_{v}_{p1}_{p2}_{s}",
                            [(1, f"comm_{v}_{p1}_{p2}_{s}"),
                             (-1, f"pres_{v}_{p1}_{s}")],
                            "<=",
                            0,
                        ))
    else:  # DS
        for (v, p, s) in vps:
            add((
                f"sthome_{v}_{p}_{s}",
                [(1, f"senttimes_{v}_{p}_{s}"), (-P, f"home_{v}_{p}")],
                "<=",
                0,
            ))
        for (v, p, s) in vps:
            add((
                f"stpres_{v}_{p}_{s}",
                [(1, f"senttimes_{v}_{p}_{s}"), (-P, f"pres_{v}_{p}_{s}")],
                "<=",
                0,
            ))
        # receiving requires some other processor to hold the value; without
        # this a value could "arrive" on its own computing processor before
        # being computed
        for (v, p, s) in vps:
            terms = [(1, f"rec_{v}_{p}_{s}")]
            for p1 in range(1, P + 1):
                if p1 != p:
                    terms.append((-1, f"pres_{v}_{p1}_{s}"))
            add((f"dsrec_{v}_{p}_{s}", terms, "<=", 0))
        # big-M covering: the home processor sends at least as many copies as
        # there are receivers in each superstep
        for (v, p, s) in vps:
            terms = [(-1, f"senttimes_{v}_{p}_{s}"), (P, f"home_{v}_{p}")]
            for p1 in range(1, P + 1):
                if p1 != p:
                    terms.append((1, f"rec_{v}_{p1}_{s}"))
            add((f"dscover_{v}_{p}_{s}", terms, "<=", P))

    # cost definitions
    for s in range(1, S + 1):
        for p in range(1, P + 1):
            terms = [(dag.w_work(v), f"comp_{v}_{p}_{s}") for v in range(1, n + 1)]
            add((f"cworkdef_{s}_{p}", terms + [(-1, f"cwork_{s}_{p}")], "=", 0))
    for s in range(1, S + 1):
        for p in range(1, P + 1):
            add((
                f"cworkmax_{s}_{p}",
                [(1, f"cwork_{s}_{p}"), (-1, f"cwork_{s}")],
                "<=",
                0,
            ))
    for s in range(1, S + 1):
        for p in range(1, P + 1):
            if ds:
                terms = [(dag.w_comm(v), f"senttimes_{v}_{p}_{s}") for v in range(1, n + 1)]
            elif fs:
                terms = [
                    (dag.w_comm(v), f"comm_{v}_{p}_{p2}_{s}")
                    for v in range(1, n + 1)
                    for p2 in range(1, P + 1)
                    if p2 != p
                ]
            else:
                terms = [(dag.w_comm(v), f"sent_{v}_{p}_{s}") for v in range(1, n + 1)]
            add((f"csentdef_{s}_{p}", terms + [(-1, f"csent_{s}_{p}")], "=", 0))
    for s in range(1, S + 1):
        for p in range(1, P + 1):
            if fs:
                terms = [
                    (dag.w_comm(v), f"comm_{v}_{p1}_{p}_{s}")
                    for v in range(1, n + 1)
                    for p1 in range(1, P + 1)
                    if p1 != p
                ]
            else:
                terms = [(dag.w_comm(v), f"rec_{v}_{p}_{s}") for v in range(1, n + 1)]
            add((f"crecdef_{s}_{p}", terms + [(-1, f"crec_{s}_{p}")], "=", 0))
    for s in range(1, S + 1):
        for p in range(1, P + 1):
            add((
                f"ccommsent_{s}_{p}",
                [(1, f"csent_{s}_{p}"), (-1, f"ccomm_{s}")],
                "<=",
                0,
            ))
            add((
                f"ccommrec_{s}_{p}",
                [(1, f"crec_{s}_{p}"), (-1, f"ccomm_{s}")],
                "<=",
                0,
            ))

    # used_s indicators
    if fs:
        for v in range(1, n + 1):
            for p1 in range(1, P + 1):
                for p2 in range(1, P + 1):
                    if p1 == p2:
                        continue
                    for s in range(1, S + 1):
                        add((
                            f"usedcomm_{v}_{p1}_{p2}_{s}",
                            [(1, f"comm_{v}_{p1}_{p2}_{s}"), (-1, f"used_{s}")],
                            "<=",
                            0,
                        ))
    elif broadcast:
        for (v, p, s) in vps:
            add((
                f"usedsent_{v}_{p}_{s}",
                [(1, f"sent_{v}_{p}_{s}"), (-1, f"used_{s}")],
                "<=",
                0,
            ))
    else:  # DS: every communication has a receiver
        for (v, p, s) in vps:
            add((
                f"usedrec_{v}_{p}_{s}",
                [(1, f"rec_{v}_{p}_{s}"), (-1, f"used_{s}")],
                "<=",
                0,
            ))

    obj: List[Term] = []
    for s in range(1, S + 1):
        obj.append((1, f"cwork_{s}"))
        if g:
            obj.append((g, f"ccomm_{s}"))
        if L:
            obj.append((L, f"used_{s}"))
    m.objective = obj
    m.check()
    return m


def count_vars_constraints(
    dag: Dag, P: int, S: int, model: CommModel
) -> Tuple[int, int]:
    """Closed-form counts matching emit_ilp without duplication."""
    if P < 1 or S < 1:
        raise IlpError("P and S must be >= 1")
    n = dag.node_count
    m = len(dag.edges)
    direct = model.transfer == "direct"
    broadcast = model.cast == "broadcast"
    ds = direct and not broadcast

    variables = 2 * n * P * S + S + 3 * P * S + 2 * S
    if ds:
        variables += 2 * n * P * S + n * P
    elif direct:  # DB
        variables += 2 * n * P * S + n * P
    elif broadcast:  # FB
        variables += 2 * n * P * S
    else:  # FS
        variables += n * P * (P - 1) * S

    constraints = n + n * P * S + m * P * S + 6 * P * S
    if ds:
        constraints += n * P + 5 * n * P * S
    elif direct:
        constraints += n * P + 4 * n * P * S
    elif broadcast:
        constraints += 3 * n * P * S
    else:
        constraints += 2 * n * P * (P - 1) * S
    return variables, constraints


# ---------------------------------------------------------------------------
# LP text rendering


def render_lp(model: IlpModel) -> str:
    if not model.constraints:
        raise IlpError("model has no constraints")
    model.check()

    def expr(terms: Sequence[Term]) -> str:
        parts = []
        for i, (c, name) in enumerate(terms):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = name if mag == 1 else f"{mag} {name}"
            if not parts:
                parts.append(body if c > 0 else f"- {body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts) if parts else "0 " + terms[0][1]

    out = ["Minimize", f" obj: {expr(model.objective)}", "Subject To"]
    for (name, terms, rel, rhs) in model.constraints:
        out.append(f" {name}: {expr(terms)} {rel} {rhs}")
    generals = [(name, kind) for (name, kind) in model.variables
                if kind[0] == "general"]
    binaries = [name for (name, kind) in model.variables if kind[0] == "binary"]
    if generals:
        out.append("Bounds")
        for (name, (_, lo, hi)) in generals:
            out.append(f" {lo} <= {name} <= {hi}")
    if binaries:
        out.append("Binaries")
        for name in binaries:
            out.append(f" {name}")
    if generals:
        out.append("Generals")
        for (name, _) in generals:
            out.append(f" {name}")
    out.append("End")
    return "\n".join(out) + "\n"


def parse_solution(text: str) -> Dict[str, float]:
    """Solution file: one "name value" pair per line, '#' comments."""
    out: Dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise IlpError(f"line {lineno}: expected 'name value'")
        try:
            out[parts[0]] = float(parts[1])
        except ValueError:
            raise IlpError(f"line {lineno}: bad value {parts[1]!r}") from None
    return out


# ---------------------------------------------------------------------------
# solution handling


def _ival(name: str, x: float) -> int:
    r = round(x)
    if abs(x - r) > 1e-6:
        raise IlpError(f"variable {name} has fractional value {x}")
    return int(r)


def read_solution(
    model: IlpModel, assignment: Dict[str, float]
) -> Tuple[BspSchedule, int]:
    """Reconstruct the schedule encoded by a solved model and verify that its
    cost equals the objective value."""
    dag, P, S = model.dag, model.P, model.S
    if dag is None or model.model is None:
        raise IlpError("model lacks build context")
    vals: Dict[str, int] = {}
    for (name, _) in model.variables:
        if name not in assignment:
            raise IlpError(f"assignment misses variable {name}")
        vals[name] = _ival(name, assignment[name])

    n = dag.node_count
    cm = model.model
    direct = cm.transfer == "direct"
    broadcast = cm.cast == "broadcast"
    fs = (not direct) and not broadcast

    assign: Dict[int, Tuple[Tuple[int, int], ...]] = {}
    for v in range(1, n + 1):
        copies = [
            (p, s)
            for p in range(1, P + 1)
            for s in range(1, S + 1)
            if vals[f"comp_{v}_{p}_{s}"]
        ]
        if not copies:
            raise IlpError(f"node {v} is never computed in the solution")
        if not model.duplication and len(copies) != 1:
            raise IlpError(f"node {v} computed {len(copies)} times")
        assign[v] = tuple(copies)

    comms = set()
    if fs:
        for v in range(1, n + 1):
            for p1 in range(1, P + 1):
                for p2 in range(1, P + 1):
                    if p1 == p2:
                        continue
                    for s in range(1, S + 1):
                        if vals[f"comm_{v}_{p1}_{p2}_{s}"]:
                            comms.add((v, p1, p2, s))
    else:
        for v in range(1, n + 1):
            for p in range(1, P + 1):
                for s in range(1, S + 1):
                    if not vals[f"rec_{v}_{p}_{s}"]:
                        continue
                    if direct and not broadcast:  # DS: sender is the home
                        senders = [
                            q for q in range(1, P + 1)
                            if q != p and vals[f"home_{v}_{q}"]
                        ]
                    else:
                        senders = [
                            q for q in range(1, P + 1)
                            if q != p and vals[f"sent_{v}_{q}_{s}"]
                        ]
                    if not senders:
                        raise IlpError(
                            f"value {v} received on p{p} in superstep {s} "
                            "with no sender"
                        )
                    comms.add((v, senders[0], p, s))

    sched = normalize(BspSchedule(P, S, assign, frozenset(comms)))
    report = check_validity(dag, sched, cm, duplication=model.duplication)
    if not report.valid:
        raise IlpError(f"reconstructed schedule invalid: {report.violations[0]}")
    objective = 0
    for (c, name) in model.objective:
        objective += c * vals[name]
    breakdown = cost(dag, sched, cm, MachineParams(g=model.g, L=model.L))
    if breakdown.cost != objective:
        raise IlpError(
            f"cost mismatch: schedule {breakdown.cost}, objective {objective}"
        )
    return sched, breakdown.cost


def check_assignment(
    model: IlpModel, assignment: Dict[str, float]
) -> List[str]:
    """Names of violated constraints / variable domains for an assignment."""
    bad: List[str] = []
    vals: Dict[str, int] = {}
    for (name, kind) in model.variables:
        if name not in assignment:
            bad.append(f"missing:{name}")
            continue
        x = assignment[name]
        r = round(x)
        if abs(x - r) > 1e-6:
            bad.append(f"fractional:{name}")
            continue
        r = int(r)
        if kind[0] == "binary" and r not in (0, 1):
            bad.append(f"domain:{name}")
        if kind[0] == "general" and not (kind[1] <= r <= kind[2]):
            bad.append(f"domain:{name}")
        vals[name] = r
    if bad:
        return bad
    for (cname, terms, rel, rhs) in model.constraints:
        lhs = sum(c * vals[vn] for (c, vn) in terms)
        ok = lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs
        if not ok:
            bad.append(cname)
    return bad


def encode_schedule(model: IlpModel, sched: BspSchedule) -> Dict[str, int]:
    """The assignment that encodes a schedule, the inverse of read_solution:
    comp (and home under direct transfer) for every copy, the communication
    variables from the tuples, presence at its maximal closure, and the cost
    variables at the schedule's loads as the superstep-accounting kernel
    counts them. Whether the point is feasible is check_assignment's to say."""
    dag, P, S = model.dag, model.P, model.S
    if dag is None or model.model is None:
        raise IlpError("model lacks build context")
    if sched.processor_count != P or sched.superstep_count > S or sched.edge_comms:
        raise IlpError("schedule does not fit the model's processors and supersteps")
    n = dag.node_count
    for v in set(sched.assign) | {t[0] for t in sched.comms}:
        if not 1 <= v <= n:
            raise IlpError(f"node {v} lies outside the DAG")
    cm = model.model
    direct = cm.transfer == "direct"
    broadcast = cm.cast == "broadcast"
    fs = (not direct) and not broadcast

    vals: Dict[str, int] = {name: 0 for (name, _) in model.variables}
    first: Dict[Tuple[int, int], int] = {}  # (v, p) -> first superstep present
    for v, copies in sched.assign.items():
        for (p, s) in copies:
            vals[f"comp_{v}_{p}_{s}"] = 1
            vals[f"cwork_{s}_{p}"] += dag.w_work(v)
            if direct:
                vals[f"home_{v}_{p}"] = 1
            first[(v, p)] = min(first.get((v, p), s), s)
    for (v, p1, p2, s) in sched.comms:
        if fs:
            vals[f"comm_{v}_{p1}_{p2}_{s}"] = 1
        else:
            vals[f"rec_{v}_{p2}_{s}"] = 1
        if broadcast:
            vals[f"sent_{v}_{p1}_{s}"] = 1
        elif direct:
            vals[f"senttimes_{v}_{p1}_{s}"] += 1
        first[(v, p2)] = min(first.get((v, p2), s + 1), s + 1)
    for (v, p), s0 in first.items():
        for s in range(s0, S + 1):
            vals[f"pres_{v}_{p}_{s}"] = 1

    sent, rec, h = comm_loads(dag, P, S, sched.comms, broadcast)
    for s in range(1, S + 1):
        vals[f"cwork_{s}"] = max(vals[f"cwork_{s}_{p}"] for p in range(1, P + 1))
        for p in range(1, P + 1):
            vals[f"csent_{s}_{p}"] = sent[s - 1][p - 1]
            vals[f"crec_{s}_{p}"] = rec[s - 1][p - 1]
        vals[f"ccomm_{s}"] = h[s - 1]
        vals[f"used_{s}"] = int(h[s - 1] > 0)
    return vals
