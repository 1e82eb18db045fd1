"""Integer linear program formulation of BSP scheduling.

Binary variables comp/pres describe where each value is computed and where it
is present; model-specific communication variables (sent/rec, comm, or
rec/senttimes) describe the communication phases; integer cost variables link
the binaries to the BSP objective. The module emits models, renders them in
the textual LP format, reconstructs schedules from solution files, counts
variables and constraints in closed form, and exhaustively minimizes tiny
models for cross-checking.

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
    work_loads,
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
    fs = (not direct) and not broadcast

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


# ---------------------------------------------------------------------------
# exhaustive minimization for tiny models


def exhaustive_min(
    model: IlpModel,
    pin: Optional[Dict[int, Tuple[int, int]]] = None,
) -> Tuple[Dict[str, int], int]:
    """Minimum objective over all feasible 0/1 assignments, by structured
    search: enumerate computation patterns, then minimal delivery plans per
    cross (value, target) pair; presence is set to its maximal closure and
    cost variables to their lower bounds, which preserves the minimum.

    pin optionally fixes comp for some nodes (value -> (processor, superstep)).
    """
    from itertools import product

    from .commsched import CsError, CsInstance, _relay_paths, cross_requirements

    dag, P, S = model.dag, model.P, model.S
    if dag is None or model.model is None:
        raise IlpError("model lacks build context")
    if model.duplication:
        raise IlpError("exhaustive minimization covers single-copy models only")
    n = dag.node_count
    cm = model.model
    g, L = model.g, model.L
    free = cm.transfer == "free"
    broadcast = cm.cast == "broadcast"
    pin = pin or {}

    slots = [(p, s) for p in range(1, P + 1) for s in range(1, S + 1)]
    choices = [
        [pin[v]] if v in pin else slots for v in range(1, n + 1)
    ]

    best_cost: Optional[int] = None
    best_state: Optional[Tuple] = None

    for combo in product(*choices):
        assign = {v: (combo[v - 1],) for v in range(1, n + 1)}
        try:
            inst = CsInstance(dag, P, S, assign)
        except CsError:
            continue
        work_total = sum(work_loads(dag, P, S, assign))
        if best_cost is not None and work_total >= best_cost:
            continue
        reqs = cross_requirements(inst)
        options = []
        feasible = True
        for req in reqs:
            (p1, s1) = assign[req.value][0]
            opts = [
                frozenset([(req.value, p1, req.target, s)])
                for s in range(s1, req.first_need)
            ]
            if free:
                opts += _relay_paths(
                    inst, req.value, p1, s1, req.target, req.first_need
                )
            if not opts:
                feasible = False
                break
            options.append(opts)
        if not feasible:
            continue

        def evaluate(tuples) -> int:
            _, _, h = comm_loads(dag, P, S, tuples, broadcast)
            return work_total + g * sum(h) + L * sum(1 for c in h if c > 0)

        def search(i: int, tuples: frozenset):
            nonlocal best_cost, best_state
            val = evaluate(tuples)
            if best_cost is not None and val >= best_cost:
                return
            if i == len(options):
                best_cost = val
                best_state = (dict(assign), frozenset(tuples))
                return
            for opt in options[i]:
                search(i + 1, tuples | opt)

        search(0, frozenset())

    if best_cost is None:
        raise IlpError("no feasible assignment within the superstep bound")
    return _assignment_from_state(model, best_state), best_cost


def _assignment_from_state(model: IlpModel, state) -> Dict[str, int]:
    """Full variable assignment from (node assignment, comm tuples): maximal
    presence closure, cost variables at their lower bounds."""
    assign, tuples = state
    dag, P, S = model.dag, model.P, model.S
    cm = model.model
    n = dag.node_count
    direct = cm.transfer == "direct"
    broadcast = cm.cast == "broadcast"
    ds = direct and not broadcast
    fs = (not direct) and not broadcast

    vals: Dict[str, int] = {name: 0 for (name, _) in model.variables}
    for v, ((p, s),) in assign.items():
        vals[f"comp_{v}_{p}_{s}"] = 1
        if direct:
            vals[f"home_{v}_{p}"] = 1
    for (v, p1, p2, s) in tuples:
        if fs:
            vals[f"comm_{v}_{p1}_{p2}_{s}"] = 1
        else:
            vals[f"rec_{v}_{p2}_{s}"] = 1
            if broadcast:
                vals[f"sent_{v}_{p1}_{s}"] = 1
            else:
                vals[f"senttimes_{v}_{p1}_{s}"] += 1
        vals[f"used_{s}"] = 1

    for v in range(1, n + 1):
        for p in range(1, P + 1):
            have = False
            for s in range(1, S + 1):
                if not have and s > 1:
                    if fs:
                        have = any(
                            vals[f"comm_{v}_{p1}_{p}_{s - 1}"]
                            for p1 in range(1, P + 1) if p1 != p
                        )
                    else:
                        have = bool(vals[f"rec_{v}_{p}_{s - 1}"])
                if vals[f"comp_{v}_{p}_{s}"]:
                    have = True
                if have:
                    vals[f"pres_{v}_{p}_{s}"] = 1

    for s in range(1, S + 1):
        wmax = 0
        cmax = 0
        for p in range(1, P + 1):
            w = sum(
                dag.w_work(v) * vals[f"comp_{v}_{p}_{s}"] for v in range(1, n + 1)
            )
            vals[f"cwork_{s}_{p}"] = w
            wmax = max(wmax, w)
            if ds:
                snt = sum(
                    dag.w_comm(v) * vals[f"senttimes_{v}_{p}_{s}"]
                    for v in range(1, n + 1)
                )
            elif fs:
                snt = sum(
                    dag.w_comm(v) * vals[f"comm_{v}_{p}_{p2}_{s}"]
                    for v in range(1, n + 1)
                    for p2 in range(1, P + 1) if p2 != p
                )
            else:
                snt = sum(
                    dag.w_comm(v) * vals[f"sent_{v}_{p}_{s}"]
                    for v in range(1, n + 1)
                )
            if fs:
                rcv = sum(
                    dag.w_comm(v) * vals[f"comm_{v}_{p1}_{p}_{s}"]
                    for v in range(1, n + 1)
                    for p1 in range(1, P + 1) if p1 != p
                )
            else:
                rcv = sum(
                    dag.w_comm(v) * vals[f"rec_{v}_{p}_{s}"]
                    for v in range(1, n + 1)
                )
            vals[f"csent_{s}_{p}"] = snt
            vals[f"crec_{s}_{p}"] = rcv
            cmax = max(cmax, snt, rcv)
        vals[f"cwork_{s}"] = wmax
        vals[f"ccomm_{s}"] = cmax
    return vals
