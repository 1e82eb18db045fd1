"""Integer linear program formulation of BSP scheduling.

Binary variables comp/pres describe where each value is computed and where it
is present; model-specific communication variables (sent/rec, comm, or
rec/senttimes) describe the communication phases; integer cost variables link
the binaries to the BSP objective. The module emits models, renders them in
the textual LP format, reconstructs schedules from solution files, encodes
schedules as assignments (so that a known optimum can be checked against the
emitted constraints), and counts variables and constraints in closed form.

An IlpModel is index-based. `variables` is its one name table: column j is
variables[j] = (name, kind). Each constraint is (name, (cols, coefs), rel,
rhs) with integer column indices into that table, and the objective is one
(cols, coefs) pair. emit_ilp declares each variable family as one block of
columns, v, p and s varying in that order (comp_v_p_s is column
comp + ((v-1)P + p-1)S + s-1), so a term's column is arithmetic on its indices;
render_lp prints the names from the table.

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

import math
from dataclasses import dataclass, field
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .dag import Dag, classify
from .schedule import (
    DS,
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


# emit_ilp refuses more columns: 410,008 of them take about 330 MB to emit
MAX_COLUMNS = 10**6


Row = Tuple[Sequence[int], Sequence[int]]  # (cols, coefs)

_RELATIONS = ("<=", ">=", "=")


@dataclass
class IlpModel:
    """Linear model: the variable name table with kinds, named constraints
    over its columns, and a minimization objective; carries its build
    context for reconstruction."""

    variables: List[Tuple[str, Tuple]] = field(default_factory=list)
    constraints: List[Tuple[str, Row, str, int]] = field(default_factory=list)
    objective: Row = ((), ())
    dag: Optional[Dag] = None
    P: int = 1
    S: int = 1
    g: int = 1
    L: int = 0
    model: Optional[CommModel] = None
    duplication: bool = False

    def check(self) -> None:
        """Unique variable names; every constraint has a known relation; every
        row, the objective included, has one coefficient per column, at least
        one term, and only columns of the name table."""
        nvars = len(self.variables)
        if len({name for (name, _) in self.variables}) != nvars:
            raise IlpError("duplicate variable names")
        for (cname, (cols, coefs), rel, _) in self.constraints:
            if rel not in _RELATIONS:
                raise IlpError(f"constraint {cname}: bad relation {rel!r}")
            problem = _row_problem(cols, coefs, nvars)
            if problem:
                raise IlpError(f"constraint {cname}: {problem}")
        problem = _row_problem(*self.objective, nvars)
        if problem:
            raise IlpError(f"objective: {problem}")


def _row_problem(cols: Sequence[int], coefs: Sequence[int], nvars: int) -> str:
    if len(cols) != len(coefs):
        return f"{len(cols)} columns but {len(coefs)} coefficients"
    if not cols:
        return "no terms"
    if min(cols) < 0 or max(cols) >= nvars:
        return f"column outside 0..{nvars - 1}"
    return ""


def _default_s(dag: Dag, P: int) -> int:
    cls = classify(dag)
    n = dag.node_count
    if cls.is_chain:
        return min(n, P)
    if cls.is_connected_chain:
        return min(n, 2 * P - 1)
    return n


def _layout(
    dag: Dag, P: int, S: int, cm: CommModel
) -> Tuple[List[Tuple[str, Tuple]], Dict[str, int], int]:
    """The variable families in declaration order as (pattern, kind), the
    first column of each family by pattern, and the number of columns."""
    n = dag.node_count
    direct = cm.transfer == "direct"
    broadcast = cm.cast == "broadcast"
    binary = ("binary",)
    wtot = sum(dag.w_work(v) for v in range(1, n + 1))
    ctot = P * sum(dag.w_comm(v) for v in range(1, n + 1))
    families = [("comp_v_p_s", binary), ("pres_v_p_s", binary)]
    if broadcast:
        families.append(("sent_v_p_s", binary))
    if direct or broadcast:  # DS, DB, FB all use rec
        families.append(("rec_v_p_s", binary))
    else:
        families.append(("comm_v_p1_p2_s", binary))
    if direct and not broadcast:
        families.append(("senttimes_v_p_s", ("general", 0, P)))
    if direct:
        families.append(("home_v_p", binary))
    work, comm = ("general", 0, wtot), ("general", 0, ctot)
    families += [("used_s", binary), ("cwork_s_p", work), ("cwork_s", work),
                 ("csent_s_p", comm), ("crec_s_p", comm), ("ccomm_s", comm)]
    sizes = {"v_p_s": n * P * S, "v_p1_p2_s": n * P * (P - 1) * S,
             "v_p": n * P, "s": S, "s_p": S * P}
    base: Dict[str, int] = {}
    col = 0
    for pattern, _ in families:
        base[pattern] = col
        col += sizes[pattern.split("_", 1)[1]]
    return families, base, col


def emit_ilp(
    dag: Dag,
    P: int,
    S: Optional[int] = None,
    g: int = 1,
    L: int = 0,
    model: CommModel = None,
    duplication: bool = False,
) -> IlpModel:
    if model is None:
        model = DS
    if P < 1:
        raise IlpError("P must be >= 1")
    if S is None:
        S = _default_s(dag, P)
    if S < 1:
        raise IlpError("S must be >= 1")
    MachineParams(g, L)  # raises ScheduleError on a negative g or L
    n = dag.node_count
    direct = model.transfer == "direct"
    broadcast = model.cast == "broadcast"
    ds = direct and not broadcast
    fs = (not direct) and not broadcast
    PS = P * S
    nps = n * PS

    families, base, ncols = _layout(dag, P, S, model)
    if ncols > MAX_COLUMNS:
        raise IlpError(f"{ncols} columns exceed the limit of {MAX_COLUMNS}")
    m = IlpModel(dag=dag, P=P, S=S, g=g, L=L, model=model, duplication=duplication)

    # index suffixes, formatted once and shared by variable and constraint
    # names; position i of a family's list is its column base + i
    N, PP, SS = range(1, n + 1), range(1, P + 1), range(1, S + 1)
    suffixes = {
        "v_p_s": [f"{v}_{p}_{s}" for v in N for p in PP for s in SS],
        "v_p": [f"{v}_{p}" for v in N for p in PP],
        "s": [str(s) for s in SS],
        "s_p": [f"{s}_{p}" for s in SS for p in PP],
    }
    if fs:
        suffixes["v_p1_p2_s"] = [f"{v}_{p1}_{p2}_{s}" for v in N for p1 in PP
                                 for p2 in PP if p2 != p1 for s in SS]
    for pattern, kind in families:
        prefix, shape = pattern.split("_", 1)
        prefix += "_"
        m.variables += [(prefix + x, kind) for x in suffixes[shape]]
    vps, vp, sp = suffixes["v_p_s"], suffixes["v_p"], suffixes["s_p"]

    COMP, PRES = base["comp_v_p_s"], base["pres_v_p_s"]
    SENT, REC = base.get("sent_v_p_s"), base.get("rec_v_p_s")
    COMM, ST = base.get("comm_v_p1_p2_s"), base.get("senttimes_v_p_s")
    HOME, USED = base.get("home_v_p"), base["used_s"]
    CWP, CW = base["cwork_s_p"], base["cwork_s"]
    CSENT, CREC, CCOMM = base["csent_s_p"], base["crec_s_p"], base["ccomm_s"]

    def others(col0: int, v: int, p: int, s: int) -> List[int]:
        """Columns of a v_p_s family at (v, q, s) for every q != p (0-based)."""
        return [col0 + (v * P + q) * S + s for q in range(P) if q != p]

    def comms_to(v: int, p: int, s: int) -> List[int]:
        """Columns comm_{v}_{p1}_{p}_{s} for every p1 != p (0-based)."""
        return [COMM + ((v * P + p1) * (P - 1) + p - (p > p1)) * S + s
                for p1 in range(P) if p1 != p]

    add = m.constraints.append
    pair = (1, -1)  # the coefficients of every two-term x - y row
    cover = (1,) + (-1,) * (P - 1)
    w_work = tuple(dag.w_work(v) for v in N)
    w_comm = tuple(dag.w_comm(v) for v in N)

    # assignment: each value computed exactly once (at least once under
    # duplication)
    rel = ">=" if duplication else "="
    ones = (1,) * PS
    for v in range(n):
        add((f"assign_{v + 1}", (list(range(COMP + v * PS, COMP + (v + 1) * PS)), ones),
             rel, 1))

    # presence propagation
    relay = (1, -1, -1) + (-1,) * (P - 1 if fs else 1)
    for k in range(nps):
        s = k % S
        if not s:
            cols = (PRES + k, COMP + k)
        elif fs:
            vp_k = k // S
            cols = [PRES + k, COMP + k, PRES + k - 1] + comms_to(vp_k // P, vp_k % P, s - 1)
        else:
            cols = (PRES + k, COMP + k, PRES + k - 1, REC + k - 1)
        add(("presence_" + vps[k], (cols, relay if s else pair), "<=", 0))

    # precedence along edges via presence
    for (u, v) in sorted(dag.edges):
        cu, cv, prefix = (u - 1) * PS, (v - 1) * PS, f"prec_{u}_"
        for i in range(PS):
            add((prefix + vps[cv + i], ((COMP + cv + i, PRES + cu + i), pair), "<=", 0))

    # home linkage for direct models
    if direct:
        home_hi = (1,) + (-1,) * S
        home_eq = (1,) * S + (-1,)
        for j in range(n * P):
            h, k0 = HOME + j, j * S
            comps = list(range(COMP + k0, COMP + k0 + S))
            if duplication:
                for s in range(S):
                    add(("homelo_" + vps[k0 + s], ((COMP + k0 + s, h), pair), "<=", 0))
                add(("homehi_" + vp[j], ([h] + comps, home_hi), "<=", 0))
            else:
                add(("home_" + vp[j], (comps + [h], home_eq), "=", 0))

    # send validity and receive covering
    if broadcast:
        for k in range(nps):
            add(("sentpres_" + vps[k], ((SENT + k, PRES + k), pair), "<=", 0))
        if direct:  # DB: only the computing processor may send
            for k in range(nps):
                add(("senthome_" + vps[k], ((SENT + k, HOME + k // S), pair), "<=", 0))
        for k in range(nps):
            vp_k, s = divmod(k, S)
            cols = [REC + k] + others(SENT, vp_k // P, vp_k % P, s)
            add(("reccover_" + vps[k], (cols, cover), "<=", 0))
    elif fs:
        span = (P - 1) * S
        for i, x in enumerate(suffixes["v_p1_p2_s"]):
            add(("commpres_" + x, ((COMM + i, PRES + i // span * S + i % S), pair), "<=", 0))
    else:  # DS
        times = (1, -P)
        for k in range(nps):
            add(("sthome_" + vps[k], ((ST + k, HOME + k // S), times), "<=", 0))
        for k in range(nps):
            add(("stpres_" + vps[k], ((ST + k, PRES + k), times), "<=", 0))
        # receiving requires some other processor to hold the value; without
        # this a value could "arrive" on its own computing processor before
        # being computed
        for k in range(nps):
            vp_k, s = divmod(k, S)
            cols = [REC + k] + others(PRES, vp_k // P, vp_k % P, s)
            add(("dsrec_" + vps[k], (cols, cover), "<=", 0))
        # big-M covering: the home processor sends at least as many copies as
        # there are receivers in each superstep
        big_m = (-1, P) + (1,) * (P - 1)
        for k in range(nps):
            vp_k, s = divmod(k, S)
            cols = [ST + k, HOME + vp_k] + others(REC, vp_k // P, vp_k % P, s)
            add(("dscover_" + vps[k], (cols, big_m), "<=", P))

    # cost definitions
    work_def = w_work + (-1,)
    for j in range(PS):
        s, p = divmod(j, P)
        cols = list(range(COMP + p * S + s, COMP + nps, PS))
        cols.append(CWP + j)
        add(("cworkdef_" + sp[j], (cols, work_def), "=", 0))
    for j in range(PS):
        add(("cworkmax_" + sp[j], ((CWP + j, CW + j // P), pair), "<=", 0))
    if fs:  # one term per (v, other processor)
        comm_def = tuple(w for w in w_comm for _ in range(P - 1)) + (-1,)
    else:
        comm_def = w_comm + (-1,)
    col0 = ST if ds else SENT
    for j in range(PS):
        s, p = divmod(j, P)
        if fs:
            cols = [COMM + ((v * P + p) * (P - 1) + q) * S + s
                    for v in range(n) for q in range(P - 1)]
        else:
            cols = list(range(col0 + p * S + s, col0 + nps, PS))
        cols.append(CSENT + j)
        add(("csentdef_" + sp[j], (cols, comm_def), "=", 0))
    for j in range(PS):
        s, p = divmod(j, P)
        if fs:
            cols = [c for v in range(n) for c in comms_to(v, p, s)]
        else:
            cols = list(range(REC + p * S + s, REC + nps, PS))
        cols.append(CREC + j)
        add(("crecdef_" + sp[j], (cols, comm_def), "=", 0))
    for j in range(PS):
        add(("ccommsent_" + sp[j], ((CSENT + j, CCOMM + j // P), pair), "<=", 0))
        add(("ccommrec_" + sp[j], ((CREC + j, CCOMM + j // P), pair), "<=", 0))

    # used_s indicators
    if fs:
        for i, x in enumerate(suffixes["v_p1_p2_s"]):
            add(("usedcomm_" + x, ((COMM + i, USED + i % S), pair), "<=", 0))
    else:  # a sender under broadcast; under DS every communication has a receiver
        col0, prefix = (SENT, "usedsent_") if broadcast else (REC, "usedrec_")
        for k in range(nps):
            add((prefix + vps[k], ((col0 + k, USED + k % S), pair), "<=", 0))

    cols, coefs = [], []
    for s in range(S):
        cols.append(CW + s)
        coefs.append(1)
        if g:
            cols.append(CCOMM + s)
            coefs.append(g)
        if L:
            cols.append(USED + s)
            coefs.append(L)
    m.objective = (cols, coefs)
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
    names = [name for (name, _) in model.variables]
    plus = [" + " + name for name in names]
    minus = [" - " + name for name in names]

    def expr(cols: Sequence[int], coefs: Sequence[int]) -> str:
        text = "".join([
            plus[j] if c == 1 else minus[j] if c == -1
            else f" {'-' if c < 0 else '+'} {abs(c)} {names[j]}"
            for j, c in zip(cols, coefs) if c
        ])
        if not text:
            return "0 " + names[cols[0]]
        return text[3:] if text[1] == "+" else text[1:]

    out = ["Minimize", f" obj: {expr(*model.objective)}", "Subject To"]
    for (name, row, rel, rhs) in model.constraints:
        out.append(f" {name}: {expr(*row)} {rel} {rhs}")
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
    """Solution file: one "name value" pair per line, each name once, '#'
    comments; every value is a finite number."""
    out: Dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise IlpError(f"line {lineno}: expected 'name value'")
        try:
            x = float(parts[1])
        except ValueError:
            raise IlpError(f"line {lineno}: bad value {parts[1]!r}") from None
        if not math.isfinite(x):
            raise IlpError(f"line {lineno}: value {parts[1]!r} is not finite")
        if parts[0] in out:
            raise IlpError(f"line {lineno}: second value for {parts[0]}")
        out[parts[0]] = x
    return out


# ---------------------------------------------------------------------------
# solution handling


def _column_values(
    model: IlpModel, assignment: Dict[str, float]
) -> Tuple[List[int], List[Tuple[str, str, float]]]:
    """The assignment as one integer per column, and its problems in column
    order as (tag, name, value): "missing", "fractional" (a value that is not
    a finite integer) or "domain" (outside the variable's bounds). A column
    with a missing or fractional value reads 0."""
    vals: List[int] = []
    bad: List[Tuple[str, str, float]] = []
    for (name, kind) in model.variables:
        x = assignment.get(name)
        if x is None:
            bad.append(("missing", name, x))
            vals.append(0)
            continue
        try:
            r = round(x)
        except (OverflowError, ValueError):  # inf, nan
            r = None
        if r is None or abs(x - r) > 1e-6:
            bad.append(("fractional", name, x))
            vals.append(0)
            continue
        r = int(r)
        if kind[0] == "binary" and r not in (0, 1):
            bad.append(("domain", name, x))
        if kind[0] == "general" and not (kind[1] <= r <= kind[2]):
            bad.append(("domain", name, x))
        vals.append(r)
    return vals, bad


def read_solution(
    model: IlpModel, assignment: Dict[str, float]
) -> Tuple[BspSchedule, int]:
    """Reconstruct the schedule encoded by a solved model and verify that its
    cost equals the objective value. A missing, non-integer or out-of-domain
    value raises IlpError naming the variable."""
    dag, P, S = model.dag, model.P, model.S
    if dag is None or model.model is None:
        raise IlpError("model lacks build context")
    n = dag.node_count
    cm = model.model
    _, base, ncols = _layout(dag, P, S, cm)
    if ncols != len(model.variables):
        raise IlpError("model's variables do not match its build context")
    vals, bad = _column_values(model, assignment)
    for (tag, name, x) in bad:
        if tag == "missing":
            raise IlpError(f"assignment misses variable {name}")
        if tag == "fractional":
            raise IlpError(f"variable {name} has non-integer value {x}")
        raise IlpError(f"variable {name} has value {x} outside its domain")

    direct = cm.transfer == "direct"
    broadcast = cm.cast == "broadcast"
    fs = (not direct) and not broadcast
    PS, nps = P * S, n * P * S

    assign: Dict[int, List[Tuple[int, int]]] = {}
    comp = base["comp_v_p_s"]
    for v in range(1, n + 1):
        row = vals[comp + (v - 1) * PS: comp + v * PS]
        copies = [(i // S + 1, i % S + 1) for i, x in enumerate(row) if x]
        if not copies:
            raise IlpError(f"node {v} is never computed in the solution")
        if not model.duplication and len(copies) != 1:
            raise IlpError(f"node {v} computed {len(copies)} times")
        assign[v] = copies

    comms = set()
    if fs:
        col0 = base["comm_v_p1_p2_s"]
        for i, x in enumerate(vals[col0: col0 + n * P * (P - 1) * S]):
            if x:
                rest, s = divmod(i, S)
                rest, q = divmod(rest, P - 1)
                v, p1 = divmod(rest, P)
                comms.add((v + 1, p1 + 1, q + (q >= p1) + 1, s + 1))
    else:
        rec = base["rec_v_p_s"]
        for k, x in enumerate(vals[rec: rec + nps]):
            if not x:
                continue
            vp, s = divmod(k, S)
            v, p = divmod(vp, P)
            if direct and not broadcast:  # DS: sender is the home
                home = base["home_v_p"] + v * P
                senders = [q for q in range(P) if q != p and vals[home + q]]
            else:
                sent = base["sent_v_p_s"] + v * PS + s
                senders = [q for q in range(P) if q != p and vals[sent + q * S]]
            if not senders:
                raise IlpError(
                    f"value {v + 1} received on p{p + 1} in superstep {s + 1} "
                    "with no sender"
                )
            comms.add((v + 1, senders[0] + 1, p + 1, s + 1))

    sched = normalize(BspSchedule(P, S, assign, comms))
    report = check_validity(dag, sched, cm, duplication=model.duplication)
    if not report.valid:
        raise IlpError(f"reconstructed schedule invalid: {report.violations[0]}")
    cols, coefs = model.objective
    objective = sum(map(mul, coefs, map(vals.__getitem__, cols)))
    breakdown = cost(dag, sched, cm, MachineParams(g=model.g, L=model.L))
    if breakdown.cost != objective:
        raise IlpError(
            f"cost mismatch: schedule {breakdown.cost}, objective {objective}"
        )
    return sched, breakdown.cost


def check_assignment(
    model: IlpModel, assignment: Dict[str, float]
) -> List[str]:
    """Names of violated constraints / variable domains for an assignment:
    the "missing:", "fractional:" and "domain:" entries in column order, or,
    when there are none, the violated constraints. The model's rows are
    trusted: emit_ilp builds them valid, and check() vets hand-built ones."""
    vals, bad = _column_values(model, assignment)
    if bad:
        return [f"{tag}:{name}" for (tag, name, _) in bad]
    at = vals.__getitem__
    violated: List[str] = []
    for (cname, (cols, coefs), rel, rhs) in model.constraints:
        lhs = sum(map(mul, coefs, map(at, cols)))
        ok = lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs
        if not ok:
            violated.append(cname)
    return violated


def encode_schedule(model: IlpModel, sched: BspSchedule) -> Dict[str, int]:
    """The assignment that encodes a schedule, the inverse of read_solution:
    comp (and home under direct transfer) for every copy, the communication
    variables from the tuples, presence at its maximal closure, and the cost
    variables at the schedule's loads as the superstep-accounting kernel
    counts them. Whether the point is feasible is check_assignment's to say."""
    dag, P, S = model.dag, model.P, model.S
    if dag is None or model.model is None:
        raise IlpError("model lacks build context")
    if sched.processor_count != P or sched.superstep_count > S:
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
