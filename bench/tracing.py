"""Per-layer timing for the traced run.

A traced run replaces functions of bspsched modules with timing wrappers and
puts the originals back when it ends; a run without tracing replaces
nothing. Each wrapper adds its call's time to a named total, counts the
call, and, unless it times a leaf called thousands of times per operation,
records a span (operation index, name, start, end) in memory.
"""

import time
from collections import defaultdict

# (metric, unit, better) of every per-layer metric, in BENCHMARK.json order
LAYERS = [
    ("cli.validate_ms", "ms", "lower"),
    ("cli.cost_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("dag.parse_ms", "ms", "lower"),
    ("dag.gen_ms", "ms", "lower"),
    ("schedule.parse_ms", "ms", "lower"),
    ("schedule.validity_direct_ms", "ms", "lower"),
    ("schedule.validity_free_ms", "ms", "lower"),
    ("schedule.cost_ms", "ms", "lower"),
    ("schedule.edges", "count", "lower"),
    ("schedule.comm_tuples", "count", "lower"),
    ("schedule.violations", "count", "lower"),
    ("oracle.bsp_ds_ms", "ms", "lower"),
    ("oracle.bsp_db_ms", "ms", "lower"),
    ("oracle.bsp_fs_ms", "ms", "lower"),
    ("oracle.bsp_fb_ms", "ms", "lower"),
    ("oracle.maxbsp_ms", "ms", "lower"),
    ("oracle.classical_ms", "ms", "lower"),
    ("oracle.commdelay_ms", "ms", "lower"),
    ("oracle.ratio_cell_ms", "ms", "lower"),
    ("oracle.leaves", "count", "lower"),
    ("oracle.self_ms", "ms", "lower"),
    ("commsched.leaf_ms", "ms", "lower"),
    ("commsched.leaf_feasible_ratio", "ratio", "higher"),
    ("schedule.leaf_cost_calls", "count", "lower"),
    ("schedule.leaf_cost_ms", "ms", "lower"),
    ("variants.check_calls", "count", "lower"),
    ("variants.check_ms", "ms", "lower"),
    ("ilp.emit_ms", "ms", "lower"),
    ("ilp.render_ms", "ms", "lower"),
    ("ilp.read_ms", "ms", "lower"),
    ("ilp.check_ms", "ms", "lower"),
    ("ilp.variables", "count", "lower"),
    ("ilp.constraints", "count", "lower"),
    ("ilp.lp_bytes", "count", "lower"),
    ("ilp.emit_peak_mb", "MB", "lower"),
    ("hrelation.decompose_ms", "ms", "lower"),
    ("hrelation.slots", "count", "lower"),
    ("commsched.greedy_p2_ms", "ms", "lower"),
    ("commsched.baseline_ms", "ms", "lower"),
    ("chains.solve_ms", "ms", "lower"),
    ("chains.connected_ms", "ms", "lower"),
    ("chains.greedy_ms", "ms", "lower"),
]

# per-operation time in wrapped calls is charged against this self time
SELF = {"validate": "cli.self_ms", "oracle": "oracle.self_ms"}


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)  # seconds per name
        self.calls = defaultdict(int)
        self.ok = defaultdict(int)       # calls that returned
        self.counts = defaultdict(float)
        self.peak = defaultdict(float)
        self.spans = []
        self.op = None
        self.inner = 0.0                 # wrapped seconds inside the current op
        self._undo = []

    def wrap(self, owner, attr, name, span=True, count=None):
        """Time owner.attr under name (a string, or a function of the call's
        arguments); count(result) gives counts to add when it returns."""
        fn = getattr(owner, attr)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                key = name(args) if callable(name) else name
                self.total[key] += end - start
                self.calls[key] += 1
                self.inner += end - start
                if span:
                    self.spans.append((self.op, key, start, end))
            self.ok[key] += 1
            if count:
                self.add(count(result))
            return result

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, fn))

    def restore(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def add(self, counts):
        """Add a check's or a wrapper's counts; anything but a dict adds none."""
        if not isinstance(counts, dict):
            return
        for key, x in counts.items():
            if key.endswith("_mb"):
                self.peak[key] = max(self.peak[key], x)
            else:
                self.counts[key] += x

    def begin(self, index):
        self.op, self.inner = index, 0.0

    def end(self, op, start, end, self_name):
        if op.layer:
            self.total[op.layer] += end - start
            self.calls[op.layer] += op.units
            self.spans.append((self.op, op.layer, start, end))
        if self_name:
            self.total[self_name] += end - start - self.inner

    def metrics(self, ops):
        """Every per-layer metric; a layer the workload never calls reads 0."""
        t, c = self.total, self.calls

        def per_call(key, calls_key=None):
            n = c[calls_key or key]
            return 1000 * t[key] / n if n else 0.0

        def per_op(key):
            return 1000 * t[key] / ops

        out = {name: per_call(name) for name, unit, _ in LAYERS if unit == "ms"}
        out.update({name: self.counts[name] / ops for name, unit, _ in LAYERS
                    if unit == "count"})
        out.update({
            "cli.self_ms": per_op("cli.self_ms"),
            "dag.gen_ms": 1000 * t["dag.gen"],
            "oracle.self_ms": per_op("oracle.self_ms"),
            "oracle.leaves": c["leaf.instance"] / ops,
            "commsched.leaf_ms": per_op("leaf.instance") + per_op("leaf.complete"),
            "commsched.leaf_feasible_ratio":
                self.ok["leaf.complete"] / c["leaf.instance"] if c["leaf.instance"] else 0.0,
            "schedule.leaf_cost_calls": c["leaf.cost"] / ops,
            "schedule.leaf_cost_ms": per_op("leaf.cost"),
            "variants.check_calls": c["variants.check"] / ops,
            "variants.check_ms": per_op("variants.check"),
            "hrelation.slots": (self.counts["hrelation.slots"] / c["hrelation.decompose_ms"]
                                if c["hrelation.decompose_ms"] else 0.0),
            "ilp.emit_peak_mb": self.peak["ilp.emit_peak_mb"],
        })
        return out


def install(tracer, workload):
    """Wrap the functions the workload's operations reach inside bspsched."""
    from bspsched import cli, commsched, ilp, oracle, variants

    if workload == "validate":
        tracer.wrap(cli, "parse_dag", "dag.parse_ms",
                    count=lambda dag: {"schedule.edges": len(dag.edges)})
        tracer.wrap(cli, "parse_schedule", "schedule.parse_ms",
                    count=lambda s: {"schedule.comm_tuples": len(s.comms)})
        tracer.wrap(cli, "check_validity",
                    lambda args: "schedule.validity_%s_ms" % args[2].transfer,
                    count=lambda report: {"schedule.violations": len(report.violations)})
        tracer.wrap(cli, "cost", "schedule.cost_ms")
    elif workload == "oracle":
        # one leaf completion: a CsInstance, then a commsched solver
        tracer.wrap(oracle, "CsInstance", "leaf.instance", span=False)
        for owner, attr in ((oracle, "cs_bruteforce"), (oracle, "cs_greedy_p2"),
                            (commsched, "cs_eager")):
            tracer.wrap(owner, attr, "leaf.complete", span=False)
        tracer.wrap(oracle, "bsp_cost", "leaf.cost", span=False)
        for attr in ("check_classical", "check_commdelay", "check_spd"):
            tracer.wrap(variants, attr, "variants.check", span=False)
    elif workload == "ilp":
        for attr, name in (("emit_ilp", "ilp.emit_ms"), ("render_lp", "ilp.render_ms"),
                           ("read_solution", "ilp.read_ms"),
                           ("check_assignment", "ilp.check_ms")):
            tracer.wrap(ilp, attr, name)


def install_generators(tracer):
    """Time the dag generators while the inputs are made."""
    from bspsched import dag

    for attr in ("gen_layered", "gen_taxonomy_fixture", "random_dag"):
        tracer.wrap(dag, attr, "dag.gen")
