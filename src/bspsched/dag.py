"""DAG representation, file format, classification and fixture generators."""

from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple


# parse_dag refuses larger node counts before it builds any per-node table,
# and the generators larger node or edge counts before they build anything
MAX_NODES = 10**6


class DagError(Exception):
    """Invalid DAG structure or malformed DAG file."""


class DagCycleError(DagError):
    pass


@dataclass(frozen=True)
class Dag:
    """Immutable DAG over nodes 1..n with optional node weights.

    work_weight / comm_weight only store non-default (!= 1) entries. Both
    are kept as read-only copies, so neither the caller's dict nor the DAG's
    own mapping can change a checked weight.
    """

    node_count: int
    edges: Tuple[Tuple[int, int], ...]
    work_weight: Mapping[int, int] = field(default_factory=dict)
    comm_weight: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("work_weight", "comm_weight"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        n = self.node_count
        if n < 1:
            raise DagError("node count must be positive")
        seen = set()
        for (u, v) in self.edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise DagError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise DagError(f"self-loop on node {u}")
            if (u, v) in seen:
                raise DagError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        for wmap in (self.work_weight, self.comm_weight):
            for u, w in wmap.items():
                if not (1 <= u <= n):
                    raise DagError(f"weight for out-of-range node {u}")
                if w < 1:
                    raise DagError(f"weight {w} on node {u} must be >= 1")
        self.topo_order()  # raises on cycles

    def w_work(self, v: int) -> int:
        return self.work_weight.get(v, 1)

    def w_comm(self, v: int) -> int:
        return self.comm_weight.get(v, 1)

    def succ(self) -> Dict[int, List[int]]:
        out: Dict[int, List[int]] = {v: [] for v in range(1, self.node_count + 1)}
        for u, v in self.edges:
            out[u].append(v)
        return out

    def pred(self) -> Dict[int, List[int]]:
        out: Dict[int, List[int]] = {v: [] for v in range(1, self.node_count + 1)}
        for u, v in self.edges:
            out[v].append(u)
        return out

    def topo_order(self) -> List[int]:
        indeg = {v: 0 for v in range(1, self.node_count + 1)}
        succ = {v: [] for v in range(1, self.node_count + 1)}
        for u, v in self.edges:
            indeg[v] += 1
            succ[u].append(v)
        queue = deque(v for v in range(1, self.node_count + 1) if indeg[v] == 0)
        order = []
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if len(order) != self.node_count:
            raise DagCycleError("cycle detected")
        return order

    def total_work(self) -> int:
        return sum(self.w_work(v) for v in range(1, self.node_count + 1))


@dataclass(frozen=True)
class DagClass:
    is_chain: bool
    is_connected_chain: bool
    is_in_tree: bool
    height: int


def parse_dag(text: str) -> Dag:
    """Parse the line-based DAG file format.

    Line 1: "n m"; then m lines "u v"; optional "w u x" / "c u x" weight
    lines; "#" starts a comment.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise DagError("empty DAG file")

    def ints(lineno: int, s: str, count: int) -> List[int]:
        parts = s.split()
        if len(parts) != count:
            raise DagError(f"line {lineno}: expected {count} fields, got {len(parts)}")
        try:
            return [int(p) for p in parts]
        except ValueError:
            raise DagError(f"line {lineno}: non-integer field") from None

    lineno, header = lines[0]
    n, m = ints(lineno, header, 2)
    if n < 1 or m < 0:
        raise DagError(f"line {lineno}: bad header")
    if n > MAX_NODES:
        raise DagError(f"line {lineno}: {n} nodes exceed the limit of {MAX_NODES}")
    if len(lines) < 1 + m:
        raise DagError(f"expected {m} edge lines, found {len(lines) - 1}")

    edges = []
    for lineno, s in lines[1:1 + m]:
        u, v = ints(lineno, s, 2)
        if not (1 <= u <= n and 1 <= v <= n):
            raise DagError(f"line {lineno}: node index out of range")
        edges.append((u, v))

    work: Dict[int, int] = {}
    comm: Dict[int, int] = {}
    for lineno, s in lines[1 + m:]:
        parts = s.split()
        if len(parts) != 3 or parts[0] not in ("w", "c"):
            raise DagError(f"line {lineno}: expected 'w u x' or 'c u x'")
        u, x = ints(lineno, " ".join(parts[1:]), 2)
        if not (1 <= u <= n):
            raise DagError(f"line {lineno}: node index out of range")
        target = work if parts[0] == "w" else comm
        if x != 1:
            target[u] = x
    return Dag(n, tuple(edges), work, comm)


def serialize_dag(dag: Dag) -> str:
    """Byte-stable textual form accepted by parse_dag."""
    out = [f"{dag.node_count} {len(dag.edges)}"]
    out.extend(f"{u} {v}" for u, v in dag.edges)
    out.extend(f"w {u} {x}" for u, x in sorted(dag.work_weight.items()))
    out.extend(f"c {u} {x}" for u, x in sorted(dag.comm_weight.items()))
    return "\n".join(out) + "\n"


def classify(dag: Dag) -> DagClass:
    pred = dag.pred()
    succ = dag.succ()
    indeg = {v: len(pred[v]) for v in pred}
    outdeg = {v: len(succ[v]) for v in succ}

    is_chain = all(indeg[v] <= 1 and outdeg[v] <= 1 for v in indeg)

    # connected chain: unique source whose removal leaves a chain DAG,
    # with the source feeding the head of every chain
    is_cc = False
    sources = [v for v in indeg if indeg[v] == 0]
    if not is_chain and len(sources) == 1:
        v0 = sources[0]
        rest_ok = all(
            indeg[v] - (1 if v0 in pred[v] else 0) <= 1 and outdeg[v] <= 1
            for v in indeg
            if v != v0
        )
        heads_ok = all(
            indeg[h] == 1 for h in succ[v0]
        ) and outdeg[v0] == len(succ[v0])
        # every chain head must be fed by v0
        chain_heads = [
            v for v in indeg if v != v0 and (pred[v] == [v0] or indeg[v] == 0)
        ]
        is_cc = rest_ok and heads_ok and len(succ[v0]) == len(chain_heads)

    is_in_tree = all(outdeg[v] <= 1 for v in outdeg)

    height = 1
    depth = {v: 1 for v in indeg}
    for v in dag.topo_order():
        for u in pred[v]:
            depth[v] = max(depth[v], depth[u] + 1)
        height = max(height, depth[v])
    return DagClass(is_chain, is_cc, is_in_tree, height)


def _check_generated(nodes: int, edges: int) -> None:
    if nodes > MAX_NODES or edges > MAX_NODES:
        raise DagError(f"{nodes} nodes and {edges} edges exceed the limit of "
                       f"{MAX_NODES} each")


def gen_layered(length: int, width: int, variant: str, gap: int = 1) -> Dag:
    """Layered DAG of `length` layers and `width` nodes per layer.

    variant "adjacent": full bipartite edges between consecutive layers;
    "transitive": between every earlier/later layer pair; "delayed": only
    between layers i1, i2 with i1 + gap < i2. Node ids are layer-major.
    """
    if length < 1 or width < 1:
        raise DagError("length and width must be >= 1")
    if variant not in ("adjacent", "transitive", "delayed"):
        raise DagError(f"unknown layered variant {variant!r}")
    if variant == "delayed" and gap < 1:
        raise DagError("delayed variant requires gap >= 1")
    far = max(length - gap - 1, 0)  # delayed: layer pairs i1 + gap < i2
    pairs = {"adjacent": length - 1, "transitive": length * (length - 1) // 2,
             "delayed": far * (far + 1) // 2}[variant]
    _check_generated(length * width, pairs * width * width)

    def node(layer: int, j: int) -> int:  # layer in [1..length], j in [1..width]
        return (layer - 1) * width + j

    edges = []
    for i1 in range(1, length + 1):
        first = i1 + gap + 1 if variant == "delayed" else i1 + 1
        last = i1 + 1 if variant == "adjacent" else length
        for i2 in range(first, min(last, length) + 1):
            for j1 in range(1, width + 1):
                for j2 in range(1, width + 1):
                    edges.append((node(i1, j1), node(i2, j2)))
    return Dag(length * width, tuple(edges))


def _chain_edges(ids: List[int]) -> List[Tuple[int, int]]:
    return [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]


def gen_taxonomy_fixture(name: str, **params) -> Dag:
    """Fixed DAGs used by the cost-gap experiments and worked examples.

    classWW / recomp are frozen weighted instances; fork(length),
    two_minus_eps(g, k, p) and three_halves(g, k0) are parametric families.
    """
    if name == "classWW":
        # a -> b -> {c1, c2} -> d plus a -> u; b has weight 2, u weight 3
        edges = ((1, 2), (2, 3), (2, 4), (3, 5), (4, 5), (1, 6))
        return Dag(6, edges, work_weight={2: 2, 6: 3})
    if name == "recomp":
        # source s feeds a heavy top path and a grey node; grey feeds a heavy
        # bottom path and a light middle path (recomputation pays off)
        edges = (
            (1, 2), (2, 3), (3, 4),      # s -> T2 -> T3 -> T4
            (1, 5),                      # s -> grey
            (5, 6), (6, 7),              # grey -> B3 -> B4
            (5, 8), (8, 9),              # grey -> M1 -> M2
        )
        return Dag(9, edges, work_weight={2: 2, 6: 2})
    if name == "fork":
        ell = params["length"]
        if ell < 1:
            raise DagError("fork length must be >= 1")
        _check_generated(2 * ell + 1, 2 * ell)
        a = list(range(2, ell + 2))
        b = list(range(ell + 2, 2 * ell + 2))
        edges = [(1, a[0]), (1, b[0])] + _chain_edges(a) + _chain_edges(b)
        return Dag(2 * ell + 1, tuple(edges))
    if name == "two_minus_eps":
        g, k, p = params["g"], params["k"], params["p"]
        if g < 1 or k < 1 or p < 2:
            raise DagError("two_minus_eps requires g, k >= 1 and p >= 2")
        _check_generated((2 * k + 2) * p, (4 * k + 1) * p)
        # p chains of 2k+2 nodes with work weights (1, g, ..., g, 1): the
        # weight-g interior nodes are exactly large enough to hide one
        # value transfer per superstep when communication may overlap
        # computation, and too coarse to re-split when it may not
        layers = 2 * k + 2  # nodes per chain
        # node id for chain j (1..p), position i (0-based): layer-major
        def node(i: int, j: int) -> int:
            return i * p + j
        edges = []
        weights = {}
        for j in range(1, p + 1):
            for i in range(1, layers):
                edges.append((node(i - 1, j), node(i, j)))
            if g > 1:
                for i in range(1, layers - 1):
                    weights[node(i, j)] = g
        def cross_target(i: int, j: int) -> int:
            # generation i permutes chain indices; the permutations must be
            # non-commuting, otherwise per-superstep relabelings of chains to
            # processors can make whole generations local and undercut the
            # intended communication cost
            if p == 2:
                return 3 - j
            m = i % 4
            if m == 1:  # swap chains 1 and 2
                return {1: 2, 2: 1}.get(j, j)
            if m == 2:  # rotate forward
                return j % p + 1
            if m == 3:  # swap chains 2 and 3
                return {2: 3, 3: 2}.get(j, j)
            return (j - 2) % p + 1  # rotate backward

        for i in range(1, 2 * k + 1):
            # generation i skips one interior node: src at position i-1,
            # dst at position i+1 on the permuted chain
            for j in range(1, p + 1):
                edges.append((node(i - 1, j), node(i + 1, cross_target(i, j))))
        return Dag(layers * p, tuple(edges), work_weight=weights)
    if name == "three_halves":
        g, k0 = params["g"], params["k0"]
        if g < 1 or k0 < 2:
            # k0 = 1 would make the wrapped cross edges coincide with the
            # chain edges
            raise DagError("three_halves requires g >= 1 and k0 >= 2")
        _check_generated(g * (g + 1) * k0, g * (g + 1) * k0)
        layers = g + 1
        comp_size = layers * k0

        def node(comp: int, i: int, j: int) -> int:  # comp 1.., i 0..g, j 1..k0
            return (comp - 1) * comp_size + i * k0 + j
        edges = []
        for comp in range(1, g + 1):
            for j in range(1, k0 + 1):
                for i in range(1, layers):
                    edges.append((node(comp, i - 1, j), node(comp, i, j)))
            cut = comp  # wrapped cross edges sit after the first `comp` layers
            for j in range(1, k0 + 1):
                edges.append((node(comp, cut - 1, j), node(comp, cut, (j % k0) + 1)))
        return Dag(g * comp_size, tuple(edges))
    raise DagError(f"unknown fixture {name!r}")


def random_dag(n: int, edge_prob: float, rng) -> Dag:
    """Uniform edge-probability helper for tests (edges only forward)."""
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < edge_prob:
                edges.append((u, v))
    return Dag(n, tuple(edges))
