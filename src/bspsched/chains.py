"""Exact polynomial scheduling for chain-structured DAGs, plus the
constructive greedy splitter with its additive communication bound.

A chain DAG is a disjoint union of directed paths; a connected chain DAG adds
one root feeding every path head. For fixed P these admit exact solvers:
communication events are enumerated as per-boundary transfer sets, split
chains as monotone superstep labelings, and the remaining whole chains are
leveled with a closed-form work bound.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .dag import Dag, classify
from .schedule import BspSchedule, CommModel, DS

# the exact chain searches refuse larger machines: their enumeration grows
# exponentially in P
MAX_P = 3


class ChainError(Exception):
    pass


@dataclass(frozen=True)
class ChainDecomposition:
    """Ordered node lists, one per path; root set for connected inputs."""

    chains: Tuple[Tuple[int, ...], ...]
    root: Optional[int] = None

    def __post_init__(self):
        seen = set()
        for chain in self.chains:
            if not chain:
                raise ChainError("empty chain")
            for v in chain:
                if v in seen or v == self.root:
                    raise ChainError(f"node {v} appears twice")
                seen.add(v)

    @property
    def node_count(self) -> int:
        return sum(len(c) for c in self.chains) + (1 if self.root else 0)


def decompose_chains(dag: Dag) -> ChainDecomposition:
    cls = classify(dag)
    succ = dag.succ()
    pred = dag.pred()

    def follow(start: int) -> Tuple[int, ...]:
        path = [start]
        while succ[path[-1]]:
            path.append(next(iter(succ[path[-1]])))
        return tuple(path)

    if cls.is_chain:
        heads = [v for v in range(1, dag.node_count + 1) if not pred[v]]
        return ChainDecomposition(tuple(follow(h) for h in sorted(heads)))
    if cls.is_connected_chain:
        root = next(
            v for v in range(1, dag.node_count + 1)
            if not pred[v] and len(succ[v]) >= 1
        )
        return ChainDecomposition(
            tuple(follow(h) for h in sorted(succ[root])), root=root
        )
    raise ChainError("input is neither a chain DAG nor a connected chain DAG")


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# greedy splitter


def greedy_chain(dec: ChainDecomposition, P: int, g: int) -> BspSchedule:
    """Valid schedule with at most P-1 unit transfers and work horizon
    max(ceil(n/P), longest chain): peel chains long enough to deserve their
    own processor, then cut the concatenated remainder into equal blocks.

    Each block computes its outgoing cut prefix first and its incoming
    continuation last, so one barrier per cut suffices.
    """
    if dec.root is not None:
        raise ChainError("greedy splitter handles pure chain DAGs only")
    if P < 1:
        raise ChainError("P must be >= 1")
    chains = sorted(dec.chains, key=len, reverse=True)
    n = sum(len(c) for c in chains)

    solo: List[Tuple[int, ...]] = []
    rest = chains
    p_left = P
    while p_left > 1 and rest and len(rest[0]) >= _ceil_div(
        sum(len(c) for c in rest), p_left
    ):
        solo.append(rest[0])
        rest = rest[1:]
        p_left -= 1

    # timed layout: proc p, local slot t (1-based); then slice into supersteps
    timed: Dict[int, Tuple[int, int]] = {}
    boundaries: Set[int] = set()
    transfers: List[Tuple[int, int, int, int]] = []  # (value, p1, p2, boundary)
    for i, chain in enumerate(solo):
        for t, v in enumerate(chain, start=1):
            timed[v] = (i + 1, t)
    if rest:
        seq = [v for c in rest for v in c]
        heads = {c[0] for c in rest}
        q = _ceil_div(len(seq), p_left)
        blocks = [seq[j * q: (j + 1) * q] for j in range(p_left)]
        blocks = [b for b in blocks if b]
        conts = []
        for block in blocks:
            cont = 0
            if block[0] not in heads:
                while cont < len(block) and block[cont] not in heads:
                    cont += 1
            conts.append(cont)
        for j, block in enumerate(blocks):
            proc = len(solo) + j + 1
            cont = conts[j]
            # the continuation of the previous block's chain runs last; the
            # chain spilling into the next block runs first so its value is
            # ready at the cut boundary
            lead, mid = block[:cont], block[cont:]
            spills = j + 1 < len(blocks) and conts[j + 1] > 0
            out: List[int] = []
            if spills and mid:
                k = len(mid)
                while k > 0 and mid[k - 1] not in heads:
                    k -= 1
                out, mid = mid[k - 1:], mid[:k - 1]
            for t, v in enumerate(out + mid, start=1):
                timed[v] = (proc, t)
            for t, v in enumerate(lead, start=q - cont + 1):
                timed[v] = (proc, t)
            if spills:
                # sender finishes its spilling prefix by slot len(out); the
                # receiver resumes strictly after slot q - cont of the next
                # block, and len(out) <= q - conts[j+1] always holds because
                # every remaining chain is shorter than q
                boundaries.add(len(out))
                transfers.append((block[-1], proc, proc + 1, len(out)))

    cuts = sorted(boundaries)
    horizon = max((t for (_, t) in timed.values()), default=1)

    def sup_of(t: int) -> int:
        s = 1
        for b in cuts:
            if t > b:
                s += 1
        return s

    S = len(cuts) + 1
    assign = {v: ((p, sup_of(t)),) for v, (p, t) in timed.items()}
    comms = frozenset(
        (value, p1, p2, sup_of(b)) for (value, p1, p2, b) in transfers
    )
    return BspSchedule(P, S, assign, comms)


# ---------------------------------------------------------------------------
# exact solver machinery


def _round_subsets(P: int):
    """All nonempty sets of (sender, receiver) transfer slots for one
    boundary, with the resulting h-relation size."""
    pairs = [(a, b) for a in range(1, P + 1) for b in range(1, P + 1) if a != b]
    out = []
    for r in range(1, len(pairs) + 1):
        for subset in combinations(pairs, r):
            snd = [0] * (P + 1)
            rec = [0] * (P + 1)
            for (a, b) in subset:
                snd[a] += 1
                rec[b] += 1
            out.append((subset, max(max(snd), max(rec))))
    return out


def _path_partitions(transfers: Sequence[Tuple[int, int, int]]):
    """Group transfers (round, snd, rcv) into chain paths: per path strictly
    increasing rounds with each receiver handing over as the next sender."""
    order = sorted(transfers)
    results: List[List[List[Tuple[int, int, int]]]] = []

    def rec(i: int, paths: List[List[Tuple[int, int, int]]]):
        if i == len(order):
            results.append([list(p) for p in paths])
            return
        t = order[i]
        for path in paths:
            last = path[-1]
            if last[0] < t[0] and last[2] == t[1]:
                path.append(t)
                rec(i + 1, paths)
                path.pop()
        paths.append([t])
        rec(i + 1, paths)
        paths.pop()

    rec(0, [])
    return results


def _split_compositions(length: int, S: int, rounds: Sequence[int]):
    """Weak compositions of `length` over S supersteps where every segment
    delimited by the transfer rounds (including the final one) is nonempty."""

    def rec(s: int, left: int, prefix: List[int]):
        if s == S:
            if left == 0:
                yield tuple(prefix)
            return
        for c in range(left + 1):
            prefix.append(c)
            yield from rec(s + 1, left - c, prefix)
            prefix.pop()

    for comp in rec(0, length, []):
        ok = True
        prev = 0
        for r in rounds:
            cum = sum(comp[:r])
            if cum <= prev:
                ok = False
                break
            prev = cum
        if ok and sum(comp) > prev:
            yield comp


class _Candidate:
    """Best-so-far schedule assembled from solver pieces."""

    __slots__ = ("cost", "S", "assign", "comms")

    def __init__(self):
        self.cost = None
        self.S = None
        self.assign = None
        self.comms = None

    def offer(self, cost: int, S: int, assign, comms):
        if self.cost is None or cost < self.cost:
            self.cost, self.S = cost, S
            self.assign, self.comms = assign, comms


def _level_free(
    base: List[List[int]],
    free_by_proc: List[int],
    avail: List[int],
    P: int,
    S: int,
) -> Tuple[int, List[int]]:
    """Minimal total work profile sum(T_s) with T_s >= max_p base and each
    processor p fitting free_by_proc[p] extra units into supersteps >=
    avail[p]; returns (total, T). Suffix constraints are nested, so deficits
    are repaired at the last superstep."""
    T = [max(base[s][p] for p in range(P)) for s in range(S)]
    for a in range(S, 0, -1):
        need = 0
        for p in range(P):
            if avail[p] != a:
                continue
            need = max(
                need,
                sum(base[s][p] for s in range(a - 1, S)) + free_by_proc[p],
            )
        cur = sum(T[a - 1:])
        if cur < need:
            T[S - 1] += need - cur
    return sum(T), T


def _chain_search(
    dec: ChainDecomposition,
    P: int,
    g: int,
    L: int,
    model: CommModel,
) -> Tuple[BspSchedule, int]:
    chains = list(dec.chains)
    root = dec.root
    n = sum(len(c) for c in chains) + (1 if root else 0)
    work_floor = _ceil_div(n, P)
    free_models = model.transfer == "free"
    broadcast = model.cast == "broadcast"
    subsets = _round_subsets(P) if P > 1 else []
    best = _Candidate()

    # single-processor baseline, always valid
    serial = {}
    if root:
        serial[root] = ((1, 1),)
    for c in chains:
        for v in c:
            serial[v] = ((1, 1),)
    best.offer(n, 1, serial, frozenset())

    max_sups = min(n, (2 * P - 1) if root else P)

    def root_plans(S: int):
        """Delivery round and sender of the root value per processor."""
        others = list(range(2, P + 1))

        def rec(i: int, plan: Dict[int, Tuple[int, int]]):
            if i == len(others):
                yield dict(plan)
                return
            p = others[i]
            yield from rec(i + 1, plan)  # processor never receives the root
            for r in range(1, S):
                if free_models:
                    senders = [1] + [
                        q for q in plan if plan[q][0] + 1 <= r
                    ]
                else:
                    senders = [1]
                for snd in senders:
                    if snd == p:
                        continue
                    plan[p] = (r, snd)
                    yield from rec(i + 1, plan)
                    del plan[p]

        yield from rec(0, {})

    for S in range(1, max_sups + 1):
        if best.cost is not None and work_floor + (g + L) * (S - 1) >= best.cost:
            break
        plans = root_plans(S) if root else [dict()]
        for plan in plans:
            avail = [1] * (P + 1)  # 1-indexed by processor
            for p, (r, _) in plan.items():
                avail[p] = r + 1
            if root:
                # processors that never get the root host continuations only
                for p in range(2, P + 1):
                    if p not in plan:
                        avail[p] = S + 1
            _search_rounds(
                dec, P, S, g, L, model, subsets, plan, avail, best,
                work_floor, broadcast,
            )
    return _finish(best, P)


def _finish(best: _Candidate, P: int) -> Tuple[BspSchedule, int]:
    return BspSchedule(P, best.S, best.assign, best.comms), best.cost


def _search_rounds(
    dec, P, S, g, L, model, subsets, root_plan, avail, best,
    work_floor, broadcast,
):
    chains = list(dec.chains)
    root = dec.root

    def round_cost(r: int, subset) -> int:
        snd = [0] * (P + 1)
        rec = [0] * (P + 1)
        sent_values: Set[Tuple[int, int]] = set()
        for (a, b) in subset:
            snd[a] += 1
            rec[b] += 1
        for p, (rr, sender) in root_plan.items():
            if rr == r:
                rec[p] += 1
                if broadcast:
                    sent_values.add((sender, r))
                else:
                    snd[sender] += 1
        for (sender, _) in sent_values:
            snd[sender] += 1
        return max(max(snd), max(rec))

    def configs(r: int, acc: List, units: int):
        if r == S:
            yield list(acc), units
            return
        root_only = round_cost(r, ())
        options = []
        if root_only > 0:
            options.append(((), root_only))
        for subset, _ in subsets:
            options.append((subset, round_cost(r, subset)))
        for subset, h in options:
            if h == 0:
                continue  # every boundary must carry communication
            acc.append(subset)
            yield from configs(r + 1, acc, units + h)
            acc.pop()

    for rounds, units in configs(1, [], 0):
        lb = work_floor + g * units + L * (S - 1)
        if best.cost is not None and lb >= best.cost:
            continue
        transfers = [
            (r + 1, a, b) for r, subset in enumerate(rounds) for (a, b) in subset
        ]
        for paths in _path_partitions(transfers):
            if len(paths) > len(chains):
                continue
            _assign_paths(
                dec, P, S, g, L, paths, rounds, root_plan, avail, best, units,
            )


def _assign_paths(
    dec, P, S, g, L, paths, rounds, root_plan, avail, best, units,
):
    chains = list(dec.chains)
    root = dec.root

    used: Set[int] = set()
    base = [[0] * P for _ in range(S)]
    if root:
        base[0][0] += 1
    placements: List[Tuple[int, Tuple[int, ...], List, Tuple[int, ...]]] = []

    def candidates(min_len: int):
        by_len: Dict[int, int] = {}
        for i, c in enumerate(chains):
            if i in used or len(c) < min_len:
                continue
            # equal-length chains are interchangeable: lowest index represents
            if len(c) not in by_len:
                by_len[len(c)] = i
        return list(by_len.values())

    def rec(k: int):
        if k == len(paths):
            _level_and_offer(
                dec, P, S, g, L, base, used, placements, avail, best, units,
                root_plan,
            )
            return
        path = paths[k]
        rnds = [t[0] for t in path]
        procs = [path[0][1]] + [t[2] for t in path]
        for ci in candidates(len(path) + 1):
            chain = chains[ci]
            used.add(ci)
            for comp in _split_compositions(len(chain), S, rnds):
                ok = True
                add: List[Tuple[int, int]] = []
                for s in range(S):
                    if comp[s] == 0:
                        continue
                    seg = 0
                    while seg < len(rnds) and s + 1 > rnds[seg]:
                        seg += 1
                    p = procs[seg]
                    if seg == 0 and s + 1 < avail[p]:
                        ok = False
                        break
                    add.append((s, p - 1))
                if ok:
                    for (s, p) in add:
                        base[s][p] += comp[s]
                    placements.append((ci, comp, path, tuple(procs)))
                    rec(k + 1)
                    placements.pop()
                    for (s, p) in add:
                        base[s][p] -= comp[s]
            used.discard(ci)

    rec(0)


def _level_and_offer(
    dec, P, S, g, L, base, used, placements, avail, best, units, root_plan,
):
    chains = list(dec.chains)
    root = dec.root
    free = [i for i in range(len(chains)) if i not in used]

    # achievable free-load vectors with one representative assignment each
    vectors: Dict[Tuple[int, ...], Tuple] = {tuple([0] * P): ()}
    for i in free:
        ell = len(chains[i])
        nxt: Dict[Tuple[int, ...], Tuple] = {}
        for vec, rep in vectors.items():
            for p in range(P):
                if avail[p + 1] > S:
                    continue
                grown = list(vec)
                grown[p] += ell
                key = tuple(grown)
                if key not in nxt:
                    nxt[key] = rep + ((i, p),)
        vectors = nxt
        if not vectors:
            return

    comm_part = g * units + L * (S - 1)
    for vec, rep in vectors.items():
        total, T = _level_free(base, list(vec), avail[1:], P, S)
        cand = total + comm_part
        if best.cost is not None and cand >= best.cost:
            continue
        built = _build_schedule(
            dec, P, S, base, T, rep, placements, avail, root_plan,
        )
        if built is not None:
            best.offer(cand, S, built[0], built[1])


def _build_schedule(dec, P, S, base, T, rep, placements, avail, root_plan):
    chains = list(dec.chains)
    root = dec.root
    assign: Dict[int, Tuple[Tuple[int, int], ...]] = {}
    comms: Set[Tuple[int, int, int, int]] = set()
    load = [row[:] for row in base]
    if root:
        assign[root] = ((1, 1),)
        for p, (r, snd) in root_plan.items():
            comms.add((root, snd, p, r))

    for (ci, comp, path, procs) in placements:
        chain = chains[ci]
        rnds = [t[0] for t in path]
        pos = 0
        for s in range(S):
            if comp[s] == 0:
                continue
            seg = 0
            while seg < len(rnds) and s + 1 > rnds[seg]:
                seg += 1
            p = procs[seg]
            for v in chain[pos: pos + comp[s]]:
                assign[v] = ((p, s + 1),)
            pos += comp[s]
        cum = 0
        for idx, r in enumerate(rnds):
            cum = sum(comp[:r])
            value = chain[cum - 1]
            comms.add((value, procs[idx], procs[idx + 1], r))

    # whole chains: fill capacity under the leveled profile T
    cap = [[T[s] - load[s][p] for p in range(P)] for s in range(S)]
    for (ci, p) in rep:
        chain = chains[ci]
        pos = 0
        for s in range(avail[p + 1] - 1, S):
            take = min(len(chain) - pos, cap[s][p])
            if take <= 0:
                continue
            for v in chain[pos: pos + take]:
                assign[v] = ((p + 1, s + 1),)
            cap[s][p] -= take
            load[s][p] += take
            pos += take
            if pos == len(chain):
                break
        if pos != len(chain):
            return None
    return assign, frozenset(comms)


def solve_chain(
    dec: ChainDecomposition, P: int, g: int, L: int
) -> Tuple[BspSchedule, int]:
    """Exact minimum BSP cost for a chain DAG (direct singlecast semantics;
    transfers are single chain handoffs, so all four models coincide)."""
    if dec.root is not None:
        raise ChainError("chain solver expects no root; use the connected solver")
    if P > MAX_P:
        raise ChainError(f"P={P} exceeds the limit ({MAX_P})")
    if P < 1:
        raise ChainError("P must be >= 1")
    return _chain_search(dec, P, g, L, DS)


def solve_connected_chain(
    dec: ChainDecomposition,
    P: int,
    g: int,
    L: int,
    model: CommModel = DS,
) -> Tuple[BspSchedule, int]:
    """Exact minimum BSP cost for a connected chain DAG under the given
    communication model; the root may be broadcast or relayed per model."""
    if dec.root is None:
        raise ChainError("connected solver requires a root")
    if P > MAX_P:
        raise ChainError(f"P={P} exceeds the limit ({MAX_P})")
    if P < 1:
        raise ChainError("P must be >= 1")
    return _chain_search(dec, P, g, L, model)
