"""Exact scheduling for chain-structured DAGs, plus the constructive greedy
splitter with its additive communication bound.

A chain DAG is a disjoint union of directed paths; a connected chain DAG adds
one root feeding every path head. For fixed P (up to MAX_P) one exact search
serves both. For each superstep count it enumerates the root's delivery plan,
the transfer set of each superstep boundary and the grouping of those
transfers into the paths of split chains. Each path takes one chain and a
split of it over the supersteps, generated directly with a nonempty segment
on every processor the path visits; the remaining whole chains are leveled
with a closed-form work bound. An S-superstep candidate costs at least
max(ceil(n/P), longest path) + (g + L)(S - 1), and the search skips what
cannot beat its incumbent by that floor. This is not a polynomial bound on
the candidates: inputs whose longest chain is the optimum finish in under a
millisecond at P = 3, while balanced ones grow (four chains of 40 nodes
took about 0.1 s on a 2-core machine with Python 3.11).
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .dag import Dag, classify
from .schedule import BspSchedule, CommModel, DS, MachineParams

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
    own processor, then lay the rest out by McNaughton's wrap-around rule
    with q = ceil(rest/P_left) slots per processor.

    A chain cut at a processor's last slot runs its first part first there
    and its other part last on the next processor, so one barrier per cut
    suffices: every remaining chain is shorter than q.
    """
    if dec.root is not None:
        raise ChainError("greedy splitter handles pure chain DAGs only")
    if P < 1:
        raise ChainError("P must be >= 1")
    rest = sorted(dec.chains, key=len, reverse=True)
    runs = []  # (nodes, processor, local slot of the first node)
    p = 1  # the first processor not yet used
    while p < P and rest and len(rest[0]) >= _ceil_div(
        sum(len(c) for c in rest), P - p + 1
    ):
        runs.append((rest.pop(0), p, 1))
        p += 1

    sends: List[Tuple[int, int, int]] = []  # (value, sender, slot it ends)
    q = _ceil_div(sum(len(c) for c in rest), P - p + 1)
    room, whole = q, []  # whole: p's uncut chains
    for chain in rest:
        if len(chain) <= room:
            whole += chain
            room -= len(chain)
        else:  # cut: `room` nodes start p, the other b end p + 1
            b = len(chain) - room
            sends.append((chain[room - 1], p, room))
            runs.append(([*chain[:room], *whole], p, 1))
            runs.append((chain[room:], p + 1, q - b + 1))
            p, room, whole = p + 1, q - b, []
        if not room:
            runs.append((whole, p, 1))
            p, room, whole = p + 1, q, []
    runs.append((whole, p, 1))

    cuts = sorted({t for _, _, t in sends})
    assign = {
        v: ((p, bisect_left(cuts, t) + 1),)
        for nodes, p, first in runs
        for t, v in enumerate(nodes, start=first)
    }
    comms = [(v, p, p + 1, bisect_left(cuts, t) + 1) for v, p, t in sends]
    return BspSchedule(P, len(cuts) + 1, assign, comms)


# ---------------------------------------------------------------------------
# exact solver machinery


def _round_subsets(P: int):
    """All nonempty sets of (sender, receiver) transfer slots for one
    boundary."""
    pairs = [(a, b) for a in range(1, P + 1) for b in range(1, P + 1) if a != b]
    return [
        subset
        for r in range(1, len(pairs) + 1)
        for subset in combinations(pairs, r)
    ]


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


def _chain_splits(length: int, seg: Sequence[int], first: int):
    """Node counts per superstep for a chain of `length` nodes, in
    lexicographic order, where superstep s + 1 lies in segment seg[s]
    (nondecreasing from 0, one segment per processor of the chain's path),
    every segment is nonempty and segment 0 starts no earlier than superstep
    `first`.

    A count is tried only if the split can still be completed, so the work
    is proportional to the splits yielded, not to all compositions."""
    S = len(seg)
    comp = [0] * S

    def rec(s: int, left: int, filled: bool):
        k = seg[s]
        if s == S - 1:
            # the last superstep takes what is left
            if (left or filled) and (k or not left or s + 1 >= first):
                comp[s] = left
                yield tuple(comp)
            return
        closes = seg[s + 1] != k
        # each later segment still needs a node
        top = 0 if k == 0 and s + 1 < first else left - (seg[-1] - k)
        for c in range(1 if closes and not filled else 0, top + 1):
            comp[s] = c
            yield from rec(s + 1, left - c, (filled or c > 0) and not closes)

    yield from rec(0, length, False)


def _chain_search(
    dec: ChainDecomposition,
    P: int,
    g: int,
    L: int,
    model: CommModel,
) -> Tuple[BspSchedule, int]:
    """Exhaustive search over superstep counts S, root delivery plans,
    per-boundary transfer sets, their grouping into split-chain paths, the
    chain and split of each path, and a leveling of the whole chains.

    The inner functions share the search state: the current S, root `plan`,
    `avail` (first superstep each processor may compute a chain head), the
    communication cost `comm`, the per-superstep load `base` of placed
    nodes, the `used` chains, their `placements` and the incumbent
    `best`."""
    if not 1 <= P <= MAX_P:
        raise ChainError(f"P={P} is outside 1..{MAX_P}")
    MachineParams(g, L)  # raises ScheduleError on a negative g or L
    chains = dec.chains
    root = dec.root
    n = dec.node_count
    # Admissible floor on sum_s T_s of every candidate. Work: the P
    # processors share n nodes, so sum_s T_s >= ceil(n/P). Critical path:
    # within one superstep the nodes of one path sit on one processor, since
    # a handoff to another processor crosses a barrier, so T_s is at least
    # the path's share of superstep s and sum_s T_s at least its length. The
    # longest path is the longest chain, behind the root if there is one.
    # Each of the S - 1 boundaries carries at least one unit, so an
    # S-superstep candidate costs at least work_floor + (g + L)(S - 1).
    longest = max(map(len, chains), default=0) + (1 if root else 0)
    work_floor = max(_ceil_div(n, P), longest)
    # chain transfers per boundary; () leaves the boundary to root deliveries
    options = [()] + _round_subsets(P)

    # incumbent [cost, S, T, rep, placements, plan, avail, base], seeded with
    # the always valid one-processor schedule; built once at the end
    best = [n, 1, [n], tuple((i, 0) for i in range(len(chains))), [], {},
            [1] * (P + 1), [[1 if root else 0] + [0] * (P - 1)]]
    used: Set[int] = set()
    placements: List[Tuple] = []  # (chain, split, rounds, owner) per path

    def root_plans():
        """Delivery round and sender of the root value per processor."""
        others = list(range(2, P + 1))

        def rec(i: int, partial: Dict[int, Tuple[int, int]]):
            if i == len(others):
                yield dict(partial)
                return
            p = others[i]
            yield from rec(i + 1, partial)  # processor never receives the root
            for r in range(1, S):
                senders = [1]
                if model.transfer == "free":
                    senders += [q for q in partial if partial[q][0] + 1 <= r]
                for snd in senders:
                    partial[p] = (r, snd)
                    yield from rec(i + 1, partial)
                    del partial[p]

        yield from rec(0, {})

    def round_cost(r: int, subset) -> int:
        snd = [0] * (P + 1)
        rec = [0] * (P + 1)
        broadcasters: Set[int] = set()  # a broadcast root value pays once
        for (a, b) in subset:
            snd[a] += 1
            rec[b] += 1
        for p, (rr, sender) in plan.items():
            if rr == r:
                rec[p] += 1
                if model.cast == "broadcast":
                    broadcasters.add(sender)
                else:
                    snd[sender] += 1
        for sender in broadcasters:
            snd[sender] += 1
        return max(max(snd), max(rec))

    def configs(r: int, transfers: List[Tuple[int, int, int]], units: int):
        """Transfer sets of boundaries r..S-1 with their summed h-relations;
        every boundary must carry communication."""
        if r == S:
            yield transfers, units
            return
        for subset in options:
            h = round_cost(r, subset)
            if h:
                grown = transfers + [(r, a, b) for (a, b) in subset]
                yield from configs(r + 1, grown, units + h)

    def segments(path: List[Tuple[int, int, int]]):
        """A path's rounds, the segment of each superstep and the processor
        that computes it."""
        rounds = [t[0] for t in path]
        procs = [path[0][1]] + [t[2] for t in path]
        seg = [sum(r < s for r in rounds) for s in range(1, S + 1)]
        return rounds, seg, [procs[k] for k in seg]

    def place(paths, k: int):
        """Give paths[k:] distinct chains and splits, then level the rest."""
        if k == len(paths):
            level()
            return
        rounds, seg, owner = paths[k]
        lengths: Set[int] = set()
        for ci, chain in enumerate(chains):
            # equal-length chains are interchangeable: lowest index represents
            if ci in used or len(chain) <= len(rounds) or len(chain) in lengths:
                continue
            lengths.add(len(chain))
            used.add(ci)
            for comp in _chain_splits(len(chain), seg, avail[owner[0]]):
                for s, c in enumerate(comp):
                    base[s][owner[s] - 1] += c
                # a candidate costs at least comm plus its superstep maxima,
                # which placing more only raises
                if sum(map(max, base)) + comm < best[0]:
                    placements.append((chain, comp, rounds, owner))
                    place(paths, k + 1)
                    placements.pop()
                for s, c in enumerate(comp):
                    base[s][owner[s] - 1] -= c
            used.discard(ci)

    def level():
        """Offer each achievable free-load vector of the unused chains, with
        one representative assignment each, under its leveled profile plus
        the communication cost `comm` of the current transfer sets."""
        vectors: Dict[Tuple[int, ...], Tuple] = {(0,) * P: ()}
        for i, chain in enumerate(chains):
            if i in used:
                continue
            nxt: Dict[Tuple[int, ...], Tuple] = {}
            for vec, rep in vectors.items():
                for p in range(P):
                    if avail[p + 1] > S:
                        continue
                    grown = list(vec)
                    grown[p] += len(chain)
                    nxt.setdefault(tuple(grown), rep + ((i, p),))
            vectors = nxt
        # The least profile: T_s starts at the superstep maxima, and each
        # processor needs the supersteps from its first one on to hold its
        # whole chains in the room its placed nodes leave there. These suffix
        # constraints are nested, so every deficit is repaired at the last
        # superstep, which lies in all of them.
        T = [max(row) for row in base]
        room = [sum(T[a - 1:]) - sum(row[p] for row in base[a - 1:])
                for p, a in enumerate(avail[1:])]
        top = sum(T) + comm
        for vec, rep in vectors.items():
            deficit = max(0, *(v - r for v, r in zip(vec, room)))
            if top + deficit < best[0]:
                best[:] = [top + deficit, S, T[:-1] + [T[-1] + deficit], rep,
                           list(placements), plan, avail, [row[:] for row in base]]

    def build(S, T, rep, placements, plan, avail, base) -> BspSchedule:
        """The schedule of an incumbent: its placements, with the whole
        chains of `rep` filling the capacity left under the profile T, which
        level made large enough for them."""
        assign: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        comms: Set[Tuple[int, int, int, int]] = set()
        if root:
            assign[root] = ((1, 1),)
            for p, (r, snd) in plan.items():
                comms.add((root, snd, p, r))
        for chain, comp, rounds, owner in placements:
            pos = 0
            for s, c in enumerate(comp):
                for v in chain[pos: pos + c]:
                    assign[v] = ((owner[s], s + 1),)
                pos += c
            for r in rounds:
                comms.add((chain[sum(comp[:r]) - 1], owner[r - 1], owner[r], r))
        cap = [[T[s] - base[s][p] for p in range(P)] for s in range(S)]
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
                pos += take
                if pos == len(chain):
                    break
        return BspSchedule(P, S, assign, comms)

    for S in range(1, min(n, (2 * P - 1) if root else P) + 1):
        if work_floor + (g + L) * (S - 1) >= best[0]:
            break
        base = [[0] * P for _ in range(S)]
        if root:
            base[0][0] = 1
        for plan in root_plans() if root else [{}]:
            avail = [1] * (P + 1)  # 1-indexed by processor
            if root:
                # processors that never get the root host continuations only
                for p in range(2, P + 1):
                    avail[p] = plan[p][0] + 1 if p in plan else S + 1
            for transfers, units in configs(1, [], 0):
                comm = g * units + L * (S - 1)
                if work_floor + comm >= best[0]:
                    continue
                for paths in _path_partitions(transfers):
                    if len(paths) <= len(chains):
                        place([segments(path) for path in paths], 0)
    return build(*best[1:]), best[0]


def solve_chain(
    dec: ChainDecomposition, P: int, g: int, L: int
) -> Tuple[BspSchedule, int]:
    """Exact minimum BSP cost for a chain DAG (direct singlecast semantics;
    transfers are single chain handoffs, so all four models coincide)."""
    if dec.root is not None:
        raise ChainError("chain solver expects no root; use the connected solver")
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
    return _chain_search(dec, P, g, L, model)
