"""Differential test: `greedy_chain` against the block-and-continuation
reference.

The reference below is the splitter spelled out block by block: cut the
concatenated remaining chains into blocks of q nodes, find each block's
continuation of the previous block's chain, scan back for the head of the
chain spilling into the next block, and lay out spill, whole chains and
continuation in that order. The library must return the same superstep
count, assignment and transfers.
"""

import random
from typing import Dict, List, Set, Tuple

from hypothesis import given, settings, strategies as st

from bspsched.chains import ChainDecomposition, ChainError, greedy_chain
from bspsched.schedule import BspSchedule


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def reference(dec: ChainDecomposition, P: int, g: int) -> BspSchedule:
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


def _dec(lengths):
    chains, nxt = [], 1
    for ell in lengths:
        chains.append(tuple(range(nxt, nxt + ell)))
        nxt += ell
    return ChainDecomposition(tuple(chains))


def _same(lengths, P) -> bool:
    """Assert equal schedules; True if a chain is cut after >= 2 nodes."""
    dec = _dec(lengths)
    got, want = greedy_chain(dec, P, 1), reference(dec, P, 1)
    assert (got.superstep_count, got.assign, got.comms) == (
        want.superstep_count, want.assign, want.comms), (lengths, P)
    heads = {c[0] for c in dec.chains}
    return any(v not in heads for (v, _, _, _) in want.comms)


def _partitions(n, top):
    if n == 0:
        yield []
    for k in range(min(n, top), 0, -1):
        for rest in _partitions(n - k, k):
            yield [k] + rest


def test_every_small_partition():
    rng = random.Random(3)
    long_cuts = 0
    for n in range(1, 15):
        for part in _partitions(n, n):
            shuffled = part[:]
            rng.shuffle(shuffled)
            for lengths in (part, part[::-1], shuffled):
                for P in range(1, 6):
                    long_cuts += _same(lengths, P)
    # the reference's backward head scan runs on these
    assert long_cuts


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=8), st.integers(1, 7))
def test_random_chain_lists(lengths, P):
    _same(lengths, P)


def test_bench_chains():
    for P in (2, 3):
        _same([8000, 6000, 4000, 2000], P)
