"""Differential test: `decompose` against the per-slot reference.

The reference below is the straightforward form of the decomposition: pad
one unit at a time, then in each of the h rounds pick the lexicographically
smallest perfect matching receiver by receiver, asking a fresh maximum
matching whether the remaining senders can still be matched, and spend real
demand on a pair before artificial padding. The library must return exactly
the same slots in the same order.
"""

import itertools
import random
from typing import List, Set, Tuple

from hypothesis import given, settings, strategies as st

from bspsched.hrelation import DemandMatrix, HRelationError, decompose


def _max_matching_rect(mult: List[List[int]], cols: int) -> int:
    """Maximum matching size: rows of mult against `cols` receivers."""
    match_col = [-1] * cols

    def search(p: int, seen: List[bool]) -> bool:
        for q in range(cols):
            if mult[p][q] > 0 and not seen[q]:
                seen[q] = True
                if match_col[q] == -1 or search(match_col[q], seen):
                    match_col[q] = p
                    return True
        return False

    size = 0
    for p in range(len(mult)):
        if search(p, [False] * cols):
            size += 1
    return size


def reference(matrix: DemandMatrix) -> List[List[Tuple[int, int]]]:
    P = matrix.P
    h = matrix.h
    real = [list(row) for row in matrix.entries]
    art = [[0] * P for _ in range(P)]
    row_deg = [sum(real[p]) for p in range(P)]
    col_deg = [sum(real[p][q] for p in range(P)) for q in range(P)]
    # pad to h-regular (self-pairs allowed among artificial edges)
    for p in range(P):
        while row_deg[p] < h:
            q = min(range(P), key=lambda q: (col_deg[q] >= h, q))
            if col_deg[q] >= h:
                raise HRelationError("padding failed")  # cannot happen
            art[p][q] += 1
            row_deg[p] += 1
            col_deg[q] += 1

    def completable(mult, p_next: int, used: Set[int]) -> bool:
        # can senders p_next..P-1 be perfectly matched into unused receivers?
        sub = [
            [mult[p][q] if q not in used else 0 for q in range(P)]
            for p in range(p_next, P)
        ]
        return _max_matching_rect(sub, P) == P - p_next

    slots: List[List[Tuple[int, int]]] = []
    for _ in range(h):
        mult = [[real[p][q] + art[p][q] for q in range(P)] for p in range(P)]
        chosen: List[Tuple[int, int]] = []
        used: Set[int] = set()
        for p in range(P):
            picked = False
            for q in range(P):
                if mult[p][q] == 0 or q in used:
                    continue
                if completable(mult, p + 1, used | {q}):
                    chosen.append((p, q))
                    used.add(q)
                    picked = True
                    break
            if not picked:
                raise HRelationError("no perfect matching found")  # cannot happen
        slot = []
        for (p, q) in chosen:
            if real[p][q] > 0:
                real[p][q] -= 1
                slot.append((p + 1, q + 1))
            else:
                art[p][q] -= 1
        slots.append(slot)
    return slots


def _matrix(P, cells):
    """P x P matrix with zero diagonal and `cells` off the diagonal, row by row."""
    it = iter(cells)
    return DemandMatrix(tuple(
        tuple(0 if p == q else next(it) for q in range(P)) for p in range(P)
    ))


def test_every_small_matrix():
    for P in range(4):
        for cells in itertools.product(range(3), repeat=P * (P - 1)):
            m = _matrix(P, cells)
            assert decompose(m) == reference(m), m.entries


@st.composite
def sparse_matrices(draw):
    """Mostly-zero rows, so padding fills whole rows and puts artificial
    self-pairs on the diagonal."""
    P = draw(st.integers(2, 7))
    cells = draw(st.lists(
        st.one_of(st.just(0), st.just(0), st.integers(1, 4)),
        min_size=P * (P - 1), max_size=P * (P - 1),
    ))
    quiet = draw(st.sets(st.integers(0, P - 1), max_size=P - 1))
    m = _matrix(P, cells)
    return DemandMatrix(tuple(
        tuple(0 for _ in row) if p in quiet else row
        for p, row in enumerate(m.entries)
    ))


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_sparse_matrices(m):
    assert decompose(m) == reference(m)


def _summed_derangements(P, h, rng):
    m = [[0] * P for _ in range(P)]
    for _ in range(h):
        while True:
            perm = list(range(P))
            rng.shuffle(perm)
            if all(perm[i] != i for i in range(P)):
                break
        for i in range(P):
            m[i][perm[i]] += 1
    return m


def test_seeded_regular_matrices():
    rng = random.Random(7)
    for (P, h) in ((8, 120), (8, 200), (12, 150)):
        m = _summed_derangements(P, h, rng)
        for i in range(0, P, 3):  # break regularity in a few rows
            j = rng.choice([j for j in range(P) if m[i][j]])
            m[i][j] -= 1
        matrix = DemandMatrix(tuple(tuple(row) for row in m))
        assert decompose(matrix) == reference(matrix)
