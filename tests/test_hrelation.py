import random

import pytest
from hypothesis import given, settings, strategies as st

from bspsched.hrelation import (
    DemandMatrix,
    HRelationError,
    decompose,
    fits_nonpreemptive,
    weighted_counterexample,
)


def check_slots(matrix, slots):
    assert len(slots) == matrix.h
    count = [[0] * matrix.P for _ in range(matrix.P)]
    for slot in slots:
        senders = [p for (p, _) in slot]
        receivers = [q for (_, q) in slot]
        assert len(set(senders)) == len(senders)
        assert len(set(receivers)) == len(receivers)
        for (p, q) in slot:
            count[p - 1][q - 1] += 1
    assert count == [list(row) for row in matrix.entries]


def test_matrix_stores_read_only_copy():
    rows = [[0, 1], [1, 0]]
    m = DemandMatrix(rows)
    rows[0][1] = 7  # the caller's rows are not the matrix's
    assert m.entries == ((0, 1), (1, 0)) and m.h == 1
    with pytest.raises(TypeError):
        m.entries[0][0] = 5
    check_slots(m, decompose(m))


def test_small_example():
    m = DemandMatrix(((0, 2), (1, 0)))
    assert m.h == 2
    check_slots(m, decompose(m))


def test_zero_matrix():
    m = DemandMatrix(((0, 0), (0, 0)))
    assert m.h == 0
    assert decompose(m) == []


def test_permutation_matrix_single_slot():
    m = DemandMatrix(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    slots = decompose(m)
    assert slots == [[(1, 2), (2, 3), (3, 1)]]


def test_diagonal_must_be_zero():
    with pytest.raises(HRelationError):
        DemandMatrix(((1, 0), (0, 0)))


def test_deterministic_output():
    m = DemandMatrix(((0, 3, 1), (2, 0, 2), (0, 1, 0)))
    assert decompose(m) == decompose(m)


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10**6))
def test_random_matrices_decompose(P, seed):
    rng = random.Random(seed)
    entries = tuple(
        tuple(0 if p == q else rng.randrange(7) for q in range(P))
        for p in range(P)
    )
    m = DemandMatrix(entries)
    check_slots(m, decompose(m))


def test_fits_nonpreemptive_simple():
    assert fits_nonpreemptive(2, [(1, 2, 2)], 2)
    assert not fits_nonpreemptive(2, [(1, 2, 2)], 1)
    # two transfers sharing a sender cannot overlap
    assert not fits_nonpreemptive(3, [(1, 2, 2), (1, 3, 2)], 3)
    assert fits_nonpreemptive(3, [(1, 2, 2), (1, 3, 2)], 4)


def test_weighted_counterexample():
    P, transfers, h, fits = weighted_counterexample()
    assert P == 4
    assert h == 4
    assert fits is False
    # the same demands split into unit pieces fit exactly in h slots
    entries = [[0] * P for _ in range(P)]
    for (p1, p2, w) in transfers:
        entries[p1 - 1][p2 - 1] += w
    m = DemandMatrix(tuple(tuple(row) for row in entries))
    assert m.h == h
    check_slots(m, decompose(m))
    # and as unit transfers the non-preemptive packing also succeeds
    units = [(p1, p2, 1) for (p1, p2, w) in transfers for _ in range(w)]
    assert fits_nonpreemptive(P, units, h)
