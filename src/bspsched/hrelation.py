"""Decompose a communication phase into per-slot matchings.

An h-relation (every processor sends <= h and receives <= h values) can always
be realized in exactly h time slots when values are unit size: pad the demand
matrix to an h-regular bipartite multigraph and peel off perfect matchings.
The weighted analogue fails; a fixed counterexample with a non-preemptive
placement checker is provided.
"""

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple


class HRelationError(Exception):
    pass


@dataclass(frozen=True)
class DemandMatrix:
    """P x P matrix of unit send demands; entry (p, q) counts values p -> q."""

    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        P = len(self.entries)
        for row in self.entries:
            if len(row) != P:
                raise HRelationError("matrix must be square")
            if any(x < 0 for x in row):
                raise HRelationError("demands must be nonnegative")
        for p in range(P):
            if self.entries[p][p] != 0:
                raise HRelationError("diagonal must be zero")

    @property
    def P(self) -> int:
        return len(self.entries)

    @property
    def h(self) -> int:
        P = self.P
        if P == 0:
            return 0
        rows = [sum(self.entries[p]) for p in range(P)]
        cols = [sum(self.entries[p][q] for p in range(P)) for q in range(P)]
        return max(max(rows), max(cols))


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


def decompose(matrix: DemandMatrix) -> List[List[Tuple[int, int]]]:
    """Return exactly h slots; each slot is a partial matching of (p1, p2)
    pairs (1-indexed), and the multiset union over slots equals the matrix.

    Padding: senders and receivers below degree h get artificial pairs
    (greedily, in index order) until the multigraph is h-regular; artificial
    pairs are dropped from the output. Each round extracts the
    lexicographically smallest perfect matching by (sender, receiver).
    """
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


def fits_nonpreemptive(
    P: int, transfers: Sequence[Tuple[int, int, int]], horizon: int
) -> bool:
    """Exhaustively test whether weighted transfers (p1, p2, w) can be laid
    out in `horizon` slots with each transfer occupying w consecutive slots,
    senders never overlapping per processor and receivers likewise."""
    send_busy = [set() for _ in range(P + 1)]
    rec_busy = [set() for _ in range(P + 1)]

    order = sorted(range(len(transfers)), key=lambda i: -transfers[i][2])

    def place(idx: int) -> bool:
        if idx == len(transfers):
            return True
        p1, p2, w = transfers[order[idx]]
        for start in range(1, horizon - w + 2):
            slots = set(range(start, start + w))
            if slots & send_busy[p1] or slots & rec_busy[p2]:
                continue
            send_busy[p1] |= slots
            rec_busy[p2] |= slots
            if place(idx + 1):
                return True
            send_busy[p1] -= slots
            rec_busy[p2] -= slots
        return False

    return place(0)


def weighted_counterexample():
    """The fixed weighted instance whose h-relation cost is 4 yet admits no
    non-preemptive 4-slot layout; splitting the weight-3 values into units
    makes it fit. Returns (P, transfers, h, fits_in_h)."""
    P = 4
    transfers = [
        (1, 2, 3),
        (2, 3, 3),
        (3, 1, 3),
        (4, 1, 1),
        (4, 2, 1),
        (4, 3, 1),
    ]
    send = [0] * (P + 1)
    rec = [0] * (P + 1)
    for (p1, p2, w) in transfers:
        send[p1] += w
        rec[p2] += w
    h = max(max(send), max(rec))
    return P, transfers, h, fits_nonpreemptive(P, transfers, h)
