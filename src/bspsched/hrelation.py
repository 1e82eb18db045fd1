"""Decompose a communication phase into per-slot matchings.

An h-relation (every processor sends <= h and receives <= h values) can always
be realized in exactly h time slots when values are unit size: pad the demand
matrix to an h-regular bipartite multigraph and peel off perfect matchings.
`decompose` peels the lexicographically smallest one each round. That
matching changes only when a pair runs out of demand, so it is computed once
per change, at most P² times, each in O(P³), and written out once per
slot: O(P⁵ + h·P) in all, where one matching per slot costs h·O(P⁵).
The weighted analogue fails; a fixed counterexample with a non-preemptive
placement checker is provided.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple


class HRelationError(Exception):
    pass


@dataclass(frozen=True)
class DemandMatrix:
    """P x P matrix of unit send demands; entry (p, q) counts values p -> q.
    entries is kept as a read-only copy, a tuple of row tuples."""

    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))
        P = len(self.entries)
        for row in self.entries:
            if len(row) != P:
                raise HRelationError("matrix must be square")
            if any(x < 0 for x in row):
                raise HRelationError("demands must be nonnegative")
        if any(row[p] for p, row in enumerate(self.entries)):
            raise HRelationError("diagonal must be zero")

    @property
    def P(self) -> int:
        return len(self.entries)

    @property
    def h(self) -> int:
        """Largest row or column sum: the most one processor sends or receives."""
        return max(map(sum, self.entries + tuple(zip(*self.entries))), default=0)


def _augment(mult: List[List[int]], match: List[int], owner: List[int],
             p: int, seen: List[bool]) -> bool:
    """Kuhn's augmenting-path step: give sender p a receiver, moving the
    owners of receivers along one alternating path."""
    for q, x in enumerate(mult[p]):
        if x and not seen[q]:
            seen[q] = True
            if owner[q] < 0 or _augment(mult, match, owner, owner[q], seen):
                match[p], owner[q] = q, p
                return True
    return False


def _lex_min(mult: List[List[int]], match: List[int], owner: List[int]) -> None:
    """Turn the perfect matching into the lexicographically smallest one by
    (sender, receiver), in place. With senders < p fixed, sender p can take
    receiver c < match[p] exactly when owner[c] can hand its receiver along a
    chain of senders > p that ends by taking match[p]; one reverse search
    from match[p] finds every such owner, and the chain is rotated."""
    P = len(match)
    for p in range(P):
        mp, row = match[p], mult[p]
        if not any(row[c] and owner[c] > p for c in range(mp)):
            continue
        via = [-1] * P  # via[r]: the sender whose receiver r takes over
        queue = [p]
        for x in queue:
            c = match[x]
            for r in range(p + 1, P):
                if via[r] < 0 and mult[r][c]:
                    via[r] = x
                    queue.append(r)
        c = next((c for c in range(mp) if row[c] and via[owner[c]] >= 0), None)
        if c is None:
            continue
        r = owner[c]
        match[p], owner[c] = c, p
        while r != p:
            x = via[r]
            c = mp if x == p else match[x]
            match[r], owner[c] = c, r
            r = x


def decompose(matrix: DemandMatrix) -> List[List[Tuple[int, int]]]:
    """Return exactly h slots; each slot is a partial matching of (p1, p2)
    pairs (1-indexed), and the multiset union over slots equals the matrix.

    Padding: each sender below degree h gets artificial pairs, to receivers
    in index order, as many as both still lack, so the multigraph becomes
    h-regular (self-pairs allowed); artificial pairs are dropped from the
    output. Each round extracts the lexicographically smallest perfect
    matching by (sender, receiver) and spends real demand on a pair before
    artificial. That matching depends only on which pairs have demand left,
    so it is found once and emitted k times in a row, k the smallest demand
    left on its pairs; each such block exhausts a pair. So at most P²
    matchings are computed, each in O(P³) (Kuhn completion of the previous
    one, then one O(P²) search per sender), plus O(h·P) to write the slots,
    instead of h·O(P⁵) for a fresh search in every slot.
    """
    P = matrix.P
    h = matrix.h
    real = [list(row) for row in matrix.entries]
    mult = [list(row) for row in matrix.entries]  # real plus artificial
    row_deg = [sum(row) for row in real]
    col_deg = [sum(real[p][q] for p in range(P)) for q in range(P)]
    for p in range(P):
        for q in range(P):
            add = min(h - row_deg[p], h - col_deg[q])
            if add > 0:
                mult[p][q] += add
                row_deg[p] += add
                col_deg[q] += add
        if row_deg[p] < h:
            raise HRelationError("padding failed")  # cannot happen

    match, owner = [-1] * P, [-1] * P
    slots: List[List[Tuple[int, int]]] = []
    while len(slots) < h:
        for p in range(P):
            q = match[p]
            if q >= 0 and not mult[p][q]:
                match[p] = owner[q] = -1
        for p in range(P):
            if match[p] < 0 and not _augment(mult, match, owner, p, [False] * P):
                raise HRelationError("no perfect matching found")  # cannot happen
        _lex_min(mult, match, owner)
        pairs = list(enumerate(match))
        k = min(mult[p][q] for (p, q) in pairs)
        for t in range(k):
            slots.append([(p + 1, q + 1) for (p, q) in pairs if real[p][q] > t])
        for (p, q) in pairs:
            mult[p][q] -= k
            real[p][q] = max(real[p][q] - k, 0)
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
