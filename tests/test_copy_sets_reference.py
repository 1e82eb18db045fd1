"""Differential test: `_copy_sets` against the subset-and-filter rule.

The reference below builds every copy set on distinct processors in
increasing order and keeps those that touch every processor between used + 1
and the highest one they touch. Both exact searches enumerated copy sets
this way; `_copy_sets` must return the same sets in the same order without
building the ones the filter drops.
"""

import itertools

import pytest

from bspsched.oracle import _copy_sets


def reference(P, used, starts):
    opts = []

    def grow(start_p, chosen):
        if chosen:
            touched = {p for (p, _) in chosen}
            hi = max(touched | {used})
            if set(range(used + 1, hi + 1)) <= touched:
                opts.append(tuple(sorted(chosen)))
        if len(chosen) >= P:
            return
        for p in range(start_p, P + 1):
            for s in starts(p):
                grow(p + 1, chosen + [(p, s)])

    grow(1, [])
    return opts


@pytest.mark.parametrize("P", [1, 2, 3, 4])
def test_copy_sets_match_reference(P):
    # zero, one or two slots per processor
    for slots in itertools.product(((), (1,), (2, 3)), repeat=P):
        def starts(p):
            return slots[p - 1]

        for used in range(P + 1):
            assert _copy_sets(P, used, starts) == reference(P, used, starts), (
                slots, used)
