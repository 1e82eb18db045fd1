import itertools

import pytest

from bspsched.chains import (
    ChainDecomposition,
    ChainError,
    _chain_splits,
    decompose_chains,
    greedy_chain,
    solve_chain,
    solve_connected_chain,
)
from bspsched.dag import Dag
from bspsched.oracle import OracleBudget, brute_opt_bsp
from bspsched.schedule import (
    DB,
    DS,
    FB,
    FS,
    MachineParams,
    ScheduleError,
    check_validity,
    cost,
)


def chain_dag(lengths, root=False):
    """Disjoint chains of the given lengths, optionally fed by a fresh root."""
    edges = []
    nxt = 2 if root else 1
    chains = []
    for length in lengths:
        ids = list(range(nxt, nxt + length))
        nxt += length
        chains.append(ids)
        edges.extend(zip(ids, ids[1:]))
        if root:
            edges.append((1, ids[0]))
    return Dag(nxt - 1, tuple(edges)), chains


def dec_of(lengths):
    dag, chains = chain_dag(lengths)
    return dag, ChainDecomposition(tuple(tuple(c) for c in chains))


def comm_units(sched):
    return len(sched.comms)


def test_decompose_chain_dag():
    dag, chains = chain_dag([3, 2])
    dec = decompose_chains(dag)
    assert sorted(dec.chains) == sorted(tuple(c) for c in chains)
    assert dec.root is None


def test_decompose_connected_chain():
    dag, chains = chain_dag([2, 2], root=True)
    dec = decompose_chains(dag)
    assert dec.root == 1
    assert sorted(dec.chains) == sorted(tuple(c) for c in chains)


def test_decompose_rejects_general_dag():
    with pytest.raises(ChainError):
        decompose_chains(Dag(3, ((1, 3), (2, 3))))


def test_greedy_single_long_chain():
    dag, dec = dec_of([6])
    sched = greedy_chain(dec, 2, 1)
    assert check_validity(dag, sched, DS).valid
    assert comm_units(sched) == 0
    assert cost(dag, sched, DS, MachineParams(1, 0)).cost == 6


def test_greedy_perfect_split():
    dag, dec = dec_of([3, 3])
    sched = greedy_chain(dec, 2, 1)
    assert check_validity(dag, sched, DS).valid
    assert cost(dag, sched, DS, MachineParams(1, 0)).cost == 3


def test_greedy_bound_and_round_cap():
    cases = [
        ([4, 1, 1], 2, 1),
        ([5, 2, 2, 1], 3, 2),
        ([2, 2, 2, 2, 2], 3, 1),
        ([7, 1], 3, 3),
    ]
    for lengths, P, g in cases:
        dag, dec = dec_of(lengths)
        sched = greedy_chain(dec, P, g)
        assert check_validity(dag, sched, DS).valid
        assert comm_units(sched) <= P - 1
        n = sum(lengths)
        bound = max(-(-n // P), max(lengths)) + (P - 1) * g
        assert cost(dag, sched, DS, MachineParams(g, 0)).cost <= bound


def test_solve_chain_examples():
    dag, dec = dec_of([2, 2])
    assert solve_chain(dec, 2, 1, 0)[1] == 2
    dag, dec = dec_of([4])
    assert solve_chain(dec, 2, 10, 0)[1] == 4
    dag, dec = dec_of([3, 3, 3])
    assert solve_chain(dec, 3, 1, 0)[1] == 3
    dag, dec = dec_of([4, 1, 1])
    assert solve_chain(dec, 2, 1, 0)[1] == 4


def rooted_dec(lengths):
    dag, chains = chain_dag(lengths, root=True)
    return dag, ChainDecomposition(tuple(tuple(c) for c in chains), root=1)


def test_solve_chain_rejects_root_and_large_p():
    _, dec = rooted_dec([2])
    with pytest.raises(ChainError):
        solve_chain(dec, 2, 1, 0)
    _, dec = dec_of([2, 2])
    with pytest.raises(ChainError):
        solve_chain(dec, 4, 1, 0)


@pytest.mark.parametrize("g, L", [(-1, 0), (1, -1)])
def test_chain_solvers_reject_negative_g_or_L(g, L):
    _, dec = dec_of([3, 2])
    with pytest.raises(ScheduleError, match="nonnegative"):
        solve_chain(dec, 2, g, L)
    _, dec = rooted_dec([2, 2])
    with pytest.raises(ScheduleError, match="nonnegative"):
        solve_connected_chain(dec, 2, g, L)


def test_solve_connected_examples():
    dag, dec = rooted_dec([5])
    sched, opt = solve_connected_chain(dec, 2, 1, 0)
    assert opt == 6
    assert check_validity(dag, sched, DS).valid
    dag, dec = rooted_dec([5, 5])
    assert solve_connected_chain(dec, 2, 1, 0)[1] == 7
    dag, dec = rooted_dec([2, 2])
    assert solve_connected_chain(dec, 2, 5, 0)[1] == 5


def test_connected_broadcast_no_worse_than_singlecast():
    for lengths in ([3, 3, 3], [4, 2, 1], [2, 2, 2]):
        dag, _ = chain_dag(lengths, root=True)
        dec = decompose_chains(dag)
        sc = solve_connected_chain(dec, 3, 1, 1, model=DS)[1]
        bc = solve_connected_chain(dec, 3, 1, 1, model=DB)[1]
        fr = solve_connected_chain(dec, 3, 1, 1, model=FS)[1]
        assert bc <= sc
        assert fr <= sc


def partitions(n):
    if n == 0:
        yield []
        return
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                yield [first] + rest


def test_solver_matches_oracle_small():
    budget = OracleBudget(max_nodes=6)
    for n in range(1, 7):
        for lengths in partitions(n):
            dag, dec = dec_of(lengths)
            for g, L in ((1, 0), (1, 1), (3, 0)):
                sched, got = solve_chain(dec, 2, g, L)
                assert check_validity(dag, sched, DS).valid
                assert cost(dag, sched, DS, MachineParams(g, L)).cost == got
                _, want = brute_opt_bsp(dag, 2, g, L, budget=budget)
                assert got == want, (lengths, g, L)
                # proven superstep cap for chain inputs
                from bspsched.schedule import normalize
                assert normalize(sched).superstep_count <= 2


def test_connected_matches_oracle_small():
    budget = OracleBudget(max_nodes=7)
    for lengths in ([1], [2, 1], [2, 2], [3, 1], [3, 2, 1], [2, 2, 2]):
        dag, dec = rooted_dec(lengths)
        for g, L in ((1, 0), (2, 1)):
            sched, got = solve_connected_chain(dec, 2, g, L)
            assert check_validity(dag, sched, DS).valid
            _, want = brute_opt_bsp(dag, 2, g, L, budget=budget)
            assert got == want, (lengths, g, L)


def test_chain_splits_are_the_kept_compositions():
    # reference: every composition in lexicographic order, kept when each
    # segment is nonempty and segment 0 starts no earlier than `first`
    for S in range(1, 5):
        for k in range(S):
            for rounds in itertools.combinations(range(1, S), k):
                seg = [sum(r < s for r in rounds) for s in range(1, S + 1)]
                for length in range(7):
                    for first in range(1, S + 2):
                        want = [
                            comp
                            for comp in itertools.product(range(length + 1), repeat=S)
                            if sum(comp) == length
                            and all(
                                any(c for c, j in zip(comp, seg) if j == i)
                                for i in range(k + 1)
                            )
                            and not any(
                                comp[s] for s in range(S)
                                if seg[s] == 0 and s + 1 < first
                            )
                        ]
                        got = list(_chain_splits(length, seg, first))
                        assert got == want, (length, seg, first)


def test_solvers_match_oracle_p3():
    budget = OracleBudget(max_nodes=8)
    for n in range(1, 9):
        for lengths in partitions(n):
            dag, dec = dec_of(lengths)
            for g, L in ((1, 0), (2, 1)):
                sched, got = solve_chain(dec, 3, g, L)
                assert cost(dag, sched, DS, MachineParams(g, L)).cost == got
                _, want = brute_opt_bsp(dag, 3, g, L, budget=budget)
                assert got == want, (lengths, g, L)
    # g=1, L=0 is left out here: the connected search then runs up to S=5
    for n in range(1, 7):
        for lengths in partitions(n):
            dag, dec = rooted_dec(lengths)
            for model in (DS, DB, FS, FB):
                for g, L in ((2, 1), (1, 1)):
                    sched, got = solve_connected_chain(dec, 3, g, L, model)
                    assert check_validity(dag, sched, model).valid
                    assert cost(dag, sched, model, MachineParams(g, L)).cost == got
                    _, want = brute_opt_bsp(dag, 3, g, L, model, budget)
                    assert got == want, (lengths, model, g, L)


def test_solve_never_beats_greedy_claim():
    for lengths in ([4, 1, 1], [5, 3], [2, 2, 1], [6, 4, 2]):
        dag, dec = dec_of(lengths)
        g = 2
        greedy_cost = cost(
            dag, greedy_chain(dec, 2, g), DS, MachineParams(g, 0)
        ).cost
        assert solve_chain(dec, 2, g, 0)[1] <= greedy_cost
