"""The exact chain search at P = 3 on inputs the oracle cannot reach."""

import random
import time

from bspsched.chains import ChainDecomposition, greedy_chain, solve_chain
from bspsched.dag import Dag
from bspsched.schedule import DS, MachineParams, check_validity, cost


def chain_dag(lengths):
    chains, nxt = [], 1
    for ell in lengths:
        chains.append(tuple(range(nxt, nxt + ell)))
        nxt += ell
    edges = tuple((c[i], c[i + 1]) for c in chains for i in range(len(c) - 1))
    return Dag(nxt - 1, edges), ChainDecomposition(tuple(chains))


def test_longest_chain_inputs_under_2s():
    # each chain fits on its own processor: the optimum is the longest chain,
    # one superstep, which the work floor ceil(n/P) alone cannot prove
    params = MachineParams(2, 1)
    t0 = time.perf_counter()
    for lengths in ((20, 8, 4), (30, 20, 10), (26, 14), (29, 11, 22)):
        dag, dec = chain_dag(lengths)
        sched, got = solve_chain(dec, 3, 2, 1)
        assert got == max(lengths), lengths
        assert check_validity(dag, sched, DS).valid
        assert cost(dag, sched, DS, params).cost == got
    elapsed = time.perf_counter() - t0
    assert elapsed < 2, f"took {elapsed:.2f} s"


def test_optimum_between_floor_and_greedy():
    rng = random.Random(30)
    for _ in range(20):
        lengths = [rng.randint(1, 30) for _ in range(rng.randint(2, 5))]
        g, L = rng.choice(((1, 0), (2, 1), (3, 2)))
        dag, dec = chain_dag(lengths)
        params = MachineParams(g, L)
        sched, got = solve_chain(dec, 3, g, L)
        floor = max(-(-sum(lengths) // 3), max(lengths))
        greedy = cost(dag, greedy_chain(dec, 3, g), DS, params).cost
        assert floor <= got <= greedy, (lengths, g, L)
        assert cost(dag, sched, DS, params).cost == got, (lengths, g, L)
