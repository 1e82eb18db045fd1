import random
import time

import pytest
from hypothesis import given, strategies as st

from bspsched.dag import (
    MAX_NODES,
    Dag,
    DagCycleError,
    DagError,
    classify,
    gen_layered,
    gen_taxonomy_fixture,
    parse_dag,
    random_dag,
    serialize_dag,
)


def test_parse_minimal_chain():
    dag = parse_dag("3 2\n1 2\n2 3\n")
    assert dag.node_count == 3
    assert tuple(dag.edges) == ((1, 2), (2, 3))
    assert dag.w_work(1) == 1 and dag.w_comm(1) == 1


def test_parse_weight_lines():
    dag = parse_dag("3 2\n1 2\n2 3\nw 2 5\nc 3 4\n")
    assert dag.w_work(2) == 5
    assert dag.w_work(1) == 1
    assert dag.w_comm(3) == 4


def test_parse_comments_and_blank_lines():
    dag = parse_dag("# header\n2 1\n\n1 2\n# done\n")
    assert dag.node_count == 2


def test_parse_cycle_rejected():
    with pytest.raises(DagCycleError):
        parse_dag("2 2\n1 2\n2 1\n")


def test_parse_out_of_range_node():
    with pytest.raises(DagError):
        parse_dag("2 1\n1 3\n")


def test_parse_syntax_error_reports_line():
    with pytest.raises(DagError) as err:
        parse_dag("2 1\n1 two\n")
    assert "2" in str(err.value)


def test_duplicate_edge_rejected():
    with pytest.raises(DagError):
        Dag(2, ((1, 2), (1, 2)))


def test_self_loop_rejected():
    with pytest.raises(DagError):
        Dag(2, ((1, 1),))


def test_nonpositive_weight_rejected():
    with pytest.raises(DagError):
        Dag(2, ((1, 2),), work_weight={1: 0})


def test_weights_are_read_only_copies():
    weights = {1: 2}
    dag = Dag(2, ((1, 2),), work_weight=weights, comm_weight={2: 3})
    weights[1] = 0  # the caller's dict is not the DAG's
    assert dag.w_work(1) == 2 and dag.total_work() == 3
    with pytest.raises(TypeError):
        dag.work_weight[1] = 0
    with pytest.raises(TypeError):
        dag.comm_weight[2] = 0
    assert dag == Dag(2, ((1, 2),), work_weight={1: 2}, comm_weight={2: 3})


def test_parse_rejects_node_count_above_cap():
    with pytest.raises(DagError, match="exceed"):
        parse_dag(f"{MAX_NODES + 1} 0\n")
    assert parse_dag("3 0\n").node_count == 3


def test_topo_order_respects_edges():
    dag = parse_dag("4 3\n3 1\n1 2\n3 4\n")
    order = dag.topo_order()
    pos = {v: i for i, v in enumerate(order)}
    assert all(pos[u] < pos[v] for (u, v) in dag.edges)


def test_classify_path_is_chain():
    cls = classify(parse_dag("3 2\n1 2\n2 3\n"))
    assert cls.is_chain
    assert not cls.is_connected_chain
    assert cls.height == 3


def test_classify_connected_chain():
    # v0 feeding two 2-node chains
    dag = Dag(5, ((1, 2), (2, 3), (1, 4), (4, 5)))
    cls = classify(dag)
    assert cls.is_connected_chain
    assert not cls.is_chain
    assert cls.height == 3


def test_classify_star_in_tree():
    dag = Dag(4, ((1, 4), (2, 4), (3, 4)))
    cls = classify(dag)
    assert cls.is_in_tree
    assert cls.height == 2


def test_classify_disjoint_chains():
    dag = Dag(4, ((1, 2), (3, 4)))
    assert classify(dag).is_chain


def test_gen_layered_adjacent_counts():
    dag = gen_layered(2, 2, "adjacent")
    assert dag.node_count == 4
    assert len(dag.edges) == 4


def test_gen_layered_transitive_counts():
    dag = gen_layered(3, 2, "transitive")
    assert dag.node_count == 6
    assert len(dag.edges) == 12


def test_gen_layered_delayed_edges():
    # gap 2 leaves only the (1, 4) layer pair
    dag = gen_layered(4, 2, "delayed", gap=2)
    assert len(dag.edges) == 4
    assert all(u in (1, 2) and v in (7, 8) for (u, v) in dag.edges)


def test_gen_layered_width_one_is_chain():
    for ell in range(1, 6):
        assert classify(gen_layered(ell, 1, "adjacent")).is_chain


def _layered_reference(length, width, variant, gap):
    # every layer pair in order, filtered by the variant's rule
    def node(layer, j):
        return (layer - 1) * width + j

    edges = []
    for i1 in range(1, length + 1):
        for i2 in range(i1 + 1, length + 1):
            if variant == "adjacent" and i2 != i1 + 1:
                continue
            if variant == "delayed" and not (i1 + gap < i2):
                continue
            for j1 in range(1, width + 1):
                for j2 in range(1, width + 1):
                    edges.append((node(i1, j1), node(i2, j2)))
    return tuple(edges)


@pytest.mark.parametrize("variant", ["adjacent", "transitive", "delayed"])
def test_gen_layered_matches_pairwise_reference(variant):
    for length in range(1, 8):
        for width in range(1, 4):
            for gap in range(1, 4):
                dag = gen_layered(length, width, variant, gap)
                assert dag.edges == _layered_reference(length, width, variant, gap)


def test_gen_layered_adjacent_is_linear_in_length():
    start = time.perf_counter()
    dag = gen_layered(10**5, 1, "adjacent")
    assert time.perf_counter() - start < 5.0
    assert len(dag.edges) == 10**5 - 1


GENERATORS = [
    lambda: gen_layered(3, 2, "adjacent"),
    lambda: gen_layered(4, 3, "transitive"),
    lambda: gen_layered(5, 2, "delayed", 2),
    lambda: gen_layered(3, 2, "delayed", 2),  # no layer pair is far enough
    lambda: gen_taxonomy_fixture("fork", length=3),
    lambda: gen_taxonomy_fixture("two_minus_eps", g=2, k=2, p=3),
    lambda: gen_taxonomy_fixture("three_halves", g=2, k0=3),
]


@pytest.mark.parametrize("gen", GENERATORS)
def test_generators_refuse_counts_above_cap(monkeypatch, gen):
    # the counts checked before building are the built DAG's own
    dag = gen()
    cap = max(dag.node_count, len(dag.edges))
    monkeypatch.setattr("bspsched.dag.MAX_NODES", cap)
    assert gen() == dag
    monkeypatch.setattr("bspsched.dag.MAX_NODES", cap - 1)
    with pytest.raises(DagError, match=f"exceed the limit of {cap - 1}"):
        gen()


@pytest.mark.parametrize("gen", [
    lambda: gen_layered(10**5, 100, "adjacent"),  # 10^7 nodes, 10^9 edges
    lambda: gen_layered(2, 1001, "adjacent"),  # 2002 nodes, 1002001 edges
    lambda: gen_layered(10**4, 10, "transitive"),
    lambda: gen_taxonomy_fixture("fork", length=10**20),
    lambda: gen_taxonomy_fixture("two_minus_eps", g=1, k=10**6, p=2),
    lambda: gen_taxonomy_fixture("three_halves", g=10**3, k0=2),
], ids=["layered", "layered-edges", "transitive", "fork", "two_minus_eps",
        "three_halves"])
def test_oversized_generator_is_refused_before_building(gen):
    with pytest.raises(DagError, match=f"exceed the limit of {MAX_NODES}"):
        gen()


def test_fork_fixture_shape():
    dag = gen_taxonomy_fixture("fork", length=3)
    assert dag.node_count == 7
    succ = dag.succ()
    assert sorted(succ[1]) == [2, 5]
    assert classify(dag).is_connected_chain


def test_two_minus_eps_shape():
    dag = gen_taxonomy_fixture("two_minus_eps", g=2, k=1, p=3)
    # p chains of 2k + 2 nodes each, interior nodes carrying work weight g
    assert dag.node_count == 3 * 4
    # chain edges plus 2k cross generations of p edges each
    assert len(dag.edges) == 3 * 3 + 2 * 3
    for v in range(1, dag.node_count + 1):
        i = (v - 1) // 3
        assert dag.w_work(v) == (2 if 1 <= i <= 2 else 1)


def _cross_generations(dag, g, k, p):
    # generation i joins chain position i - 1 to position i + 1; return
    # the chain-index permutation of each generation
    perms = []
    for i in range(1, 2 * k + 1):
        src_pos, dst_pos = i - 1, i + 1
        perm = {}
        for (u, v) in dag.edges:
            iu, ju = divmod(u - 1, p)
            iv, jv = divmod(v - 1, p)
            if iu == src_pos and iv == dst_pos:
                perm[ju + 1] = jv + 1
        perms.append(perm)
    return perms


def test_two_minus_eps_generations_are_chain_permutations():
    g, k, p = 2, 1, 3
    dag = gen_taxonomy_fixture("two_minus_eps", g=g, k=k, p=p)
    for perm in _cross_generations(dag, g, k, p):
        assert sorted(perm) == list(range(1, p + 1))
        assert sorted(perm.values()) == list(range(1, p + 1))


def test_two_minus_eps_generations_do_not_commute():
    # per-superstep relabelings of chains to processors could otherwise make
    # whole generations local and undercut the intended communication cost
    g, k, p = 2, 2, 3
    dag = gen_taxonomy_fixture("two_minus_eps", g=g, k=k, p=p)
    perms = _cross_generations(dag, g, k, p)
    ident = {j: j for j in range(1, p + 1)}
    for perm in perms:
        assert perm != ident
    for a, b in zip(perms, perms[1:]):
        assert a != b
        ab = {j: a[b[j]] for j in b}
        ba = {j: b[a[j]] for j in a}
        assert ab != ba


def test_three_halves_shape():
    g, k0 = 2, 2
    dag = gen_taxonomy_fixture("three_halves", g=g, k0=k0)
    assert dag.node_count == g * (g + 1) * k0


def test_classww_weights():
    dag = gen_taxonomy_fixture("classWW")
    weights = sorted(dag.w_work(v) for v in range(1, dag.node_count + 1))
    assert weights.count(3) == 1
    assert weights.count(2) == 1
    assert weights.count(1) == dag.node_count - 2


def test_recomp_weights():
    dag = gen_taxonomy_fixture("recomp")
    assert dag.node_count == 9
    heavy = [v for v in range(1, 10) if dag.w_work(v) == 2]
    assert len(heavy) == 2


def test_unknown_fixture_rejected():
    with pytest.raises(DagError):
        gen_taxonomy_fixture("nope")


def test_generated_fixtures_round_trip():
    fixtures = [
        gen_taxonomy_fixture("classWW"),
        gen_taxonomy_fixture("recomp"),
        gen_taxonomy_fixture("fork", length=2),
        gen_taxonomy_fixture("two_minus_eps", g=1, k=1, p=2),
        gen_taxonomy_fixture("three_halves", g=2, k0=2),
        gen_layered(3, 2, "adjacent"),
        gen_layered(3, 2, "transitive"),
    ]
    for dag in fixtures:
        text = serialize_dag(dag)
        again = parse_dag(text)
        assert again == dag
        assert serialize_dag(again) == text


@given(st.integers(2, 16), st.integers(0, 10**6))
def test_random_dag_round_trip(n, seed):
    dag = random_dag(n, 0.4, random.Random(seed))
    assert parse_dag(serialize_dag(dag)) == dag
    dag.topo_order()  # acyclic by construction


@given(st.integers(1, 5), st.integers(1, 4))
def test_layered_counts_formulae(ell, k):
    adj = gen_layered(ell, k, "adjacent")
    assert adj.node_count == k * ell
    assert len(adj.edges) == k * k * (ell - 1)
    trans = gen_layered(ell, k, "transitive")
    assert len(trans.edges) == k * k * ell * (ell - 1) // 2
