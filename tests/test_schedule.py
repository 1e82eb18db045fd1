import random

import pytest
from hypothesis import given, settings, strategies as st

from bspsched.dag import Dag, parse_dag, random_dag
from bspsched.schedule import (
    DB,
    DS,
    FB,
    FS,
    MAX_CELLS,
    MODELS,
    BspSchedule,
    MachineParams,
    ScheduleError,
    check_validity,
    cost,
    normalize,
    parse_schedule,
    serialize_schedule,
)


def single(assign):
    return {v: ((p, s),) for v, (p, s) in assign.items()}


EDGE2 = Dag(2, ((1, 2),))


def test_same_processor_valid_without_comm():
    sched = BspSchedule(2, 1, single({1: (1, 1), 2: (1, 1)}), frozenset())
    assert check_validity(EDGE2, sched, DS).valid


def test_comm_must_arrive_strictly_before_consumption():
    sched = BspSchedule(
        2, 1, single({1: (1, 1), 2: (2, 1)}), frozenset({(1, 1, 2, 1)})
    )
    assert not check_validity(EDGE2, sched, DS).valid


def test_comm_arriving_in_earlier_superstep_valid():
    sched = BspSchedule(
        2, 2, single({1: (1, 1), 2: (2, 2)}), frozenset({(1, 1, 2, 1)})
    )
    assert check_validity(EDGE2, sched, DS).valid


def test_missing_comm_for_cross_edge_invalid():
    sched = BspSchedule(2, 2, single({1: (1, 1), 2: (2, 2)}), frozenset())
    report = check_validity(EDGE2, sched, DS)
    assert not report.valid
    assert report.violations


def test_relay_valid_in_free_models_only():
    # value made on p3, relayed through p2 to the consumer on p1
    dag = Dag(2, ((1, 2),))
    sched = BspSchedule(
        3,
        3,
        single({1: (3, 1), 2: (1, 3)}),
        frozenset({(1, 3, 2, 1), (1, 2, 1, 2)}),
    )
    assert check_validity(dag, sched, FS).valid
    assert check_validity(dag, sched, FB).valid
    assert not check_validity(dag, sched, DS).valid
    assert not check_validity(dag, sched, DB).valid


def test_direct_send_requires_home_processor():
    dag = Dag(2, ((1, 2),))
    sched = BspSchedule(
        3, 2, single({1: (3, 1), 2: (1, 2)}), frozenset({(1, 2, 1, 1)})
    )
    assert not check_validity(dag, sched, DS).valid
    assert not check_validity(dag, sched, FS).valid  # p2 never had the value


def test_duplication_any_copy_satisfies_edge():
    dag = Dag(2, ((1, 2),))
    sched = BspSchedule(
        2,
        1,
        {1: ((1, 1), (2, 1)), 2: ((2, 1),)},
        frozenset(),
    )
    assert not check_validity(dag, sched, DS, duplication=False).valid
    assert check_validity(dag, sched, DS, duplication=True).valid


def test_send_before_computation_invalid():
    dag = Dag(2, ((1, 2),))
    sched = BspSchedule(
        2, 3, single({1: (1, 2), 2: (2, 3)}), frozenset({(1, 1, 2, 1)})
    )
    assert not check_validity(dag, sched, DS).valid


def test_comm_tuple_for_unknown_node_is_a_bad_send():
    sched = BspSchedule(
        2, 2, single({1: (1, 1), 2: (2, 2)}), frozenset({(1, 1, 2, 1), (99, 1, 2, 1)})
    )
    for model in MODELS.values():
        report = check_validity(EDGE2, sched, model)
        assert [(r, t) for (r, t, _) in report.violations] == [("send", (99, 1, 2, 1))]


def test_cost_rejects_comm_tuple_for_unknown_node():
    sched = BspSchedule(
        2, 2, single({1: (1, 1), 2: (2, 2)}), frozenset({(1, 1, 2, 1), (99, 1, 2, 1)})
    )
    for model in MODELS.values():
        with pytest.raises(ScheduleError, match=r"\(99, 1, 2, 1\)"):
            cost(EDGE2, sched, model, MachineParams(1, 0))


def test_cost_rejects_assignment_for_unknown_node():
    assign = single({1: (1, 1), 2: (2, 2)})
    sched = BspSchedule(2, 2, assign, frozenset({(1, 1, 2, 1)}))
    assert cost(EDGE2, sched, DS, MachineParams(1, 0)).work_total == 2
    assign[99] = ((1, 1),)
    bad = BspSchedule(2, 2, assign, frozenset({(1, 1, 2, 1)}))
    for model in MODELS.values():
        with pytest.raises(ScheduleError, match="node 99"):
            cost(EDGE2, bad, model, MachineParams(1, 0))


def test_parse_rejects_unknown_node_with_line_number():
    text = "p 1 1\ns 1 1\np 2 2\ns 2 2\nt 3 1 2 1\n"
    with pytest.raises(ScheduleError, match="line 5"):
        parse_schedule(text, EDGE2)
    with pytest.raises(ScheduleError, match="line 1"):
        parse_schedule("p 0 1\ns 1 1\np 2 1\ns 2 1\n", EDGE2)


def cost_fixture():
    # one superstep of work 4 and 5; one p1->p2 send and two p2->p1 sends
    dag = Dag(9, ())
    assign = {v: (1, 1) for v in range(1, 5)}
    assign.update({v: (2, 1) for v in range(5, 10)})
    comms = frozenset({(1, 1, 2, 1), (5, 2, 1, 1), (6, 2, 1, 1)})
    return dag, BspSchedule(2, 1, single(assign), comms)


@pytest.mark.parametrize("g", [0, 1, 2, 5])
@pytest.mark.parametrize("L", [0, 1, 3])
def test_cost_worked_superstep(g, L):
    dag, sched = cost_fixture()
    br = cost(dag, sched, DS, MachineParams(g, L))
    assert br.cost == 5 + 2 * g + L
    assert br.work_total == 5
    assert br.comm_total == 2
    assert br.latency_total == L


def test_single_node_cost_no_latency():
    dag = Dag(1, ())
    sched = BspSchedule(1, 1, single({1: (1, 1)}), frozenset())
    br = cost(dag, sched, DS, MachineParams(3, 7))
    assert br.cost == 1
    assert br.latency_total == 0


def test_broadcast_counts_send_once():
    dag = Dag(3, ((1, 2), (1, 3)))
    sched = BspSchedule(
        3,
        2,
        single({1: (1, 1), 2: (2, 2), 3: (3, 2)}),
        frozenset({(1, 1, 2, 1), (1, 1, 3, 1)}),
    )
    p = MachineParams(1, 0)
    assert cost(dag, sched, DS, p).comm_total == 2
    assert cost(dag, sched, DB, p).comm_total == 1


def test_comm_weight_scales_h_relation():
    dag = Dag(2, ((1, 2),), comm_weight={1: 3})
    sched = BspSchedule(
        2, 2, single({1: (1, 1), 2: (2, 2)}), frozenset({(1, 1, 2, 1)})
    )
    assert cost(dag, sched, DS, MachineParams(1, 0)).comm_total == 3


def test_work_weight_sums_per_superstep():
    dag = Dag(2, (), work_weight={1: 4, 2: 2})
    sched = BspSchedule(1, 1, single({1: (1, 1), 2: (1, 1)}), frozenset())
    assert cost(dag, sched, DS, MachineParams(0, 0)).cost == 6


def test_duplicate_copies_both_count_as_work():
    dag = Dag(1, ())
    sched = BspSchedule(2, 1, {1: ((1, 1), (2, 1))}, frozenset())
    assert cost(dag, sched, DS, MachineParams(0, 0)).cost == 1


def test_schedule_stores_read_only_copies():
    assign = {1: ((1, 1),), 2: ((2, 2),)}
    comms = {(1, 1, 2, 1)}
    sched = BspSchedule(2, 2, assign, comms)
    assign[2] = ((1, 1),)  # neither the caller's dict
    comms.add((2, 2, 1, 1))  # nor its set is the schedule's
    assert sched.assign == {1: ((1, 1),), 2: ((2, 2),)}
    assert sched.comms == {(1, 1, 2, 1)}
    with pytest.raises(TypeError):
        sched.assign[1] = ((5, 5),)
    with pytest.raises(AttributeError):
        sched.comms.add((2, 2, 1, 1))
    # inner lists are taken too, as tuples
    inner = [[1, 1]]
    listed = BspSchedule(2, 2, {1: inner, 2: [(2, 2)]}, comms)
    inner[0][0] = 2
    assert listed.assign == sched.assign
    with pytest.raises(TypeError):
        listed.assign[1][0][0] = 2
    assert cost(EDGE2, listed, DS, MachineParams(1, 0)).cost == 3


def test_schedule_rejects_table_above_cap():
    with pytest.raises(ScheduleError, match="exceed"):
        BspSchedule(MAX_CELLS + 1, 1, {1: ((1, 1),)})
    with pytest.raises(ScheduleError, match="exceed"):
        parse_schedule(f"p 1 1\ns 1 {10**20}\n", Dag(1, ()))


def test_normalize_strips_empty_supersteps():
    dag = Dag(2, ((1, 2),))
    sched = BspSchedule(
        2, 4, single({1: (1, 1), 2: (2, 4)}), frozenset({(1, 1, 2, 2)})
    )
    slim = normalize(sched)
    assert slim.superstep_count == 3
    assert check_validity(dag, slim, DS).valid


def test_schedule_round_trip():
    dag, sched = cost_fixture()
    text = serialize_schedule(sched)
    again = parse_schedule(text, dag)
    assert again.assign == sched.assign
    assert again.comms == sched.comms
    assert serialize_schedule(again) == text


def test_schedule_round_trip_with_duplication():
    dag = Dag(2, ((1, 2),))
    sched = BspSchedule(2, 1, {1: ((1, 1), (2, 1)), 2: ((2, 1),)}, frozenset())
    again = parse_schedule(serialize_schedule(sched), dag)
    assert again.assign == sched.assign


def test_structural_checks():
    with pytest.raises(ScheduleError):
        BspSchedule(2, 1, single({1: (1, 1)}), frozenset({(1, 1, 1, 1)}))
    with pytest.raises(ScheduleError):
        BspSchedule(2, 1, single({1: (3, 1)}), frozenset())


def random_valid_schedule(dag, P, rng):
    order = dag.topo_order()
    S = dag.node_count
    pos = {v: i + 1 for i, v in enumerate(order)}
    assign = {v: (rng.randrange(1, P + 1), pos[v]) for v in order}
    comms = set()
    for (u, v) in dag.edges:
        pu, pv = assign[u][0], assign[v][0]
        if pu != pv:
            s = rng.randrange(assign[u][1], assign[v][1])
            comms.add((u, pu, pv, s))
    return BspSchedule(P, S, single(assign), frozenset(comms))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6), st.integers(2, 3),
       st.integers(0, 3), st.integers(0, 2))
def test_random_schedules_valid_and_cost_laws(n, seed, P, g, L):
    rng = random.Random(seed)
    dag = random_dag(n, 0.5, rng)
    sched = random_valid_schedule(dag, P, rng)
    params = MachineParams(g, L)
    for model in MODELS.values():
        assert check_validity(dag, sched, model).valid
        br = cost(dag, sched, model, params)
        # totals decompose exactly
        assert br.cost == br.work_total + g * br.comm_total + br.latency_total
        # work floor
        assert br.cost >= -(-dag.total_work() // P)
    # broadcast never costs more than singlecast on the same comm set
    p1 = MachineParams(1, 0)
    assert cost(dag, sched, DB, p1).cost <= cost(dag, sched, DS, p1).cost
    assert cost(dag, sched, FB, p1).cost <= cost(dag, sched, FS, p1).cost


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.integers(0, 10**6))
def test_dropping_unneeded_tuple_never_increases_cost(n, seed):
    rng = random.Random(seed)
    dag = random_dag(n, 0.5, rng)
    sched = random_valid_schedule(dag, 2, rng)
    params = MachineParams(2, 1)
    base = cost(dag, sched, DS, params).cost
    for t in sched.comms:
        smaller = BspSchedule(
            sched.processor_count,
            sched.superstep_count,
            sched.assign,
            sched.comms - {t},
        )
        assert cost(dag, smaller, DS, params).cost <= base


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_zero_g_zero_l_cost_is_max_work_per_superstep(n, seed):
    rng = random.Random(seed)
    dag = random_dag(n, 0.4, rng)
    sched = random_valid_schedule(dag, 2, rng)
    br = cost(dag, sched, DS, MachineParams(0, 0))
    per_step = {}
    for v, copies in sched.assign.items():
        for (p, s) in copies:
            per_step.setdefault(s, [0, 0])[p - 1] += dag.w_work(v)
    assert br.cost == sum(max(loads) for loads in per_step.values())
