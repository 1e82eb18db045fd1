import pytest

from bspsched.dag import Dag, gen_layered, gen_taxonomy_fixture
from bspsched.schedule import (
    DS, BspSchedule, MachineParams, ScheduleError, check_validity, cost
)
from bspsched.variants import (
    TimedSchedule,
    check_classical,
    check_commdelay,
    check_maxbsp,
    check_spd,
    convert_spd_to_bsp,
    makespan,
    parse_timed_schedule,
    serialize_timed_schedule,
)


def timed(P, assign, comms=()):
    return TimedSchedule(P, {v: ((p, t),) for v, (p, t) in assign.items()},
                         frozenset(comms))


def test_timed_schedule_stores_read_only_copies():
    assign = {1: [[1, 1]], 2: [(2, 3)]}
    comms = {(1, 1, 2, 2)}
    ts = TimedSchedule(2, assign, comms)
    assign[1][0][0] = 2
    assign[2] = ((1, 1),)
    comms.add((2, 2, 1, 1))
    assert ts.assign == {1: ((1, 1),), 2: ((2, 3),)}
    assert ts.timed_comms == {(1, 1, 2, 2)}
    with pytest.raises(TypeError):
        ts.assign[1] = ((2, 2),)
    with pytest.raises(TypeError):
        ts.assign[1][0][0] = 2
    with pytest.raises(AttributeError):
        ts.timed_comms.add((2, 2, 1, 1))


def test_classical_path_on_one_processor():
    dag = Dag(3, ((1, 2), (2, 3)))
    ts = timed(1, {1: (1, 1), 2: (1, 2), 3: (1, 3)})
    report, ms = check_classical(dag, ts)
    assert report.valid
    assert ms == 3


def test_classical_collision_detected():
    dag = Dag(2, ())
    ts = timed(1, {1: (1, 1), 2: (1, 1)})
    report, _ = check_classical(dag, ts)
    assert not report.valid


def test_classical_weighted_intervals_collide():
    dag = Dag(2, (), work_weight={1: 3})
    ts = timed(1, {1: (1, 1), 2: (1, 3)})
    assert not check_classical(dag, ts)[0].valid
    ts = timed(1, {1: (1, 1), 2: (1, 4)})
    report, ms = check_classical(dag, ts)
    assert report.valid
    assert ms == 4


def test_classical_cross_edge_needs_no_gap():
    dag = Dag(2, ((1, 2),))
    ts = timed(2, {1: (1, 1), 2: (2, 2)})
    assert check_classical(dag, ts)[0].valid


def test_barrier_sync_requires_idle_boundary():
    # the handoff 1 -> 2 could synchronize after slot 1 or 2, but the two
    # weight-2 fillers straddle both boundaries
    dag = Dag(4, ((1, 2),), work_weight={3: 2, 4: 2})
    ts = timed(2, {1: (1, 1), 2: (2, 3), 3: (2, 1), 4: (1, 2)})
    assert not check_classical(dag, ts, barrier_sync=True)[0].valid
    assert check_classical(dag, ts, barrier_sync=False)[0].valid


def test_commdelay_edge_rule():
    dag = Dag(2, ((1, 2),))
    assert not check_commdelay(dag, timed(2, {1: (1, 1), 2: (2, 2)}), 1)[0].valid
    report, ms = check_commdelay(dag, timed(2, {1: (1, 1), 2: (2, 3)}), 1)
    assert report.valid
    assert ms == 3


def test_commdelay_same_processor_needs_no_gap():
    dag = Dag(2, ((1, 2),))
    assert check_commdelay(dag, timed(2, {1: (1, 1), 2: (1, 2)}), 5)[0].valid


def test_commdelay_layered_parallel_spacing():
    ell, g = 3, 1
    dag = gen_layered(ell, 3, "adjacent")
    assign = {}
    for layer in range(ell):
        for j in range(3):
            assign[layer * 3 + j + 1] = (j + 1, 1 + layer * (1 + g))
    report, ms = check_commdelay(dag, timed(3, assign), g)
    assert report.valid
    assert ms == (ell - 1) * (1 + g) + 1


def test_spd_single_transfer():
    dag = Dag(2, ((1, 2),))
    g = 2
    ts = timed(2, {1: (1, 1), 2: (2, 4)}, [(1, 1, 2, 1)])
    report, ms = check_spd(dag, ts, g)
    assert report.valid
    assert ms == 4


def test_spd_transfer_arriving_late_invalid():
    dag = Dag(2, ((1, 2),))
    ts = timed(2, {1: (1, 1), 2: (2, 3)}, [(1, 1, 2, 1)])
    assert not check_spd(dag, ts, 2)[0].valid


def test_spd_send_port_exclusive():
    dag = Dag(4, ((1, 2), (3, 4)))
    ts = timed(
        2,
        {1: (1, 1), 3: (1, 2), 2: (2, 5), 4: (2, 6)},
        [(1, 1, 2, 1), (3, 1, 2, 2)],
    )
    assert not check_spd(dag, ts, 2)[0].valid
    ts2 = timed(
        2,
        {1: (1, 1), 3: (1, 2), 2: (2, 5), 4: (2, 7)},
        [(1, 1, 2, 1), (3, 1, 2, 3)],
    )
    assert check_spd(dag, ts2, 2)[0].valid


def test_spd_fork_schedule_makespan():
    # root plus two paths on two processors: send the root value once
    ell, g = 3, 1
    dag = gen_taxonomy_fixture("fork", length=ell)
    assign = {1: (1, 1)}
    for i in range(ell):
        assign[2 + i] = (1, 2 + i)
        assign[2 + ell + i] = (2, 3 + i)
    ts = timed(2, assign, [(1, 1, 2, 1)])
    report, ms = check_spd(dag, ts, g)
    assert report.valid
    assert ms == ell + g + 1


def test_maxbsp_gap_two_valid():
    dag = Dag(2, ((1, 2),))
    sched = BspSchedule(
        2, 3,
        {1: ((1, 1),), 2: ((2, 3),)},
        frozenset({(1, 1, 2, 2)}),
    )
    report, total = check_maxbsp(dag, sched, MachineParams(2, 0))
    assert report.valid
    assert total == max(1, 0) + max(0, 2) + max(1, 0)


def test_maxbsp_send_in_computing_superstep_invalid():
    dag = Dag(2, ((1, 2),))
    sched = BspSchedule(
        2, 2,
        {1: ((1, 1),), 2: ((2, 2),)},
        frozenset({(1, 1, 2, 1)}),
    )
    assert not check_maxbsp(dag, sched, MachineParams(1, 0))[0].valid


def test_maxbsp_superstep_cost_is_max_form():
    dag = Dag(6, (), work_weight={1: 5})
    sched = BspSchedule(
        2, 2,
        {1: ((1, 1),), **{v: ((2, 1),) for v in range(2, 6)}, 6: ((2, 2),)},
        frozenset({(2, 2, 1, 2), (3, 2, 1, 2)}),
    )
    # superstep 1: work 5; superstep 2: max(work 1, g*2 + L)
    _, total = check_maxbsp(dag, sched, MachineParams(2, 0))
    assert total == 5 + 4
    _, total_lat = check_maxbsp(dag, sched, MachineParams(2, 3))
    assert total_lat == 5 + 7
    _, total_alt = check_maxbsp(dag, sched, MachineParams(2, 3), alt_latency=True)
    assert total_alt == 5 + 4 + 3


def test_convert_spd_windows():
    dag = Dag(2, ((1, 2),))
    g = 2
    ts = timed(2, {1: (1, 1), 2: (2, 4)}, [(1, 1, 2, 1)])
    sched = convert_spd_to_bsp(dag, ts, g)
    assert sched.assign[1] == ((1, 1),)
    assert sched.assign[2] == ((2, 2),)
    assert (1, 1, 2, 1) in sched.comms
    assert check_validity(dag, sched, DS).valid


@pytest.mark.parametrize("assign, message", [
    ({1: ((1, 1), (2, 1)), 2: ((2, 4),)}, "node 1 has 2 copies without duplication"),
    ({1: ((1, 1),), 2: ((2, 4),), 99: ((1, 5),)}, "node 99 is placed but lies outside the DAG"),
])
def test_convert_spd_applies_placement_rule(assign, message):
    ts = TimedSchedule(processor_count=2, assign=assign, timed_comms=frozenset({(1, 1, 2, 1)}))
    with pytest.raises(ScheduleError, match=message):
        convert_spd_to_bsp(Dag(2, ((1, 2),)), ts, 2)


def test_convert_spd_cost_at_most_double():
    ell, g = 3, 1
    dag = gen_taxonomy_fixture("fork", length=ell)
    assign = {1: (1, 1)}
    for i in range(ell):
        assign[2 + i] = (1, 2 + i)
        assign[2 + ell + i] = (2, 3 + i)
    ts = timed(2, assign, [(1, 1, 2, 1)])
    _, ms = check_spd(dag, ts, g)
    sched = convert_spd_to_bsp(dag, ts, g)
    assert check_validity(dag, sched, DS).valid
    assert cost(dag, sched, DS, MachineParams(g, 0)).cost <= 2 * ms


def test_timed_round_trip():
    dag = Dag(3, ((1, 2),))
    ts = timed(2, {1: (1, 1), 2: (2, 3), 3: (2, 1)}, [(1, 1, 2, 1)])
    text = serialize_timed_schedule(ts)
    again = parse_timed_schedule(text, dag)
    assert again.assign == ts.assign
    assert again.timed_comms == ts.timed_comms
    assert serialize_timed_schedule(again) == text


def test_timed_reader_rejects_unknown_node_with_line_number():
    dag = Dag(2, ((1, 2),))
    text = "p 1 1\nat 1 1\np 2 2\nat 2 3\nt 99 1 2 1\n"
    with pytest.raises(ScheduleError, match="line 5"):
        parse_timed_schedule(text, dag)


def test_timed_reader_rejects_start_time_without_processor():
    dag = Dag(2, ((1, 2),))
    text = "p 1 1\nat 1 1\np 2 2\nat 2 3\nat 2 9 2\n"
    with pytest.raises(ScheduleError, match="line 5"):
        parse_timed_schedule(text, dag)


def test_makespan_uses_weighted_intervals():
    dag = Dag(1, (), work_weight={1: 4})
    assert makespan(dag, timed(1, {1: (1, 2)})) == 5


# Malformed timed and BSP schedules: an entry for a node outside the DAG, a
# duplicated node where the model has no duplication, a transfer of an
# unknown value. Each is a violation, never a pass or an exception.

PHANTOM_DAG = Dag(2, ((1, 2),))


@pytest.mark.parametrize("checker", [
    lambda ts: check_classical(PHANTOM_DAG, ts),
    lambda ts: check_classical(PHANTOM_DAG, ts, barrier_sync=True, duplication=True),
    lambda ts: check_commdelay(PHANTOM_DAG, ts, 1),
    lambda ts: check_spd(PHANTOM_DAG, ts, 1),
], ids=["classical", "barrier-dup", "commdelay", "spd"])
def test_timed_checkers_refuse_node_outside_dag(checker):
    ts = TimedSchedule(2, {1: ((1, 1),), 2: ((1, 2),), 99: ((2, 50),)})
    report, span = checker(ts)
    assert not report.valid
    assert ("assign", 99) in [(rule, subject) for (rule, subject, _) in report.violations]
    assert span == 0  # the phantom's slot 50 is not priced


@pytest.mark.parametrize("checker", [
    lambda sched: (check_validity(PHANTOM_DAG, sched, DS), None),
    lambda sched: check_maxbsp(PHANTOM_DAG, sched, MachineParams(1, 0)),
], ids=["bsp", "maxbsp"])
def test_bsp_checkers_refuse_node_outside_dag(checker):
    sched = BspSchedule(2, 3, {1: ((1, 1),), 2: ((1, 2),), 99: ((2, 3),)})
    report, total = checker(sched)
    assert not report.valid
    assert report.violations[0][:2] == ("assign", 99)
    assert total in (None, 0)  # maxbsp no longer prices the phantom's work


@pytest.mark.parametrize("checker", [
    lambda ts: check_commdelay(PHANTOM_DAG, ts, 1),
    lambda ts: check_spd(PHANTOM_DAG, ts, 1),
], ids=["commdelay", "spd"])
def test_duplicated_node_is_a_violation_without_duplication(checker):
    ts = TimedSchedule(2, {1: ((1, 1), (2, 1)), 2: ((1, 2),)})
    report, span = checker(ts)
    assert not report.valid
    assert report.violations[0] == ("assign", 1, "node 1 has 2 copies without duplication")
    assert span == 2


def test_spd_transfer_of_unknown_value_is_a_bad_send():
    ts = timed(2, {1: (1, 1), 2: (2, 4)}, [(1, 1, 2, 1), (99, 1, 2, 3)])
    report, _ = check_spd(PHANTOM_DAG, ts, 1)
    assert report.violations == [("send", (99, 1, 2, 3), "value 99 not ready on p1 at time 3")]
