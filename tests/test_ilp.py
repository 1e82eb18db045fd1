import hashlib
import itertools
import random
from pathlib import Path

import pytest

from bspsched.commsched import CsInstance, cs_bruteforce
from bspsched.dag import Dag, gen_taxonomy_fixture, random_dag
from bspsched.ilp import (
    IlpError,
    IlpModel,
    check_assignment,
    count_vars_constraints,
    emit_ilp,
    encode_schedule,
    parse_solution,
    read_solution,
    render_lp,
)
from bspsched.oracle import OracleBudget, brute_opt_bsp
from bspsched.schedule import (
    DB,
    DS,
    FB,
    FS,
    MODELS,
    BspSchedule,
    MachineParams,
    ScheduleError,
    check_validity,
    cost,
)

DATA = Path(__file__).parent / "data"

PATH4 = Dag(4, ((1, 2), (2, 3), (3, 4)))
DIAMOND = Dag(4, ((1, 2), (1, 3), (2, 4), (3, 4)))


def test_db_example_counts():
    model = emit_ilp(PATH4, 2, S=2, model=DB)
    binaries = sum(1 for (_, k) in model.variables if k[0] == "binary")
    generals = sum(1 for (_, k) in model.variables if k[0] == "general")
    # comp 16 + pres 16 + sent 16 + rec 16 + home 8 + used 2
    assert binaries == 74
    assert generals == 16


def test_counts_match_emitted_model():
    for dag in (PATH4, DIAMOND, Dag(1, ()), Dag(5, ((1, 5), (2, 5)))):
        for P in (1, 2, 3):
            for S in (1, 2, 3):
                for model in MODELS.values():
                    built = emit_ilp(dag, P, S=S, model=model)
                    built.check()
                    want = count_vars_constraints(dag, P, S, model)
                    assert (len(built.variables), len(built.constraints)) == want


def test_counts_match_module_docstring_formula():
    # 6 nodes, 6 edges, P=2, S=4: the common variables include crec_s_p (3PS)
    dag = Dag(6, ((1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 6)))
    n, P, S = 6, 2, 4
    common = 2 * n * P * S + S + 3 * P * S + 2 * S
    extra = {"ds": 2 * n * P * S + n * P, "db": 2 * n * P * S + n * P,
             "fb": 2 * n * P * S, "fs": n * P * (P - 1) * S}
    for code, model in MODELS.items():
        built = emit_ilp(dag, P, S=S, model=model)
        counts = (len(built.variables), len(built.constraints))
        assert count_vars_constraints(dag, P, S, model) == counts
        assert counts[0] == common + extra[code]
    assert common + extra["ds"] == 240 and common + extra["fb"] == 228


def test_fs_variable_class_quadratic_in_p():
    # free singlecast replaces the sent/rec pairs by per-target variables
    n, S = 4, 2
    for P in (2, 3, 4, 5):
        fs_vars, fs_cons = count_vars_constraints(PATH4, P, S, FS)
        db_vars, db_cons = count_vars_constraints(PATH4, P, S, DB)
        assert fs_vars - db_vars == n * P * (P - 1) * S - (2 * n * P * S + n * P)
    # the per-target families overtake the direct ones once P is large enough
    assert count_vars_constraints(PATH4, 4, S, FS)[1] > count_vars_constraints(
        PATH4, 4, S, DB
    )[1]


def test_invalid_sizes_rejected():
    with pytest.raises(IlpError):
        count_vars_constraints(PATH4, 0, 1, DS)
    with pytest.raises(IlpError):
        emit_ilp(PATH4, 2, S=0)


@pytest.mark.parametrize("g, L", [(-1, 0), (1, -2)])
def test_emit_rejects_negative_g_or_L(g, L):
    with pytest.raises(ScheduleError, match="nonnegative"):
        emit_ilp(PATH4, 2, S=2, g=g, L=L)


def test_default_supersteps_by_shape():
    chain = emit_ilp(PATH4, 2)
    assert chain.S == 2  # chain inputs cap S at P
    general = emit_ilp(DIAMOND, 2)
    assert general.S == 4


def test_render_sections_and_golden():
    model = emit_ilp(PATH4, 2, S=2, g=1, L=0, model=DB)
    text = render_lp(model)
    for section in ("Minimize", "Subject To", "Bounds", "Binaries", "Generals", "End"):
        assert section in text
    assert render_lp(model) == text  # deterministic
    # golden file produced by:
    #   bspsched ilp-emit --dag path4.dag -P 2 --supersteps 2 -g 1 -L 0 --model db
    assert text == (DATA / "path4_db.lp").read_text()


def _lp_grid():
    """288 models: three random DAGs, each plain and weighted, P in 1..3,
    S in {1, 3}, all four models, duplication off and on, (g, L) cycling."""
    gls = itertools.cycle(((1, 0), (2, 3), (0, 1)))
    for n in (1, 3, 5):
        plain = random_dag(n, 0.5, random.Random(5))
        weighted = Dag(n, plain.edges,
                       work_weight={v: v % 3 + 1 for v in range(1, n + 1)},
                       comm_weight={v: (v + 1) % 3 + 1 for v in range(1, n + 1)})
        for dag in (plain, weighted):
            for P in (1, 2, 3):
                for S in (1, 3):
                    for cm in MODELS.values():
                        for duplication in (False, True):
                            g, L = next(gls)
                            yield emit_ilp(dag, P, S=S, g=g, L=L, model=cm,
                                           duplication=duplication)


def test_render_grid_digest():
    # the digest of the LP text as the name-based model rendered it
    digest = hashlib.sha256()
    count = 0
    for model in _lp_grid():
        model.check()
        digest.update(render_lp(model).encode())
        count += 1
    assert count == 288
    assert digest.hexdigest() == (
        "00ff4d288e3e76a94a65943b7ccdcb2248dbea240233faf8830e89a067023d12")


def test_render_rejects_degenerate_model():
    with pytest.raises(IlpError):
        render_lp(IlpModel(variables=[("x", ("binary",))]))


@pytest.mark.parametrize("row, rel", [
    (([-1], [1]), "<="),   # would wrap to the last name
    (([2], [1]), "<="),    # past the name table
    (([0, 1], [1]), "<="),
    (([0], [1]), "<>"),
    (([], []), "<="),
])
def test_hand_built_rows_rejected(row, rel):
    model = IlpModel(variables=[("x", ("binary",)), ("y", ("binary",))],
                     constraints=[("c", row, rel, 0)], objective=([0], [1]))
    with pytest.raises(IlpError):
        model.check()
    with pytest.raises(IlpError):
        render_lp(model)


def test_hand_built_objective_checked():
    model = IlpModel(variables=[("x", ("binary",))],
                     constraints=[("c", ([0], [1]), "<=", 1)], objective=([1], [1]))
    with pytest.raises(IlpError):
        render_lp(model)
    model.objective = ([0], [1])
    assert render_lp(model).startswith("Minimize\n obj: x\nSubject To\n c: x <= 1\n")


def test_parse_solution():
    text = "# solver log\ncomp_1_1_1 1\ncwork_1 0.0\n\nused_1 1\n"
    vals = parse_solution(text)
    assert vals == {"comp_1_1_1": 1.0, "cwork_1": 0.0, "used_1": 1.0}


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
def test_parse_solution_rejects_non_finite(value):
    with pytest.raises(IlpError, match="line 2"):
        parse_solution(f"comp_1_1_1 1\ncwork_1 {value}\n")


def test_parse_solution_rejects_repeated_name():
    # the last value used to win
    with pytest.raises(IlpError, match="line 3: second value for comp_1_1_1"):
        parse_solution("comp_1_1_1 1\ncwork_1 0\ncomp_1_1_1 0\n")


def _single_node_point():
    model = emit_ilp(Dag(1, ()), 1, S=1)
    return model, encode_schedule(model, BspSchedule(1, 1, {1: ((1, 1),)}))


def test_trivial_model_minimum():
    model, assignment = _single_node_point()
    assert check_assignment(model, assignment) == []
    sched, total = read_solution(model, assignment)
    assert total == 1
    assert sched.assign[1] == ((1, 1),)


def _assert_oracle_optimum_encodes(dag, S, model_code, g, L):
    cm = MODELS[model_code]
    model = emit_ilp(dag, 2, S=S, g=g, L=L, model=cm)
    sched, want = brute_opt_bsp(dag, 2, g, L, cm)
    assignment = encode_schedule(model, sched)
    assert check_assignment(model, assignment) == []
    got, total = read_solution(model, assignment)
    assert total == want
    assert check_validity(dag, got, cm).valid
    assert cost(dag, got, cm, MachineParams(g, L)).cost == want
    return want


def test_oracle_optimum_encodes_two_node_edge():
    dag = Dag(2, ((1, 2),))
    for model_code, g, L in (("ds", 1, 0), ("fs", 2, 1), ("db", 1, 1)):
        assert _assert_oracle_optimum_encodes(dag, 2, model_code, g, L) == 2


def test_oracle_optimum_encodes_diamond():
    for model_code in ("ds", "fs"):
        _assert_oracle_optimum_encodes(DIAMOND, 3, model_code, 1, 0)


def test_pinning_reduces_to_communication_choice():
    # forced p2->p1 in superstep 1 and p3->p2 in superstep 2, one flexible
    # value from p3 to p1: relaying beats any direct placement
    dag = Dag(6, ((1, 2), (3, 4), (5, 6)))
    pin = {1: (2, 1), 2: (1, 2), 3: (3, 2), 4: (2, 3), 5: (3, 1), 6: (1, 3)}
    inst = CsInstance(dag, 3, 3, {v: (ps,) for v, ps in pin.items()})
    _, ds_comm = cs_bruteforce(inst, DS)
    _, fs_comm = cs_bruteforce(inst, FS)
    # work profile is identical, so the gap is purely communication
    assert ds_comm - fs_comm == 1


def test_read_solution_rejects_fractional():
    model, assignment = _single_node_point()
    assignment["comp_1_1_1"] = 0.5
    with pytest.raises(IlpError):
        read_solution(model, assignment)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_value_is_fractional(value):
    model, assignment = _single_node_point()
    assignment["comp_1_1_1"] = value
    assert check_assignment(model, assignment) == ["fractional:comp_1_1_1"]
    with pytest.raises(IlpError, match="comp_1_1_1"):
        read_solution(model, assignment)


def test_read_solution_rejects_out_of_domain_value():
    model, assignment = _single_node_point()
    assignment["pres_1_1_1"] = 5
    assert check_assignment(model, assignment) == ["domain:pres_1_1_1"]
    with pytest.raises(IlpError, match="pres_1_1_1 has value 5"):
        read_solution(model, assignment)


def test_read_solution_rejects_unassigned_node():
    model, assignment = _single_node_point()
    assignment["comp_1_1_1"] = 0
    with pytest.raises(IlpError):
        read_solution(model, assignment)


def test_check_assignment_flags_violations():
    model = emit_ilp(Dag(2, ((1, 2),)), 2, S=2, model=DS)
    sched = BspSchedule(2, 2, {1: ((1, 1),), 2: ((2, 2),)}, frozenset({(1, 1, 2, 1)}))
    assignment = encode_schedule(model, sched)
    bad = dict(assignment)
    name = "comp_2_1_1"
    bad[name] = 1 - bad[name]
    assert check_assignment(model, bad)
    assert check_assignment(model, assignment) == []


def test_encode_schedule_rejects_misfit_schedules():
    model = emit_ilp(Dag(2, ((1, 2),)), 2, S=2, model=DS)
    for sched in (BspSchedule(3, 2, {1: ((1, 1),), 2: ((1, 1),)}),
                  BspSchedule(2, 3, {1: ((1, 1),), 2: ((1, 3),)}),
                  BspSchedule(2, 2, {1: ((1, 1),), 2: ((1, 1),), 3: ((1, 2),)})):
        with pytest.raises(IlpError):
            encode_schedule(model, sched)


@pytest.mark.xfail(strict=True, reason="under duplication every copy's "
                   "processor counts as home, so each copy must cover every "
                   "receiver, not only the copy that sends")
def test_duplication_cover_follows_the_sending_copy():
    dag = Dag(5, ((1, 2), (1, 3), (1, 4), (1, 5)))
    sched = BspSchedule(3, 2, {1: ((1, 1), (2, 1)), 2: ((1, 2),), 3: ((2, 2),),
                               4: ((3, 2),), 5: ((1, 2),)}, {(1, 1, 3, 1)})
    assert check_validity(dag, sched, DS, duplication=True).valid
    model = emit_ilp(dag, 3, S=2, model=DS, duplication=True)
    assert check_assignment(model, encode_schedule(model, sched)) == []


def test_duplication_relaxes_assignment():
    model = emit_ilp(Dag(2, ((1, 2),)), 2, S=2, model=DS, duplication=True)
    rels = [rel for (name, _, rel, _) in model.constraints if name.startswith("assign")]
    assert set(rels) == {">="}
    # the duplication optimum is a feasible point of the duplication model,
    # and no worse than the single-copy optimum
    fork = gen_taxonomy_fixture("fork", length=2)
    P, g, L = 2, 1, 0
    for cm in MODELS.values():
        sched, dup_opt = brute_opt_bsp(fork, P, g, L, cm, duplication=True)
        _, single_opt = brute_opt_bsp(fork, P, g, L, cm)
        assert dup_opt <= single_opt
        built = emit_ilp(fork, P, S=sched.superstep_count, g=g, L=L, model=cm,
                         duplication=True)
        assignment = encode_schedule(built, sched)
        assert check_assignment(built, assignment) == []
        _, total = read_solution(built, assignment)
        assert total == dup_opt
