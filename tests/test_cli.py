import contextlib
import io
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bspsched.cli import MAX_HREL_H, main
from bspsched.dag import MAX_NODES, Dag
from bspsched.ilp import MAX_COLUMNS, emit_ilp, encode_schedule
from bspsched.schedule import BspSchedule

COST_DAG = """9 0
"""

COST_SCHED = """p 1 1
s 1 1
p 2 1
s 2 1
p 3 1
s 3 1
p 4 1
s 4 1
p 5 2
s 5 1
p 6 2
s 6 1
p 7 2
s 7 1
p 8 2
s 8 1
p 9 2
s 9 1
t 1 1 2 1
t 5 2 1 1
t 6 2 1 1
"""

PIPE_DAG = """12 6
1 4
2 5
3 6
7 9
8 10
11 12
"""

PIPE_PARTIAL = """p 1 1
s 1 1
p 2 1
s 2 2
p 3 1
s 3 3
p 4 2
s 4 2
p 5 2
s 5 3
p 6 2
s 6 4
p 7 2
s 7 1
p 8 2
s 8 3
p 9 1
s 9 2
p 10 1
s 10 4
p 11 2
s 11 1
p 12 1
s 12 4
"""


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_bounded(*argv, timeout, max_bytes=None):
    """Run the CLI in a child interpreter that is killed after timeout
    seconds; max_bytes caps its address space, so a runaway allocation
    fails at once instead of filling the machine's memory."""
    def limit():
        if max_bytes:
            resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))

    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "bspsched.cli", *argv], capture_output=True,
        text=True, timeout=timeout, env=dict(os.environ, PYTHONPATH=path),
        preexec_fn=limit,
    )


def test_cost_worked_example(files, capsys):
    dag = files("d.dag", COST_DAG)
    sched = files("s.bsp", COST_SCHED)
    code, out, _ = run(
        capsys, "cost", "--dag", dag, "--sched", sched, "-g", "2", "-L", "1"
    )
    assert code == 0
    assert "superstep work comm" in out
    assert out.strip().endswith("total 5+2g+L = 10")


def test_cost_csv(files, capsys):
    dag = files("d.dag", COST_DAG)
    sched = files("s.bsp", COST_SCHED)
    code, out, _ = run(
        capsys, "cost", "--dag", dag, "--sched", sched, "--csv"
    )
    assert code == 0
    assert "superstep,work,comm" in out
    assert "1,5,2" in out


def test_validate_good_and_bad(files, capsys):
    dag = files("d.dag", "2 1\n1 2\n")
    good = files("good.bsp", "p 1 1\ns 1 1\np 2 1\ns 2 1\n")
    bad = files("bad.bsp", "p 1 1\ns 1 1\np 2 2\ns 2 1\n")
    code, out, _ = run(capsys, "validate", "--dag", dag, "--sched", good)
    assert code == 0 and out.strip() == "valid"
    code, _, err = run(capsys, "validate", "--dag", dag, "--sched", bad)
    assert code == 1 and "invalid" in err


@pytest.mark.parametrize("command", ["validate", "cost"])
def test_repeated_schedule_line_is_domain_error(files, capsys, command):
    # the last line used to win, and validate printed "valid"
    dag = files("d.dag", "2 1\n1 2\n")
    sched = files("s.bsp", "p 1 1\np 1 2\ns 1 1\np 2 2\ns 2 1\ns 2 2\n")
    code, out, err = run(capsys, command, "--dag", dag, "--sched", sched)
    assert code == 1 and out == ""
    assert err.startswith("error: line 2: second 'p' line for node 1 copy 1")


def test_comm_tuple_for_unknown_node_is_domain_error(files, capsys):
    dag = files("d.dag", "4 3\n1 2\n2 3\n3 4\n")
    sched = files("s.bsp", "".join(f"p {v} 1\ns {v} {v}\n" for v in range(1, 5))
                  + "t 99 1 2 1\n")
    for cmd in ("validate", "cost"):
        code, out, err = run(capsys, cmd, "--dag", dag, "--sched", sched,
                             "--model", "ds")
        assert code == 1 and out == ""
        assert err.startswith("error: line 9:") and "99" in err


def test_classify(files, capsys):
    dag = files("d.dag", "3 2\n1 2\n2 3\n")
    code, out, _ = run(capsys, "classify", "--dag", dag)
    assert code == 0
    assert "chain yes" in out
    assert "height 3" in out


def test_gen_round_trips_through_classify(files, capsys, tmp_path):
    out_path = str(tmp_path / "gen.dag")
    code, _, _ = run(
        capsys, "gen", "layered", "--length", "3", "--width", "1",
        "--out", out_path,
    )
    assert code == 0
    code, out, _ = run(capsys, "classify", "--dag", out_path)
    assert code == 0 and "chain yes" in out


def test_gen_stdout_deterministic(capsys):
    code, out1, _ = run(capsys, "gen", "two_minus_eps", "-g", "2", "--k", "1")
    code2, out2, _ = run(capsys, "gen", "two_minus_eps", "-g", "2", "--k", "1")
    assert code == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0].split() == ["12", "15"]


@pytest.mark.parametrize("argv", [
    ("layered", "--length", "100000", "--width", "100"),
    ("two_minus_eps", "--k", "1000000", "-P", "2"),
], ids=["layered", "two_minus_eps"])
def test_gen_above_size_cap_is_domain_error(capsys, argv):
    # the layered DAG has 10^7 nodes and 10^9 edges; it used to be built
    # until memory ran out
    code, out, err = run(capsys, "gen", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and f"limit of {MAX_NODES}" in err


def test_chain_solve_lengths(capsys):
    code, out, _ = run(
        capsys, "chain-solve", "--chains", "4,1,1", "-P", "2", "-g", "1"
    )
    assert code == 0
    assert out.strip().endswith("# cost 4")


def test_chain_solve_longest_chain_at_p3(capsys):
    code, out, _ = run(
        capsys, "chain-solve", "--chains", "20,8,4", "-P", "3", "-g", "2", "-L", "1"
    )
    assert code == 0
    assert out.strip().endswith("# cost 20")


def test_chain_solve_greedy(capsys):
    code, out, _ = run(
        capsys, "chain-solve", "--chains", "4,1,1", "-P", "2", "-g", "1",
        "--greedy",
    )
    assert code == 0
    assert "# cost" in out


def test_chain_solve_requires_one_input(capsys):
    code, _, err = run(capsys, "chain-solve", "-P", "2")
    assert code == 1 and "error" in err


def test_chain_solve_greedy_refuses_rooted_chains(files, capsys):
    dag = files("rooted.dag", "3 2\n1 2\n1 3\n")
    code, out, err = run(capsys, "chain-solve", "--dag", dag, "-P", "2",
                         "--greedy")
    assert code == 1 and out == ""
    assert err == "error: greedy splitter handles pure chain DAGs only\n"


@pytest.mark.parametrize("extra", [(), ("--greedy",)], ids=["exact", "greedy"])
def test_chain_solve_above_node_cap_is_domain_error(capsys, extra):
    # the chains used to be built until memory ran out
    code, out, err = run(capsys, "chain-solve", "--chains", f"{MAX_NODES + 1}",
                         "-P", "2", *extra)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and f"limit of {MAX_NODES}" in err


def test_cs_greedy_picks_middle_superstep(files, capsys):
    dag = files("d.dag", PIPE_DAG)
    partial = files("pt.sched", PIPE_PARTIAL)
    code, out, _ = run(
        capsys, "cs", "greedy2", "--dag", dag, "--partial", partial
    )
    assert code == 0
    assert "t 11 2 1 2" in out.splitlines()


def test_cs_greedy_refuses_duplicated_node(files, capsys):
    # node 1's first copy lies on the processor that needs it from the other
    dag = files("d.dag", "2 1\n1 2\n")
    partial = files("pt.sched", "p 1 1 1\ns 1 3 1\np 1 2 2\ns 1 1 2\np 2 1\ns 2 2\n")
    code, out, err = run(capsys, "cs", "greedy2", "--dag", dag, "--partial", partial)
    assert code == 1 and out == ""
    assert "single-copy" in err and "Traceback" not in err


@pytest.mark.parametrize("method", ["eager", "lazy", "brute"])
def test_cs_sends_from_a_copy_off_the_target(files, capsys, method):
    # node 1's first copy lies on p1, which needs it; its copy on p2 sends
    dag = files("d.dag", "2 1\n1 2\n")
    partial = files("pt.sched", "p 1 1 1\ns 1 3 1\np 1 2 2\ns 1 1 2\np 2 1\ns 2 2\n")
    code, out, _ = run(capsys, "cs", method, "--dag", dag, "--partial", partial)
    assert code == 0 and out == "t 1 2 1 1\n"


def test_cs_greedy_refuses_communication_weights(files, capsys):
    dag = files("d.dag", "7 6\n2 6\n2 7\n3 6\n4 7\n5 7\n6 7\n"
                         "c 2 2\nc 3 3\nc 6 3\nc 7 3\n")
    partial = files("pt.sched", "".join(
        f"p {v} {p}\ns {v} {s}\n" for v, (p, s) in enumerate(
            [(2, 2), (2, 2), (1, 2), (1, 1), (2, 2), (2, 4), (1, 5)], start=1)))
    code, out, err = run(capsys, "cs", "greedy2", "--dag", dag, "--partial", partial)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "unit communication weights" in err


def test_ilp_emit_and_read(files, capsys, tmp_path):
    dag = files("d.dag", "2 1\n1 2\n")
    lp_path = str(tmp_path / "m.lp")
    code, _, _ = run(
        capsys, "ilp-emit", "--dag", dag, "-P", "2", "--supersteps", "2",
        "--emit", lp_path,
    )
    assert code == 0
    text = open(lp_path).read()
    assert text.startswith("Minimize")
    # hand-built optimal point: both nodes on processor 1, superstep 1
    sol = []
    for line in text.splitlines():
        name = line.strip().split()[0] if line.strip() else ""
        if "_" not in name:
            continue
        val = 0
        if name in ("comp_1_1_1", "comp_2_1_1", "pres_1_1_1", "pres_2_1_1",
                    "pres_1_1_2", "pres_2_1_2", "home_1_1", "home_2_1",
                    "cwork_1"):
            val = 1
        if name == "cwork_1_1":
            val = 2
        sol.append(f"{name} {val}")
    # cwork_1 must reach the superstep maximum of 2
    sol = [s if not s.startswith("cwork_1 ") else "cwork_1 2" for s in sol]
    sol_path = files("m.sol", "\n".join(sol) + "\n")
    code, out, _ = run(
        capsys, "ilp-read", "--dag", dag, "-P", "2", "--supersteps", "2",
        "--solution", sol_path,
    )
    assert code == 0
    assert out.strip().endswith("# cost 2")


EDGE_DAG = "2 1\n1 2\n"


def _edge_solution():
    """Solution lines of the edge DAG at P=1, S=2: both nodes in superstep 1."""
    model = emit_ilp(Dag(2, ((1, 2),)), 1, S=2)
    sched = BspSchedule(1, 1, {1: ((1, 1),), 2: ((1, 1),)})
    values = encode_schedule(model, sched)
    return [f"{name} {values[name]}" for (name, _) in model.variables]


@pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
def test_ilp_read_rejects_non_finite_value(files, capsys, value):
    model = emit_ilp(Dag(2, ((1, 2),)), 1, S=2)
    lines = [f"{name} {value if name == 'comp_1_1_1' else 0}"
             for (name, _) in model.variables]
    assert lines[0].startswith("comp_1_1_1 ")
    dag = files("d.dag", EDGE_DAG)
    sol = files("m.sol", "\n".join(lines) + "\n")
    code, _, err = run(capsys, "ilp-read", "--dag", dag, "-P", "1",
                       "--supersteps", "2", "--solution", sol)
    assert code == 1
    assert err.startswith("error: line 1:")


def test_ilp_read_rejects_out_of_domain_value(files, capsys):
    model = emit_ilp(Dag(1, ()), 1, S=1)
    values = encode_schedule(model, BspSchedule(1, 1, {1: ((1, 1),)}))
    values["pres_1_1_1"] = 5
    lines = [f"{name} {values[name]}" for (name, _) in model.variables]
    dag = files("d.dag", "1 0\n")
    sol = files("m.sol", "\n".join(lines) + "\n")
    code, out, err = run(capsys, "ilp-read", "--dag", dag, "-P", "1",
                         "--supersteps", "1", "--solution", sol)
    assert code == 1
    assert out == ""
    assert err.startswith("error: variable pres_1_1_1 has value 5")


@pytest.mark.parametrize("command", ["ilp-emit", "ilp-read"])
def test_ilp_supersteps_above_column_cap_is_domain_error(files, command):
    # 4.1 million columns: without the cap the model alone needs gigabytes
    dag = files("path4.dag", "4 3\n1 2\n2 3\n3 4\n")
    argv = [command, "--dag", dag, "-P", "2", "--supersteps", "100000"]
    if command == "ilp-read":
        argv += ["--solution", files("empty.sol", "")]
    proc = run_bounded(*argv, timeout=60, max_bytes=2**30)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert f"exceed the limit of {MAX_COLUMNS}" in proc.stderr


_MUTATIONS = ("drop", "duplicate", "abc", "0.5", "inf", "-inf", "nan", "1e400")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, 10**6)),
                min_size=1, max_size=3))
def test_ilp_read_fuzzed_solution_fails_cleanly(mutations):
    lines = _edge_solution()
    for kind, at in mutations:
        i = at % len(lines)
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = lines[i].split()[0] + " " + kind
        if not lines:
            break
    with tempfile.TemporaryDirectory() as tmp:
        dag, sol = Path(tmp) / "d.dag", Path(tmp) / "m.sol"
        dag.write_text(EDGE_DAG)
        sol.write_text("\n".join(lines) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["ilp-read", "--dag", str(dag), "-P", "1",
                         "--supersteps", "2", "--solution", str(sol)])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert out.getvalue().strip().endswith("# cost 2")
    else:
        assert err.getvalue().startswith("error: ")


def test_hrel(files, capsys):
    matrix = files("m.txt", "0 2\n1 0\n")
    code, out, _ = run(capsys, "hrel", "--matrix", matrix)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "h 2"
    assert lines[1].startswith("slot 1:")
    assert len(lines) == 3


# a 6x6 matrix with an empty row and unequal row and column sums, so the
# decomposition pads with artificial pairs, self-pairs included
HREL6 = """0 3 0 1 0 2
1 0 0 0 4 0
0 0 0 0 0 0
2 1 0 0 0 1
0 0 5 0 0 0
1 0 0 2 0 0
"""


def test_hrel_output_is_byte_stable(files, capsys):
    matrix = files("m6.txt", HREL6)
    code, out, _ = run(capsys, "hrel", "--matrix", matrix)
    assert code == 0
    golden = Path(__file__).parent / "data" / "hrel6.txt"
    assert out.encode() == golden.read_bytes()


def test_oracle_subcommand(files, capsys):
    dag = files("d.dag", "2 1\n1 2\n")
    code, out, _ = run(capsys, "oracle", "--dag", dag, "-P", "2")
    assert code == 0
    assert out.strip().endswith("# opt 2")
    code, out, _ = run(
        capsys, "oracle", "--dag", dag, "-P", "2", "--model", "classical"
    )
    assert code == 0
    assert out.strip().endswith("# opt 2")


def test_oracle_budget_exceeded_is_domain_error(files, capsys):
    dag = files("d.dag", "2 1\n1 2\n")
    code, _, err = run(capsys, "oracle", "--dag", dag, "-P", "9")
    assert code == 1 and "error" in err


def test_ratios_csv(capsys):
    code, out, _ = run(
        capsys, "ratios", "layered", "--cell", "length=4;width=2;P=2;g=1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "construction,params,model,opt,ratio"
    assert any(",commdelay,7,7/4" in line for line in lines)


@pytest.mark.parametrize("construction,cell", [
    ("layered", "length=100000;width=3;P=3;g=1"),
    ("two_minus_eps", "g=1;k=100000;P=3"),
])
def test_ratios_skips_oversized_cell_without_building_it(construction, cell):
    proc = run_bounded("ratios", construction, "--cell", cell, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].endswith(",-,skipped,")


@pytest.mark.parametrize("construction,cell", [
    ("layered", "length=-100000;width=-3;P=3;g=1"),
    ("two_minus_eps", "g=0;k=100000;P=3"),
])
def test_ratios_bad_oversized_cell_is_domain_error(capsys, construction, cell):
    code, out, err = run(capsys, "ratios", construction, "--cell", cell)
    assert code == 1 and out == ""
    assert "must be" in err or "requires" in err


@pytest.mark.parametrize("construction,cell", [
    ("layered", "length=2;width=2;P=3;g=1;g=2"),
    ("two_minus_eps", "g=1;k=1;P=2; P =3"),
])
def test_ratios_cell_repeated_key_is_domain_error(capsys, construction, cell):
    # the last value used to win silently
    code, out, err = run(capsys, "ratios", construction, "--cell", cell)
    assert code == 1 and out == ""
    assert err.startswith("error: cell key") and "given twice" in err


def test_ratios_cell_missing_key_is_domain_error(capsys):
    code, out, err = run(capsys, "ratios", "layered", "--cell", "length=4")
    assert code == 1 and out == ""
    assert "error:" in err and "width" in err and "Traceback" not in err


@pytest.mark.parametrize("construction,cell,key", [
    ("layered", "length=2;width=2;P=2;g=1;widht=5", "widht"),
    ("two_minus_eps", "g=1;k=1;P=2;length=3", "length"),
])
def test_ratios_cell_unknown_key_is_domain_error(capsys, construction, cell, key):
    # a misspelt extra key used to pass silently into the params column
    code, out, err = run(capsys, "ratios", construction, "--cell", cell)
    assert code == 1 and out == ""
    assert err == f"error: {construction} cells take no {key}\n"


@pytest.mark.parametrize("argv", [
    ("chain-solve", "--chains", "3,2", "-P", "2", "-g", "-1", "-L", "-1"),
    ("ilp-emit", "--dag", "{dag}", "-P", "2", "--supersteps", "2",
     "-g", "-1", "-L", "-2"),
    ("oracle", "--dag", "{dag}", "-P", "2", "--model", "commdelay", "-g", "-2"),
    ("ratios", "layered", "--cell", "length=2;width=2;P=2;g=-1"),
], ids=lambda argv: argv[0])
def test_negative_g_or_L_is_domain_error(files, capsys, argv):
    dag = files("d.dag", "3 2\n1 2\n2 3\n")
    code, out, err = run(capsys, *(arg.format(dag=dag) for arg in argv))
    assert code == 1 and out == ""
    assert "nonnegative" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("oracle", "--dag", "{dag}", "-P", "0", "--model", "classical"),
    ("oracle", "--dag", "{dag}", "-P", "-1", "--model", "spd"),
    ("oracle", "--dag", "{dag}", "-P", "0"),
    ("ratios", "layered", "--cell", "length=2;width=2;P=0;g=1"),
], ids=["classical-P0", "spd-P-1", "ds-P0", "ratios-P0"])
def test_p_below_one_is_domain_error(files, capsys, argv):
    dag = files("d.dag", "3 2\n1 2\n2 3\n")
    code, out, err = run(capsys, *(arg.format(dag=dag) for arg in argv))
    assert code == 1 and out == ""
    assert "processor count must be >= 1" in err and "Traceback" not in err


@pytest.mark.parametrize("budget", ["max_s=-1", "max_s=0", "max_nodes",
                                    "max_nodes=1,max_nodes=12"])
def test_bad_budget_is_domain_error(files, capsys, monkeypatch, budget):
    # max_s=-1 used to skip every superstep count and print the seed's cost
    dag = files("fork3.dag", "7 6\n1 2\n2 3\n3 4\n1 5\n5 6\n6 7\n")
    monkeypatch.setenv("BSPSCHED_BUDGET", budget)
    code, out, err = run(capsys, "oracle", "--dag", dag, "-P", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: budget field max_")


def test_max_s_below_the_optimum_is_domain_error(files, capsys, monkeypatch):
    # max_s=1 used to print the serial seed's "# opt 7" and exit 0
    dag = files("fork3.dag", "7 6\n1 2\n2 3\n3 4\n1 5\n5 6\n6 7\n")
    argv = ("oracle", "--dag", dag, "-P", "2", "-g", "1")
    monkeypatch.setenv("BSPSCHED_BUDGET", "max_s=1")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: max_s=1") and "Traceback" not in err
    monkeypatch.setenv("BSPSCHED_BUDGET", "max_s=2")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines()[-1] == "# opt 5"


# every solver command that takes a machine size or cost parameter
ORACLE_MODELS = ("ds", "db", "fs", "fb", "maxbsp", "classical", "barrier",
                 "commdelay", "spd")
NUMERIC_COMMANDS = [
    ("oracle", "--dag", "{dag}", "-P", "{P}", "-g", "{g}", "-L", "{L}",
     "--model", model) for model in ORACLE_MODELS
] + [
    ("ratios", "layered", "--cell", "length=2;width=2;P={P};g={g}"),
    ("ratios", "two_minus_eps", "--cell", "g={g};k=1;P={P}"),
    ("chain-solve", "--chains", "2,1", "-P", "{P}", "-g", "{g}", "-L", "{L}"),
    ("chain-solve", "--chains", "2,1", "-P", "{P}", "-g", "{g}", "-L", "{L}",
     "--greedy"),
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(NUMERIC_COMMANDS), st.integers(-2, 3),
       st.integers(-2, 3), st.integers(-2, 3))
@example(NUMERIC_COMMANDS[ORACLE_MODELS.index("classical")], 0, 1, 0)
def test_numeric_options_fail_cleanly(command, P, g, L):
    with tempfile.TemporaryDirectory() as tmp:
        dag = Path(tmp) / "path3.dag"
        dag.write_text("3 2\n1 2\n2 3\n")
        argv = [arg.format(dag=dag, P=P, g=g, L=L) for arg in command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: "), argv


def test_dag_above_node_cap_is_domain_error(files, capsys):
    dag = files("big.dag", f"{MAX_NODES + 1} 0\n")
    code, out, err = run(capsys, "classify", "--dag", dag)
    assert code == 1 and out == ""
    assert err.startswith("error: line 1:")


@pytest.mark.parametrize("text,line", [("0 x\n1 0\n", 1), ("# demands\n0 1\n1 0.5\n", 3)])
def test_hrel_bad_line_names_it(files, capsys, text, line):
    matrix = files("m.txt", text)
    code, out, err = run(capsys, "hrel", "--matrix", matrix)
    assert code == 1 and out == ""
    assert err.startswith(f"error: line {line}: bad matrix line")


def test_hrel_above_slot_cap_is_domain_error(files, capsys):
    matrix = files("m.txt", f"0 {MAX_HREL_H + 1}\n1 0\n")
    code, out, err = run(capsys, "hrel", "--matrix", matrix)
    assert code == 1 and out == ""
    assert err.startswith(f"error: h = {MAX_HREL_H + 1}")


@pytest.mark.parametrize("command", ["validate", "cost"])
def test_schedule_above_cell_cap_is_domain_error(files, capsys, command):
    # a processor number past the cap used to crash cost's per-processor table
    dag = files("d.dag", "1 0\n")
    sched = files("s.bsp", f"p 1 {10**20}\ns 1 1\n")
    code, out, err = run(capsys, command, "--dag", dag, "--sched", sched)
    assert code == 1 and out == ""
    assert err.startswith("error: ")


def _exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith(("error: ", "invalid ", "warning: ")), argv


# mostly small numbers in range; now and then one out of range or far past
# every size cap
_NUM = st.sampled_from([1, 2, 3] * 4 + [0, -1, 4, 10**20]).map(str)
_JUNK = st.lists(
    st.tuples(st.sampled_from(["p", "s", "t", "w", "c", "#", "x", ""]),
              st.lists(_NUM, max_size=5)).map(lambda t: " ".join((t[0], *t[1]))),
    max_size=2)


def _schedule_text(nodes, comms, junk):
    """Lines placing every copy of nodes 1..3, tuple lines and junk lines."""
    lines = []
    for v, copies in enumerate(nodes, start=1):
        for k, (x, y) in enumerate(copies, start=1):
            tag = f" {k}" if k > 1 else ""
            lines += [f"p {v} {x}{tag}", f"s {v} {y}{tag}"]
    return "\n".join(lines + [f"t {' '.join(t)}" for t in comms] + junk)


def _dag_text(n, edges, weights, junk):
    lines = [f"{n} {len(edges)}"] + [" ".join(e) for e in edges]
    return "\n".join(lines + [" ".join(w) for w in weights] + junk)


def _matrix_text(rows, zero_diagonal):
    if zero_diagonal:
        rows = [row[:i] + ["0"] + row[i + 1:] for i, row in enumerate(rows)]
    return "\n".join(", ".join(row) for row in rows)


_SCHEDULE_TEXT = st.builds(
    _schedule_text,
    st.lists(st.lists(st.tuples(_NUM, _NUM), min_size=1, max_size=2),
             min_size=3, max_size=3),
    st.lists(st.tuples(_NUM, _NUM, _NUM, _NUM), max_size=3),
    _JUNK,
)
_DAG_TEXT = st.builds(
    _dag_text,
    _NUM,
    st.lists(st.tuples(_NUM, _NUM), max_size=4),
    st.lists(st.tuples(st.sampled_from("wc"), _NUM, _NUM), max_size=2),
    _JUNK,
)
_MATRIX_TEXT = st.builds(
    _matrix_text,
    st.integers(1, 3).flatmap(
        lambda P: st.lists(st.lists(_NUM, min_size=P, max_size=P + 1),
                           min_size=P, max_size=P)),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_input_text_fails_cleanly(data):
    kind = data.draw(st.sampled_from(["validate", "cost", "classify", "hrel"]))
    with tempfile.TemporaryDirectory() as tmp:
        dag, path = Path(tmp) / "d.dag", Path(tmp) / "input.txt"
        dag.write_text("3 2\n1 2\n2 3\n")
        if kind == "classify":
            path.write_text(data.draw(_DAG_TEXT))
            argv = ["classify", "--dag", str(path)]
        elif kind == "hrel":
            path.write_text(data.draw(_MATRIX_TEXT))
            argv = ["hrel", "--matrix", str(path)]
        else:
            path.write_text(data.draw(_SCHEDULE_TEXT))
            model = data.draw(st.sampled_from(["ds", "db", "fs", "fb"]))
            argv = [kind, "--dag", str(dag), "--sched", str(path), "--model", model]
            if kind == "validate" and data.draw(st.booleans()):
                argv.append("--duplication")
        _exits_cleanly(argv)


# each key the construction reads, now and then left out, plus stray
# entries: unknown, repeated or empty keys, bad values and free text
_CELL_KEYS = {"layered": ("length", "width", "P", "g"), "two_minus_eps": ("g", "k", "P")}
_CELL_ENTRY = st.one_of(
    st.builds("{}{}{}".format,
              st.sampled_from(["length", "width", "P", "g", "k", "x", " P ", ""]),
              st.sampled_from(["=", "=", "=", "", "=="]),
              st.one_of(_NUM, st.sampled_from(["", "a", "1.5", " 2 "]))),
    st.text(max_size=4),
)


@st.composite
def _cell_text(draw, construction):
    entries = [f"{key}={draw(_NUM)}" for key in _CELL_KEYS[construction]
               if draw(st.integers(0, 5))]
    if draw(st.booleans()):
        entries += draw(st.lists(_CELL_ENTRY, min_size=1, max_size=2))
    return ";".join(draw(st.permutations(entries)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cell_text_fails_cleanly(data):
    construction = data.draw(st.sampled_from(sorted(_CELL_KEYS)))
    cells = data.draw(st.lists(_cell_text(construction), min_size=1, max_size=2))
    _exits_cleanly(["ratios", construction]
                   + [arg for cell in cells for arg in ("--cell", cell)])


def test_usage_errors_exit_two(capsys):
    assert main(["cost"]) == 2
    assert main(["not-a-command"]) == 2


def test_missing_file_is_domain_error(capsys):
    code, _, err = run(capsys, "classify", "--dag", "/nonexistent/x.dag")
    assert code == 1 and "error" in err
