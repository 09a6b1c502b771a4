"""End-to-end command tests: parsing, streams, determinism, exit codes.

Machine output goes to stdout (or --out) and summaries to stderr; identical
invocations must be byte-identical apart from the measured wall_time_ms
column, which these tests strip before comparing.
"""

import ast
import concurrent.futures
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from collapse_lab import experiments_cli as cli
from collapse_lab import simplicial_oracle, theory
from collapse_lab.collapse_engine import count_dominated_pairs, has_universal_vertex
from collapse_lab.experiments_cli import (
    RECORD_COLUMNS,
    SWEEP_COLUMNS,
    _cell,
    _check_point,
    _collapse_trial,
    _phase_trial,
    main,
)
from collapse_lab.graph_core import AdjacencyGraph, mix_seed, sample_er


def strip_wall_time(csv_text: str) -> str:
    """Drop the trailing wall_time_ms column from every row."""
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.strip().splitlines())


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- smoke ------------------------------------------------------------------------


def test_console_script_and_module_entry():
    exe = shutil.which("collapse-lab")
    assert exe is not None
    a = subprocess.run([exe, "gamma", "--c", "1.5", "--t", "3"], capture_output=True, text=True)
    b = subprocess.run(
        [sys.executable, "-m", "collapse_lab", "gamma", "--c", "1.5", "--t", "3"],
        capture_output=True,
        text=True,
    )
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.startswith("t,gamma,beta\n0,0.0,")


def test_gamma_table_output(capsys):
    code, out, err = run_main(["gamma", "--c", "1.5", "--t", "4"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,gamma,beta"
    assert len(lines) == 6
    assert lines[1].split(",")[1] == "0.0"
    assert "gamma_star=" in err and "c_gamma_star=" in err


def test_gamma_subcritical_no_star_line(capsys):
    code, out, err = run_main(["gamma", "--c", "0.8", "--t", "3"], capsys)
    assert code == 0
    assert "gamma_star" not in err


def test_predict_output(capsys):
    code, out, err = run_main(["predict", "--c", "1.5", "--n", "10000"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == (
        "c,n,t,expected_f0_after_t,predicted_core_f0,epsilon_t,delta_t,eps_lower,eps_upper"
    )
    cells = row.split(",")
    assert cells[0] == "1.5" and cells[1] == "10000"
    assert int(cells[2]) == 11  # rounds_for_epsilon(1.5, 0.01)
    assert "rounds_for_epsilon" in err


def test_predict_at_large_c_stays_within_its_upper_bound(capsys):
    # an absolute error in gamma near exp(-30) once put epsilon_t above eps_upper
    code, out, _ = run_main(["predict", "--c", "30", "--n", "1000", "--format", "json"], capsys)
    assert code == 0
    (row,) = json.loads(out)
    assert 0.0 <= row["epsilon_t"] <= row["eps_upper"]


def test_predict_paper_constants_scale(capsys):
    _, out_a, _ = run_main(["predict", "--c", "1.5", "--t", "2"], capsys)
    _, out_b, _ = run_main(["predict", "--c", "1.5", "--t", "2", "--paper-constants"], capsys)
    row_a = out_a.strip().splitlines()[1].split(",")
    row_b = out_b.strip().splitlines()[1].split(",")
    assert float(row_b[7]) == pytest.approx(float(row_a[7]) * math.exp(3.0), rel=1e-12)
    assert float(row_b[8]) == pytest.approx(float(row_a[8]) * math.exp(3.0), rel=1e-12)
    assert row_a[:7] == row_b[:7]  # expectation columns unaffected


def test_tree_output_and_hist(capsys):
    code, out, _ = run_main(
        ["tree", "--c", "1.5", "--t", "2", "--trials", "300", "--hist"], capsys
    )
    assert code == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 2
    gamma_lines = blocks[0].strip().splitlines()
    assert gamma_lines[0] == "t,gamma_hat,gamma_theory,stderr"
    assert len(gamma_lines) == 3
    hist_lines = blocks[1].strip().splitlines()
    assert hist_lines[0] == "k,pmf_hat,pmf_theory"
    assert len(hist_lines) >= 12  # k = 0..10 at minimum
    # histogram masses sum to 1 over the emitted range
    total = sum(float(line.split(",")[1]) for line in hist_lines[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


GOLDEN_CSV = {
    "gamma": (
        ["gamma", "--c", "1.5", "--t", "3"],
        "t,gamma,beta\n"
        "0,0.0,0.7768698398515702\n"
        "1,0.22313016014842982,0.6881723849643999\n"
        "2,0.3118276150356001,0.6437984574084523\n"
        "3,0.3562015425915476,0.6192825142450279\n",
    ),
    "predict": (
        ["predict", "--c", "1.5", "--n", "10000"],
        "c,n,t,expected_f0_after_t,predicted_core_f0,epsilon_t,delta_t,eps_lower,eps_upper\n"
        "1.5,10000,11,2192.1901413321575,2180.9829640541893,0.0011207177277968439,"
        "0.00042046091427061505,1.7310197530979937e-06,0.008590769109666347\n",
    ),
    "tree": (
        ["tree", "--c", "1.5", "--t", "2", "--trials", "50", "--hist"],
        "t,gamma_hat,gamma_theory,stderr\n"
        "1,0.14,0.22313016014842982,0.04907137658554119\n"
        "2,0.3,0.3118276150356001,0.0648074069840786\n"
        "\n"
        "k,pmf_hat,pmf_theory\n"
        "0,0.3,0.3118276150356001\n"
        "1,0.44,0.36337420403100557\n"
        "2,0.22,0.21172084476881944\n"
        "3,0.04,0.0822397693843959\n"
        "4,0.0,0.02395859867665717\n"
        "5,0.0,0.0055838138151008\n"
        "6,0.0,0.001084474136074586\n"
        "7,0.0,0.00018053469608902154\n"
        "8,0.0,2.629724258218694e-05\n"
        "9,0.0,3.404922438893582e-06\n"
        "10,0.0,3.967772324715403e-07\n",
    ),
}


def _typed_rows(csv_table: str) -> list[dict]:
    """One CSV table as the JSON body's row objects: each cell read as JSON, an empty one as null.

    So integer cells become int, true/false booleans and the other numbers float.
    """
    header, *lines = csv_table.strip().splitlines()

    def typed(cell):
        return json.loads(cell) if cell else None

    return [dict(zip(header.split(","), map(typed, line.split(",")))) for line in lines]


@pytest.mark.parametrize("command", sorted(GOLDEN_CSV))
def test_table_command_golden_bodies(command, capsys):
    # pinned bodies; the JSON body carries the same cells, so it is derived from them
    argv, csv_body = GOLDEN_CSV[command]
    assert run_main(argv + ["--format", "csv"], capsys)[1] == csv_body
    tables = [_typed_rows(block) for block in csv_body.split("\n\n")]
    if command == "tree":
        json_body = {"gamma": tables[0], "histogram": tables[1]}
    else:
        [json_body] = tables
    assert run_main(argv + ["--format", "json"], capsys)[1] == json.dumps(json_body) + "\n"


# trial bodies without the measured wall_time_ms column
GOLDEN_TRIAL_CSV = {
    "collapse-t0": (
        ["collapse", "--n", "300", "--c", "1.5", "--t", "0", "--trials", "3"],
        "300,1.5,0.005,0,0,0,214,36,0,154,0.5064935064935064,6,100,false,"
        "233.06095195547107,65.42948892162568\n"
        "300,1.5,0.005,0,1,16294208416658607535,217,71,0,131,0.48091603053435117,7,83,false,"
        "233.06095195547107,65.42948892162568\n"
        "300,1.5,0.005,0,2,7960286522194355700,237,79,0,142,0.4225352112676056,6,98,false,"
        "233.06095195547107,65.42948892162568\n",
    ),
    "collapse-t3": (
        ["collapse", "--n", "300", "--c", "1.5", "--t", "3", "--trials", "3"],
        "300,1.5,0.005,3,0,0,59,36,3,23,0.6521739130434783,6,100,false,"
        "82.5898526323811,65.42948892162568\n"
        "300,1.5,0.005,3,1,16294208416658607535,84,71,3,13,0.46153846153846156,7,83,false,"
        "82.5898526323811,65.42948892162568\n"
        "300,1.5,0.005,3,2,7960286522194355700,92,79,3,13,0.7692307692307693,6,98,false,"
        "82.5898526323811,65.42948892162568\n",
    ),
    "epoch2": (
        ["epoch2", "--n", "300", "--c", "3", "--eps", "0.02", "--trials", "3"],
        "300,3.0,0.01,3,0,0,206,203,3,3,0.0,7,60,false,"
        "232.02242661437467,231.76413863162446\n"
        "300,3.0,0.01,3,1,16294208416658607535,235,235,3,0,,10,47,false,"
        "232.02242661437467,231.76413863162446\n"
        "300,3.0,0.01,3,2,7960286522194355700,248,248,3,0,,8,39,false,"
        "232.02242661437467,231.76413863162446\n",
    ),
    # p = 0.9 lands on pairs up to the last rows; the dense side samples the complement
    "phase-sparse-p0.9": (
        ["phase-transition", "--side", "sparse", "--p", "0.9", "--n", "60", "--trials", "3"],
        "60,,0.9,,0,0,,,,,,58,8,false,,\n"
        "60,,0.9,,1,16294208416658607535,,,,,,58,23,false,,\n"
        "60,,0.9,,2,7960286522194355700,,,,,,57,3,false,,\n",
    ),
    "phase-dense-lam0.5": (
        ["phase-transition", "--side", "dense", "--lam", "0.5", "--n", "200", "--trials", "3"],
        "200,,0.9867542065836299,,0,0,,,,,,199,,true,,\n"
        "200,,0.9867542065836299,,1,16294208416658607535,,,,,,199,,true,,\n"
        "200,,0.9867542065836299,,2,7960286522194355700,,,,,,199,,true,,\n",
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN_TRIAL_CSV))
def test_trial_command_golden_bodies(command, capsys):
    argv, rows = GOLDEN_TRIAL_CSV[command]
    code, out, _ = run_main(argv + ["--threads", "1"], capsys)
    assert code == 0
    csv_body = ",".join(RECORD_COLUMNS[:-1]) + "\n" + rows
    assert strip_wall_time(out) + "\n" == csv_body
    # the JSON body carries the same cells, a blank one as null; wall_time_ms is the last key
    code, out, _ = run_main(argv + ["--threads", "1", "--format", "json"], capsys)
    assert code == 0
    assert re.sub(r', "wall_time_ms": \d+', "", out) == json.dumps(_typed_rows(csv_body)) + "\n"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_collapse_example_matches_the_program(capsys):
    lines = README.read_text().splitlines()
    start = lines.index("$ collapse-lab collapse --n 2000 --c 1.5 --t 5 --trials 2 --seed 1")
    block = lines[start + 1 : lines.index("```", start)]
    code, out, err = run_main(lines[start].split()[2:], capsys)
    assert code == 0
    assert err.splitlines() == [line for line in block if "," not in line]
    assert strip_wall_time(out) == strip_wall_time("\n".join(line for line in block if "," in line))


def test_readme_usage_lines_parse():
    lines = README.read_text().splitlines()
    start = lines.index("```", lines.index("## Command line usage")) + 1
    usage = lines[start : lines.index("```", start)]
    assert usage
    parser = cli.build_parser()
    for line in usage:
        program, *argv = line.split("#")[0].replace("[--hist]", "--hist").split()
        assert program == "collapse-lab", line
        parser.parse_args(argv)  # a flag the parser does not know exits here


def test_readme_rerun_snippet_matches_its_row(capsys):
    lines = README.read_text().splitlines()
    intro = next(i for i, line in enumerate(lines) if "To re-run one trial" in line)
    start = lines.index("```python", intro)
    exec("\n".join(lines[start + 1 : lines.index("```", start + 1)]), {})
    assert capsys.readouterr().out == "412\n"  # core_f0 of the README row


def test_collapse_csv_shape(capsys):
    code, out, err = run_main(
        ["collapse", "--n", "300", "--c", "1.5", "--t", "3", "--trials", "3"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(RECORD_COLUMNS)
    assert len(lines) == 4
    first = dict(zip(RECORD_COLUMNS, lines[1].split(",")))
    assert first["n"] == "300"
    assert first["trial_index"] == "0"
    assert first["seed"] == str(mix_seed(0, 0))
    assert int(first["core_f0"]) <= int(first["f0_epoch1"])
    assert first["has_universal"] in ("true", "false")
    assert "mean_core_f0=" in err and "predicted_core_f0=" in err


def test_collapse_json_parses(capsys):
    code, out, _ = run_main(
        ["collapse", "--n", "200", "--c", "1.5", "--t", "2", "--trials", "2",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    body = json.loads(out)
    assert len(body) == 2
    assert set(body[0]) == set(RECORD_COLUMNS)
    assert isinstance(body[0]["core_f0"], int)


def test_sweep_n_rows_and_seeds(capsys):
    code, out, err = run_main(
        ["sweep-n", "--c", "1.5", "--n-grid", "200,300", "--t", "2", "--trials", "2"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3
    for j, line in enumerate(lines[1:]):
        row = dict(zip(SWEEP_COLUMNS, line.split(",")))
        assert row["seed"] == str(mix_seed(0, j))
        assert row["c"] == "1.5"
    assert err.count("point n=") == 2
    assert "deviation=" in err


def test_sweep_c_subcritical_point_blank_prediction(capsys):
    code, out, _ = run_main(
        ["sweep-c", "--n", "200", "--c-grid", "0.8,1.5", "--t", "2", "--trials", "2"],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    cols = {name: i for i, name in enumerate(SWEEP_COLUMNS)}
    assert rows[0][cols["predicted_core_f0"]] == ""  # c = 0.8 has no fixed point
    assert rows[1][cols["predicted_core_f0"]] != ""


def test_epoch2_output_and_warning(capsys):
    code, out, err = run_main(
        ["epoch2", "--n", "300", "--c", "1.5", "--eps", "0.002", "--trials", "2"],
        capsys,
    )
    assert code == 0
    assert out.startswith(",".join(RECORD_COLUMNS))
    assert "pooled_steps=" in err and "frac_deleted_within_eps_n=" in err
    assert "warning:" not in err  # 0.002 is below the admissible bound at c=1.5
    code, _, err = run_main(
        ["epoch2", "--n", "300", "--c", "1.5", "--eps", "0.05", "--trials", "2"],
        capsys,
    )
    assert code == 0
    assert "warning: eps=0.05 exceeds the admissible bound" in err


def test_phase_transition_sparse(capsys):
    code, out, err = run_main(
        ["phase-transition", "--n", "200", "--lam", "1.5", "--side", "sparse",
         "--trials", "3"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(RECORD_COLUMNS)
    assert len(lines) == 4
    assert "frac_zero_pairs=" in err
    assert "expected_ordered_pairs=" in err
    # lam form pins p = lam log(n)/n
    assert f"p={1.5 * math.log(200) / 200!r}" in err


def test_tiny_p_trials_run(capsys):
    for argv in (
        ["phase-transition", "--side", "sparse", "--p", "1e-18", "--n", "10", "--trials", "1"],
        ["collapse", "--n", "10", "--c", "1e-17", "--t", "0", "--trials", "1"],
    ):
        assert run_main(argv, capsys)[0] == 0, argv


def test_phase_transition_dense(capsys):
    code, out, err = run_main(
        ["phase-transition", "--n", "200", "--lam", "0.5", "--side", "dense",
         "--trials", "3"],
        capsys,
    )
    assert code == 0
    assert "frac_with_universal=" in err
    assert "mean_universal=" in err
    # the out-of-band universal_count never leaks into the CSV
    assert "universal_count" not in out


def test_phase_transition_explicit_p(capsys):
    code, _, err = run_main(
        ["phase-transition", "--n", "50", "--p", "0.2", "--side", "sparse",
         "--trials", "2"],
        capsys,
    )
    assert code == 0
    assert "p=0.2 " in err


def test_dense_side_matches_explicit_complement():
    n, prob, seed = 30, 0.83, mix_seed(5, 0)
    rec = _phase_trial((n, prob, "dense", 0, seed))
    comp = sample_er(n, 1.0 - prob, seed)
    dense = AdjacencyGraph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if v not in comp.neighbor_view(u)]
    )
    assert rec["max_degree"] == dense.max_degree()
    assert rec["has_universal"] == has_universal_vertex(dense)
    assert rec["universal_count"] == sum(
        1 for v in dense.alive_ids() if dense.degree(v) == n - 1
    )


def set_graph_phase_record(n, prob, side, trial_index, seed):
    """A phase-transition record composed from the set graph, without wall_time_ms."""
    rec = {"n": n, "p": prob, "trial_index": trial_index, "seed": seed}
    if side == "sparse":
        g = sample_er(n, prob, seed)
        rec["max_degree"] = g.max_degree()
        rec["dominated_pairs"] = count_dominated_pairs(g)
        rec["has_universal"] = has_universal_vertex(g)
    else:
        comp = sample_er(n, 1.0 - prob, seed)
        rec["max_degree"] = n - 1 - min(comp.degree(v) for v in comp.alive_ids())
        rec["universal_count"] = comp.alive_count() - comp.non_isolated_count()
        rec["has_universal"] = rec["universal_count"] > 0
    return rec


def test_phase_trial_matches_the_set_graph_composition():
    cases = [(2, p) for p in (0.0, 0.3, 0.5, 0.9, 1.0)]
    cases += [(n, p) for n in (3, 10, 40) for p in (0.0, 1.0)]
    cases += [(30, 0.3), (60, 0.9)]
    for n, prob in cases:
        for side in ("sparse", "dense"):
            for i in range(4):
                seed = mix_seed(17, i)
                rec = _phase_trial((n, prob, side, i, seed))
                del rec["wall_time_ms"]
                assert rec == set_graph_phase_record(n, prob, side, i, seed), (n, prob, side, i)
                assert all(type(v) in (int, float, bool, type(None)) for v in rec.values())


# -- determinism -------------------------------------------------------------------


def test_collapse_csv_deterministic(capsys):
    argv = ["collapse", "--n", "250", "--c", "1.5", "--t", "3", "--trials", "3",
            "--seed", "9"]
    _, out_a, _ = run_main(argv, capsys)
    _, out_b, _ = run_main(argv, capsys)
    assert strip_wall_time(out_a) == strip_wall_time(out_b)


def test_threads_do_not_change_output(capsys):
    base = ["collapse", "--n", "250", "--c", "1.5", "--t", "3", "--trials", "4"]
    _, serial, _ = run_main(base + ["--threads", "1"], capsys)
    _, pooled, _ = run_main(base + ["--threads", "2"], capsys)
    assert strip_wall_time(serial) == strip_wall_time(pooled)


def test_tree_output_deterministic(capsys):
    argv = ["tree", "--c", "1.5", "--t", "2", "--trials", "200"]
    _, out_a, _ = run_main(argv, capsys)
    _, out_b, _ = run_main(argv, capsys)
    assert out_a == out_b


def test_collapse_trial_makes_no_theory_call(monkeypatch):
    """A trial takes its theory columns from the task: the parent computed them once."""
    predictions = _check_point(300, 1.5, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("a trial worker called theory")

    for name, fn in inspect.getmembers(theory, inspect.isfunction):
        if fn.__module__ == theory.__name__ and not name.startswith("_"):
            monkeypatch.setattr(theory, name, refuse)
    rec, _ = _collapse_trial((300, 1.5, 3, 1, mix_seed(0, 1), *predictions))
    golden = GOLDEN_TRIAL_CSV["collapse-t3"][1].splitlines()[1]
    assert ",".join(_cell(rec[col]) for col in RECORD_COLUMNS[:-1]) == golden


def test_row_seed_regenerates_row(capsys):
    _, out, _ = run_main(
        ["collapse", "--n", "250", "--c", "1.5", "--t", "3", "--trials", "3",
         "--seed", "17"],
        capsys,
    )
    lines = out.strip().splitlines()
    row = dict(zip(RECORD_COLUMNS, lines[2].split(",")))  # trial_index 1
    rec, _ = _collapse_trial((250, 1.5, 3, 1, int(row["seed"]), *_check_point(250, 1.5, 3)))
    for col in RECORD_COLUMNS:
        if col == "wall_time_ms":
            continue
        assert _cell(rec[col]) == row[col], col


def test_out_file_and_quiet_stdout(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, out, _ = run_main(["gamma", "--c", "1.5", "--t", "2", "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("t,gamma,beta\n")


# -- validate ------------------------------------------------------------------------


def test_validate_passes_and_is_deterministic(capsys):
    code, out_a, _ = run_main(["validate"], capsys)
    assert code == 0
    assert out_a.strip().splitlines()[-1] == "5/5 checks passed"
    assert out_a.count(": PASS") == 5
    code, out_b, _ = run_main(["validate"], capsys)
    assert out_a == out_b


def test_validate_runs_without_mpmath(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "mpmath", None)  # import mpmath now raises
    ok, detail = cli._check_rate_sandwich()
    assert ok, detail
    code, out, _ = run_main(["validate"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "5/5 checks passed"


def test_validate_catches_broken_oracle(monkeypatch, capsys):
    """Mutation probe: cripple the link oracle and the suite must go red."""
    monkeypatch.setattr(
        simplicial_oracle, "is_dominated_via_link", lambda g, v: False
    )
    code, out, _ = run_main(["validate"], capsys)
    assert code == 1
    assert "oracle equivalence: FAIL" in out
    assert "4/5 checks passed" in out


# -- exit codes and argument errors -----------------------------------------------


def test_exit_codes(capsys, tmp_path):
    assert run_main(["no-such-command"], capsys)[0] == 2
    assert run_main(["collapse"], capsys)[0] == 2  # --c is required
    code, _, err = run_main(["collapse", "--n", "100", "--c", "0.8", "--trials", "1"], capsys)
    assert code == 2
    assert "error: phase budget --t is required when c <= 1" in err
    code, _, err = run_main(
        ["epoch2", "--n", "100", "--c", "1.5", "--eps", "1.5", "--trials", "1"], capsys
    )
    assert code == 2
    assert "error: eps must be in (0, 1)" in err
    code, _, err = run_main(
        ["phase-transition", "--n", "50", "--lam", "1.0", "--p", "0.5",
         "--side", "sparse", "--trials", "1"],
        capsys,
    )
    assert code == 2
    assert "exactly one of --lam or --p" in err
    code, _, err = run_main(
        ["phase-transition", "--n", "50", "--side", "sparse", "--trials", "1"], capsys
    )
    assert code == 2
    code, _, err = run_main(
        ["gamma", "--c", "1.5", "--t", "2", "--out", str(tmp_path / "no" / "dir.csv")],
        capsys,
    )
    assert code == 1
    assert "error: cannot write" in err
    code, _, err = run_main(["tree", "--c", "800", "--t", "1", "--trials", "1"], capsys)
    assert code == 2
    assert "error:" in err
    # c just above 1 needs a gamma table of ~2e8 steps: refused, not built
    for argv in (
        ["predict", "--c", "1.0000001", "--n", "10"],
        ["collapse", "--n", "20", "--c", "1.0000001", "--trials", "1", "--threads", "1"],
        ["sweep-c", "--n", "20", "--c-grid", "1.0000001", "--trials", "1", "--threads", "1"],
        ["epoch2", "--n", "20", "--c", "1.0000001", "--eps", "0.01", "--trials", "1",
         "--threads", "1"],
    ):
        code, _, err = run_main(argv, capsys)
        assert code == 2
        assert "error: gamma table" in err
    code, out, _ = run_main(["predict", "--c", "1.00001", "--n", "10"], capsys)
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == "1581129"
    # a non-finite c is refused before any table is printed
    for argv in (
        ["gamma", "--c", "nan"],
        ["gamma", "--c", "inf"],
        ["tree", "--c", "nan", "--t", "2", "--trials", "3"],
        ["predict", "--c", "inf"],
        ["epoch2", "--c", "nan", "--eps", "0.01", "--n", "100", "--trials", "1"],
    ):
        code, out, err = run_main(argv, capsys)
        assert code == 2, argv
        assert out == "" and err.startswith("error: "), argv
    # exp(+c) overflows: the paper-constant bounds are refused, the corrected ones are not
    code, out, err = run_main(["predict", "--c", "710", "--paper-constants"], capsys)
    assert code == 2
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    # below that, from about c = 703.2, the bounds themselves overflow to inf or nan
    for argv in (
        ["predict", "--c", "704", "--paper-constants"],
        ["predict", "--c", "704", "--t", "2", "--paper-constants", "--format", "json"],
    ):
        code, out, err = run_main(argv, capsys)
        assert code == 2, argv
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
    # exp(-c) underflows: the whole graph is predicted to survive
    code, out, _ = run_main(["predict", "--c", "1e12", "--n", "10000"], capsys)
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == "10000.0"


def test_refusals_come_before_any_trial(monkeypatch, capsys):
    def no_trials(worker, tasks, threads):
        raise AssertionError("a trial ran before the refusal")

    monkeypatch.setattr(cli, "_run_tasks", no_trials)
    for argv in (
        ["collapse", "--c", "1.0000001", "--threads", "2"],
        ["collapse", "--c", "1.5", "--t", "20000000"],
        ["sweep-c", "--c-grid", "1.5,1.0000001"],  # the bad point comes second
        ["sweep-c", "--c-grid", "1.5,0.8"],  # c <= 1 needs --t
    ):
        code, out, err = run_main(argv, capsys)
        assert code == 2, argv
        assert out == "" and err.startswith("error: "), argv
    for argv, message in (
        ("collapse --n 10 --c 11 --t 1", "c=11.0 exceeds n=10, giving p=1.1 > 1"),
        ("collapse --n 0 --c 1.5 --t 1", "vertex count must be positive for c-form, got 0"),
        ("collapse --c -1 --t 1", "mean-degree constant must be >= 0, got -1.0"),
        ("collapse --c nan --t 1", "mean-degree constant must be >= 0, got nan"),
        ("sweep-c --c-grid 1.5,-1 --t 1", "mean-degree constant must be >= 0, got -1.0"),
        ("collapse --c 1.5 --threads 0", "thread count must be >= 1, got 0"),
    ):
        assert run_main(argv.split(), capsys) == (2, "", f"error: {message}\n"), argv


def test_unwritable_out_is_refused_before_any_trial(monkeypatch, capsys, tmp_path):
    def no_trials(worker, tasks, threads):
        raise AssertionError("a trial ran before the refusal")

    monkeypatch.setattr(cli, "_run_tasks", no_trials)
    common = ["collapse", "--n", "200000", "--c", "1.5", "--t", "2", "--trials", "2"]
    plain = tmp_path / "plain.csv"
    plain.write_text("")
    for out in ("/nonexistent/dir/x.csv", str(tmp_path), str(plain / "x.csv"), ""):
        code, _, err = run_main(common + ["--threads", "1", "--out", out], capsys)
        assert code == 1, out
        assert err.startswith(f"error: cannot write {out}"), out
    # the --out check comes before the --threads check
    code, _, err = run_main(common + ["--threads", "0", "--out", "/nonexistent/dir/x.csv"], capsys)
    assert code == 1 and err.startswith("error: cannot write"), err
    # a usage error after the check leaves no file behind
    fresh = tmp_path / "fresh.csv"
    code, _, _ = run_main(["collapse", "--c", "1.0000001", "--out", str(fresh)], capsys)
    assert code == 2
    assert not fresh.exists()


def test_pool_is_capped_at_the_usable_cpus(monkeypatch):
    asked = []

    class InlinePool:  # records the pool size and maps in this process: no process starts
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    tasks = list(range(-50, 50))
    assert cli._run_tasks(abs, tasks, 4096) == [abs(x) for x in tasks]
    assert cli._run_tasks(abs, tasks, 2) == [abs(x) for x in tasks]
    cli._run_tasks(abs, tasks, None)  # no --threads: the usable CPUs
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    cli._run_tasks(abs, tasks, 4096)
    cli._run_tasks(abs, tasks, None)
    assert asked == [3, 2, 3, 5, 5]


def _probe(code: str, **env_changes) -> str:
    """Run `code` in a fresh interpreter on this checkout's src; `None` unsets a variable."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for name, value in env_changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_leaves_mpmath_unloaded():
    probe = (
        "import sys, collapse_lab.experiments_cli;"
        " print('mpmath' in sys.modules, 'decimal' in sys.modules)"
    )
    assert _probe(probe) == "False False\n"


def test_cli_start_up_builds_no_row_generator():
    # `fill_rows` makes its generator on the first call, so start-up pays no SeedSequence
    probe = (
        "import collapse_lab.experiments_cli as cli; cli.build_parser()\n"
        "from collapse_lab import graph_core\n"
        "print(graph_core._row_filler.cache_info().currsize)"
    )
    assert _probe(probe) == "0\n"


def test_cli_import_defaults_blas_to_one_thread():
    probe = (
        "import os, sys, collapse_lab.experiments_cli, numpy as np\n"
        "blas = np.__config__.CONFIG['Build Dependencies']['blas']['name']\n"
        "threads = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else None\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], 'openblas' in blas.lower(), threads)"
    )
    value, openblas, threads = _probe(probe, OPENBLAS_NUM_THREADS=None).split()
    assert value == "1"
    if openblas == "True" and threads != "None":
        assert threads == "1"  # no idle BLAS worker beside the main thread
    # a value the user set wins
    assert _probe(probe, OPENBLAS_NUM_THREADS="3").split()[0] == "3"


BLAS_NAMES = {"dot", "matmul", "linalg", "einsum", "inner", "tensordot", "vdot"}


def test_package_makes_no_blas_call():
    # the one-thread BLAS default costs nothing only while src/ never calls BLAS
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                name = "@"
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            if name == "@" or name in BLAS_NAMES:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_one_process_runs_load_no_process_pool():
    # the pool's modules load where a pool starts, not on import or in one-process runs
    probe = (
        "import contextlib, io, sys\n"
        "from collapse_lab.experiments_cli import main\n"
        "pool_modules = ('multiprocessing', 'concurrent.futures.process')\n"
        "def loaded(): return [m for m in pool_modules if m in sys.modules]\n"
        "seen = [loaded()]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert main(['tree', '--c', '1.5', '--t', '2', '--trials', '10']) == 0\n"
        "    seen.append(loaded())\n"
        "    argv = ['collapse', '--n', '300', '--c', '1.5', '--trials', '3', '--threads', '1']\n"
        "    assert main(argv) == 0\n"
        "    seen.append(loaded())\n"
        "print(seen)"
    )
    assert _probe(probe) == "[[], [], []]\n"


def test_collapse_rejects_threads_below_one(capsys):
    # main checks --threads before the subcommand checks its point (c < 0 here)
    code, out, err = run_main(["collapse", "--c", "-1", "--threads", "0"], capsys)
    assert code == 2
    assert out == "" and err == "error: thread count must be >= 1, got 0\n"


def test_tree_rejects_threads_below_one(capsys):
    code, out, err = run_main(
        ["tree", "--c", "1.5", "--t", "2", "--trials", "10", "--threads", "0"], capsys
    )
    assert code == 2
    assert out == "" and err.startswith("error: thread count")


def test_sweep_config_validation(capsys):
    for argv in (["sweep-n", "--n-grid", "100,200"], ["sweep-c", "--c-grid", "1.5,2"]):
        code, out, err = run_main(argv + ["--trials", "0"], capsys)
        assert code == 2
        assert out == ""
        assert "error: trials must be >= 1" in err


def test_cell_formatting():
    assert _cell(None) == ""
    assert _cell(True) == "true"
    assert _cell(False) == "false"
    assert _cell(0.1) == "0.1"
    assert _cell(1.0 / 3.0) == repr(1.0 / 3.0)
    assert _cell(7) == "7"


# -- large-n behavior of the recorded diagnostics ------------------------------------


def test_dispersion_and_max_degree_trends():
    """f0 spread stays O(n^{2/3}) and log-degree exceedances thin out with n."""
    stats = {}
    for n in (10_000, 40_000):
        f0s, exceed = [], 0
        for i in range(30):
            rec, _ = _collapse_trial((n, 1.5, 5, i, mix_seed(0, i), *_check_point(n, 1.5, 5)))
            f0s.append(rec["f0_epoch1"])
            if rec["max_degree"] > math.log(n):
                exceed += 1
        mean = sum(f0s) / len(f0s)
        spread = math.sqrt(sum((x - mean) ** 2 for x in f0s) / len(f0s))
        stats[n] = (spread / n ** (2.0 / 3.0), exceed / 30.0)
    assert stats[10_000][0] < 0.75
    assert stats[40_000][0] < 0.75
    assert stats[40_000][1] <= stats[10_000][1]
