"""End-to-end command tests: parsing, streams, determinism, exit codes.

Machine output goes to stdout (or --out) and summaries to stderr; identical
invocations must be byte-identical apart from the measured wall_time_ms
column, which these tests strip before comparing.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

from collapse_lab import experiments_cli as cli
from collapse_lab import simplicial_oracle
from collapse_lab.collapse_engine import has_universal_vertex
from collapse_lab.experiments_cli import (
    RECORD_COLUMNS,
    SWEEP_COLUMNS,
    _cell,
    _collapse_trial,
    _phase_trial,
    main,
    resolve_threads,
)
from collapse_lab.graph_core import AdjacencyGraph, GraphParams, mix_seed, sample_er


@pytest.fixture(autouse=True)
def _no_thread_env(monkeypatch):
    monkeypatch.delenv("COLLAPSE_LAB_THREADS", raising=False)


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
    """One CSV table as the JSON body's row objects: integer cells as int, others float."""
    header, *lines = csv_table.strip().splitlines()

    def typed(cell):
        try:
            return int(cell)
        except ValueError:
            return float(cell)

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
    comp = sample_er(GraphParams(n=n, p=1.0 - prob, seed=seed))
    dense = AdjacencyGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if v not in comp.neighbor_view(u):
                dense.add_edge(u, v)
    assert rec["max_degree"] == dense.max_degree()
    assert rec["has_universal"] == has_universal_vertex(dense)
    assert rec["universal_count"] == sum(
        1 for v in dense.alive_ids() if dense.degree(v) == n - 1
    )


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


def test_row_seed_regenerates_row(capsys):
    _, out, _ = run_main(
        ["collapse", "--n", "250", "--c", "1.5", "--t", "3", "--trials", "3",
         "--seed", "17"],
        capsys,
    )
    lines = out.strip().splitlines()
    row = dict(zip(RECORD_COLUMNS, lines[2].split(",")))  # trial_index 1
    rec, _ = _collapse_trial((250, 1.5, 3, 1, int(row["seed"])))
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


def test_validate_catches_broken_oracle(monkeypatch, capsys):
    """Mutation probe: cripple the link oracle and the suite must go red."""
    monkeypatch.setattr(
        simplicial_oracle, "is_dominated_via_link", lambda g, v, n_limit=30: False
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


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv("COLLAPSE_LAB_THREADS", raising=False)
    assert resolve_threads(3) == 3
    assert resolve_threads(None) >= 1
    monkeypatch.setenv("COLLAPSE_LAB_THREADS", "5")
    assert resolve_threads(1) == 5  # env wins over the flag
    monkeypatch.setenv("COLLAPSE_LAB_THREADS", "zebra")
    with pytest.raises(ValueError):
        resolve_threads(1)
    monkeypatch.setenv("COLLAPSE_LAB_THREADS", "0")
    with pytest.raises(ValueError):
        resolve_threads(1)


def test_bad_thread_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("COLLAPSE_LAB_THREADS", "many")
    code, _, err = run_main(
        ["collapse", "--n", "100", "--c", "1.5", "--t", "2", "--trials", "1"], capsys
    )
    assert code == 2
    assert "COLLAPSE_LAB_THREADS" in err


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
            rec, _ = _collapse_trial((n, 1.5, 5, i, mix_seed(0, i)))
            f0s.append(rec["f0_epoch1"])
            if rec["max_degree"] > math.log(n):
                exceed += 1
        mean = sum(f0s) / len(f0s)
        spread = math.sqrt(sum((x - mean) ** 2 for x in f0s) / len(f0s))
        stats[n] = (spread / n ** (2.0 / 3.0), exceed / 30.0)
    assert stats[10_000][0] < 0.75
    assert stats[40_000][0] < 0.75
    assert stats[40_000][1] <= stats[10_000][1]
