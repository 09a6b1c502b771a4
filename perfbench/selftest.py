"""Self-tests of the benchmark's own code.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the project's default test collection.  The
last two tests import the program from this checkout's src.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- wall_time_ms stripping -------------------------------------------------------


def test_strip_csv_drops_the_last_column_only():
    body = "n,c,wall_time_ms\n10,1.5,17\n10,1.5,4\n"
    assert run.strip_wall_time(body) == "n,c\n10,1.5\n10,1.5\n"
    assert run.digest(body) == run.digest(body.replace(",17", ",9999"))
    assert run.digest(body) != run.digest(body.replace("1.5,4", "1.5000001,4"))


def test_strip_csv_without_the_column_is_identity():
    body = "t,gamma_hat,gamma_theory,stderr\n1,0.22,0.2231,0.004\n"
    assert run.strip_wall_time(body) == body


def test_strip_json_drops_the_key_at_any_depth():
    rows = [{"n": 10, "wall_time_ms": 3}, {"n": 11, "wall_time_ms": 12}]
    body = json.dumps(rows) + "\n"
    assert json.loads(run.strip_wall_time(body)) == [{"n": 10}, {"n": 11}]
    nested = json.dumps({"gamma": [{"t": 1, "wall_time_ms": 5}]})
    assert json.loads(run.strip_wall_time(nested)) == {"gamma": [{"t": 1}]}
    assert run.digest(body) == run.digest(body.replace(": 12", ": 1"))


# -- names -------------------------------------------------------------------------


def test_every_emitted_name_is_well_formed():
    layer = [*tracer.layer_metrics([], {}), "trace.overhead_frac"]
    names = [*run.WORKLOADS, *run.UNITS, *layer]
    names += [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in BENCH[key]]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(layer)) == len(layer)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.UNITS
    layer = [*tracer.layer_metrics([], {}), "trace.overhead_frac"]
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {
        k: run.per_layer_unit(k) for k in layer
    }


# -- span arithmetic ---------------------------------------------------------------


def _synthetic_spans():
    #  main [0, 10]
    #    graph_core.sample_er [1, 4]
    #      theory.gamma_sequence [2, 3]
    #    collapse_engine.run_epoch1 [5, 9]
    #      collapse_engine.prune_phase [5, 8]
    #        collapse_engine.dominated_set [5, 7.5]
    return [
        (tracer.MAIN, 0.0, 10.0, -1),
        ("graph_core.sample_er", 1.0, 4.0, 0),
        ("theory.gamma_sequence", 2.0, 3.0, 1),
        ("collapse_engine.run_epoch1", 5.0, 9.0, 0),
        ("collapse_engine.prune_phase", 5.0, 8.0, 3),
        ("collapse_engine.dominated_set", 5.0, 7.5, 4),
    ]


def test_self_time_subtracts_children():
    assert tracer.self_times(_synthetic_spans()) == [3.0, 2.0, 1.0, 1.0, 0.5, 2.5]


def test_self_time_counts_overlapping_children_once():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 3.0, 6.0, 0), ("d", 9.0, 12.0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_self_times_add_up_to_main():
    m = tracer.layer_metrics(_synthetic_spans(), {"collapse_engine.epoch1.removed": 8})
    assert m["graph_core.self_s"] == 2.0
    assert m["theory.s"] == 1.0
    assert m["collapse_engine.self_s"] == 4.0
    assert m["collapse_engine.prune_phase.self_s"] == 0.5
    assert m["experiments_cli.self_s"] == 3.0
    assert m["collapse_engine.epoch1.removed_per_s"] == 2.0
    assert tracer.layer_sum_gap(m) == 0.0


# -- patching ----------------------------------------------------------------------


def test_patched_attributes_are_restored_even_after_an_error():
    cli, engine, graph_core, tree, theory = run.load_program()
    tr = tracer.Tracer()
    targets = tracer.instrument(tr, cli, engine, graph_core, tree, theory)
    before = {(id(owner), attr): vars(owner)[attr] for owner, attr, _ in targets}
    assert len(before) == len(targets) > 20
    with pytest.raises(RuntimeError):
        with tracer.patched(targets):
            assert engine.run_epoch1 is not before[(id(engine), "run_epoch1")]
            raise RuntimeError("boom")
    for owner, attr, _ in targets:
        assert vars(owner)[attr] is before[(id(owner), attr)]


def test_traced_run_reproduces_the_plain_body_and_closes_the_sum():
    cli, engine, graph_core, tree, theory = run.load_program()
    w = run.Workload("small", ("collapse", "--n", "3000", "--c", "1.5", "--trials", "2"), 1)
    argv = w.command(7, 1)
    _, status, plain_out, plain_err = run.run_in_process(cli.main, argv)
    tr = tracer.Tracer()
    with tracer.patched(tracer.instrument(tr, cli, engine, graph_core, tree, theory)):
        _, traced_status, out, err = run.run_in_process(tr.wrap(tracer.MAIN, cli.main), argv)
    assert status == traced_status == 0
    assert run.digest(out) == run.digest(plain_out)
    assert run.check_output(w, out, err) == []
    m = tracer.layer_metrics(tr.spans, tr.counts)
    assert m["graph_core.sample_er.calls"] == 2
    assert m["collapse_engine.dominated_set.calls"] == m["collapse_engine.prune_phase.calls"] + 2
    assert m["collapse_engine.epoch2.steps"] > 0
    assert tracer.layer_sum_gap(m) < 1e-9
