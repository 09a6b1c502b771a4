#!/usr/bin/env python3
"""Run every workload once at seed 0 and print its end-to-end metrics, error rate and layer shares.

    python3 perfbench/report.py

Each workload gets one untraced run and one traced run of BENCHMARK.json's
run_seconds.  run.py prints each run's table (medians, quartiles, sample
counts and error rate) to stderr; this script adds the share of
`experiments_cli.main` spent in each layer's self time.  The same figures,
with the environment, go to `.bench_results/report.json`.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

SEED = 0
SHARES = (
    "graph_core.self_s",
    "collapse_engine.self_s",
    "tree_process.self_s",
    "theory.s",
    "experiments_cli.self_s",
    "graph_core.sample_er.s",
    "collapse_engine.dominated_set.s",
    "collapse_engine.prune_phase.self_s",
    "collapse_engine.run_epoch2.self_s",
    "collapse_engine.count_dominated_pairs.s",
    "tree_process.sample_tree.s",
    "tree_process.rng_from_seed.s",
    "tree_process.estimate_gamma.self_s",
)


def bench(workload: str, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=run.ROOT)
    return json.loads((run.RESULTS / f"{workload}.seed{SEED}.trace{trace}.json").read_text())


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    seconds = spec["run_seconds"]
    report = {"seed": SEED, "seconds": seconds, "workloads": {}}
    for w in run.WORKLOADS.values():
        plain = bench(w.name, seconds, 0)
        traced = bench(w.name, seconds, 1)
        main_s = traced["metrics"]["experiments_cli.main.s"]["median"]
        shares = {k: round(traced["metrics"][k]["median"] / main_s, 4) for k in SHARES}
        report["environment"] = plain["environment"]
        report["workloads"][w.name] = {
            "argv": plain["argv"],
            "why": why[w.name],
            "error_rate": plain["failed"] / plain["attempted"],
            "attempted": plain["attempted"],
            "end_to_end": plain["metrics"],
            "layer_share": shares,
            "traced_main_s": main_s,
            "trace_problems": traced["problems"],
        }
        print(f"{w.name} layer share of main: "
              + ", ".join(f"{k} {v:.1%}" for k, v in shares.items() if v), file=sys.stderr)
    (run.RESULTS / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
