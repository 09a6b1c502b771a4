"""Command-line harness for collapse experiments.

Subcommands: gamma, predict, tree, collapse, sweep-n, sweep-c, epoch2,
phase-transition, validate.  Machine output (CSV or JSON) goes to --out, or to
stdout when --out is absent; human-readable summary lines always go to stderr
so stdout stays parseable.  Exit codes: 0 success, 1 validation or runtime
failure, 2 bad parameters or usage.

Reproducibility contract: trial i of a run with base seed s uses the seed
mix_seed(s, i); sweep point j first derives point_seed = mix_seed(s, j) and
its trials use mix_seed(point_seed, i); the tree command derives a substream
per depth with mix_seed(s, t).  Every emitted row carries the seed that
regenerates it, and appending trials or grid points never changes earlier
rows.  Identical invocations give byte-identical bodies except the
wall_time_ms column, which is measured, not derived, and is excluded from the
determinism guarantee.

Parallelism (--threads, overridden by COLLAPSE_LAB_THREADS, default = cpu
count) fans trials out to worker processes; each worker owns its graph and
generator and results are collected in trial-index order, so the output is
schedule independent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import mpmath

from . import collapse_engine as engine
from . import simplicial_oracle as oracle
from . import theory
from .graph_core import AdjacencyGraph, GraphParams, mix_seed, rng_from_seed, sample_er
from .tree_process import estimate_gamma

RECORD_COLUMNS = [
    "n",
    "c",
    "p",
    "t",
    "trial_index",
    "seed",
    "f0_epoch1",
    "core_f0",
    "phases_to_core",
    "epoch2_deleted",
    "mean_Y",
    "max_degree",
    "dominated_pairs",
    "has_universal",
    "expected_f0_after_t",
    "predicted_core_f0",
    "wall_time_ms",
]

SWEEP_COLUMNS = ["n", "c", "mean_core_f0", "std_core_f0", "predicted_core_f0", "seed"]


# -- output helpers -----------------------------------------------------------


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _csv_table(records: list[dict], columns: list[str]) -> str:
    rows = [",".join(columns)]
    rows += [",".join(_cell(r.get(col)) for col in columns) for r in records]
    return "\n".join(rows) + "\n"


def _emit_records(records: list[dict], columns: list[str], args) -> None:
    if args.format == "json":
        body = [{col: r.get(col) for col in columns} for r in records]
        _write_text(json.dumps(body) + "\n", args.out)
        return
    _write_text(_csv_table(records, columns), args.out)


def _blank_record() -> dict:
    return {col: None for col in RECORD_COLUMNS}


# -- per-trial workers (top level so process pools can pickle them) ------------


def _collapse_trial(task: tuple) -> tuple[dict, dict[int, int]]:
    """Sample one graph, run both epochs, return the record and Y histogram."""
    n, c, t, trial_index, trial_seed = task
    t0 = time.perf_counter()
    params = GraphParams.from_c(n=n, c=c, seed=trial_seed)
    g = sample_er(params)
    rec = _blank_record()
    rec["n"] = n
    rec["c"] = float(c)
    rec["p"] = params.p
    rec["t"] = t
    rec["trial_index"] = trial_index
    rec["seed"] = trial_seed
    rec["max_degree"] = g.max_degree()
    rec["dominated_pairs"] = engine.count_dominated_pairs(g)
    rec["has_universal"] = engine.has_universal_vertex(g)
    trace = engine.run_epoch1(g, t)
    rec["f0_epoch1"] = g.non_isolated_count()
    rec["phases_to_core"] = len(trace.phases)
    e2 = engine.run_epoch2(g, rng_from_seed(mix_seed(trial_seed, 1)))
    rec["core_f0"] = g.non_isolated_count()
    rec["epoch2_deleted"] = e2.steps
    rec["mean_Y"] = (sum(e2.y_values) / e2.steps) if e2.steps else None
    if c > 1:
        rec["expected_f0_after_t"] = theory.expected_f0_after_t(c, n, t)
        rec["predicted_core_f0"] = theory.core_size_prediction(c, n)
    rec["wall_time_ms"] = int((time.perf_counter() - t0) * 1000)
    y_hist: dict[int, int] = {}
    for y in e2.y_values:
        y_hist[y] = y_hist.get(y, 0) + 1
    return rec, y_hist


def _phase_trial(task: tuple) -> dict:
    """One phase-transition trial; the dense side samples the complement."""
    n, prob, side, trial_index, trial_seed = task
    t0 = time.perf_counter()
    rec = _blank_record()
    rec["n"] = n
    rec["p"] = prob
    rec["trial_index"] = trial_index
    rec["seed"] = trial_seed
    if side == "sparse":
        g = sample_er(GraphParams(n=n, p=prob, seed=trial_seed))
        rec["max_degree"] = g.max_degree()
        rec["dominated_pairs"] = engine.count_dominated_pairs(g)
        rec["has_universal"] = engine.has_universal_vertex(g)
    else:
        # universal in G(n, p) = isolated in the complement G(n, 1-p); the
        # complement has ~ n log n edges instead of ~ n^2 / 2
        comp = sample_er(GraphParams(n=n, p=1.0 - prob, seed=trial_seed))
        isolated = comp.alive_count() - comp.non_isolated_count()
        rec["has_universal"] = isolated > 0
        min_deg = min(comp.degree(v) for v in comp.alive_ids())
        rec["max_degree"] = n - 1 - min_deg
        rec["universal_count"] = isolated
    rec["wall_time_ms"] = int((time.perf_counter() - t0) * 1000)
    return rec


# -- thread resolution ---------------------------------------------------------


def resolve_threads(flag: int | None) -> int:
    env = os.environ.get("COLLAPSE_LAB_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"COLLAPSE_LAB_THREADS must be an integer, got {env!r}")
    elif flag is not None:
        value = flag
    else:
        value = os.cpu_count() or 1
    if value < 1:
        raise ValueError(f"thread count must be >= 1, got {value}")
    return value


def _run_tasks(worker, tasks: list, threads: int) -> list:
    if threads <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    workers = min(threads, len(tasks))
    chunk = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks, chunksize=chunk))


def _collapse_trials(n: int, c: float, t: int, trials: int, seed: int, threads: int) -> list:
    """Run trial i of a point on the graph seeded mix_seed(seed, i)."""
    tasks = [(n, c, t, i, mix_seed(seed, i)) for i in range(trials)]
    return _run_tasks(_collapse_trial, tasks, threads)


# -- subcommands ----------------------------------------------------------------


def cmd_gamma(args) -> int:
    if args.c <= 0:
        raise ValueError(f"c must be > 0, got {args.c}")
    if args.t < 0:
        raise ValueError(f"t must be >= 0, got {args.t}")
    table = theory.gamma_sequence(args.c, args.t + 1)
    rows = [{"t": t, "gamma": table[t], "beta": table.beta_of(t)} for t in range(args.t + 1)]
    _emit_records(rows, list(rows[0]), args)
    if args.c > 1:
        gs = theory.gamma_fixed_point(args.c)
        _say(f"gamma_star={gs!r} c_gamma_star={args.c * gs!r}")
    return 0


def cmd_predict(args) -> int:
    if args.c <= 1:
        raise ValueError(f"theory predictions need c > 1, got {args.c}")
    t = args.t if args.t is not None else theory.rounds_for_epsilon(args.c, 0.01)
    pred = theory.predict(args.c, args.n, t)
    bounds = theory.epsilon_bounds(args.c, t, paper_constants=args.paper_constants)
    row = {
        "c": float(args.c),
        "n": args.n,
        "t": t,
        "expected_f0_after_t": pred.f0_after_t,
        "predicted_core_f0": pred.core_f0,
        "epsilon_t": pred.eps_of_t,
        "delta_t": pred.delta_of_t,
        "eps_lower": bounds.eps_lower,
        "eps_upper": bounds.eps_upper,
    }
    _emit_records([row], list(row), args)
    _say(f"rounds_for_epsilon(c, 0.01)={theory.rounds_for_epsilon(args.c, 0.01)}")
    return 0


def cmd_tree(args) -> int:
    if args.t < 1:
        raise ValueError(f"t must be >= 1, got {args.t}")
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    if args.c <= 0:
        raise ValueError(f"c must be > 0, got {args.c}")
    gamma_rows = []
    last_stats = None
    for t in range(1, args.t + 1):
        stats = estimate_gamma(args.c, t, args.trials, mix_seed(args.seed, t))
        g_theory = theory.gamma_sequence(args.c, t)[t]
        gamma_rows.append(
            {
                "t": t,
                "gamma_hat": stats.gamma_hat,
                "gamma_theory": g_theory,
                "stderr": stats.stderr,
            }
        )
        last_stats = stats
    hist_rows = []
    if args.hist:
        kmax = max(len(last_stats.root_degree_hist) - 1, 10)
        hist_rows = [
            {
                "k": k,
                "pmf_hat": last_stats.pmf_hat(k),
                "pmf_theory": theory.root_degree_pmf(args.c, args.t, k),
            }
            for k in range(kmax + 1)
        ]
    if args.format == "json":
        body = {"gamma": gamma_rows}
        if hist_rows:
            body["histogram"] = hist_rows
        _write_text(json.dumps(body) + "\n", args.out)
        return 0
    text = _csv_table(gamma_rows, list(gamma_rows[0]))
    if hist_rows:
        text += "\n" + _csv_table(hist_rows, list(hist_rows[0]))
    _write_text(text, args.out)
    return 0


def _default_phase_budget(c: float, t: int | None) -> int:
    if t is not None:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        return t
    if c <= 1:
        raise ValueError("phase budget --t is required when c <= 1")
    return theory.rounds_for_epsilon(c, 0.01)


def cmd_collapse(args) -> int:
    if args.n < 1:
        raise ValueError(f"n must be >= 1, got {args.n}")
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    t = _default_phase_budget(args.c, args.t)
    threads = resolve_threads(args.threads)
    results = _collapse_trials(args.n, args.c, t, args.trials, args.seed, threads)
    records = [rec for rec, _ in results]
    _emit_records(records, RECORD_COLUMNS, args)
    cores = [r["core_f0"] for r in records]
    mean_core = sum(cores) / len(cores)
    _say(f"t={t} mean_core_f0={mean_core!r} mean_core_frac={mean_core / args.n!r}")
    if args.c > 1:
        _say(f"predicted_core_f0={theory.core_size_prediction(args.c, args.n)!r}")
    return 0


def _run_sweep(points: list[tuple[int, float]], args) -> int:
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    threads = resolve_threads(args.threads)
    out_rows = []
    for point_index, (n, c) in enumerate(points):
        point_seed = mix_seed(args.seed, point_index)
        t = _default_phase_budget(c, args.t)
        results = _collapse_trials(n, c, t, args.trials, point_seed, threads)
        cores = [rec["core_f0"] for rec, _ in results]
        mean_core = sum(cores) / len(cores)
        if len(cores) > 1:
            var = sum((x - mean_core) ** 2 for x in cores) / (len(cores) - 1)
            std_core = math.sqrt(var)
        else:
            std_core = 0.0
        predicted = theory.core_size_prediction(c, n) if c > 1 else None
        out_rows.append(
            {
                "n": n,
                "c": float(c),
                "mean_core_f0": mean_core,
                "std_core_f0": std_core,
                "predicted_core_f0": predicted,
                "seed": point_seed,
            }
        )
        dev = abs(mean_core / n - predicted / n) if predicted is not None else None
        _say(
            f"point n={n} c={c} mean_core_frac={mean_core / n!r}"
            + (f" deviation={dev!r}" if dev is not None else "")
        )
    _emit_records(out_rows, SWEEP_COLUMNS, args)
    return 0


def cmd_sweep_n(args) -> int:
    return _run_sweep([(int(x), args.c) for x in args.n_grid.split(",")], args)


def cmd_sweep_c(args) -> int:
    return _run_sweep([(args.n, float(x)) for x in args.c_grid.split(",")], args)


def cmd_epoch2(args) -> int:
    if args.n < 1:
        raise ValueError(f"n must be >= 1, got {args.n}")
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    if not 0.0 < args.eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {args.eps}")
    if args.c <= 1:
        raise ValueError(f"epoch2 analysis needs c > 1, got {args.c}")
    gs = theory.gamma_fixed_point(args.c)
    cg = args.c * gs
    admissible = min(
        (1.0 - gs) * (1.0 - cg) / 12.0, (5.0 / 192.0) * (1.0 - gs) * (1.0 - cg) ** 2
    )
    if args.eps > admissible:
        # the deletion-budget guarantee only covers eps up to this bound;
        # larger eps still runs, the prediction is just weaker
        _say(
            f"warning: eps={args.eps!r} exceeds the admissible bound "
            f"{admissible!r} of the deletion-budget guarantee; "
            "pass-rate predictions apply below it"
        )
    # phase budget chosen so the per-phase drop is under eps*(1-c*gamma)/8
    t = theory.rounds_for_epsilon(args.c, args.eps * (1.0 - cg) / 8.0)
    threads = resolve_threads(args.threads)
    results = _collapse_trials(args.n, args.c, t, args.trials, args.seed, threads)
    records = [rec for rec, _ in results]
    _emit_records(records, RECORD_COLUMNS, args)
    pooled: dict[int, int] = {}
    for _, y_hist in results:
        for y, cnt in y_hist.items():
            pooled[y] = pooled.get(y, 0) + cnt
    total_steps = sum(pooled.values())
    mean_y = (
        sum(y * cnt for y, cnt in pooled.items()) / total_steps if total_steps else None
    )
    within = sum(1 for r in records if r["epoch2_deleted"] <= args.eps * args.n)
    _say(f"t={t} pooled_steps={total_steps} pooled_mean_Y={mean_y!r}")
    _say(f"frac_deleted_within_eps_n={within / len(records)!r}")
    for y in sorted(pooled):
        _say(f"Y={y}: {pooled[y]}")
    return 0


def cmd_phase_transition(args) -> int:
    if args.n < 2:
        raise ValueError(f"n must be >= 2, got {args.n}")
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    if (args.lam is None) == (args.p is None):
        raise ValueError("give exactly one of --lam or --p")
    if args.lam is not None:
        if args.lam <= 0:
            raise ValueError(f"lam must be > 0, got {args.lam}")
        scale = args.lam * math.log(args.n) / args.n
        prob = scale if args.side == "sparse" else 1.0 - scale
    else:
        prob = args.p
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"edge probability {prob!r} is outside [0, 1]")
    threads = resolve_threads(args.threads)
    tasks = [
        (args.n, prob, args.side, i, mix_seed(args.seed, i))
        for i in range(args.trials)
    ]
    records = _run_tasks(_phase_trial, tasks, threads)
    universal_counts = [r.pop("universal_count", None) for r in records]
    _emit_records(records, RECORD_COLUMNS, args)
    if args.side == "sparse":
        pair_counts = [r["dominated_pairs"] for r in records]
        zero_frac = sum(1 for x in pair_counts if x == 0) / len(pair_counts)
        mean_pairs = sum(pair_counts) / len(pair_counts)
        expected = 2.0 * theory.expected_dominated_pairs(args.n, prob)
        _say(f"p={prob!r} frac_zero_pairs={zero_frac!r}")
        _say(f"mean_ordered_pairs={mean_pairs!r} expected_ordered_pairs={expected!r}")
    else:
        have = sum(1 for r in records if r["has_universal"])
        mean_univ = sum(universal_counts) / len(universal_counts)
        expected = theory.expected_universal_vertices(args.n, prob)
        _say(f"p={prob!r} frac_with_universal={have / len(records)!r}")
        _say(f"mean_universal={mean_univ!r} expected_universal={expected!r}")
    return 0


# -- validation suite ------------------------------------------------------------


def _random_graph(n: int, p: float, seed: int) -> AdjacencyGraph:
    return sample_er(GraphParams(n=n, p=p, seed=seed))


def _check_oracle_equivalence() -> tuple[bool, str]:
    """Link-cone domination must equal neighborhood-containment domination."""
    checked = 0
    for k in range(40):
        n = 4 + (k % 13)
        p = 0.15 + 0.03 * (k % 16)
        g = _random_graph(n, p, mix_seed(101, k))
        for v in list(g.alive_ids()):
            via_link = oracle.is_dominated_via_link(g, v)
            via_nbhd = engine.find_dominator(g, v) is not None
            if via_link != via_nbhd:
                return False, f"vertex {v} disagrees on graph #{k} (n={n}, p={p:.2f})"
            checked += 1
    return True, f"{checked} vertices agree"


def _check_chi_invariance() -> tuple[bool, str]:
    for k in range(25):
        n = 5 + (k % 12)
        p = 0.2 + 0.04 * (k % 10)
        g = _random_graph(n, p, mix_seed(202, k))
        chi_before = oracle.euler_characteristic(g)
        engine.run_core(g)
        chi_after = oracle.euler_characteristic(g)
        if chi_before != chi_after:
            return False, (
                f"graph #{k}: chi {chi_before} -> {chi_after} across the collapse"
            )
    return True, "25 graphs preserve chi through run_core"


def _check_core_uniqueness() -> tuple[bool, str]:
    """Cores from different processing orders must agree up to isomorphism.

    The labeled vertex set may differ (mutually dominating twins), so the
    check compares isomorphism invariants: non-isolated vertex count, edge
    count and sorted degree sequence.
    """
    for k in range(20):
        n = 6 + (k % 12)
        p = 0.2 + 0.05 * (k % 8)
        base = _random_graph(n, p, mix_seed(303, k))
        invariants = None
        for r in range(5):
            g = base.copy()
            engine.run_core(g, order_rng=rng_from_seed(mix_seed(404, 5 * k + r)))
            degrees = sorted(g.degree(v) for v in engine.core_vertices(g))
            core = (len(degrees), g.edge_count(), tuple(degrees))
            if invariants is None:
                invariants = core
            elif core != invariants:
                return False, f"graph #{k}: core invariants differ between processing orders"
    return True, "20 graphs, 5 orders each, cores agree in vertex/edge counts and degrees"


def _check_rate_sandwich() -> tuple[bool, str]:
    """Exact gap and epsilon sandwiches at 60-digit precision, t <= 30."""
    with mpmath.workdps(60):
        for c_val in ("1.5", "2", "3"):
            c = mpmath.mpf(c_val)
            gs = mpmath.mpf("0.5")
            for _ in range(4000):
                gs = mpmath.exp(-c * (1 - gs))
            cg = c * gs
            core = (1 - gs) * (1 - cg)
            pref = mpmath.exp(-c)
            r_lo = c * mpmath.exp(-c)
            gammas = [mpmath.mpf(0)]
            for _ in range(33):
                gammas.append(mpmath.exp(-c * (1 - gammas[-1])))
            for t in range(31):
                gap = gammas[t + 1] - gammas[t]
                if not pref * r_lo**t <= gap <= pref * cg**t:
                    return False, f"gap bound violated at c={c_val}, t={t}"
                f0 = 1 - gammas[t + 1] - c * gammas[t] + c * gammas[t] ** 2
                eps = f0 - core
                lo = (c - cg) * pref / (1 - r_lo) * r_lo**t
                hi = (c + 1) * pref / (1 - cg) * cg**t
                if not lo <= eps <= hi:
                    return False, f"eps bound violated at c={c_val}, t={t}"
    return True, "c in {1.5, 2, 3}, t <= 30, both sandwiches exact"


def _check_pmf_normalization() -> tuple[bool, str]:
    worst = 0.0
    for c in (1.5, 2.0, 3.0):
        for t in (1, 2, 3, 5):
            total = sum(theory.root_degree_pmf(c, t, k) for k in range(201))
            worst = max(worst, abs(total - 1.0))
    if worst >= 1e-10:
        return False, f"pmf mass deviates by {worst!r}"
    return True, f"max deviation {worst!r}"


_VALIDATE_CHECKS = [
    ("oracle equivalence", _check_oracle_equivalence),
    ("chi invariance", _check_chi_invariance),
    ("core uniqueness", _check_core_uniqueness),
    ("rate sandwich", _check_rate_sandwich),
    ("pmf normalization", _check_pmf_normalization),
]


def cmd_validate(args) -> int:
    lines = []
    failures = 0
    for name, check in _VALIDATE_CHECKS:
        ok, detail = check()
        lines.append(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        if not ok:
            failures += 1
    lines.append(
        f"{len(_VALIDATE_CHECKS) - failures}/{len(_VALIDATE_CHECKS)} checks passed"
    )
    _write_text("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


# -- argument parsing --------------------------------------------------------------


def _add_common(sub, *, trials: int, seed: int = 0) -> None:
    sub.add_argument("--trials", type=int, default=trials)
    sub.add_argument("--seed", type=int, default=seed)
    sub.add_argument("--threads", type=int, default=None)
    sub.add_argument("--out", type=str, default=None)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapse-lab",
        description="Monte-Carlo laboratory for strong collapse on sparse random graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gamma", help="print the gamma_t recursion table")
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--t", type=int, default=20)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_gamma)

    sp = sub.add_parser("predict", help="closed-form predictions for one (c, n, t)")
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--n", type=int, default=10_000)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--paper-constants", action="store_true")
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("tree", help="Monte-Carlo gamma_t from pruned offspring trees")
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--t", type=int, default=6)
    sp.add_argument("--hist", action="store_true")
    _add_common(sp, trials=20_000)
    sp.set_defaults(func=cmd_tree)

    sp = sub.add_parser("collapse", help="two-epoch collapse trials on G(n, c/n)")
    sp.add_argument("--n", type=int, default=10_000)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--t", type=int, default=None)
    _add_common(sp, trials=30)
    sp.set_defaults(func=cmd_collapse)

    sp = sub.add_parser("sweep-n", help="core size versus n at fixed c")
    sp.add_argument("--c", type=float, default=1.5)
    sp.add_argument("--n-grid", type=str, required=True)
    sp.add_argument("--t", type=int, default=None)
    _add_common(sp, trials=10)
    sp.set_defaults(func=cmd_sweep_n)

    sp = sub.add_parser("sweep-c", help="core size versus c at fixed n")
    sp.add_argument("--n", type=int, default=10_000)
    sp.add_argument("--c-grid", type=str, required=True)
    sp.add_argument("--t", type=int, default=None)
    _add_common(sp, trials=10)
    sp.set_defaults(func=cmd_sweep_c)

    sp = sub.add_parser("epoch2", help="second-epoch deletion statistics")
    sp.add_argument("--n", type=int, default=10_000)
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    _add_common(sp, trials=30)
    sp.set_defaults(func=cmd_epoch2)

    sp = sub.add_parser(
        "phase-transition", help="dominated pairs near p = lam log(n)/n and 1 - lam log(n)/n"
    )
    sp.add_argument("--n", type=int, default=10_000)
    sp.add_argument("--lam", "--lambda", dest="lam", type=float, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--side", choices=("sparse", "dense"), required=True)
    _add_common(sp, trials=50)
    sp.set_defaults(func=cmd_phase_transition)

    sp = sub.add_parser("validate", help="deterministic cross-oracle checks")
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
