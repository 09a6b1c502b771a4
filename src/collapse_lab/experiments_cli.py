"""Command-line harness for collapse experiments.

Subcommands: gamma, predict, tree, collapse, sweep-n, sweep-c, epoch2,
phase-transition, validate.  Machine output (CSV or JSON) goes to --out, or to
stdout when --out is absent; human-readable summary lines always go to stderr
so stdout stays parseable.  Exit codes: 0 success, 1 validation or runtime
failure, 2 bad parameters or usage.  Every usage error, the 10^7-step
gamma-table cap included, is raised before any graph or tree is sampled: the
parent computes each (n, c, t) point's theory columns once and hands them to
its trials, which make no theory call, and a sweep checks every grid point
before point 0 runs.

Reproducibility contract: trial i of a run with base seed s uses the seed
mix_seed(s, i); sweep point j first derives point_seed = mix_seed(s, j) and
its trials use mix_seed(point_seed, i); the tree command derives a substream
per depth with mix_seed(s, t).  Every emitted row carries the seed that
regenerates it, and appending trials or grid points never changes earlier
rows.  Identical invocations give byte-identical bodies except the
wall_time_ms column, which is measured, not derived, and is excluded from the
determinism guarantee.

Parallelism (--threads, default and cap the CPUs the process may use) fans
trials out to worker processes; each worker owns its graph and generator and
results are collected in trial-index order, so the output is schedule
independent.  The pool's modules (multiprocessing among them) are imported
only where a pool of more than one worker starts.  Before any trial runs,
main refuses an unwritable --out and then a --threads below 1; the tree
command runs in one process and ignores the checked value.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter

import numpy as np

from . import collapse_engine as engine
from . import simplicial_oracle as oracle
from . import theory
from .graph_core import mix_seed, rng_from_seed, sample_edges, sample_er
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


def _check_out(out: str | None) -> None:
    """Refuse an `--out` path that cannot be written, creating nothing."""
    if out is None or out == "-":
        return
    folder = os.path.dirname(out) or "."
    writable = os.access(out if os.path.exists(out) else folder, os.W_OK)
    if not out or os.path.isdir(out) or not os.path.isdir(folder) or not writable:
        raise OSError(f"cannot write {out}: not a writable file path")


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
    """Write `columns` of each record; a column the record lacks is an empty cell or null."""
    if args.format == "json":
        body = [{col: r.get(col) for col in columns} for r in records]
        _write_text(json.dumps(body) + "\n", args.out)
        return
    _write_text(_csv_table(records, columns), args.out)


# -- per-trial workers (top level so process pools can pickle them) ------------


def _collapse_trial(task: tuple) -> tuple[dict, Counter]:
    """Sample one graph, run both epochs, return the record and Y histogram.

    The task ends with the point's two predictions, as `_check_point` gives them.
    """
    n, c, t, trial_index, trial_seed, expected_f0, predicted_core = task
    t0 = time.perf_counter()
    p = c / n
    g = sample_er(n, p, trial_seed)
    rec = {"n": n, "c": float(c), "p": p, "t": t, "trial_index": trial_index, "seed": trial_seed}
    rec["max_degree"] = g.max_degree()
    rec["has_universal"] = engine.is_universal_degree(n, rec["max_degree"])
    pairs, trace, e2 = engine.run_trial(g, t, rng_from_seed(mix_seed(trial_seed, 1)))
    rec["dominated_pairs"] = pairs
    rec["f0_epoch1"] = trace.final_f0()
    rec["phases_to_core"] = len(trace.phases)
    rec["core_f0"] = g.non_isolated_count()
    rec["epoch2_deleted"] = e2.steps
    rec["mean_Y"] = (sum(e2.y_values) / e2.steps) if e2.steps else None
    rec["expected_f0_after_t"] = expected_f0
    rec["predicted_core_f0"] = predicted_core
    rec["wall_time_ms"] = int((time.perf_counter() - t0) * 1000)
    return rec, Counter(e2.y_values)


def _phase_trial(task: tuple) -> dict:
    """One phase-transition trial, computed from the sampled edge arrays.

    The dense side samples the complement: universal in G(n, p) is isolated
    in G(n, 1 - p), which has ~ n log n edges instead of ~ n^2 / 2.
    """
    n, prob, side, trial_index, trial_seed = task
    t0 = time.perf_counter()
    rec = {"n": n, "p": prob, "trial_index": trial_index, "seed": trial_seed}
    edge_prob = prob if side == "sparse" else 1.0 - prob
    us, vs = sample_edges(n, edge_prob, trial_seed)
    deg = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    if side == "sparse":
        rec["max_degree"] = int(deg.max())
        rec["dominated_pairs"] = engine.scan_edges(n, us, vs)[0]
    else:
        rec["max_degree"] = n - 1 - int(deg.min())
        rec["universal_count"] = int(np.count_nonzero(deg == 0))
    rec["has_universal"] = engine.is_universal_degree(n, rec["max_degree"])
    rec["wall_time_ms"] = int((time.perf_counter() - t0) * 1000)
    return rec


# -- thread resolution ---------------------------------------------------------


def _usable_cpus() -> int:
    """The CPUs this process may run on: the --threads default and the pool's cap."""
    if hasattr(os, "sched_getaffinity"):  # elsewhere than Linux every CPU counts
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_tasks(worker, tasks: list, threads: int | None) -> list:
    cpus = _usable_cpus()
    workers = min(threads or cpus, len(tasks), cpus)
    if workers <= 1:
        return [worker(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor  # here, so one-process runs never load it

    chunk = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks, chunksize=chunk))


def _check_point(n: int, c: float, t: int) -> tuple[float | None, float | None]:
    """The point's `expected_f0_after_t` and `predicted_core_f0`, both None when c <= 1.

    Also checks the graph parameters, so a bad point fails in the parent.
    """
    if not c >= 0:
        raise ValueError(f"mean-degree constant must be >= 0, got {c}")
    if n <= 0:
        raise ValueError(f"vertex count must be positive for c-form, got {n}")
    if c / n > 1.0:
        raise ValueError(f"c={c} exceeds n={n}, giving p={c / n} > 1")
    if c <= 1:
        return None, None
    return theory.expected_f0_after_t(c, n, t), theory.core_size_prediction(c, n)


def _collapse_trials(
    n: int, c: float, t: int, predictions: tuple, trials: int, seed: int, threads: int | None
) -> list:
    """Trial i of a point, with its `_check_point` values, on the graph seeded mix_seed(seed, i)."""
    tasks = [(n, c, t, i, mix_seed(seed, i), *predictions) for i in range(trials)]
    return _run_tasks(_collapse_trial, tasks, threads)


# -- subcommands ----------------------------------------------------------------


def cmd_gamma(args) -> int:
    if args.t < 0:
        raise ValueError(f"t must be >= 0, got {args.t}")
    table = theory.gamma_sequence(args.c, args.t + 1)
    rows = [{"t": t, "gamma": table[t], "beta": 1.0 - table[t + 1]} for t in range(args.t + 1)]
    _emit_records(rows, list(rows[0]), args)
    if args.c > 1:
        gs = theory.gamma_fixed_point(args.c)
        _say(f"gamma_star={gs!r} c_gamma_star={args.c * gs!r}")
    return 0


def cmd_predict(args) -> int:
    rounds = theory.rounds_for_epsilon(args.c, 0.01)
    t = rounds if args.t is None else args.t
    bounds = theory.epsilon_bounds(args.c, t, paper_constants=args.paper_constants)
    if not (math.isfinite(bounds.eps_lower) and math.isfinite(bounds.eps_upper)):
        raise ValueError(f"eps bounds at c={args.c}, t={t} overflow a double")
    row = {
        "c": float(args.c),
        "n": args.n,
        "t": t,
        "expected_f0_after_t": theory.expected_f0_after_t(args.c, args.n, t),
        "predicted_core_f0": theory.core_size_prediction(args.c, args.n),
        "epsilon_t": theory.epsilon_of(args.c, t),
        "delta_t": theory.delta_of(args.c, t),
        "eps_lower": bounds.eps_lower,
        "eps_upper": bounds.eps_upper,
    }
    _emit_records([row], list(row), args)
    _say(f"rounds_for_epsilon(c, 0.01)={rounds}")
    return 0


def cmd_tree(args) -> int:
    table = theory.gamma_sequence(args.c, args.t)
    gamma_rows = []
    for t in range(1, args.t + 1):  # the table has refused t < 1, so `stats` is bound below
        stats = estimate_gamma(args.c, t, args.trials, mix_seed(args.seed, t))
        gamma_rows.append(
            {"t": t, "gamma_hat": stats.gamma_hat, "gamma_theory": table[t], "stderr": stats.stderr}
        )
    hist_rows = []
    if args.hist:
        kmax = max(len(stats.root_degree_hist) - 1, 10)
        hist_rows = [
            {
                "k": k,
                "pmf_hat": stats.pmf_hat(k),
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
    t = _default_phase_budget(args.c, args.t)
    predictions = _check_point(args.n, args.c, t)
    results = _collapse_trials(args.n, args.c, t, predictions, args.trials, args.seed, args.threads)
    records = [rec for rec, _ in results]
    _emit_records(records, RECORD_COLUMNS, args)
    cores = [r["core_f0"] for r in records]
    mean_core = sum(cores) / len(cores)
    _say(f"t={t} mean_core_f0={mean_core!r} mean_core_frac={mean_core / args.n!r}")
    if predictions[1] is not None:
        _say(f"predicted_core_f0={predictions[1]!r}")
    return 0


def _run_sweep(points: list[tuple[int, float]], args) -> int:
    points = [(n, c, _default_phase_budget(c, args.t)) for n, c in points]
    checked = [_check_point(*point) for point in points]
    out_rows = []
    for point_index, ((n, c, t), predictions) in enumerate(zip(points, checked)):
        point_seed = mix_seed(args.seed, point_index)
        results = _collapse_trials(n, c, t, predictions, args.trials, point_seed, args.threads)
        cores = [rec["core_f0"] for rec, _ in results]
        mean_core = sum(cores) / len(cores)
        var = sum((x - mean_core) ** 2 for x in cores) / max(len(cores) - 1, 1)  # 0 for one trial
        std_core = math.sqrt(var)
        predicted = predictions[1]
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
    if not 0.0 < args.eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {args.eps}")
    gs = theory.gamma_fixed_point(args.c)
    cg = args.c * gs
    # phase budget chosen so the per-phase drop is under eps*(1-c*gamma)/8
    t = theory.rounds_for_epsilon(args.c, args.eps * (1.0 - cg) / 8.0)
    predictions = _check_point(args.n, args.c, t)
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
    results = _collapse_trials(args.n, args.c, t, predictions, args.trials, args.seed, args.threads)
    records = [rec for rec, _ in results]
    _emit_records(records, RECORD_COLUMNS, args)
    pooled = Counter()
    for _, y_hist in results:
        pooled.update(y_hist)
    total_steps = pooled.total()
    mean_y = sum(y * cnt for y, cnt in pooled.items()) / total_steps if total_steps else None
    within = sum(1 for r in records if r["epoch2_deleted"] <= args.eps * args.n)
    _say(f"t={t} pooled_steps={total_steps} pooled_mean_Y={mean_y!r}")
    _say(f"frac_deleted_within_eps_n={within / len(records)!r}")
    for y in sorted(pooled):
        _say(f"Y={y}: {pooled[y]}")
    return 0


def cmd_phase_transition(args) -> int:
    if args.n < 2:
        raise ValueError(f"n must be >= 2, got {args.n}")
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
    tasks = [(args.n, prob, args.side, i, mix_seed(args.seed, i)) for i in range(args.trials)]
    records = _run_tasks(_phase_trial, tasks, args.threads)
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
        mean_univ = sum(r["universal_count"] for r in records) / len(records)
        expected = theory.expected_universal_vertices(args.n, prob)
        _say(f"p={prob!r} frac_with_universal={have / len(records)!r}")
        _say(f"mean_universal={mean_univ!r} expected_universal={expected!r}")
    return 0


# -- validation suite ------------------------------------------------------------


def _check_oracle_equivalence() -> tuple[bool, str]:
    """Link-cone domination must equal neighborhood-containment domination."""
    checked = 0
    for k in range(40):
        n = 4 + (k % 13)
        p = 0.15 + 0.03 * (k % 16)
        g = sample_er(n, p, mix_seed(101, k))
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
        g = sample_er(n, p, mix_seed(202, k))
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
        base = sample_er(n, p, mix_seed(303, k))
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
    """Exact gap and epsilon sandwiches at 60 digits, t <= 30; `decimal` rounds exp correctly."""
    from decimal import Context, Decimal, localcontext  # loaded here only: validate alone needs it

    with localcontext(Context(prec=60)):
        for c_val in ("1.5", "2", "3"):
            c = Decimal(c_val)
            gs = Decimal("0.5")
            for _ in range(4000):  # a repeat is what every later step would give
                gs, last = (-c * (1 - gs)).exp(), gs
                if gs == last:
                    break
            cg = c * gs
            core = (1 - gs) * (1 - cg)
            pref = (-c).exp()
            r_lo = c * pref
            gammas = [Decimal(0)]
            for _ in range(33):
                gammas.append((-c * (1 - gammas[-1])).exp())
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
    lines.append(f"{len(_VALIDATE_CHECKS) - failures}/{len(_VALIDATE_CHECKS)} checks passed")
    _write_text("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


# -- argument parsing --------------------------------------------------------------


def _add_output(sub) -> None:
    sub.add_argument("--out", type=str, default=None)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_common(sub, *, trials: int) -> None:
    sub.add_argument("--trials", type=int, default=trials)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threads", type=int, default=None)
    _add_output(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapse-lab",
        description="Monte-Carlo laboratory for strong collapse on sparse random graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gamma", help="print the gamma_t recursion table")
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--t", type=int, default=20)
    _add_output(sp)
    sp.set_defaults(func=cmd_gamma)

    sp = sub.add_parser("predict", help="closed-form predictions for one (c, n, t)")
    sp.add_argument("--c", type=float, required=True)
    sp.add_argument("--n", type=int, default=10_000)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--paper-constants", action="store_true")
    _add_output(sp)
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
    sp.add_argument("--lam", type=float, default=None)
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
        if getattr(args, "trials", 1) < 1:
            raise ValueError(f"trials must be >= 1, got {args.trials}")
        _check_out(args.out)
        if getattr(args, "threads", None) is not None and args.threads < 1:
            raise ValueError(f"thread count must be >= 1, got {args.threads}")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
