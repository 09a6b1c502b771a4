"""Acceptance gate: ten end-to-end criteria, one test and one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines alongside the pytest verdicts.  Every tolerance below is
pinned: statistical checks use fixed seeds (base seed 0, substreams via
mix_seed), so reruns are bit-for-bit repeatable and a pass is permanent.

One criterion is known red; its test states the requirement literally
rather than tuning seeds or distributions around it.

A4 (monotone clause): with 10 trials per size the measured core-fraction
deviation at n=10^4 exceeds the n=10^3 one (the true expectation bias at both
sizes is smaller than the Monte-Carlo noise at this trial count), so requiring
a strictly decreasing deviation profile across {10^3, 10^4, 10^5} is a coin
flip, and at base seed 0 it lands red.  The substance clause (deviation
<= 0.01 at n=10^5) passes.

A10 (order-independence clause) asks for the core up to isomorphism, which is
all the theory promises: the fully collapsed graph is not unique as a labeled
vertex set.  Two adjacent vertices with equal closed neighborhoods dominate
each other, so whichever the processing order reaches first is removed; when
the survivor keeps positive degree the surviving vertex sets differ across
orders (swapping the twins is a graph isomorphism between the cores, and K2 is
the minimal example).  Graphs with such surviving twin pairs are near-certain
to appear in 100 draws at n <= 25, so the graphs whose labeled sets differ are
printed but not asserted.

Outside this file, tests/test_cli.py::test_console_script_and_module_entry
fails wherever the package is not pip-installed, since it runs the installed
`collapse-lab` console script.
"""

import math

import mpmath
import networkx as nx
import numpy as np
import scipy.stats

from collapse_lab.collapse_engine import (
    core_vertices,
    count_dominated_pairs,
    dominated_set,
    find_dominator,
    run_core,
)
from collapse_lab.experiments_cli import _check_point, _collapse_trial
from collapse_lab.graph_core import mix_seed, rng_from_seed, sample_er
from collapse_lab.simplicial_oracle import euler_characteristic, is_dominated_via_link
from collapse_lab.theory import (
    core_size_prediction,
    expected_dominated_pairs,
    expected_f0_after_t,
    gamma_fixed_point,
    gamma_sequence,
    root_degree_pmf,
    rounds_for_epsilon,
)
from collapse_lab.tree_process import estimate_gamma

C = 1.5
GAMMA_STAR_15 = 0.41718835613418861  # bisection oracle, 60-digit run, rounded
CORE_FRAC_15 = 0.21809829640544835  # (1 - gamma)(1 - c gamma) at c = 1.5


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _trial_records(n: int, t: int, trials: int, base_seed: int = 0, c: float = C):
    return [
        _collapse_trial((n, c, t, i, mix_seed(base_seed, i), *_check_point(n, c, t)))
        for i in range(trials)
    ]


def test_a1_fixed_point_against_bisection():
    lo, hi = 0.0, 1.0 / C
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.exp(-C * (1.0 - mid)) - mid >= 0.0:
            lo = mid
        else:
            hi = mid
    reference = 0.5 * (lo + hi)
    value = gamma_fixed_point(C)
    diff = abs(value - reference)
    ok = diff <= 1e-10 and C * value < 1.0
    _report("A1", ok, f"|gamma - bisection| = {diff:.3e}, c*gamma = {C * value:.6f}")


def test_a2_epoch1_expectation():
    n, t, trials = 10_000, 5, 30
    records = _trial_records(n, t, trials)
    mean_f0 = sum(rec["f0_epoch1"] for rec, _ in records) / trials
    expect = expected_f0_after_t(C, n, t)
    tol = 3.0 * n ** (2.0 / 3.0)
    diff = abs(mean_f0 - expect)
    _report(
        "A2",
        diff <= tol,
        f"|mean f0 - {expect:.2f}| = {diff:.2f}, tolerance {tol:.1f}",
    )


def test_a3_core_size_at_c15():
    n, trials = 10_000, 30
    t = rounds_for_epsilon(C, 0.01)
    records = _trial_records(n, t, trials)
    mean_frac = sum(rec["core_f0"] for rec, _ in records) / trials / n
    diff = abs(mean_frac - CORE_FRAC_15)
    _report(
        "A3",
        diff <= 0.02,
        f"mean core fraction {mean_frac:.5f} vs {CORE_FRAC_15:.5f}, diff {diff:.4f}",
    )


def test_a4_core_deviation_shrinks_with_n():
    trials = 10
    t = rounds_for_epsilon(C, 0.01)
    devs = []
    for j, n in enumerate((10**3, 10**4, 10**5)):
        point_seed = mix_seed(0, j)
        recs = [
            _collapse_trial((n, C, t, i, mix_seed(point_seed, i), *_check_point(n, C, t)))[0]
            for i in range(trials)
        ]
        mean_frac = sum(r["core_f0"] for r in recs) / trials / n
        devs.append(abs(mean_frac - CORE_FRAC_15))
    monotone = devs[0] > devs[1] > devs[2]
    ok = monotone and devs[2] <= 0.01
    _report(
        "A4",
        ok,
        "deviations "
        + " -> ".join(f"{d:.5f}" for d in devs)
        + f", monotone={monotone}, final<=0.01={devs[2] <= 0.01}",
    )


def test_a5_core_size_across_c():
    n, trials = 10_000, 10
    devs = {}
    for j, c in enumerate((1.5, 2.0, 3.0, 4.0, 5.0)):
        point_seed = mix_seed(0, j)
        t = rounds_for_epsilon(c, 0.01)
        recs = [
            _collapse_trial((n, c, t, i, mix_seed(point_seed, i), *_check_point(n, c, t)))[0]
            for i in range(trials)
        ]
        mean_frac = sum(r["core_f0"] for r in recs) / trials / n
        devs[c] = abs(mean_frac - core_size_prediction(c, 1.0))
    worst = max(devs.values())
    _report(
        "A5",
        worst <= 0.02,
        "per-c deviation " + ", ".join(f"{c}:{d:.4f}" for c, d in devs.items()),
    )


def test_a6_rate_sandwich_exact():
    failures = []
    with mpmath.workdps(50):
        for c_txt in ("1.5", "2", "3"):
            c = mpmath.mpf(c_txt)
            star = mpmath.mpf("0.5")
            for _ in range(4000):
                star = mpmath.exp(-c * (1 - star))
            cg = c * star
            core = (1 - star) * (1 - cg)
            pref = mpmath.exp(-c)
            r_lo = c * mpmath.exp(-c)
            gs = [mpmath.mpf(0)]
            for _ in range(33):
                gs.append(mpmath.exp(-c * (1 - gs[-1])))
            for t in range(31):
                gap = gs[t + 1] - gs[t]
                if not pref * r_lo**t <= gap <= pref * cg**t:
                    failures.append(f"gap c={c_txt} t={t}")
                eps = (1 - gs[t + 1] - c * gs[t] + c * gs[t] ** 2) - core
                lo = (c - cg) * pref / (1 - r_lo) * r_lo**t
                hi = (c + 1) * pref / (1 - cg) * cg**t
                if not lo <= eps <= hi:
                    failures.append(f"eps c={c_txt} t={t}")
        # the exp(+c) prefactor variant must already fail at c=1.5, t=1
        c = mpmath.mpf("1.5")
        alt_lower = mpmath.exp(c) * (c * mpmath.exp(-c)) ** 1
        g0 = mpmath.mpf(0)
        g1 = mpmath.exp(-c * (1 - g0))
        g2 = mpmath.exp(-c * (1 - g1))
        gap_1 = g2 - g1
        alt_fails = alt_lower > gap_1
    ok = not failures and alt_fails
    _report(
        "A6",
        ok,
        f"sandwich violations: {failures or 'none'}; "
        f"exp(+c) lower bound {float(alt_lower):.3f} > gap {float(gap_1):.5f}: {alt_fails}",
    )


def test_a7_second_epoch_drift_and_budget():
    n, trials, eps = 10_000, 30, 0.01
    cg = C * GAMMA_STAR_15
    t = rounds_for_epsilon(C, eps * (1.0 - cg) / 8.0)
    records = _trial_records(n, t, trials)
    total_y = total_steps = 0
    within = 0
    for rec, y_hist in records:
        total_steps += sum(y_hist.values())
        total_y += sum(y * cnt for y, cnt in y_hist.items())
        if rec["epoch2_deleted"] <= eps * n:
            within += 1
    mean_y = total_y / total_steps if total_steps else 0.0
    frac = within / trials
    ok = mean_y <= 0.62 and frac >= 0.90
    _report(
        "A7",
        ok,
        f"t={t}, pooled steps {total_steps}, mean Y {mean_y:.3f} <= 0.62, "
        f"within-budget fraction {frac:.2f} >= 0.90",
    )


def test_a8_pair_count_formulas():
    # exact-expectation side: n = 8, p = 0.3, 10^5 graphs
    n8, trials = 8, 100_000
    counts = np.empty(trials, dtype=np.int64)
    for i in range(trials):
        g = sample_er(n8, 0.3, mix_seed(0, i))
        counts[i] = count_dominated_pairs(g)
    expect = 2.0 * expected_dominated_pairs(n8, 0.3)
    se = counts.std(ddof=1) / math.sqrt(trials)
    z = abs(counts.mean() - expect) / se
    # sparse threshold side: p = 1.5 log(n)/n, dominated pairs should be gone
    n, sparse_trials = 10_000, 50
    p_sparse = 1.5 * math.log(n) / n
    zero = sum(
        count_dominated_pairs(sample_er(n, p_sparse, mix_seed(0, i))) == 0
        for i in range(sparse_trials)
    )
    zero_frac = zero / sparse_trials
    # dense threshold side via the complement: universal vertices still exist
    p_comp = 0.5 * math.log(n) / n
    universal = sum(
        (lambda g: g.alive_count() - g.non_isolated_count())(
            sample_er(n, p_comp, mix_seed(0, i))
        )
        > 0
        for i in range(sparse_trials)
    )
    univ_frac = universal / sparse_trials
    ok = z <= 3.0 and zero_frac >= 0.90 and univ_frac >= 0.95
    _report(
        "A8",
        ok,
        f"mean pairs z = {z:.2f} <= 3, sparse zero-pair fraction {zero_frac:.2f} >= 0.90, "
        f"dense universal fraction {univ_frac:.2f} >= 0.95",
    )


def test_a9_tree_gamma_and_degree_law():
    trials = 100_000
    worst_z = 0.0
    stats_t3 = None
    for t in range(1, 7):
        stats = estimate_gamma(C, t, trials, seed=mix_seed(0, t))
        g_t = gamma_sequence(C, t)[t]
        sigma = math.sqrt(g_t * (1.0 - g_t) / trials)
        worst_z = max(worst_z, abs(stats.gamma_hat - g_t) / sigma)
        if t == 3:
            stats_t3 = stats
    # degree histogram at t = 3: bins 0..6 plus a >= 7 tail keeps every
    # expected count above 5
    probs = [root_degree_pmf(C, 3, k) for k in range(7)]
    probs.append(1.0 - sum(probs))
    obs = [stats_t3.root_degree_hist[k] if k < len(stats_t3.root_degree_hist) else 0
           for k in range(7)]
    obs.append(stats_t3.trials - sum(obs))
    f_exp = np.array(probs) * stats_t3.trials
    f_exp *= sum(obs) / f_exp.sum()
    chi2, pvalue = scipy.stats.chisquare(obs, f_exp)
    ok = worst_z <= 4.0 and pvalue > 0.01
    _report(
        "A9",
        ok,
        f"max |z| over t=1..6 is {worst_z:.2f} <= 4; chi2 = {chi2:.2f}, p = {pvalue:.3f} > 0.01",
    )


def _core_graph(g):
    """The core as a networkx graph: the non-isolated alive vertices and their edges."""
    core = nx.Graph()
    core.add_nodes_from(core_vertices(g))
    core.add_edges_from(g.edges())
    return core


def test_a10_structural_oracles():
    link_disagreements = 0
    chi_breaks = 0
    set_mismatches = []
    iso_mismatches = []
    checked_vertices = 0
    collapses = 0
    for k in range(100):
        n = 5 + (k % 21)
        p = 0.10 + 0.02 * (k % 10)
        base = sample_er(n, p, mix_seed(10, k))
        # (1) the two domination definitions agree on every vertex
        for v in base.alive_ids():
            if is_dominated_via_link(base, v) != (find_dominator(base, v) is not None):
                link_disagreements += 1
            checked_vertices += 1
        # (2) every single elementary collapse preserves chi, following the
        # engine's own snapshot-and-reverify order
        g = base.copy()
        while True:
            snapshot = dominated_set(g)
            if not snapshot:
                break
            for v in snapshot:
                if find_dominator(g, v) is not None:
                    chi = euler_characteristic(g)
                    g.remove_vertex(v)
                    if euler_characteristic(g) != chi:
                        chi_breaks += 1
                    collapses += 1
        # (3) the core under each of 5 random processing orders is isomorphic
        # to the ascending-order core left by (2); the labeled vertex sets may
        # differ, so they are reported but not asserted
        ascending = _core_graph(g)
        cores = {frozenset(core_vertices(g))}
        isomorphic = True
        for r in range(5):
            h = base.copy()
            run_core(h, order_rng=rng_from_seed(mix_seed(20, 5 * k + r)))
            cores.add(frozenset(core_vertices(h)))
            isomorphic = isomorphic and nx.is_isomorphic(ascending, _core_graph(h))
        if not isomorphic:
            iso_mismatches.append(k)
        if len(cores) > 1:
            set_mismatches.append(k)
    ok = link_disagreements == 0 and chi_breaks == 0 and not iso_mismatches
    _report(
        "A10",
        ok,
        f"{checked_vertices} vertex agreements ({link_disagreements} disagree), "
        f"{collapses} collapses ({chi_breaks} break chi), "
        f"cores not isomorphic across orders on graphs {iso_mismatches or 'none'}; "
        f"labeled core sets differ on graphs {set_mismatches or 'none'} "
        "(adjacent twins with equal closed neighborhoods dominate each other, so the "
        "order picks the survivor)",
    )
