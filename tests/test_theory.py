"""Fixed point, recursion, rate sandwich, and closed-form expectations.

Frozen constants were produced by an out-of-tree mpmath script (50 digit
working precision) and rounded to float; libm exp() is allowed to differ
from the correctly rounded value by one ulp, hence the 5e-15 slack on the
recursion values.
"""

import itertools
import math

import pytest

from collapse_lab.theory import (
    core_size_prediction,
    delta_of,
    epsilon_bounds,
    epsilon_of,
    expected_dominated_pairs,
    expected_f0_after_t,
    expected_universal_vertices,
    gamma_fixed_point,
    gamma_sequence,
    predict,
    prob_degree_ge2,
    root_degree_pmf,
    rounds_for_epsilon,
)

GAMMA_STAR = {
    1.5: 0.41718835613418861,
    2.0: 0.20318786997997995,
    3.0: 0.059520209292640369,
    4.0: 0.019827401281778414,
    5.0: 0.0069771536511447393,
}

# gamma_1..gamma_8 at c = 1.5
GAMMA_SEQ_15 = [
    0.22313016014842983,
    0.31182761503560011,
    0.35620154259154766,
    0.38071748575497207,
    0.39497856895322243,
    0.40351882157620376,
    0.40872130231637927,
    0.41192332697545186,
]

EPS_15 = [0.558771543446, 0.210059450888, 0.103813430698, 0.0572012123692]


def bisect_fixed_point(c: float) -> float:
    """Independent check: plain bisection on exp(-c(1-x)) - x over [0, 1/c]."""
    lo, hi = 0.0, 1.0 / c
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.exp(-c * (1.0 - mid)) - mid >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_fixed_point_matches_bisection():
    for c in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0):
        g = gamma_fixed_point(c)
        assert abs(g - bisect_fixed_point(c)) <= 1e-10
        assert 0.0 < g < 1.0 / c
        assert c * g < 1.0


def test_fixed_point_frozen_values():
    for c, expect in GAMMA_STAR.items():
        assert gamma_fixed_point(c) == pytest.approx(expect, abs=1e-12)


def test_fixed_point_domain():
    with pytest.raises(ValueError):
        gamma_fixed_point(1.0)
    with pytest.raises(ValueError):
        gamma_fixed_point(0.7)
    with pytest.raises(ValueError):
        gamma_fixed_point(2.0, tol=0.0)


def test_gamma_sequence_frozen():
    table = gamma_sequence(1.5, 8)
    assert table.gammas[0] == 0.0
    for t, expect in enumerate(GAMMA_SEQ_15, start=1):
        assert table.gammas[t] == pytest.approx(expect, abs=5e-15)
    # indexing sugar used by the CLI
    assert table[3] == table.gammas[3]
    assert len(table) == 9
    assert table.beta_of(0) == 1.0 - table.gammas[1]


def test_gamma_sequence_monotone_below_limit():
    for c in (1.2, 1.5, 3.0):
        star = gamma_fixed_point(c)
        gs = gamma_sequence(c, 40).gammas
        # strictly increasing until float saturation near the limit, never past it
        for a, b in itertools.pairwise(gs):
            assert a <= b <= star + 1e-12
        for a, b in itertools.pairwise(gs[:10]):
            assert a < b


def test_gamma_sequence_domain():
    with pytest.raises(ValueError):
        gamma_sequence(0.0, 5)
    with pytest.raises(ValueError):
        gamma_sequence(-1.0, 5)
    with pytest.raises(ValueError):
        gamma_sequence(1.5, 0)


# -- root degree law ------------------------------------------------------------


def test_pmf_is_poisson_at_depth_one():
    c = 2.3
    for k in range(12):
        direct = math.exp(-c) * c**k / math.factorial(k)
        assert root_degree_pmf(c, 1, k) == pytest.approx(direct, rel=1e-12)


def test_pmf_zero_equals_gamma_t():
    """P(root degree 0 after t-1 prunings) is gamma_t, the recursion value."""
    for c in (0.8, 1.5, 3.0):
        gs = gamma_sequence(c, 9).gammas
        for t in range(1, 9):
            assert root_degree_pmf(c, t, 0) == pytest.approx(gs[t], rel=1e-12)


def test_pmf_normalized_and_nonnegative():
    for c, t in itertools.product((0.5, 1.5, 3.0), (1, 2, 6)):
        total = 0.0
        for k in range(201):
            mass = root_degree_pmf(c, t, k)
            assert mass >= 0.0
            total += mass
        assert abs(total - 1.0) <= 1e-10


def test_prob_degree_ge2_consistent_with_pmf():
    for c, t in itertools.product((0.9, 1.5, 4.0), (1, 3, 7)):
        tail = 1.0 - root_degree_pmf(c, t, 0) - root_degree_pmf(c, t, 1)
        assert prob_degree_ge2(c, t) == pytest.approx(tail, abs=1e-12)


def test_pmf_domain():
    with pytest.raises(ValueError):
        root_degree_pmf(1.5, 0, 0)
    with pytest.raises(ValueError):
        root_degree_pmf(1.5, 2, -1)
    with pytest.raises(ValueError):
        prob_degree_ge2(1.5, 0)


# -- expectation curves ----------------------------------------------------------


def test_expected_f0_scales_linearly_in_n():
    for c, t in itertools.product((1.2, 1.5, 3.0), (0, 2, 7)):
        per_vertex = expected_f0_after_t(c, 1.0, t)
        assert expected_f0_after_t(c, 12345.0, t) == pytest.approx(
            per_vertex * 12345.0, rel=1e-12
        )


def test_expected_f0_frozen_value():
    assert expected_f0_after_t(1.5, 1e4, 5) == pytest.approx(2380.2542989188, abs=1e-5)


def test_expected_f0_t0_is_nonisolated_fraction():
    # before any pruning the expectation is (1 - gamma_1) n = (1 - e^{-c}) n
    c = 1.7
    assert expected_f0_after_t(c, 1.0, 0) == pytest.approx(1.0 - math.exp(-c), rel=1e-12)


def test_core_prediction_frozen():
    expect = {
        1.5: 0.21809829640544835,
        2.0: 0.47300701107406262,
        3.0: 0.77254712877215766,
        4.0: 0.9024354969574626,
        5.0: 0.95838048145848998,
    }
    for c, frac in expect.items():
        assert core_size_prediction(c, 1.0) == pytest.approx(frac, abs=1e-12)
        # the 2-core fraction of G(n, c/n), 1 - exp(-c*beta)(1 + c*beta), beta = 1 - gamma
        cb = c * (1.0 - gamma_fixed_point(c))
        two_core = 1.0 - math.exp(-cb) * (1.0 + cb)
        assert core_size_prediction(c, 1.0) == pytest.approx(two_core, abs=1e-12)


def test_epsilon_frozen_and_decreasing():
    for t, expect in enumerate(EPS_15):
        assert epsilon_of(1.5, t) == pytest.approx(expect, abs=1e-9)
    vals = [epsilon_of(1.5, t) for t in range(20)]
    for a, b in itertools.pairwise(vals):
        assert b < a
        assert b > 0.0


def test_delta_is_epsilon_difference():
    for c, t in itertools.product((1.3, 2.0), (0, 1, 4)):
        assert delta_of(c, t) == pytest.approx(
            epsilon_of(c, t) - epsilon_of(c, t + 1), rel=1e-12
        )


def test_predict_bundles_the_pieces():
    pred = predict(1.5, 1e4, 5)
    assert pred.f0_after_t == expected_f0_after_t(1.5, 1e4, 5)
    assert pred.core_f0 == core_size_prediction(1.5, 1e4)
    assert pred.delta_of_t == delta_of(1.5, 5)
    assert pred.eps_of_t == epsilon_of(1.5, 5)


def test_expectation_domain():
    with pytest.raises(ValueError):
        expected_f0_after_t(1.0, 100.0, 2)
    with pytest.raises(ValueError):
        expected_f0_after_t(1.5, 0.5, 2)
    with pytest.raises(ValueError):
        expected_f0_after_t(1.5, 100.0, -1)


# -- geometric rate sandwich --------------------------------------------------------


def test_sandwich_holds_in_float():
    for c in (1.5, 2.0, 3.0):
        gs = gamma_sequence(c, 12).gammas
        for t in range(10):
            b = epsilon_bounds(c, t)
            gap = gs[t + 1] - gs[t]
            assert b.gap_lower <= gap <= b.gap_upper
            assert b.eps_lower <= epsilon_of(c, t) <= b.eps_upper
            assert b.eps_lower > 0.0


def test_sandwich_frozen_at_c15_t1():
    b = epsilon_bounds(1.5, 1)
    assert b.gap_lower == pytest.approx(0.074680603, abs=1e-9)
    assert b.gap_upper == pytest.approx(0.13963096, abs=1e-8)
    gap = GAMMA_SEQ_15[1] - GAMMA_SEQ_15[0]
    assert gap == pytest.approx(0.088697455, abs=1e-9)


def test_alternate_prefactor_scales_by_e2c():
    """The exp(+c) variant is the corrected bound times e^{2c}, all four fields."""
    for c, t in itertools.product((1.5, 2.5), (0, 1, 3)):
        good = epsilon_bounds(c, t)
        loud = epsilon_bounds(c, t, paper_constants=True)
        scale = math.exp(2 * c)
        assert loud.gap_lower == pytest.approx(good.gap_lower * scale, rel=1e-12)
        assert loud.gap_upper == pytest.approx(good.gap_upper * scale, rel=1e-12)
        assert loud.eps_lower == pytest.approx(good.eps_lower * scale, rel=1e-12)
        assert loud.eps_upper == pytest.approx(good.eps_upper * scale, rel=1e-12)


def test_alternate_lower_bound_is_false():
    """With the exp(+c) prefactor the t=1 lower bound already exceeds the true gap."""
    loud = epsilon_bounds(1.5, 1, paper_constants=True)
    gap = GAMMA_SEQ_15[1] - GAMMA_SEQ_15[0]
    assert loud.gap_lower == pytest.approx(1.5, rel=1e-12)
    assert loud.gap_lower > gap


def test_rounds_for_epsilon_frozen():
    assert rounds_for_epsilon(1.5, 0.01) == 11


def test_rounds_for_epsilon_minimal():
    for c in (1.5, 2.0, 3.0):
        for eps in (0.3, 0.1, 0.01, 0.001):
            t = rounds_for_epsilon(c, eps)
            assert t >= 1
            assert epsilon_bounds(c, t).eps_upper <= eps
            if t > 1:
                assert epsilon_bounds(c, t - 1).eps_upper > eps


def test_rounds_for_epsilon_domain():
    with pytest.raises(ValueError):
        rounds_for_epsilon(1.5, 0.0)
    with pytest.raises(ValueError):
        rounds_for_epsilon(1.5, 1.0)
    with pytest.raises(ValueError):
        rounds_for_epsilon(1.0, 0.1)  # fixed point undefined


# -- one-step pair counts ---------------------------------------------------------


def enumerate_expected_ordered_pairs(n: int, p: float) -> float:
    """Exhaustive expectation of ordered dominated pairs over all graphs on n."""
    pairs = list(itertools.combinations(range(n), 2))
    total = 0.0
    for mask in range(1 << len(pairs)):
        adj = [set() for _ in range(n)]
        k = 0
        for bit, (u, v) in enumerate(pairs):
            if mask >> bit & 1:
                adj[u].add(v)
                adj[v].add(u)
                k += 1
        weight = p**k * (1 - p) ** (len(pairs) - k)
        count = 0
        for u in range(n):
            for w in adj[u]:
                if adj[u] - {w} <= adj[w]:
                    count += 1
        total += weight * count
    return total


def test_dominated_pairs_formula_exact_small_n():
    for n, p in itertools.product((4, 5), (0.3, 0.6)):
        brute = enumerate_expected_ordered_pairs(n, p)
        assert 2.0 * expected_dominated_pairs(n, p) == pytest.approx(brute, rel=1e-11)


def test_dominated_pairs_frozen():
    assert expected_dominated_pairs(8, 0.3) == pytest.approx(2.04193462638, rel=1e-11)
    assert expected_dominated_pairs(100, 0.0) == 0.0


def test_universal_vertices_matches_direct_form():
    for n in range(5, 51, 5):
        assert expected_universal_vertices(n, 0.9) == pytest.approx(
            n * 0.9 ** (n - 1), rel=1e-12
        )
    p_dense = 1.0 - 0.5 * math.log(1e4) / 1e4
    assert expected_universal_vertices(10_000, p_dense) == pytest.approx(
        99.94000978189943, rel=1e-10
    )


def test_pair_count_domain():
    with pytest.raises(ValueError):
        expected_dominated_pairs(1, 0.5)
    with pytest.raises(ValueError):
        expected_dominated_pairs(5, 1.2)
    with pytest.raises(ValueError):
        expected_universal_vertices(1, 0.5)
