"""Closed-form quantities for the pruning process on G(n, c/n) clique complexes.

Everything here is a deterministic pure function of (c, n, t).  The central
object is the recursion

    gamma_0 = 0,    gamma_{t+1} = exp(-c * (1 - gamma_t)),

whose limit gamma(c) is the least fixed point of x -> exp(-c(1-x)) in (0, 1)
for c > 1.  From it: the expected non-isolated count after t pruning phases,
the limiting core size (1-gamma)(1-c*gamma)*n, the per-phase decrement delta(t),
the distance-to-limit epsilon(t), and geometric sandwich bounds on both the
gamma increments and epsilon(t).

The core fraction is the 2-core fraction of G(n, c/n) (Pittel, Spencer and
Wormald, JCTA 1996): with beta = 1 - gamma and gamma = exp(-c*beta),
(1-gamma)(1-c*gamma) = 1 - exp(-c*beta)(1 + c*beta).

A note on the sandwich prefactor: the ratio bounds
c*gamma_t <= (gamma_{t+1}-gamma_t)/(gamma_t-gamma_{t-1}) <= c*gamma_{t+1}
telescope from gamma_1 - gamma_0 = exp(-c), which forces the prefactor
exp(-c).  A widely circulated variant prints exp(+c) instead, which already
fails numerically at (c=1.5, t=1): it gives the lower bound 1.5 for a true gap
of about 0.0887.  `epsilon_bounds` implements the exp(-c) version and exposes
the exp(+c) variant behind `paper_constants=True` for side-by-side output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class GammaTable:
    """gamma_0..gamma_T for one density constant c."""

    c: float
    gammas: tuple[float, ...]

    def beta_of(self, t: int) -> float:
        """Survival-side complement 1 - gamma_{t+1}."""
        return 1.0 - self.gammas[t + 1]

    def __getitem__(self, t: int) -> float:
        return self.gammas[t]

    def __len__(self) -> int:
        return len(self.gammas)


@dataclass(frozen=True)
class RateBounds:
    """Geometric sandwich values at one t: bounds on epsilon(t) and on the gamma gap."""

    eps_lower: float
    eps_upper: float
    gap_lower: float
    gap_upper: float


@dataclass(frozen=True)
class Prediction:
    """Expected-value bundle at one (c, n, t)."""

    f0_after_t: float
    core_f0: float
    delta_of_t: float
    eps_of_t: float


def gamma_sequence(c: float, T: int) -> GammaTable:
    """Iterate gamma_{t+1} = exp(-c(1-gamma_t)) from gamma_0 = 0 up to gamma_T."""
    if c <= 0:
        raise ValueError(f"density constant must be > 0, got {c}")
    if T < 1:
        raise ValueError(f"need at least one step, got T={T}")
    gs = [0.0]
    for _ in range(T):
        gs.append(math.exp(-c * (1.0 - gs[-1])))
    return GammaTable(c=c, gammas=tuple(gs))


def gamma_fixed_point(c: float, tol: float = _DEFAULT_TOL) -> float:
    """Least root of exp(-c(1-x)) - x in (0, 1), for c > 1.

    Monotone iteration from 0 approaches the least fixed point from below
    (the map is a contraction on [0, gamma] since f' = c*f); bisection on
    [last iterate, 1/c] then polishes to float precision.
    """
    if c <= 1:
        raise ValueError(f"fixed point requires c > 1, got c={c}")
    if tol <= 0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    x = 0.0
    for _ in range(1000):
        nxt = math.exp(-c * (1.0 - x))
        if nxt - x <= tol / 4:
            x = nxt
            break
        x = nxt
    lo, hi = x, 1.0 / c
    # invariant: g(lo) >= 0 > g(hi), where g(x) = exp(-c(1-x)) - x
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.exp(-c * (1.0 - mid)) - mid >= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol / 16:
            break
    gamma = 0.5 * (lo + hi)
    residual = abs(math.exp(-c * (1.0 - gamma)) - gamma)
    if not (c * gamma < 1.0):
        raise AssertionError(f"contraction bound violated: c*gamma = {c * gamma}")
    if residual > tol:
        raise AssertionError(f"fixed-point residual {residual} exceeds tol {tol}")
    return gamma


def root_degree_pmf(c: float, t: int, k: int) -> float:
    """Probability the root has degree k after t-1 pruning steps on a depth-t tree.

    Poisson law with mean c*(1 - gamma_{t-1}).
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    gamma_prev = 0.0 if t == 1 else gamma_sequence(c, t - 1).gammas[t - 1]
    lam = c * (1.0 - gamma_prev)
    if lam == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def prob_degree_ge2(c: float, t: int) -> float:
    """Probability the root keeps degree >= 2 after t-1 pruning steps."""
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    table = gamma_sequence(c, t)
    gamma_prev = table.gammas[t - 1]
    gamma_t = table.gammas[t]
    return 1.0 - gamma_t * (1.0 + c * (1.0 - gamma_prev))


def expected_f0_after_t(c: float, n: float, t: int) -> float:
    """Expected non-isolated count after t pruning phases: (1 - g_{t+1} - c*g_t + c*g_t^2) * n."""
    if c <= 1:
        raise ValueError(f"prediction requires c > 1, got c={c}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    gs = gamma_sequence(c, t + 1).gammas
    return (1.0 - gs[t + 1] - c * gs[t] + c * gs[t] ** 2) * n


def core_size_prediction(c: float, n: float) -> float:
    """Limiting non-isolated count of the fully pruned complex: (1-gamma)(1-c*gamma)*n."""
    gamma = gamma_fixed_point(c)
    return (1.0 - gamma) * (1.0 - c * gamma) * n


def epsilon_of(c: float, t: int) -> float:
    """Per-vertex distance from the t-phase expectation to the limiting core fraction."""
    return expected_f0_after_t(c, 1.0, t) - core_size_prediction(c, 1.0)


def delta_of(c: float, t: int) -> float:
    """Expected per-vertex decrement between phases t and t+1 (= eps(t) - eps(t+1))."""
    return expected_f0_after_t(c, 1.0, t) - expected_f0_after_t(c, 1.0, t + 1)


def predict(c: float, n: float, t: int) -> Prediction:
    """Bundle the four expectation-level quantities at one (c, n, t)."""
    return Prediction(
        f0_after_t=expected_f0_after_t(c, n, t),
        core_f0=core_size_prediction(c, n),
        delta_of_t=delta_of(c, t),
        eps_of_t=epsilon_of(c, t),
    )


def epsilon_bounds(c: float, t: int, paper_constants: bool = False) -> RateBounds:
    """Geometric sandwich at one t on both epsilon(t) and the gap gamma_{t+1}-gamma_t.

        e^{-c}(c e^{-c})^t <= gamma_{t+1}-gamma_t <= e^{-c}(c gamma)^t
        ((c-c*gamma) e^{-c}/(1-c e^{-c})) (c e^{-c})^t <= eps(t)
                                 <= ((c+1) e^{-c}/(1-c*gamma)) (c gamma)^t

    paper_constants=True swaps in the exp(+c) prefactor variant (see module
    docstring); its lower bounds are numerically false and are exposed only
    for comparison output.
    """
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    gamma = gamma_fixed_point(c)
    pref = math.exp(c) if paper_constants else math.exp(-c)
    r_lo = c * math.exp(-c)
    r_hi = c * gamma
    return RateBounds(
        eps_lower=(c - c * gamma) * pref / (1.0 - r_lo) * r_lo**t,
        eps_upper=(c + 1.0) * pref / (1.0 - r_hi) * r_hi**t,
        gap_lower=pref * r_lo**t,
        gap_upper=pref * r_hi**t,
    )


def rounds_for_epsilon(c: float, eps: float) -> int:
    """Least t with eps_upper(t) <= eps, clamped to >= 1."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"need 0 < eps < 1, got {eps}")
    gamma = gamma_fixed_point(c)
    r = c * gamma
    target = eps * (1.0 - r) / ((c + 1.0) * math.exp(-c))
    if target >= 1.0:
        return 1
    # small nudge absorbs float noise so exact eps_upper(t0) inputs return t0
    t = max(1, math.ceil(math.log(target) / math.log(r) - 1e-9))
    while epsilon_bounds(c, t).eps_upper > eps:
        t += 1
    return t


def expected_dominated_pairs(n: int, p: float) -> float:
    """Expected dominated-dominating pair count per the closed form
    (n(n-1)/2) * p * (1 - p(1-p))^(n-2), evaluated in log-space.

    The formula counts each unordered pair once with a single containment
    direction; the ordered-pair expectation observed in simulation is exactly
    twice this value (see collapse_engine.count_dominated_pairs).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    base = 1.0 - p * (1.0 - p)  # > 0 for all p in (0, 1]
    return math.exp(
        math.log(n) + math.log(n - 1) - math.log(2.0) + math.log(p) + (n - 2) * math.log(base)
    )


def expected_universal_vertices(n: int, p: float) -> float:
    """Expected count of vertices adjacent to all others: n * p^(n-1), in log-space."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    return math.exp(math.log(n) + (n - 1) * math.log(p))
