"""Stability machinery: the max-information level correction alpha'(delta),
its maximizer delta*, the gamma-grid ratio f(gamma, alpha), the sensitivity
constants B_finite / B_asymp, the pruned-set size heuristic, and Laplace
noise.

With epsilon = gamma / sqrt(n) both exponent terms depend on n only through
n * eps^2 = gamma^2 and eps * sqrt(n) = gamma, so alpha'(delta*) is
n-invariant at fixed gamma.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import normal_quantile

__all__ = [
    "alpha_prime",
    "delta_star",
    "gamma_grid",
    "t_fn",
    "b_finite",
    "b_asymp",
    "eta_heuristic",
    "laplace",
]

_GRID_POINTS = 2000
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def alpha_prime(alpha: float, delta: float, n: int, epsilon: float) -> float:
    """(alpha - delta) * exp(-(n/2) eps^2 - eps sqrt(n log(2/delta) / 2))."""
    if not 0.0 < delta < alpha < 1.0:
        raise ValueError("need 0 < delta < alpha < 1")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    if n < 1:
        raise ValueError("n must be >= 1")
    exponent = -(n / 2.0) * epsilon**2 - epsilon * math.sqrt(n * math.log(2.0 / delta) / 2.0)
    return (alpha - delta) * math.exp(exponent)


def delta_star(alpha: float, n: int, epsilon: float) -> tuple[float, float]:
    """Maximizes alpha'(delta) over delta in (0, alpha): dense log-spaced
    grid (2000 points over [alpha 1e-6, alpha (1 - 1e-6)]) then
    golden-section refinement around the best grid cell. Returns
    (delta*, alpha'(delta*)).
    """
    lo_edge = alpha * 1e-6
    hi_edge = alpha * (1.0 - 1e-6)
    grid = np.geomspace(lo_edge, hi_edge, _GRID_POINTS)
    vals = [alpha_prime(alpha, float(d), n, epsilon) for d in grid]
    best = int(np.argmax(vals))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, _GRID_POINTS - 1)]

    # Golden-section on [lo, hi]; handles boundary maxima as well as
    # interior ones. 80 iterations shrink the bracket far below any
    # meaningful delta resolution.
    a, b = float(lo), float(hi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = alpha_prime(alpha, x1, n, epsilon)
    f2 = alpha_prime(alpha, x2, n, epsilon)
    for _ in range(80):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = alpha_prime(alpha, x2, n, epsilon)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = alpha_prime(alpha, x1, n, epsilon)
    d = x1 if f1 >= f2 else x2
    return float(d), alpha_prime(alpha, float(d), n, epsilon)


def gamma_grid(alphas, gammas) -> np.ndarray:
    """Matrix of f(gamma, alpha) = alpha'(delta*) / alpha; rows follow
    alphas, columns gammas. n-invariant under epsilon = gamma / sqrt(n),
    so evaluated at n = 1, epsilon = gamma.
    """
    alphas = np.asarray(alphas, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    out = np.empty((alphas.size, gammas.size))
    for i, a in enumerate(alphas):
        for j, g in enumerate(gammas):
            _, ap = delta_star(float(a), 1, float(g))
            out[i, j] = ap / a
    return out


def t_fn(n: int, xi: float) -> float:
    """t(n, xi) = (4 xi^2 + 2 xi^2 / n + 2 xi^2 (n-1) / n) / (n (n-1))."""
    if n < 2:
        raise ValueError("t(n, xi) requires n >= 2")
    if xi <= 0:
        raise ValueError("xi must be positive")
    return (4.0 * xi**2 + 2.0 * xi**2 / n + 2.0 * xi**2 * (n - 1) / n) / (n * (n - 1))


def b_finite(n: int, xi: float, alpha_prime_value: float) -> float:
    """B_finite = 2 xi / n + sqrt(2 log(3 / alpha') t(n, xi))."""
    if not 0.0 < alpha_prime_value < 1.0:
        raise ValueError("alpha' must lie in (0, 1)")
    return 2.0 * xi / n + math.sqrt(2.0 * math.log(3.0 / alpha_prime_value) * t_fn(n, xi))


def b_asymp(n: int, xi: float, alpha_prime_value: float, eta: int, s_count: int) -> float:
    """B_asymp = 4 xi / n + Phi^{-1}(1 - alpha' / (eta |S|)) sqrt(t(n, 2 xi))."""
    frac = alpha_prime_value / (eta * s_count)
    if not 0.0 < frac < 0.5:
        raise ValueError("alpha' / (eta |S|) must lie in (0, 1/2)")
    return 4.0 * xi / n + normal_quantile(1.0 - frac) * math.sqrt(t_fn(n, 2.0 * xi))


def eta_heuristic(alpha: float, alpha_prime_value: float, class_size: int, s_count: int, p: float) -> int:
    """ceil(max(alpha' |Pi|^p / (alpha^p |S|^{1-p}), 1))."""
    if not p < 1:
        raise ValueError("p must be < 1")
    raw = alpha_prime_value * class_size**p / (alpha**p * s_count ** (1.0 - p))
    return int(math.ceil(max(raw, 1.0)))


def laplace(scale: float, rng: np.random.Generator) -> float:
    """One Laplace(scale) draw via the inverse CDF of a single uniform."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    u = rng.random()
    if u == 0.0:  # rng.random() is in [0, 1); avoid log(0)
        u = 2.0**-53
    q = u - 0.5
    return float(-scale * math.copysign(1.0, q) * math.log1p(-2.0 * abs(q)) + 0.0)
