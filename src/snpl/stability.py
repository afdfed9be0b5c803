"""Stability machinery: the max-information level correction alpha'(delta),
its maximizer delta*, the check that alpha' keeps snpl's bounds finite,
the gamma-grid ratio f(gamma, alpha), the sensitivity constants B_finite /
B_asymp, the pruned-set size heuristic, and Laplace noise.

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
    "check_alpha_prime",
    "gamma_grid",
    "t_fn",
    "b_finite",
    "b_asymp",
    "eta_heuristic",
    "laplace",
]

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
    """Maximizes alpha'(delta) over delta in [alpha 1e-6, alpha (1 - 1e-6)].
    Returns (delta*, alpha'(delta*)).

    With c = eps sqrt(n/2), d log alpha'/d delta = 0 is equivalent to
    g(delta) = 2 delta sqrt(log(2/delta)) - c (alpha - delta) = 0, and g is
    strictly increasing on (0, alpha) since 2 log(2/delta) > 1 there. So
    bisection on the sign of g, down to adjacent floats, finds the
    maximizer; its lower end stays at alpha 1e-6 when g >= 0 there (as at
    eps = 0, where alpha' only falls).
    """
    alpha_prime(alpha, alpha / 2.0, n, epsilon)  # validates the arguments
    c = epsilon * math.sqrt(n / 2.0)
    lo, hi = alpha * 1e-6, alpha * (1.0 - 1e-6)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if 2.0 * mid * math.sqrt(math.log(2.0 / mid)) < c * (alpha - mid):
            lo = mid
        else:
            hi = mid
    return lo, alpha_prime(alpha, lo, n, epsilon)


def check_alpha_prime(alpha_prime_value: float, eta: int, s_count: int) -> None:
    """Raises ValueError unless snpl's bounds are finite at level alpha':
    b_finite's log(3 / alpha'), the Bernstein log(3 |Pi~| |S| / (2 alpha'))
    at |Pi~| <= eta, and the normal quantiles at alpha' / (eta |S|) all hold
    when 3 eta |S| / alpha' is finite. The check keeps a factor 4 inside that
    edge, so alpha'(delta*) at n = 1 (which depends on alpha and gamma only)
    passes at every n: its n-dependence is rounding alone."""
    if not (alpha_prime_value > 0.0 and math.isfinite(12.0 * eta * s_count / alpha_prime_value)):
        raise ValueError(
            f"alpha'(delta*) = {alpha_prime_value:.3g} is too small for snpl's bounds; lower gamma"
        )


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
    """B_asymp = 4 xi / n + Phi^{-1}(1 - alpha' / (eta |S|)) sqrt(t(n, 2 xi)),
    the quantile taken as -Phi^{-1}(alpha' / (eta |S|)) so that no alpha'
    rounds away in 1 - alpha' / (eta |S|)."""
    frac = alpha_prime_value / (eta * s_count)
    if not 0.0 < frac < 0.5:
        raise ValueError("alpha' / (eta |S|) must lie in (0, 1/2)")
    return 4.0 * xi / n - normal_quantile(frac) * math.sqrt(t_fn(n, 2.0 * xi))


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
