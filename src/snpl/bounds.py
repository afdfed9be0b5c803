"""Joint confidence bounds for weighted policy-value differences, and the
one home of every width and margin formula.

Two constructions: finite-sample empirical-Bernstein bounds (population
variance, union-corrected over |Pi~| x |S| tests) and asymptotic sup-t
bounds whose critical value is a simulated quantile of the minimum of
standardized correlated Gaussians, exact at one or two coordinates and
simulated beyond. A Bonferroni-normal variant serves as the union-bound
comparator and the in-loop bound.

``union_table`` builds every union-corrected ``LowerBoundTable`` from an
``estimators.ClassStats`` (an influence table for ``finite_bounds`` and
``bonferroni_normal_bounds``, or the class statistics of the scan, the
baselines and the bounds scatter). It holds both union width formulas,
empirical-Bernstein and Bonferroni-normal, and the rule that a bound table
needs n >= 2 rows, which ``asymptotic_bounds`` repeats since sup-t is not a
union table. Every bound builder takes only the record: its spec, n and
propensity floor c are those of the rows the statistics came from.
``supt_widths`` and ``margins`` work on arrays of (1/n)-normalized
variances and means shaped (..., |S|).

This module also owns the pairing of a guarantee mode with its bounds:
``finite`` takes the empirical-Bernstein widths and tables, ``asymptotic``
the Bonferroni-normal union widths and the sup-t joint tables.
``check_mode`` is the one check of a mode name; ``union_table`` and
``joint_bounds`` make the choice for the methods.

The scalar normal functions use only the standard library, so the module
needs numpy alone: Phi^{-1} is ``statistics.NormalDist.inv_cdf`` (Wichura's
AS 241, 1988), a few ulp from scipy's ``ndtri`` down to p = 5e-324;
Phi(x) = erfc(-x / sqrt 2) / 2, good to about x^2 ulp relative (the
rounding of x / sqrt 2, amplified in the tail); and Owen's T, which sets
the exact two-coordinate z*, is 20-point Gauss-Legendre quadrature (with a
reflection for a > 1), within 1e-16 absolute of scipy's Patefield-Tandy
``owens_t`` over h in [-8, 8] and a in [1e-4, 1e4].

Upper-sense guardrails are handled by negating into the lower-sense form:
every entry carries both the sense-correct ``bound`` and the flipped
``margin`` (lower bound on the certified quantity; certify iff margin > 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from statistics import NormalDist

import numpy as np

from .core import MIN_N_SIM, SafetySpec
from .estimators import ClassStats, InfluenceTable

__all__ = [
    "LowerBoundTable",
    "finite_bounds",
    "supt_quantile",
    "asymptotic_bounds",
    "bonferroni_normal_bounds",
    "normal_quantile",
    "supt_widths",
    "margins",
    "check_mode",
    "union_table",
    "joint_bounds",
]

# Floats per block of sup-t draws (256 KB): one block of normals and one of
# draws stay in cache while they are reduced.
_BLOCK = 1 << 15

# Diagonal entries at or below this relative floor count as zero-variance:
# excluded from the min statistic, given width 0.
_VAR_FLOOR = 1e-12

# Cap on the root-finding steps of the two-coordinate z*; Newton needs
# about five, bisection at most about 60 to reach adjacent floats.
_MAX_STEPS = 100


_NORMAL = NormalDist()


def _ndtr(x: float) -> float:
    """Phi(x) = erfc(-x / sqrt 2) / 2."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _gauss_legendre(m: int) -> tuple[tuple[float, float], ...]:
    """(node, weight) pairs of m-point Gauss-Legendre quadrature on [0, 1]:
    eight Newton steps on the Legendre recurrence from the usual cosine
    guesses (the rule stops changing after six)."""
    rule = []
    for i in range(1, m + 1):
        x = math.cos(math.pi * (i - 0.25) / (m + 0.5))
        for _ in range(8):
            p0, p1 = 1.0, x
            for k in range(2, m + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            slope = m * (x * p1 - p0) / (x * x - 1.0)
            x -= p1 / slope
        rule.append((0.5 * (1.0 - x), 1.0 / ((1.0 - x * x) * slope * slope)))
    return tuple(rule)


_GAUSS_LEGENDRE_20 = _gauss_legendre(20)


def _owens_t(h: float, a: float) -> float:
    """Owen's T(h, a) for a > 0. At a <= 1, 20-point Gauss-Legendre on
    T = (1 / 2 pi) int_0^{atan a} exp(-h^2 / (2 cos^2 t)) dt; at a > 1, the
    reflection T(h, a) = Q(h) / 2 + Q(ah) / 2 - Q(h) Q(ah) - T(ah, 1 / a)
    with h = |h| and Q(x) = Phi(-x). Within 1e-16 absolute of scipy's
    ``owens_t`` for h in [-8, 8] and a in [1e-4, 1e4]."""
    h = abs(h)
    if a > 1.0:
        q, qa = _ndtr(-h), _ndtr(-a * h)
        return 0.5 * q + 0.5 * qa - q * qa - _owens_t(a * h, 1.0 / a)
    top, c = math.atan(a), -0.5 * h * h
    total = sum(w * math.exp(c / math.cos(t * top) ** 2) for t, w in _GAUSS_LEGENDRE_20)
    return top / (2.0 * math.pi) * total


def _active(variances: np.ndarray) -> np.ndarray:
    """Entries above the relative zero-variance floor."""
    return variances > _VAR_FLOOR * max(1.0, float(variances.max(initial=0.0)))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (AS 241, from ``statistics``), a few ulp
    from scipy's ``ndtri`` down to p = 5e-324; ValueError outside (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile argument must lie in (0, 1)")
    return _NORMAL.inv_cdf(float(p))


def supt_widths(variances: np.ndarray, z_star: float, n: int) -> np.ndarray:
    """Sup-t widths -z* sqrt(var / n); variances at or below the relative
    zero-variance floor (relative to the largest one passed) get width 0."""
    return np.where(_active(variances), -z_star * np.sqrt(np.maximum(variances, 0.0) / n), 0.0)


def margins(means: np.ndarray, widths: np.ndarray, spec: SafetySpec) -> np.ndarray:
    """Per-entry margins, the sense-flipped estimate minus the width, for
    arrays shaped (..., |S|); the sense-correct bound is ``spec.signs *
    margin``."""
    return spec.signs * means - widths


@dataclass(frozen=True, eq=False)
class LowerBoundTable:
    """Per-(policy, guardrail) estimates and widths, shaped (|Pi|, |S|) with
    one row per policy id (ids unique), at one level, plus correction
    metadata. Margins (certify iff > 0) and sense-correct bounds follow from
    ``margins``."""

    policy_ids: tuple[str, ...]
    spec: SafetySpec
    estimates: np.ndarray
    widths: np.ndarray
    method: str
    level: float
    meta: dict = field(default_factory=dict)

    @classmethod
    def empty(cls, spec: SafetySpec, method: str, level: float) -> LowerBoundTable:
        blank = np.empty((0, spec.s_count))
        return cls((), spec, blank, blank, method, level)

    @property
    def margins(self) -> np.ndarray:
        return margins(self.estimates, self.widths, self.spec)

    @property
    def bounds(self) -> np.ndarray:
        return self.spec.signs * self.margins

    def min_margin(self, policy_id: str) -> float:
        return float(self.margins[self.policy_ids.index(policy_id)].min())

    def certified_ids(self) -> list[str]:
        """Policies whose every guardrail margin is strictly positive, in
        table order."""
        ok = (self.margins > 0.0).all(axis=1)
        return [pid for pid, keep in zip(self.policy_ids, ok) if keep]

    def take(self, rows) -> LowerBoundTable:
        """The table restricted to the given row indices, same metadata."""
        ids = tuple(self.policy_ids[i] for i in rows)
        return replace(
            self, policy_ids=ids, estimates=self.estimates[rows], widths=self.widths[rows]
        )

    def to_json_dict(self) -> dict:
        """One entry per (policy, guardrail), policy-major."""
        spec = self.spec
        rows = zip(
            self.policy_ids,
            self.estimates.tolist(),
            self.widths.tolist(),
            self.bounds.tolist(),
            self.margins.tolist(),
        )
        return {
            "method": self.method,
            "level": self.level,
            "meta": dict(self.meta),
            "entries": [
                {
                    "policy": pid,
                    "guardrail": spec.guardrails[s],
                    "sense": spec.senses[s],
                    "estimate": e[s],
                    "width": w[s],
                    "bound": b[s],
                    "margin": m[s],
                }
                for pid, e, w, b, m in rows
                for s in range(spec.s_count)
            ],
        }


def finite_bounds(
    table: InfluenceTable, level: float, assumed_class_size: int | None = None
) -> LowerBoundTable:
    """Empirical-Bernstein joint bounds at level ``level``:

        C_j(pi) = D_j(pi) -/+ [ sigma_j(pi) sqrt(2L/n) + 3 R_j L / n ],
        L = log(3 |Pi~| |S| / (2 level)),  R_j = (2 + w_j) / c,

    with |Pi~| = assumed_class_size (defaults to the table's policy count),
    and the spec, n and c the table's: ``union_table`` in finite mode.
    """
    return union_table(table, "finite", level, assumed_class_size)


def _exact_supt(sub: np.ndarray, level: float) -> float:
    """``supt_quantile`` of a covariance with d <= 2 coordinates, all
    active, in closed form.

    d = 1: z* = Phi^{-1}(level). d = 2 with correlation rho: by Owen's
    (1956) bivariate normal formula, P(min <= z) = Phi(z) + 2 T(z, a) with
    a = sqrt((1 - rho) / (1 + rho)) and T Owen's T function. It increases
    in z with derivative 2 phi(z) Phi(-a z) and in a, so the root lies in
    [Phi^{-1}(level / 2), Phi^{-1}(level)], the ends at rho = -1 and rho = 1.
    Newton steps from the upper end find it, each step kept inside the
    shrinking bracket (a bisection where it would leave it). A correlation
    matrix whose eigenvalues 1 -/+ |rho| fall under the Monte Carlo path's
    floor (d eps lambda_max), or with |rho| > 1 from rounding, counts as
    rank 1: z* is then an end of the bracket, as at rho = +-1.

    The d = 1 z* and the bracket ends are ``normal_quantile``'s exactly, a
    few ulp from scipy's ``ndtri``. Phi (``_ndtr``, erfc) and T
    (``_owens_t``, quadrature) agree with scipy's ``ndtr`` and ``owens_t``
    to a few ulp relative near the root, so the d = 2 z* lies within a few
    ulp of the root taken with scipy's functions.
    """
    hi = _NORMAL.inv_cdf(level)
    if sub.shape[0] == 1:
        return hi
    rho = sub[0, 1] / math.sqrt(sub[0, 0]) / math.sqrt(sub[1, 1])
    lo = _NORMAL.inv_cdf(0.5 * level)
    if 1.0 - abs(rho) <= 2.0 * np.finfo(float).eps * (1.0 + abs(rho)):
        return hi if rho > 0.0 else lo
    a = math.sqrt((1.0 - rho) / (1.0 + rho))
    z = hi
    for _ in range(_MAX_STEPS):
        excess = _ndtr(z) + 2.0 * _owens_t(z, a) - level
        if excess > 0.0:
            hi = z
        else:
            lo = z
        slope = 2.0 * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * _ndtr(-a * z)
        step = excess / slope if slope > 0.0 else math.inf
        if abs(step) <= 2.0 * np.finfo(float).eps * max(abs(z), 1.0):
            return z - step
        z = z - step if lo < z - step < hi else 0.5 * (lo + hi)
        if not lo < z < hi:  # the bracket is down to adjacent floats
            return z
    return z


def supt_quantile(cov: np.ndarray, level: float, n_sim: int, rng) -> float:
    """Lower ``level``-quantile z* of min_j cov_jj^{-1/2} rho_j for
    rho ~ N(0, cov): exact at d <= 2 active coordinates, else the empirical
    quantile of n_sim draws.

    Zero-variance coordinates are dropped from the min first; an all-zero
    covariance is degenerate. With d <= 2 coordinates left, z* is the
    closed form of ``_exact_supt`` (Phi^{-1}(level) at d = 1), no normals
    are drawn and ``rng`` is not used, so n_sim only has to pass its check.

    With d >= 3, the draws are z @ root for z ~ N(0, I_r), where root is
    r x d: the r eigenpairs (lambda, v) of the symmetric eigendecomposition
    above a relative floor, lambda > d eps lambda_max (eps the float64
    machine epsilon), as rows sqrt(lambda) v^T, each column divided by its
    coordinate's sd. So r is the numerical rank, the rounding noise of a
    singular covariance (duplicate columns) cannot move z*, and a
    rank-deficient covariance takes only r normals per draw. Each kept
    eigenvector is signed so that its largest-magnitude component (the
    first one on a tie) is positive, so a rounding-level change of the
    covariance cannot flip a row of the root and re-sample z*. Quantile
    convention: order statistic at index ceil(level * n_sim). ``rng`` is
    anything ``np.random.default_rng`` accepts.

    Cost O(n_sim r d) for the draws. They are taken and reduced in blocks of
    rows = max(1, _BLOCK // d) rows, so memory is O(rows d + n_sim). Each
    block is the next slice of the one ``standard_normal((n_sim, r))``
    stream with the same per-element arithmetic, so z* and the generator's
    state afterwards do not depend on the block size.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be square")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if n_sim < MIN_N_SIM:
        raise ValueError(f"n_sim must be >= {MIN_N_SIM}")
    diag = np.diag(cov)
    active = _active(diag)
    if not active.any():
        raise ValueError("degenerate covariance")
    sub = cov[np.ix_(active, active)]
    if sub.shape[0] <= 2:
        return _exact_supt(sub, level)
    gen = np.random.default_rng(rng)
    lam, vec = np.linalg.eigh(sub)
    d = vec.shape[0]
    keep = lam > d * np.finfo(float).eps * lam.max()
    lam, vec = lam[keep], vec[:, keep]
    r = lam.size
    signs = np.sign(vec[np.abs(vec).argmax(axis=0), np.arange(r)])
    root = (vec * (signs * np.sqrt(lam))).T / np.sqrt(diag[active])
    rows = max(1, _BLOCK // d)
    normals = np.empty((rows, r))
    draws = np.empty((rows, d))
    stats = np.empty(n_sim)
    for start in range(0, n_sim, rows):
        m = min(rows, n_sim - start)
        z, block = normals[:m], draws[:m]
        gen.standard_normal(out=z)
        np.matmul(z, root, out=block)
        out = stats[start : start + m]
        np.copyto(out, block[:, 0])
        for j in range(1, d):
            np.minimum(out, block[:, j], out=out)
    k = math.ceil(level * n_sim)
    return float(np.partition(stats, k - 1)[k - 1])


def asymptotic_bounds(table: InfluenceTable, level: float, n_sim: int, rng) -> LowerBoundTable:
    """Sup-t joint bounds: C_j(pi) = D_j(pi) + z* sqrt(Sigma_jj / n) in the
    lower-sense form (z* <= 0 for level < 0.5), upper-sense entries via the
    symmetric construction. z* comes from the table's covariance, the
    widths from its ``variances``. Zero-variance columns get width 0. ``meta``
    records n_sim, and ``rng`` as the seed when it is an integer, else null;
    neither applies when at most two columns have variance, where z* is
    exact. When no column has variance, nothing is drawn, every width is 0
    and z* is recorded as Phi^{-1}(level), the one-coordinate closed form.
    """
    n, spec = table.n, table.spec
    if n < 2:
        raise ValueError("bounds require n >= 2")
    cov = _covariance(table)
    signs = np.tile(spec.signs, table.policy_count)
    if _active(np.diag(cov)).any():
        z_star = supt_quantile(cov * np.outer(signs, signs), level, n_sim, rng)
    else:
        z_star = normal_quantile(level)
    return LowerBoundTable(
        policy_ids=table.policy_ids,
        spec=spec,
        estimates=table.means,
        widths=supt_widths(table.variances, z_star, n),
        method="supt",
        level=level,
        meta={
            "z_star": z_star,
            "n_sim": n_sim,
            "seed": int(rng) if isinstance(rng, (int, np.integer)) else None,
            "class_size": table.policy_count,
            "s_count": spec.s_count,
            "n": n,
        },
    )


def _covariance(table: InfluenceTable) -> np.ndarray:
    """(1/n)-normalized covariance of the influence columns."""
    centered = table.values - table.means.reshape(-1)
    return centered.T @ centered / table.n


def bonferroni_normal_bounds(
    table: InfluenceTable, level: float, assumed_class_size: int | None = None
) -> LowerBoundTable:
    """Normal-approximation bounds with a union correction: per (pi, j),

        C_j(pi) = D_j(pi) -/+ z sqrt(Sigma_jj / n),
        z = Phi^{-1}(1 - level / (|Pi~| |S|)),

    with |Pi~| = assumed_class_size (defaults to the table's policy count):
    ``union_table`` in asymptotic mode. No library code calls it (runs take
    ``union_table``); it stays for perfbench's tracer, which binds it.
    """
    return union_table(table, "asymptotic", level, assumed_class_size)


def check_mode(mode: str) -> None:
    """Raises ValueError unless ``mode`` is ``finite`` or ``asymptotic``."""
    if mode not in ("finite", "asymptotic"):
        raise ValueError("mode must be 'finite' or 'asymptotic'")


def union_table(
    stats: ClassStats, mode: str, level: float, class_size: int | None = None
) -> LowerBoundTable:
    """The mode's union-corrected bound table over |Pi~| = class_size
    (defaults to the statistics' policy count), from the statistics' means
    and (1/n)-normalized variances and their spec, n and c, one row per
    policy. Finite mode (method ``finite``) takes the empirical-Bernstein
    widths sigma_j sqrt(2L/n) + 3 R_j L / n with L = log(3 |Pi~| |S| /
    (2 level)) and R_j = (2 + w_j) / c; asymptotic mode (method
    ``bonferroni-normal``) the Bonferroni-normal widths z sqrt(var / n)
    with z = Phi^{-1}(1 - level / (|Pi~| |S|)), taken as
    -Phi^{-1}(level / (|Pi~| |S|)) so that a tiny per-test level does not
    round away. That per-test level must lie in (0, 0.5), so widths are
    never negative. ``meta`` records L or z. Raises ValueError at n < 2."""
    spec, n = stats.spec, stats.n
    if n < 2:
        raise ValueError("bounds require n >= 2")
    m = stats.policy_count if class_size is None else class_size
    if m < 1:
        raise ValueError("class size must be positive")
    sd = np.sqrt(stats.variances)
    if mode == "finite":
        if not 0.0 < level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        arg = 3.0 * m * spec.s_count / (2.0 * level)
        if not math.isfinite(arg):
            raise ValueError("level too small: log argument overflows")
        L = math.log(arg)
        R = (2.0 + np.asarray(spec.weights)) / stats.c
        widths = sd * math.sqrt(2.0 * L / n) + 3.0 * R * L / n
        method, meta = "finite", {"log_term": L}
    else:
        per_test = level / (m * spec.s_count)
        if not 0.0 < per_test < 0.5:
            raise ValueError("per-test level must lie in (0, 0.5)")
        z = -normal_quantile(per_test)
        widths = z * sd / math.sqrt(n)
        method, meta = "bonferroni-normal", {"z": z}
    meta.update(class_size=m, s_count=spec.s_count, n=n)
    return LowerBoundTable(stats.policy_ids, spec, stats.means, widths, method, level, meta)


def joint_bounds(
    table: InfluenceTable, mode: str, level: float, n_sim: int, rng
) -> LowerBoundTable:
    """The mode's joint bounds over exactly the table's columns:
    ``finite_bounds`` in finite mode, ``asymptotic_bounds`` (n_sim sup-t
    draws from rng) in asymptotic mode."""
    if mode == "finite":
        return finite_bounds(table, level)
    return asymptotic_bounds(table, level, n_sim, rng)
