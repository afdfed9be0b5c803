import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri, owens_t

from snpl.bounds import (
    _BLOCK,
    _active,
    _ndtr,
    _owens_t,
    LowerBoundTable,
    asymptotic_bounds,
    bernstein_widths,
    bonferroni_normal_bounds,
    finite_bounds,
    margins,
    normal_quantile,
    normal_widths,
    supt_quantile,
    supt_widths,
)
from snpl.core import SafetySpec
from snpl.estimators import InfluenceTable


def one_guardrail_spec(w=0.0, sense="lower", alpha=0.1) -> SafetySpec:
    return SafetySpec(goal=1, guardrails=(1,), weights=(w,), alpha=alpha, senses=(sense,))


def table_from_values(values, spec, c=0.5) -> InfluenceTable:
    values = np.asarray(values, dtype=float)
    n_pol = values.shape[1] // spec.s_count
    means = values.mean(axis=0)
    return InfluenceTable(
        policy_ids=tuple(f"p{i}" for i in range(n_pol)),
        means=means.reshape(-1, spec.s_count),
        variances=np.mean((values - means) ** 2, axis=0).reshape(-1, spec.s_count),
        goal=np.zeros(n_pol),
        baseline_goal=0.0,
        spec=spec,
        baseline_id="base",
        n=values.shape[0],
        c=c,
        values=values,
    )


class TestNormalQuantile:
    def test_0975(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_symmetry(self):
        assert normal_quantile(0.1) == pytest.approx(-normal_quantile(0.9), abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_domain(self, p):
        with pytest.raises(ValueError, match="quantile argument"):
            normal_quantile(p)

    def test_within_eight_ulp_of_scipy(self):
        # AS 241 against scipy's Cephes ndtri (7 ulp at most here): the
        # body, both tails to the smallest subnormal, and each branch edge
        # of either algorithm with its neighbours
        rng = np.random.default_rng(0)
        edges = np.array([
            math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0),  # Cephes
            0.075, 0.925, math.exp(-25.0),  # AS 241
        ])
        grid = np.concatenate([
            rng.uniform(size=100_000),
            10.0 ** rng.uniform(-300.0, 0.0, size=20_000),
            1.0 - 10.0 ** -rng.uniform(0.0, 16.0, size=20_000),
            [0.5, 5e-324],
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
        ])
        grid = grid[(grid > 0.0) & (grid < 1.0)]
        ours = np.array([normal_quantile(float(p)) for p in grid])
        ref = ndtri(grid)
        assert np.all(np.abs(ours - ref) <= 8.0 * np.spacing(np.abs(ref)))


class TestNormalCdfAndOwensT:
    def test_cdf_matches_scipy(self):
        # erfc(-x / sqrt 2) / 2: the rounding of x / sqrt 2 costs about x^2
        # ulp of relative error far in the tail
        xs = np.linspace(-37.0, 8.0, 4501)
        ours = np.array([_ndtr(float(x)) for x in xs])
        np.testing.assert_allclose(ours, ndtr(xs), rtol=1e-12, atol=0.0)

    def test_owens_t_matches_scipy(self):
        hs = np.linspace(-8.0, 8.0, 161)
        for a in np.geomspace(1e-4, 1e4, 81):
            ours = np.array([_owens_t(float(h), float(a)) for h in hs])
            np.testing.assert_allclose(ours, owens_t(hs, a), rtol=0.0, atol=1e-15)


class TestFiniteBounds:
    def unit_variance_table(self, spec, n=100):
        # half zeros, half twos: mean 1, population variance exactly 1
        col = np.repeat([0.0, 2.0], n // 2)[:, None]
        return table_from_values(col, spec)

    def test_hand_anchor(self):
        # sigma=1, n=100, single test at level 0.1, w=0, c=0.5:
        # L = log(3 / 0.2) = log 15, R = 4,
        # width = sqrt(2 L / 100) + 12 L / 100 = 0.23272 + 0.32497
        spec = one_guardrail_spec()
        table = self.unit_variance_table(spec)
        out = finite_bounds(table, level=0.1)
        assert out.widths[0, 0] == pytest.approx(0.55770, abs=1e-4)
        assert out.estimates[0, 0] == pytest.approx(1.0)
        assert out.margins[0, 0] == pytest.approx(1.0 - 0.55770, abs=1e-4)
        assert out.bounds[0, 0] == out.margins[0, 0]  # lower sense
        assert out.meta["log_term"] == pytest.approx(math.log(15.0), abs=1e-12)
        assert out.meta["class_size"] == 1 and out.meta["n"] == 100

    def test_assumed_class_size_inflates_log_term(self):
        spec = one_guardrail_spec()
        table = self.unit_variance_table(spec)
        out = finite_bounds(table, level=0.1, assumed_class_size=10)
        L = math.log(3.0 * 10 / 0.2)
        assert out.meta["log_term"] == pytest.approx(L, abs=1e-12)
        assert out.widths[0, 0] == pytest.approx(
            math.sqrt(2.0 * L / 100.0) + 12.0 * L / 100.0, abs=1e-12
        )

    def test_width_shrinks_with_n(self):
        spec = one_guardrail_spec()
        small = finite_bounds(self.unit_variance_table(spec, 100), 0.1)
        large = finite_bounds(self.unit_variance_table(spec, 10_000), 0.1)
        assert large.widths[0, 0] < small.widths[0, 0]

    def test_weight_tightens_range_term(self):
        # w = -0.5 gives R = 3 instead of 4
        spec = one_guardrail_spec(w=-0.5)
        table = self.unit_variance_table(spec)
        out = finite_bounds(table, 0.1)
        L = math.log(15.0)
        assert out.widths[0, 0] == pytest.approx(
            math.sqrt(2.0 * L / 100.0) + 9.0 * L / 100.0, abs=1e-12
        )

    def test_upper_sense_margin_flip(self):
        spec = one_guardrail_spec(sense="upper")
        table = self.unit_variance_table(spec)
        out = finite_bounds(table, 0.1)
        estimate, width = out.estimates[0, 0], out.widths[0, 0]
        assert out.margins[0, 0] == pytest.approx(-estimate - width, abs=1e-12)
        assert out.bounds[0, 0] == pytest.approx(estimate + width, abs=1e-12)

    def test_level_validation(self):
        spec = one_guardrail_spec()
        table = self.unit_variance_table(spec)
        with pytest.raises(ValueError, match="level"):
            finite_bounds(table, 0.0)

    def test_single_row_rejected(self):
        spec = one_guardrail_spec()
        table = table_from_values([[0.5]], spec)
        with pytest.raises(ValueError, match="n >= 2"):
            finite_bounds(table, 0.1)


class TestSupTQuantile:
    def test_single_coordinate_matches_normal(self):
        q = supt_quantile([[1.0]], 0.05, 100_000, 7)
        assert q == pytest.approx(-1.645, abs=0.05)

    def test_median_is_near_zero(self):
        q = supt_quantile([[1.0]], 0.5, 100_000, 7)
        assert q == pytest.approx(0.0, abs=0.02)

    def test_two_independent_coordinates(self):
        q = supt_quantile(np.eye(2), 0.05, 100_000, 7)
        assert q == pytest.approx(-1.955, abs=0.05)

    def test_correlation_never_widens(self):
        ind = supt_quantile(np.eye(2), 0.05, 100_000, 7)
        corr = supt_quantile([[1.0, 0.9], [0.9, 1.0]], 0.05, 100_000, 7)
        assert abs(corr) <= abs(ind) + 1e-9

    def test_scale_invariance(self):
        # statistic standardizes by the diagonal, so scaling cov is a no-op
        a = supt_quantile(np.eye(2), 0.05, 50_000, 3)
        b = supt_quantile(4.0 * np.eye(2), 0.05, 50_000, 3)
        assert a == pytest.approx(b, abs=1e-12)

    def test_seed_reproducibility(self):
        a = supt_quantile(np.eye(3), 0.1, 10_000, 42)
        b = supt_quantile(np.eye(3), 0.1, 10_000, 42)
        assert a == b

    def test_zero_variance_coordinate_dropped(self):
        full = supt_quantile([[1.0]], 0.05, 10_000, 5)
        padded = supt_quantile([[1.0, 0.0], [0.0, 0.0]], 0.05, 10_000, 5)
        assert padded == full

    @pytest.mark.parametrize(
        "make", [np.random.SeedSequence, np.random.PCG64, np.random.default_rng],
        ids=["SeedSequence", "BitGenerator", "Generator"],
    )
    def test_any_default_rng_argument_accepted(self, make):
        q = supt_quantile(np.eye(3), 0.1, 1_000, make(42))
        ref = supt_quantile(np.eye(3), 0.1, 1_000, np.random.default_rng(make(42)))
        assert q == ref

    def test_integer_seeds_recorded(self):
        # z* is a float; the table built from it records an integer seed
        spec = one_guardrail_spec()
        table = table_from_values(np.tile([-1.0, 1.0], 20)[:, None], spec)
        out = asymptotic_bounds(table, 0.1, 1_000, np.int64(42))
        assert out.meta["seed"] == 42 and type(out.meta["seed"]) is int
        assert supt_quantile(np.eye(2), 0.1, 1_000, 42) == (
            supt_quantile(np.eye(2), 0.1, 1_000, np.int64(42))
        )

    def test_all_zero_covariance_rejected(self):
        with pytest.raises(ValueError, match="degenerate covariance"):
            supt_quantile(np.zeros((2, 2)), 0.05, 1000, 0)

    def test_monotone_in_level(self):
        lo = supt_quantile(np.eye(2), 0.05, 50_000, 1)
        hi = supt_quantile(np.eye(2), 0.2, 50_000, 1)
        assert lo <= hi

    def test_input_validation(self):
        with pytest.raises(ValueError, match="square"):
            supt_quantile(np.zeros((2, 3)), 0.05, 1000, 0)
        with pytest.raises(ValueError, match="level"):
            supt_quantile(np.eye(2), 1.0, 1000, 0)
        with pytest.raises(ValueError, match="n_sim"):
            supt_quantile(np.eye(2), 0.05, 50, 0)


def kept_eigenpairs(cov):
    """The documented root's eigenpairs: those of the active submatrix with
    lambda > d eps lambda_max, each eigenvector signed so that its
    largest-magnitude component (the first on a tie) is positive."""
    active = _active(np.diag(cov))
    sub = cov[np.ix_(active, active)]
    lam, vec = np.linalg.eigh(sub)
    keep = lam > sub.shape[0] * np.finfo(float).eps * lam.max()
    lam, vec = lam[keep], vec[:, keep]
    flip = [vec[np.argmax(np.abs(col)), i] < 0.0 for i, col in enumerate(vec.T)]
    return lam, vec * np.where(flip, -1.0, 1.0)


def one_shot_supt(cov, level, n_sim, gen):
    """The unblocked sup-t quantile: one (n_sim, r) normal draw through the
    r x d root sqrt(lambda) v^T of the kept eigenpairs, its columns divided
    by the coordinates' sd."""
    cov = np.asarray(cov, dtype=float)
    lam, vec = kept_eigenpairs(cov)
    diag = np.diag(cov)
    root = (vec * np.sqrt(lam)).T / np.sqrt(diag[_active(diag)])
    stats = (gen.standard_normal((n_sim, lam.size)) @ root).min(axis=1)
    k = math.ceil(level * n_sim)
    return float(np.partition(stats, k - 1)[k - 1])


def full_dimension_supt(cov, level, n_sim, gen):
    """The formula the rank-sized draws replaced, as a distributional
    reference: d normals per draw through the d x d root with the floored
    eigenvalues set to 0 and eigh's signs, then each coordinate divided by
    its sd."""
    cov = np.asarray(cov, dtype=float)
    diag = np.diag(cov)
    active = _active(diag)
    sub = cov[np.ix_(active, active)]
    lam, vec = np.linalg.eigh(sub)
    floor = sub.shape[0] * np.finfo(float).eps * lam.max()
    root = vec * np.sqrt(np.where(lam > floor, lam, 0.0))
    draws = gen.standard_normal((n_sim, root.shape[0])) @ root.T
    stats = (draws / np.sqrt(diag[active])).min(axis=1)
    k = math.ceil(level * n_sim)
    return float(np.partition(stats, k - 1)[k - 1])


def random_cov(d, seed):
    a = np.random.default_rng(seed).standard_normal((d, d + 3))
    return a @ a.T / d


def duplicated_cov(d, seed):
    # columns repeated: singular, with eigenvalues of about +-1e-16
    half = random_cov((d + 1) // 2, seed)
    idx = np.arange(d) % half.shape[0]
    return half[np.ix_(idx, idx)]


def zero_variance_cov(d, seed):
    cov = random_cov(d, seed)
    dead = np.arange(1, d, 3)
    cov[dead, :] = 0.0
    cov[:, dead] = 0.0
    return cov


def flipped_cov(d, seed):
    # upper-sense columns enter sign-flipped, as in asymptotic_bounds
    signs = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    return random_cov(d, seed) * np.outer(signs, signs)


def brentq_supt(cov, level):
    """The exact z* at d <= 2 active coordinates as an independent
    reference: Phi^{-1}(level) at d = 1; at d = 2, brentq on Owen's
    P(min <= z) = Phi(z) + 2 T(z, sqrt((1 - rho) / (1 + rho))) = level over
    a bracket a little wider than the documented one, with the closed forms
    Phi^{-1}(level) and Phi^{-1}(level / 2) at rho = 1 and rho = -1."""
    cov = np.asarray(cov, dtype=float)
    sub = cov[np.ix_(*[_active(np.diag(cov))] * 2)]
    if sub.shape[0] == 1:
        return float(ndtri(level))
    rho = sub[0, 1] / math.sqrt(sub[0, 0] * sub[1, 1])
    if abs(rho) > 1.0 - 1e-14:
        return float(ndtri(level if rho > 0.0 else level / 2.0))
    a = math.sqrt((1.0 - rho) / (1.0 + rho))
    return brentq(
        lambda z: ndtr(z) + 2.0 * owens_t(z, a) - level,
        ndtri(level / 2.0) - 1e-6, ndtri(level) + 1e-6, xtol=1e-15, maxiter=500,
    )


def min_density(cov, z):
    """Density of the standardized two-coordinate min at z, 2 phi(z)
    Phi(-a z): the slope of P(min <= z)."""
    rho = cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1])
    a = math.sqrt((1.0 - rho) / (1.0 + rho))
    return 2.0 * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * ndtr(-a * z)


def correlation(rho):
    return np.array([[1.0, rho], [rho, 1.0]])


class TestSupTExact:
    """z* in closed form at d <= 2 active coordinates: the root-finding
    reference, the closed forms at rho in {-1, 0, 1}, agreement with Monte
    Carlo, and no draws from the generator."""

    # a tiny level arises at large gamma, where alpha' is small
    @pytest.mark.parametrize("level", [1e-10, 1e-6, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.9])
    def test_matches_brentq(self, level):
        scale = np.diag([0.3, 2.0])
        for rho in np.linspace(-1.0, 1.0, 41)[:-1]:
            for cov in (correlation(rho), scale @ correlation(rho) @ scale):
                assert supt_quantile(cov, level, 100, 0) == pytest.approx(
                    brentq_supt(cov, level), abs=1e-12
                )

    @pytest.mark.parametrize("level", [0.001, 0.05, 0.1, 0.5])
    def test_closed_forms(self, level):
        # independent: P(min <= z) = 1 - (1 - Phi(z))^2; rho = 1: one
        # coordinate; rho = -1: min(X, -X) = -|X|
        assert supt_quantile(correlation(0.0), level, 100, 0) == pytest.approx(
            ndtri(1.0 - math.sqrt(1.0 - level)), abs=1e-12
        )
        assert supt_quantile(correlation(1.0), level, 100, 0) == normal_quantile(level)
        assert supt_quantile(correlation(-1.0), level, 100, 0) == normal_quantile(level / 2.0)
        assert supt_quantile([[4.0]], level, 100, 0) == normal_quantile(level)

    def test_correlation_beyond_one_is_rank_one(self):
        # rounding can put |rho| a little above 1
        over = np.array([[1.0, 1.0 + 1e-12], [1.0 + 1e-12, 1.0]])
        assert supt_quantile(over, 0.1, 100, 0) == normal_quantile(0.1)
        flipped = over * np.array([[1, -1], [-1, 1]])
        assert supt_quantile(flipped, 0.1, 100, 0) == normal_quantile(0.05)

    @pytest.mark.parametrize("build", [random_cov, flipped_cov])
    @pytest.mark.parametrize("seed", range(4))
    def test_within_four_mc_sd_of_draws(self, build, seed):
        # the sd of an empirical level-quantile is sqrt(level (1 - level) /
        # n_sim) over the density at it
        cov = build(2, seed=seed)
        z = supt_quantile(cov, 0.1, 100_000, 0)
        mc = one_shot_supt(cov, 0.1, 100_000, np.random.default_rng(seed))
        sd = math.sqrt(0.1 * 0.9 / 100_000) / min_density(cov, z)
        assert abs(z - mc) < 4.0 * sd

    @pytest.mark.parametrize("d", [1, 2])
    def test_zero_variance_padding_dropped(self, d):
        cov = random_cov(d, seed=d)
        padded = np.zeros((d + 3, d + 3))
        live = [1, 3][:d]
        padded[np.ix_(live, live)] = cov
        padded[0, 0] = 1e-14 * cov.max()  # under the relative floor
        assert supt_quantile(padded, 0.1, 100, 0) == supt_quantile(cov, 0.1, 100, 0)

    def test_duplicate_columns_are_one_coordinate(self):
        # rho = +-1 whatever the scales: one coordinate, or min(X, -X)
        v = np.array([[1.7]])
        same = np.block([[v, 3.0 * v], [3.0 * v, 9.0 * v]])
        assert supt_quantile(same, 0.1, 100, 0) == normal_quantile(0.1)
        assert supt_quantile(duplicated_cov(2, seed=3), 0.1, 100, 0) == normal_quantile(0.1)
        flipped = same * np.array([[1, -1], [-1, 1]])
        assert supt_quantile(flipped, 0.1, 100, 0) == normal_quantile(0.05)

    @pytest.mark.parametrize(
        "cov",
        [[[2.0]], correlation(0.4), np.diag([0.0, 3.0, 0.0, 1.0, 0.0])],
        ids=["d1", "d2", "d2-padded"],
    )
    def test_generator_untouched(self, cov):
        gen = np.random.default_rng(5)
        before = gen.bit_generator.state
        supt_quantile(cov, 0.1, 100_000, gen)
        assert gen.bit_generator.state == before


class TestSupTBlockedDraws:
    """The blocked simulation against the one-shot formula it implements:
    the same z* bit for bit, and the generator left where one (n_sim, r)
    draw leaves it. With d <= 2 active coordinates there is no simulation:
    z* is the root-finding reference and the generator is left untouched."""

    def check(self, cov, level, n_sim, seed=11):
        gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        z = supt_quantile(cov, level, n_sim, gen)
        if _active(np.diag(cov)).sum() <= 2:
            assert z == pytest.approx(brentq_supt(cov, level), abs=1e-12)
        else:
            assert z == one_shot_supt(cov, level, n_sim, ref_gen)
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    @pytest.mark.parametrize("d", [1, 2, 3, 20, 41])
    @pytest.mark.parametrize("n_sim", ["100", "rows-1", "rows", "rows+1", "100000"])
    def test_matches_one_shot(self, d, n_sim):
        rows = max(1, _BLOCK // d)
        count = {"100": 100, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1}
        self.check(random_cov(d, seed=d), 0.05, count.get(n_sim, 100_000))

    @pytest.mark.parametrize("build", [duplicated_cov, zero_variance_cov, flipped_cov])
    @pytest.mark.parametrize("d", [2, 3, 20, 41])
    def test_special_covariances_match_one_shot(self, build, d):
        cov = build(d, seed=d + 1)
        rows = max(1, _BLOCK // int(_active(np.diag(cov)).sum()))
        for n_sim in (rows + 1, 100_000):
            self.check(cov, 0.1, n_sim, seed=d)

    @pytest.mark.parametrize(
        "d, entry",
        [(2, (0, 0)), (3, (0, 0)), (20, (0, -1)), (41, (0, -1))],
        ids=["2", "3", "20", "41"],
    )
    def test_one_ulp_on_duplicate_columns_keeps_z_star(self, d, entry):
        # duplicate columns leave eigenvalues of about +-1e-16 that a one-ulp
        # change of one covariance entry reshuffles; under the relative
        # floor they count as zero, so z* moves by rounding only (by about
        # 1e-9 with max(lambda, 0)). At d = 3 the first and last columns are
        # equal. At d = 2 the matrix is all-equal and z* is exact: one ulp
        # on entry (0, 0) leaves rho within the same floor of 1 (simulated
        # with eigh's signs, it flipped the top eigenvector and moved z*
        # from -1.2696 to -1.2928)
        cov = duplicated_cov(d, seed=d + 1)
        bumped = cov.copy()
        i, j = entry
        bumped[i, j] = bumped[j, i] = np.nextafter(cov[i, j], np.inf)
        z = supt_quantile(cov, 0.1, 20_000, 3)
        assert supt_quantile(bumped, 0.1, 20_000, 3) == pytest.approx(z, abs=1e-12)

    def test_rank_deficient_draws_rank_normals(self):
        # the floor keeps the numerical rank: duplicated_cov(20) has rank 10,
        # so test_special_covariances_match_one_shot's state check holds the
        # draws of that case to (n_sim, 10) normals
        cov = duplicated_cov(20, seed=21)
        assert kept_eigenpairs(cov)[0].size == np.linalg.matrix_rank(cov) < 20

    def test_stream_continues_across_calls(self):
        # a reused generator draws the same sequence of z* as the one-shot
        # formula on a twin generator; the exact d = 1 and d = 2 calls in
        # between draw nothing from it
        gen, ref_gen = np.random.default_rng(4), np.random.default_rng(4)
        for d in (3, 41, 1, 20, 2, 5):
            cov = random_cov(d, seed=d)
            z = supt_quantile(cov, 0.1, 2_000, gen)
            if d <= 2:
                assert z == pytest.approx(brentq_supt(cov, 0.1), abs=1e-12)
            else:
                assert z == one_shot_supt(cov, 0.1, 2_000, ref_gen)
        assert gen.bit_generator.state == ref_gen.bit_generator.state


class TestSupTSignConvention:
    """Fixed eigenvector signs: a change of the covariance that leaves its
    eigenvectors equal up to sign and rounding moves z* by rounding only,
    not by re-sampling."""

    def test_rebuilt_from_negated_eigenvectors_keeps_z_star(self):
        cov = random_cov(5, seed=5)
        lam, vec = np.linalg.eigh(cov)
        vec = vec * np.array([-1.0, 1.0, -1.0, 1.0, -1.0])
        rebuilt = vec @ np.diag(lam) @ vec.T
        z = supt_quantile(cov, 0.1, 20_000, 3)
        assert supt_quantile(rebuilt, 0.1, 20_000, 3) == pytest.approx(z, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reversed_coordinates_keep_z_star(self, seed):
        # the min is symmetric in the coordinates, but eigh may sign the
        # reversed matrix's eigenvectors differently; drawn with eigh's
        # signs, z* moves by up to 0.023 over these seeds
        cov = random_cov(5, seed=seed)
        z = supt_quantile(cov, 0.1, 20_000, 3)
        assert supt_quantile(cov[::-1, ::-1], 0.1, 20_000, 3) == pytest.approx(
            z, abs=1e-12
        )


@pytest.mark.parametrize("build", [duplicated_cov, random_cov])
def test_rank_sized_draws_match_full_dimension_distribution(build):
    # 0.02 is about 4 Monte Carlo sd of a 0.1-quantile at 1e5 draws
    cov = build(20, seed=9)
    new = supt_quantile(cov, 0.1, 100_000, 1)
    old = full_dimension_supt(cov, 0.1, 100_000, np.random.default_rng(2))
    assert new == pytest.approx(old, abs=0.02)


class TestAsymptoticBounds:
    def test_single_column_width(self):
        # unit variance, n=100, level 0.05: width ~ 1.645 / 10
        spec = one_guardrail_spec()
        col = np.tile([-1.0, 1.0], 50)[:, None]
        table = table_from_values(col, spec)
        out = asymptotic_bounds(table, 0.05, 100_000, 7)
        assert out.widths[0, 0] == pytest.approx(0.1645, abs=0.005)
        assert out.meta["z_star"] < 0.0
        assert out.meta["seed"] == 7 and out.meta["n_sim"] == 100_000

    def test_zero_variance_column_gets_zero_width(self):
        spec = SafetySpec(goal=1, guardrails=(1, 2), weights=(0.0, 0.0), alpha=0.1)
        rng = np.random.default_rng(0)
        values = np.column_stack([rng.standard_normal(200), np.full(200, 0.3)])
        table = table_from_values(values, spec)
        out = asymptotic_bounds(table, 0.05, 10_000, 1)
        assert out.widths[0, 1] == 0.0
        assert out.margins[0, 1] == pytest.approx(0.3)
        assert out.widths[0, 0] > 0.0

    def test_no_varying_column_draws_nothing(self):
        # z* is the one-coordinate closed form; every width is 0, so the
        # margins are the estimates
        spec = SafetySpec(goal=1, guardrails=(1, 2), weights=(0.0, 0.0), alpha=0.1)
        table = table_from_values(np.column_stack([np.zeros(50), np.full(50, -0.25)]), spec)
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        out = asymptotic_bounds(table, 0.05, 1000, rng)
        assert rng.bit_generator.state == state
        assert out.meta["z_star"] == normal_quantile(0.05)
        assert (out.widths == 0.0).all()
        assert out.margins.tolist() == [[0.0, -0.25]]

    def test_margin_definition(self):
        spec = SafetySpec(
            goal=1, guardrails=(1, 2), weights=(0.0, 0.0), alpha=0.1,
            senses=("lower", "upper"),
        )
        rng = np.random.default_rng(2)
        table = table_from_values(rng.standard_normal((300, 2)), spec)
        out = asymptotic_bounds(table, 0.1, 20_000, 9)
        (est_l, est_u), (width_l, width_u) = out.estimates[0], out.widths[0]
        assert out.margins[0, 0] == pytest.approx(est_l - width_l, abs=1e-12)
        assert out.margins[0, 1] == pytest.approx(-est_u - width_u, abs=1e-12)

    def test_rng_object_accepted(self):
        spec = one_guardrail_spec()
        table = table_from_values(np.tile([-1.0, 1.0], 20)[:, None], spec)
        out = asymptotic_bounds(table, 0.1, 1000, np.random.default_rng(0))
        assert out.meta["seed"] is None

    @pytest.mark.parametrize(
        "rng", [np.random.SeedSequence(3), np.random.PCG64(3)], ids=["SeedSequence", "BitGenerator"]
    )
    def test_seed_sequence_and_bit_generator_accepted(self, rng):
        spec = one_guardrail_spec()
        table = table_from_values(np.tile([-1.0, 1.0], 20)[:, None], spec)
        out = asymptotic_bounds(table, 0.1, 1000, rng)
        ref = asymptotic_bounds(table, 0.1, 1000, np.random.default_rng(3))
        assert out.meta["seed"] is None
        assert out.meta["z_star"] == ref.meta["z_star"]

    def test_rng_none_draws_fresh_entropy(self):
        spec = one_guardrail_spec()
        table = table_from_values(np.tile([-1.0, 1.0], 20)[:, None], spec)
        out = asymptotic_bounds(table, 0.1, 1000, None)
        assert out.meta["seed"] is None and out.meta["z_star"] < 0.0


class TestBonferroniNormalBounds:
    def test_critical_value(self):
        # level 0.08 over 10 policies x 2 guardrails: per test 0.004
        spec = SafetySpec(goal=1, guardrails=(1, 2), weights=(0.0, 0.0), alpha=0.1)
        rng = np.random.default_rng(3)
        table = table_from_values(rng.standard_normal((100, 20)), spec)
        out = bonferroni_normal_bounds(table, 0.08)
        assert out.meta["z"] == pytest.approx(2.652, abs=0.005)
        assert out.meta["class_size"] == 10

    def test_width_formula(self):
        spec = one_guardrail_spec()
        col = np.tile([-1.0, 1.0], 128)[:, None]
        table = table_from_values(col, spec)
        out = bonferroni_normal_bounds(table, 0.05)
        assert out.widths[0, 0] == pytest.approx(normal_quantile(0.95) / 16.0, abs=1e-12)

    def test_never_tighter_than_supt(self):
        spec = SafetySpec(goal=1, guardrails=(1, 2), weights=(0.0, -0.1), alpha=0.1)
        rng = np.random.default_rng(4)
        base = rng.standard_normal((400, 1))
        values = np.column_stack([base + 0.5 * rng.standard_normal((400, 1)) for _ in range(6)])
        table = table_from_values(values, spec)
        bonf = bonferroni_normal_bounds(table, 0.1)
        supt = asymptotic_bounds(table, 0.1, 100_000, 11)
        assert bonf.widths.shape == supt.widths.shape == (3, 2)
        assert np.all(supt.widths <= bonf.widths + 1e-3)

    def test_per_test_level_cap(self):
        spec = one_guardrail_spec()
        table = table_from_values(np.tile([-1.0, 1.0], 10)[:, None], spec)
        with pytest.raises(ValueError, match="per-test level"):
            bonferroni_normal_bounds(table, 0.6)


class TestWidthFunctions:
    spec = SafetySpec(
        goal=1, guardrails=(1, 2), weights=(0.0, -0.5), alpha=0.1, senses=("lower", "upper")
    )

    def test_tables_apply_the_width_functions(self):
        # three policies x two guardrails; variances shaped (|Pi|, |S|)
        values = np.random.default_rng(5).random((50, 6))
        table = table_from_values(values, self.spec)
        var = np.var(values, axis=0).reshape(3, 2)
        pairs = (
            (finite_bounds(table, 0.1, 7),
             bernstein_widths(var, self.spec, 0.1, 7, 50, 0.5)),
            (bonferroni_normal_bounds(table, 0.1, 7),
             normal_widths(var, self.spec, 0.1, 7, 50)),
        )
        sup = asymptotic_bounds(table, 0.1, 1000, 3)
        pairs += ((sup, supt_widths(var, sup.meta["z_star"], 50)),)
        for out, widths in pairs:
            assert out.widths.shape == (3, 2)
            np.testing.assert_allclose(out.widths, widths, rtol=0, atol=1e-14)
            np.testing.assert_allclose(
                out.margins, margins(table.means, widths, self.spec), rtol=0, atol=1e-14
            )

    def test_normal_widths_need_per_test_level_below_half(self):
        # level 0.6 over one policy and one guardrail would give z < 0
        spec = one_guardrail_spec(alpha=0.6)
        with pytest.raises(ValueError, match="per-test level"):
            normal_widths(np.ones((1, 1)), spec, 0.6, 1, 100)
        assert normal_widths(np.ones((1, 1)), spec, 0.6, 2, 100)[0, 0] > 0.0

    def test_widths_validate_level_and_class_size(self):
        with pytest.raises(ValueError, match="level"):
            bernstein_widths(np.ones((1, 2)), self.spec, 1.0, 1, 100, 0.5)
        with pytest.raises(ValueError, match="class size"):
            bernstein_widths(np.ones((1, 2)), self.spec, 0.1, 0, 100, 0.5)
        # an empty table at its own policy count, as a union over nothing
        empty = table_from_values(np.zeros((10, 0)), self.spec)
        with pytest.raises(ValueError, match="class size"):
            bonferroni_normal_bounds(empty, 0.1)

    def test_supt_widths_zero_below_floor(self):
        widths = supt_widths(np.array([4.0, 1e-13, 0.0]), -2.0, 100)
        assert widths.tolist() == [0.4, 0.0, 0.0]

    def test_margins_flip_upper_sense(self):
        got = margins(np.array([[0.3, 0.3]]), np.array([[0.1, 0.1]]), self.spec)
        assert got.ravel().tolist() == pytest.approx([0.2, -0.4], abs=1e-15)


class TestLowerBoundTable:
    def table(self, ids, margin, spec=None):
        # zero widths: each margin is its lower-sense estimate
        spec = spec or one_guardrail_spec()
        margin = np.asarray(margin, dtype=float)
        return LowerBoundTable(ids, spec, margin, np.zeros_like(margin), "finite", 0.1)

    def test_certification_is_strict(self):
        table = self.table(("a", "b"), [[0.0], [1e-9]])
        assert table.certified_ids() == ["b"]

    def test_all_guardrails_must_pass(self):
        spec = SafetySpec(goal=1, guardrails=(1, 2), weights=(0.0, 0.0), alpha=0.1)
        table = self.table(("a", "b"), [[0.5, -0.1], [0.2, 0.3]], spec)
        assert table.certified_ids() == ["b"]
        assert table.min_margin("a") == pytest.approx(-0.1)
        assert table.margins[0].tolist() == [0.5, -0.1]

    def test_first_appearance_order(self):
        table = self.table(("z", "a"), [[1.0], [1.0]])
        assert table.certified_ids() == ["z", "a"]

    def test_take_keeps_rows_and_metadata(self):
        table = self.table(("a", "b", "c"), [[1.0], [-1.0], [2.0]])
        sub = table.take([0, 2])
        assert sub.policy_ids == ("a", "c")
        assert sub.estimates.tolist() == [[1.0], [2.0]]
        assert (sub.method, sub.level, sub.spec) == (table.method, table.level, table.spec)

    def test_json_entries_policy_major(self):
        spec = SafetySpec(
            goal=1, guardrails=(2, 3), weights=(0.0, -0.5), alpha=0.1, senses=("lower", "upper")
        )
        table = LowerBoundTable(
            ("a", "b"), spec, np.array([[0.5, 0.25], [1.0, -2.0]]),
            np.array([[0.125, 0.5], [0.0, 0.25]]), "finite", 0.1, {"n": 4},
        )
        blob = table.to_json_dict()
        assert blob == {
            "method": "finite",
            "level": 0.1,
            "meta": {"n": 4},
            "entries": [
                {"policy": "a", "guardrail": 2, "sense": "lower", "estimate": 0.5,
                 "width": 0.125, "bound": 0.375, "margin": 0.375},
                {"policy": "a", "guardrail": 3, "sense": "upper", "estimate": 0.25,
                 "width": 0.5, "bound": 0.75, "margin": -0.75},
                {"policy": "b", "guardrail": 2, "sense": "lower", "estimate": 1.0,
                 "width": 0.0, "bound": 1.0, "margin": 1.0},
                {"policy": "b", "guardrail": 3, "sense": "upper", "estimate": -2.0,
                 "width": 0.25, "bound": -1.75, "margin": 1.75},
            ],
        }
        assert [list(e) for e in blob["entries"]] == [
            ["policy", "guardrail", "sense", "estimate", "width", "bound", "margin"]
        ] * 4
        assert all(type(e["estimate"]) is float for e in blob["entries"])

    def test_empty_table(self):
        spec = SafetySpec(goal=1, guardrails=(1, 2), weights=(0.0, 0.0), alpha=0.1)
        table = LowerBoundTable.empty(spec, "bonferroni", 0.1)
        assert table.estimates.shape == table.widths.shape == (0, 2)
        assert table.certified_ids() == []
        assert table.to_json_dict() == {
            "method": "bonferroni", "level": 0.1, "meta": {}, "entries": []
        }
