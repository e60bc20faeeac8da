import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular
from scipy.stats import chi2

from novelbayes.errors import EmptySlice, NotPositiveDefinite
from novelbayes.functional import FunctionalHyper
from novelbayes.model import (
    GaussianAtom,
    Hyperparameters,
    NIWParams,
    PriorMoments,
    _alpha_of,
    _beta_of,
    _block_distances,
    _chi2_cdf,
    _chi2_ppf,
    _cho_solve,
    _chol,
    _solve_triangular,
    _sq_distances,
    log_gaussian_density_many,
    prior_covariance,
    prior_mean,
    prior_variance,
    stick_breaking,
    tie_probability,
    truncation_level,
    xi_sequence,
    xi_values,
)
from novelbayes.sampler import ChainOutput

import oracles


class TestXiSequence:
    def test_flat_head(self):
        # kappa = 0.25, J = 3: first four elements share 0.75 equally
        for l in range(1, 5):
            assert xi_sequence(0.25, 3, l) == pytest.approx(0.1875, abs=1e-15)

    def test_first_tail_element(self):
        assert xi_sequence(0.25, 3, 5) == pytest.approx(0.1875 / 1.75, abs=1e-12)

    @pytest.mark.parametrize("kappa", [0.1, 0.25, 0.5, 0.9])
    @pytest.mark.parametrize("J", [1, 3, 10])
    def test_total_mass_is_one(self, kappa, J):
        # head sum plus the closed-form geometric tail
        head = sum(xi_sequence(kappa, J, l) for l in range(1, J + 2))
        base = (1 - kappa) / (J + 1)
        r = (J + 1) * kappa / (J * kappa + 1)
        tail = base * r / (1 - r)
        assert head + tail == pytest.approx(1.0, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        vals = xi_values(0.3, 4, 20)
        assert vals == pytest.approx([xi_sequence(0.3, 4, l) for l in range(1, 21)])


class TestTruncationLevel:
    def test_boundary_clamps_to_j_plus_one(self):
        base = (1 - 0.25) / 4
        assert truncation_level(np.array([base]), 0.25, 3) == 4

    def test_hand_example(self):
        # bound evaluates to ~6.3619 for min(u) = 0.05
        assert truncation_level(np.array([0.05]), 0.25, 3) == 6

    def test_monotone_in_min_u(self):
        levels = [truncation_level(np.array([u]), 0.25, 3)
                  for u in np.geomspace(0.18, 1e-12, 60)]
        assert all(l2 >= l1 for l1, l2 in zip(levels, levels[1:]))

    def test_never_below_j_plus_one(self):
        rng = np.random.default_rng(0)
        base = (1 - 0.5) / 4
        u = np.maximum(rng.random(100000) * base, 1e-300)
        levels = np.array([truncation_level(u[i:i + 1], 0.5, 3)
                           for i in range(u.size)])
        assert np.all(levels >= 4)
        for J in (1, 10):
            b = (1 - 0.5) / (J + 1)
            draws = np.maximum(rng.random(2000) * b, 1e-300)
            assert all(truncation_level(draws[i:i + 1], 0.5, J) >= J + 1
                       for i in range(draws.size))

    def test_empty_rejected(self):
        with pytest.raises(EmptySlice):
            truncation_level(np.array([]), 0.5, 3)


class TestStickBreaking:
    def test_direct_product(self):
        assert stick_breaking(np.array([0.5, 0.5])) == pytest.approx([0.5, 0.25])

    def test_degenerate_first_stick(self):
        w = stick_breaking(np.array([1 - 1e-12, 0.5, 0.5]))
        assert w[0] == pytest.approx(1.0, abs=1e-9)
        assert w[1:].sum() < 1e-11

    def test_partial_sums_below_one(self):
        rng = np.random.default_rng(1)
        v = rng.beta(1, 2, size=60)
        w = stick_breaking(v)
        assert np.all(w > 0)
        assert np.all(np.cumsum(w) < 1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), max_size=80))
    def test_weights_sum_to_at_most_one(self, v):
        w = stick_breaking(np.array(v))
        assert np.all(w >= 0.0)
        assert w.sum() <= 1.0 + 1e-12  # rounding of the running products

    def test_total_mass_monte_carlo(self):
        # E[sum of 1000 sticks] = 1 - 2^-1000 under Beta(1, 1)
        rng = np.random.default_rng(2)
        totals = [stick_breaking(rng.beta(1, 1, size=1000)).sum() for _ in range(10000)]
        assert np.mean(totals) == pytest.approx(1.0, abs=1e-3)


def _from_labels(alpha, beta, J):
    """The zeta trace of a one-scan (alpha, beta) pair, through ChainOutput."""
    return ChainOutput(alpha_trace=alpha[None], beta_trace=beta[None],
                       pi_trace=np.full((1, J + 1), 1 / (J + 1)), gamma_trace=np.ones(1),
                       n_active_trace=np.ones(1), n_known=J, seed=0).zeta_trace[0]


class TestMembershipMapping:
    @pytest.mark.parametrize("J", [1, 2, 5, 10])
    def test_round_trip(self, J):
        zeta = np.arange(1, 10001)
        alpha, beta = _alpha_of(zeta, J), _beta_of(zeta, J)
        assert np.all((alpha > 0) != (beta > 0))
        assert np.array_equal(_from_labels(alpha, beta, J), zeta)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.lists(st.integers(1, 40), max_size=60))
    def test_round_trip_property(self, J, labels):
        zeta = np.array(labels, dtype=int)
        alpha, beta = _alpha_of(zeta, J), _beta_of(zeta, J)
        assert np.all((alpha > 0) != (beta > 0))
        assert np.array_equal(alpha[alpha > 0], zeta[zeta <= J])
        assert np.array_equal(beta[beta > 0], zeta[zeta > J] - J)
        assert np.array_equal(_from_labels(alpha, beta, J), zeta)

    def test_exclusivity_rejected(self):
        with pytest.raises(ValueError, match="exactly one of alpha, beta must be positive"):
            _from_labels(np.array([1]), np.array([1]), 3)


def _log_density(x, atom):
    """log N(x; mean, cov) of one point: a one-row run of
    log_gaussian_density_many under the atom's checked factor."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return float(log_gaussian_density_many(x, np.asarray_chkfinite(atom.mean)[None],
                                           _chol(atom.cov)[None], [1])[0])


class TestLogGaussian:
    def test_standard_normal_mode(self):
        atom = GaussianAtom(np.zeros(1), np.eye(1))
        assert _log_density(np.zeros(1), atom) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_bivariate_identity(self):
        atom = GaussianAtom(np.zeros(2), np.eye(2))
        assert _log_density(np.array([1.0, 1.0]), atom) == pytest.approx(
            -math.log(2 * math.pi) - 1.0, abs=1e-12)

    def test_extended_precision_oracle(self):
        mp = pytest.importorskip("mpmath")

        mp.mp.dps = 40
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = rng.integers(1, 5)
            A = rng.normal(size=(p, p))
            cov = A @ A.T + p * np.eye(p)
            mean = rng.normal(size=p)
            x = rng.normal(size=p)
            got = log_gaussian_density_many(x[None], mean[None], np.linalg.cholesky(cov)[None],
                                            [1])[0]
            mcov = mp.matrix(cov.tolist())
            dev = mp.matrix((x - mean).tolist())
            quad = (dev.T * (mcov ** -1) * dev)[0, 0]
            want = -mp.mpf(0.5) * (p * mp.log(2 * mp.pi) + mp.log(mp.det(mcov)) + quad)
            assert got == pytest.approx(float(want), rel=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        mean = np.array([1.0, -1.0])
        X = rng.normal(size=(20, 2))
        batch = log_gaussian_density_many(X, mean[None], np.linalg.cholesky(cov)[None], [20])
        single = [_log_density(x, GaussianAtom(mean, cov)) for x in X]
        assert batch == pytest.approx(single, rel=1e-13)

    @pytest.mark.parametrize("p", [1, 2, 8, 9, 12])
    def test_row_blocks_equal_one_block_calls_bit_for_bit(self, p):
        """Runs of rows under their own atoms in one call give the bits of
        one call per run, for runs of 1 to 40 rows."""
        rng = np.random.default_rng(p)
        sizes = [2, 1, 40, 3, 1, 17]
        means = rng.normal(size=(len(sizes), p))
        A = rng.normal(size=(len(sizes), p, p))
        chols = np.linalg.cholesky(A @ A.transpose(0, 2, 1) + p * np.eye(p))
        X = rng.normal(size=(sum(sizes), p)) * 4.0
        got = log_gaussian_density_many(X, means, chols, sizes)
        lo = 0
        for mean, L, n in zip(means, chols, sizes):
            want = log_gaussian_density_many(X[lo:lo + n], mean[None], L[None], [n])
            assert np.array_equal(got[lo:lo + n], want)
            lo += n

    @pytest.mark.parametrize("p", [1, 3, 9])
    def test_fortran_ordered_rows_give_the_c_ordered_bits(self, p):
        """Rows held column-major (say, a pandas block) give the distances
        and densities of the same rows held row-major: the solve is not
        skipped when the deviations are not row-major."""
        rng = np.random.default_rng(20 + p)
        A = rng.normal(size=(p, p))
        cov = A @ A.T + p * np.eye(p)
        mean, X = rng.normal(size=p), rng.normal(size=(30, p)) * 4.0
        L = np.linalg.cholesky(cov)
        d2 = _sq_distances(X, mean[None], cov[None])[0]
        Z = solve_triangular(L, (X - mean).T, lower=True)
        assert d2 == pytest.approx(np.sum(Z * Z, axis=0), rel=1e-12)
        F = np.asfortranarray(X)
        assert np.array_equal(_sq_distances(F, mean[None], cov[None])[0], d2)
        want = log_gaussian_density_many(X, mean[None], L[None], [30])
        assert np.array_equal(log_gaussian_density_many(F, mean[None], L[None], [30]), want)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            _log_density(np.zeros(2), GaussianAtom(np.zeros(2), -np.eye(2)))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("p", range(1, 13))
    def test_block_norms_have_numpys_row_sums_bit_for_bit(self, p, order):
        """Row by row along the long axis below p = 8, numpy's sum from
        p = 8 on: the norms equal numpy's own sum over each row of squares,
        on either side of the boundary and for either memory order."""
        rng = np.random.default_rng(p)
        sizes = [3, 0, 1, 90, 17]
        A = rng.normal(size=(len(sizes), p, p))
        factors = np.linalg.cholesky(A @ A.transpose(0, 2, 1) + p * np.eye(p))
        N = sum(sizes)
        D = np.asarray(rng.normal(size=(N, p)) * 10.0 ** rng.uniform(-3, 3, size=(N, p)),
                       order=order)
        want = oracles.block_distances_sum(D, factors, sizes)
        got = _block_distances(D.copy(order="K"), factors, sizes)
        assert got.shape == (N,) and np.array_equal(got, want)


def _outcome(fn):
    """The value of fn(), or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)


class TestSolveLower:
    """The direct LAPACK solve reproduces scipy's checked wrapper bit for
    bit and raises what the wrapper raises."""

    @pytest.mark.parametrize("p", range(1, 9))
    def test_bitwise_equal_to_solve_triangular(self, p):
        rng = np.random.default_rng(p)
        for n in (1, 2, 3, 7, 50):
            A = rng.normal(size=(p, p))
            L = np.linalg.cholesky(A @ A.T + p * np.eye(p))
            B = (rng.normal(size=(n, p)) * 10.0).T  # the F-ordered distance case
            for factor in (L, np.asfortranarray(L)):
                want = solve_triangular(factor, B, lower=True)
                assert np.array_equal(_solve_triangular(factor, B), want)
            C = np.ascontiguousarray(B)  # the transposed factor in sample_niw
            assert np.array_equal(_solve_triangular(L, C), solve_triangular(L, C, lower=True))

    @pytest.mark.parametrize("p", [1, 2, 5, 30])
    def test_upper_and_cholesky_solves_bitwise_equal_to_the_wrappers(self, p):
        """The two solves of a curve coefficient draw: the conditional mean
        from the precision factor, and the upper solve with its transpose."""
        rng = np.random.default_rng(p)
        for _ in range(25):
            A = rng.normal(size=(p, p))
            L = np.linalg.cholesky(A @ A.T + rng.uniform(0.01, 10.0) * np.eye(p))
            b = rng.normal(size=p) * 10.0
            assert np.array_equal(_cho_solve(L, b), cho_solve((L, True), b))
            assert np.array_equal(_solve_triangular(L.T, b, lower=False),
                                  solve_triangular(L.T, b, lower=False))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_cholesky_solve_rejects_what_the_wrapper_rejects(self, bad):
        L, b = np.eye(3), np.ones(3)
        for factor, rhs in ((L, np.array([1.0, bad, 1.0])), (np.diag([1.0, bad, 1.0]), b)):
            want = _outcome(lambda: cho_solve((factor, True), rhs))
            assert isinstance(want, tuple)
            assert _outcome(lambda: _cho_solve(factor, rhs)) == want

    def test_singular_upper_factor_raises_what_the_wrapper_raises(self):
        U = np.triu(np.ones((3, 3))) + np.eye(3)
        U[1, 1] = 0.0
        for A in (U, np.asfortranarray(U)):
            want = _outcome(lambda: solve_triangular(A, np.ones(3), lower=False))
            assert isinstance(want, tuple)
            assert _outcome(lambda: _solve_triangular(A, np.ones(3), lower=False)) == want

    def test_distances_match_the_wrapper_path(self):
        rng = np.random.default_rng(9)
        for p in range(1, 9):
            X = rng.normal(size=(40, p))
            mean = rng.normal(size=p)
            A = rng.normal(size=(p, p))
            cov = A @ A.T + np.eye(p)
            Z = solve_triangular(np.linalg.cholesky(cov), (X - mean).T, lower=True)
            assert np.array_equal(_sq_distances(X, mean[None], cov[None])[0],
                                  np.sum(Z * Z, axis=0))

    @pytest.mark.parametrize("p", [1, 3])
    def test_singular_factor_raises_what_the_wrapper_raises(self, p):
        L = np.tril(np.ones((p, p))) + np.eye(p)
        L[p - 1, p - 1] = 0.0
        B = np.ones((p, 2))
        want = _outcome(lambda: solve_triangular(L, B, lower=True))
        assert isinstance(want, tuple)
        assert _outcome(lambda: _solve_triangular(L, B)) == want

    def test_non_finite_mean_raises_what_the_wrapper_raised(self):
        X, cov = np.zeros((3, 2)), np.eye(2)
        mean = np.array([0.0, np.nan])
        want = _outcome(lambda: solve_triangular(np.eye(2), (X - mean).T, lower=True))
        assert _outcome(lambda: _sq_distances(X, mean[None], cov[None])) == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_raises_what_the_wrapper_raised(self, bad):
        cov = np.array([[bad, 0.0], [0.0, 1.0]])
        L = np.linalg.cholesky(cov)  # numpy passes the NaN or inf through
        want = _outcome(lambda: solve_triangular(L, np.ones((2, 3)), lower=True))
        atom = GaussianAtom(np.zeros(2), cov)
        assert _outcome(lambda: _log_density(np.ones(2), atom)) == want
        assert _outcome(lambda: _chol(np.stack([np.eye(2), cov]))) == want


class TestChiSquare:
    """The two scipy.special kernels give scipy.stats.chi2's values bit for
    bit: the eta-quantiles and cdf of the MCD consistency factor and the
    99.9% start gate, for p = 1..300."""

    DF = np.arange(1, 301)
    ETA = np.arange(500, 1000, 5) / 1000  # the trimming fractions eta in [0.5, 1)
    Q = np.concatenate([[1e-4, 0.01, 0.1, 0.25], ETA, [0.999, 0.9999]])

    def test_quantiles_and_cdf_bitwise_equal_to_scipy_stats(self):
        df, q = self.DF[:, None], self.Q[None, :]
        x = _chi2_ppf(q, df)
        assert x.dtype == np.float64 and x.tobytes() == chi2.ppf(q, df).tobytes()
        assert _chi2_cdf(x, df + 2).tobytes() == chi2.cdf(x, df + 2).tobytes()

    def test_scalar_calls_bitwise_equal_to_scipy_stats(self):
        """Python scalars, as consistency_factor and the start gate pass them."""
        for df in range(1, 301):
            for q in (0.5, 0.75, 0.875, 0.999):
                x = _chi2_ppf(q, df)
                assert x.tobytes() == chi2.ppf(q, df=df).tobytes()
                assert _chi2_cdf(x, df + 2).tobytes() == chi2.cdf(x, df=df + 2).tobytes()


def _settings(cls, **kw):
    own = {}
    if cls is Hyperparameters:
        own = dict(lambda_tr=10.0, nu_tr=10.0,
                   base_measure=NIWParams(np.zeros(2), 0.01, 6.0, np.eye(2)))
    return cls(a=np.array([0.1, 0.4, 0.6]), **own, **kw)


class TestChainSettings:
    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_functional_fixed_gamma_must_be_positive(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            _settings(FunctionalHyper, gamma=gamma)

    @pytest.mark.parametrize("field", ["phi", "v"])
    def test_functional_known_prior_variances_must_be_non_negative(self, field):
        with pytest.raises(ValueError, match="phi and v must be non-negative"):
            _settings(FunctionalHyper, **{field: -1e-9})
        assert getattr(_settings(FunctionalHyper, **{field: 0.0}), field) == 0.0

    @pytest.mark.parametrize("cls", [Hyperparameters, FunctionalHyper])
    def test_negative_burnin_rejected(self, cls):
        with pytest.raises(ValueError, match="n_burnin"):
            _settings(cls, n_iter=3, n_burnin=-2)

    @pytest.mark.parametrize("cls", [Hyperparameters, FunctionalHyper])
    def test_zero_atom_thin_rejected(self, cls):
        with pytest.raises(ValueError, match="atom_thin"):
            _settings(cls, atom_thin=0)

    @pytest.mark.parametrize("scale", [np.zeros((2, 2)), -np.eye(2), np.diag([1.0, np.nan]),
                                       np.array([[1.0, 2.0], [2.0, 1.0]])])
    def test_base_measure_scale_must_be_positive_definite(self, scale):
        """Checked once per fit: every empty novelty slot draws from it."""
        with pytest.raises(ValueError, match="s0-scale"):
            Hyperparameters(a=np.array([0.1, 0.9]), lambda_tr=10.0, nu_tr=10.0,
                            base_measure=NIWParams(np.zeros(2), 0.01, 6.0, scale))


class TestPriorMoments:
    def test_mean_hand_example(self):
        m = PriorMoments(mu=[0.0, 2.0], mu2=[1.0, 5.0], a=[1.0, 1.0])
        assert prior_mean(m) == pytest.approx(1.0)

    def test_gamma_zero_keeps_finite_mixture_covariance(self):
        m = PriorMoments(mu=[0.5, 2.0], mu2=[1.25, 5.0], a=[0.7, 1.3])
        assert prior_covariance(m, 0.0) == pytest.approx(prior_covariance(m, 0.0))
        lower = prior_covariance(m, 3.0)
        assert lower < prior_covariance(m, 0.0)

    def test_covariance_decrement_hand_example(self):
        # J = 1, both weights 1, base-measure variance 1, gamma = 1:
        # decrement = (2/6) * (1/2) * 1 = 1/6
        m = PriorMoments(mu=[0.0, 0.0], mu2=[1.0, 1.0], a=[1.0, 1.0])
        assert prior_covariance(m, 0.0) - prior_covariance(m, 1.0) == pytest.approx(1 / 6)

    def test_tie_probability_hand_example(self):
        assert tie_probability([1.0, 1.0], 1.0) == pytest.approx(0.5)

    def test_tie_probability_limits(self):
        a = np.array([0.4, 1.1, 0.8])
        atot = a.sum()
        pair = a * (a + 1) / (atot * (atot + 1))
        assert tie_probability(a, 1e12) == pytest.approx(pair[1:].sum(), abs=1e-10)
        assert tie_probability(a, 0.0) == pytest.approx(pair.sum(), abs=1e-12)

    def test_tie_probability_monotone_in_gamma(self):
        a = [0.3, 1.0, 0.5]
        vals = [tie_probability(a, g) for g in (0.0, 0.5, 1.0, 5.0, 100.0)]
        assert all(v2 <= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_many_observed_groups_limit(self):
        # equal observed weights ~a, J large: tie probability -> 1/(1 + ~a)
        a0, atilde, J = 0.5, 2.0, 5000
        a = np.concatenate([[a0 / (J + 1)], np.full(J, atilde / (J + 1))])
        assert tie_probability(a, 1.7) == pytest.approx(1 / (1 + atilde), abs=2e-3)

    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(5)
        a = np.array([0.6, 1.0, 1.4])
        gamma = 1.3
        mu = np.array([-1.0, 0.5, 2.0])
        sigma = np.array([1.2, 0.8, 0.5])
        m = PriorMoments(mu=mu, mu2=sigma ** 2 + mu ** 2, a=a)
        n = 400000
        th1, th2, tie = oracles.mc_mixing_measure(a, gamma, mu, sigma, n, rng)

        se_mean = th1.std() / math.sqrt(n)
        assert prior_mean(m) == pytest.approx(th1.mean(), abs=4 * se_mean)

        centered_sq = (th1 - th1.mean()) ** 2
        se_var = centered_sq.std() / math.sqrt(n)
        assert prior_variance(m) == pytest.approx(th1.var(), abs=4 * se_var)

        prod = (th1 - th1.mean()) * (th2 - th2.mean())
        se_cov = prod.std() / math.sqrt(n)
        assert prior_covariance(m, gamma) == pytest.approx(prod.mean(), abs=4 * se_cov)

        p = tie.mean()
        se_tie = math.sqrt(p * (1 - p) / n)
        assert tie_probability(a, gamma) == pytest.approx(p, abs=4 * se_tie)
