import math

import numpy as np
import pytest

from novelbayes import functional
from novelbayes.errors import (
    DegenerateData,
    GridMismatch,
    InvalidKnots,
    NotPositiveDefinite,
    RankDeficientBasis,
)
from novelbayes.functional import (
    BasisSpec,
    CurveSet,
    FunctionalHyper,
    FunctionalKnownPrior,
    bspline_basis,
    coef_conditional,
    extract_functional_priors,
    known_mean_conditional,
    psi_conditional,
    run_functional_chain,
    sigma2_conditional,
    smooth_curves,
    tau2_conditional,
)
from novelbayes.robust import McdConfig
from novelbayes.sampler import _staircase

import oracles


class TestBasis:
    def test_order_one_is_indicator(self):
        grid = np.linspace(0, 1, 50)
        B = bspline_basis(BasisSpec(n_basis=5, order=1), grid)
        assert np.all((B == 0) | (B == 1))
        assert np.all(B.sum(axis=1) == 1)
        assert np.all(B.sum(axis=0) > 0)

    @pytest.mark.parametrize("n_basis,order", [(8, 3), (20, 4), (100, 5)])
    def test_partition_of_unity(self, n_basis, order):
        grid = np.linspace(-2, 7, 173)
        B = bspline_basis(BasisSpec(n_basis=n_basis, order=order), grid)
        assert np.all(B >= 0)
        assert B.sum(axis=1) == pytest.approx(np.ones(grid.size), abs=1e-12)

    def test_matches_scipy_design_matrix(self):
        from scipy.interpolate import BSpline

        grid = np.linspace(0, 6, 91)
        spec = BasisSpec(n_basis=14, order=4)
        mine = bspline_basis(spec, grid)
        knots = spec.knot_vector(0.0, 6.0)
        ref = BSpline.design_matrix(grid, knots, spec.order - 1,
                                    extrapolate=True).toarray()
        assert mine == pytest.approx(ref, abs=1e-12)

    def test_bad_specs_rejected(self):
        with pytest.raises(InvalidKnots):
            BasisSpec(n_basis=3, order=5)
        with pytest.raises(InvalidKnots):
            BasisSpec(n_basis=5, order=0)


class TestSmoothing:
    def test_exact_basis_curve(self):
        grid = np.linspace(0, 1, 40)
        spec = BasisSpec(n_basis=10, order=4)
        B = bspline_basis(spec, grid)
        coefs = smooth_curves(CurveSet(grid, B[:, 3][None, :]), spec)
        expected = np.zeros(10)
        expected[3] = 1.0
        assert coefs[0] == pytest.approx(expected, abs=1e-8)

    def test_constant_curve(self):
        grid = np.linspace(0, 1, 40)
        spec = BasisSpec(n_basis=10, order=4)
        coefs = smooth_curves(CurveSet(grid, np.full((1, 40), 2.5)), spec)
        assert coefs[0] == pytest.approx(np.full(10, 2.5), abs=1e-8)

    def test_noisy_sinusoid_denoised(self):
        rng = np.random.default_rng(0)
        grid = np.linspace(0, 2 * np.pi, 200)
        clean = np.sin(grid)
        noisy = clean + rng.normal(0, 0.3, 200)
        spec = BasisSpec(n_basis=20, order=4)
        coefs = smooth_curves(CurveSet(grid, noisy[None, :]), spec)
        fitted = bspline_basis(spec, grid) @ coefs[0]
        assert np.sqrt(np.mean((fitted - clean) ** 2)) < 0.3

    def test_too_few_points(self):
        with pytest.raises(RankDeficientBasis):
            smooth_curves(CurveSet(np.linspace(0, 1, 5), np.zeros((1, 5))),
                          BasisSpec(n_basis=8, order=3))


class TestFunctionalPriors:
    def test_untrimmed_mean_curve(self):
        # curves lying exactly in the basis span, no trimming: the mean curve
        # is the pointwise mean
        rng = np.random.default_rng(1)
        grid = np.linspace(0, 1, 60)
        spec = BasisSpec(n_basis=12, order=4)
        B = bspline_basis(spec, grid)
        coefs = rng.normal(size=(8, 12))
        curves = CurveSet(grid, coefs @ B.T, labels=np.ones(8, dtype=int))
        (prior,) = extract_functional_priors(curves, spec, McdConfig(eta=1.0))
        assert prior.mean_curve == pytest.approx(curves.values.mean(axis=0), abs=1e-8)

    def test_spike_contamination_handled_by_trimming(self):
        # spike-contaminated curves plus label noise: trimming keeps the mean
        # curves closer to the clean estimate than eta = 1 does
        rng = np.random.default_rng(2)
        grid = np.linspace(0, 6, 100)
        spec = BasisSpec(n_basis=30, order=4)
        f = [lambda t: 5 * np.cos(np.exp(np.sin(t))),
             lambda t: 2 * t * np.cos(t - 2.5),
             lambda t: np.abs(t - 2) * np.cos(t)]
        n_per = 20
        clean_vals = np.vstack([fj(grid) + rng.normal(0, 0.25, (n_per, 100)) for fj in f])
        labels = np.repeat([1, 2, 3], n_per)

        dirty = clean_vals.copy()
        dirty_labels = labels.copy()
        for i in rng.choice(60, size=15, replace=False):
            stamps = rng.choice(100, size=15, replace=False)
            dirty[i, stamps] += rng.normal(0, 5, size=15)
        swap = rng.choice(60, size=6, replace=False)
        dirty_labels[swap] = dirty_labels[swap] % 3 + 1

        cfg = dict(n_starts=100, seed=3)
        clean_priors = extract_functional_priors(
            CurveSet(grid, clean_vals, labels), spec, McdConfig(eta=1.0, **cfg))
        robust_priors = extract_functional_priors(
            CurveSet(grid, dirty, dirty_labels), spec, McdConfig(eta=0.75, **cfg))
        naive_priors = extract_functional_priors(
            CurveSet(grid, dirty, dirty_labels), spec, McdConfig(eta=1.0, **cfg))

        for j in range(3):
            d_rob = np.max(np.abs(robust_priors[j].mean_curve - clean_priors[j].mean_curve))
            d_nai = np.max(np.abs(naive_priors[j].mean_curve - clean_priors[j].mean_curve))
            assert d_rob < d_nai

    def test_high_dimensional_basis_uses_regularized_path(self):
        rng = np.random.default_rng(4)
        grid = np.linspace(0, 6, 100)
        spec = BasisSpec(n_basis=100, order=5)
        vals = np.sin(grid) + rng.normal(0, 0.2, (12, 100))
        (prior,) = extract_functional_priors(
            CurveSet(grid, vals, np.ones(12, dtype=int)), spec,
            McdConfig(eta=0.75, n_starts=20, seed=5))
        assert np.all(prior.noise_curve > 0)
        assert np.all(np.isfinite(prior.mean_curve))

    def test_class_of_identical_curves_names_the_class(self):
        rng = np.random.default_rng(6)
        grid = np.linspace(0, 1, 40)
        vals = np.vstack([np.sin(grid) + rng.normal(0, 0.1, (8, 40)),
                          np.tile(np.cos(grid), (8, 1))])
        curves = CurveSet(grid, vals, np.repeat([1, 2], 8))
        with pytest.raises(DegenerateData, match="class 2"):
            extract_functional_priors(curves, BasisSpec(n_basis=5, order=3),
                                      McdConfig(eta=0.75, n_starts=5))


class TestCurveSet:
    def test_labels_follow_the_multivariate_class_rule(self):
        """Curve labels are checked by the rule of LabeledDataset: classes
        1..J, each present, each with at least two curves."""
        grid = np.linspace(0, 1, 5)
        values = np.zeros((4, 5))
        with pytest.raises(ValueError, match="labels must cover every class 1..J"):
            CurveSet(grid, values, [1, 1, 3, 3])
        with pytest.raises(ValueError, match="labels must be 1-based class indices"):
            CurveSet(grid, values, [1, 1, 1, -1])
        with pytest.raises(ValueError, match="every class needs at least two observations"):
            CurveSet(grid, values, [1, 1, 1, 2])
        with pytest.raises(ValueError, match="labels must cover every class 1..J"):
            CurveSet(grid, np.empty((0, 5)), [])
        assert CurveSet(grid, values, [2, 1, 2, 1]).labels.tolist() == [2, 1, 2, 1]


class TestIgParameterization:
    def test_hand_example(self):
        prior = FunctionalKnownPrior(
            grid=np.array([0.0]), mean_curve=np.array([0.0]), noise_curve=np.array([2.0]))
        a, b = prior.noise_ig_params(0.5)
        assert a[0] == pytest.approx(10.0)
        assert b[0] == pytest.approx(18.0)
        # IG(10, 18): mean 2, variance 0.5
        assert b[0] / (a[0] - 1) == pytest.approx(2.0)
        assert b[0] ** 2 / ((a[0] - 1) ** 2 * (a[0] - 2)) == pytest.approx(0.5)

    def test_random_pairs_reproduce_moments(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            sbar = float(rng.uniform(0.1, 5.0))
            v = float(rng.uniform(0.05, 3.0))
            prior = FunctionalKnownPrior(
                grid=np.array([0.0]), mean_curve=np.array([0.0]), noise_curve=np.array([sbar]))
            a, b = prior.noise_ig_params(v)
            mean = b / (a - 1)
            var = b ** 2 / ((a - 1) ** 2 * (a - 2))
            assert mean[0] == pytest.approx(sbar, rel=1e-10)
            assert var[0] == pytest.approx(v, rel=1e-10)


class TestNovelPriorLaw:
    def test_mean_curve_law_monte_carlo(self):
        # f(t) = sum_b rho_b phi_b(t) with rho_b ~ N(psi, tau2) has mean
        # psi * sum_b phi_b(t) and variance tau2 * sum_b phi_b(t)^2
        rng = np.random.default_rng(7)
        grid = np.linspace(0, 1, 30)
        spec = BasisSpec(n_basis=9, order=3)
        B = bspline_basis(spec, grid)
        psi, tau2 = 1.4, 0.49
        n = 200000
        rho = rng.normal(psi, math.sqrt(tau2), size=(n, 9))
        curves = rho @ B.T
        for t in (0, 14, 29):
            want_mean = psi * B[t].sum()
            want_var = tau2 * (B[t] ** 2).sum()
            se_m = curves[:, t].std() / math.sqrt(n)
            assert curves[:, t].mean() == pytest.approx(want_mean, abs=4 * se_m)
            sq = (curves[:, t] - want_mean) ** 2
            se_v = sq.std() / math.sqrt(n)
            assert curves[:, t].var() == pytest.approx(want_var, abs=4 * se_v)


class TestConditionalOracles:
    """Each conjugate full conditional against a 1-D grid integration of
    prior x likelihood on a two-curve toy problem."""

    def test_non_spd_coefficient_precision_is_a_numerical_error(self):
        # a negative coefficient variance makes the precision negative definite
        Phi = np.ones((12, 2))
        with pytest.raises(NotPositiveDefinite):
            coef_conditional(np.zeros(12), 0, Phi, np.full(12, 0.3), 0.0, -1.0)

    def _sup_norm_vs_grid(self, grid_x, log_prior, log_lik, analytic_logpdf):
        dens = oracles.grid_posterior_1d(grid_x, log_prior, log_lik)
        analytic = np.exp(analytic_logpdf)
        analytic /= np.trapezoid(analytic, grid_x)
        return np.max(np.abs(dens - analytic)) / dens.max()

    def test_coefficient_conditional(self):
        # single basis function: the coefficient conditional is univariate
        grid = np.linspace(0, 1, 12)
        Phi = np.ones((12, 1))
        sigma2 = np.full(12, 0.3)
        psi, tau2 = 0.5, 2.0
        Y = np.array([np.full(12, 1.2), np.full(12, 0.8)])
        mean, L = coef_conditional(Y.sum(axis=0), 2, Phi, sigma2, psi, tau2)
        var = 1.0 / (L[0, 0] ** 2)

        xs = np.linspace(mean[0] - 6 * math.sqrt(var), mean[0] + 6 * math.sqrt(var), 4001)
        log_prior = oracles.norm_logpdf(xs, psi, tau2)
        log_lik = sum(oracles.norm_logpdf(y, xs[:, None] * Phi[:, 0], sigma2).sum(axis=1)
                      for y in Y)
        sup = self._sup_norm_vs_grid(xs, log_prior, log_lik,
                                     oracles.norm_logpdf(xs, mean[0], var))
        assert sup <= 1e-5

    def test_level_mean_conditional(self):
        rho = np.array([0.4, 0.9, -0.2, 1.1])
        tau2, s2 = 0.7, 1.3
        mean, var = psi_conditional(rho, tau2, s2)
        xs = np.linspace(mean - 6 * math.sqrt(var), mean + 6 * math.sqrt(var), 4001)
        log_prior = oracles.norm_logpdf(xs, 0.0, s2)
        log_lik = sum(oracles.norm_logpdf(r, xs, tau2) for r in rho)
        sup = self._sup_norm_vs_grid(xs, log_prior, log_lik,
                                     oracles.norm_logpdf(xs, mean, var))
        assert sup <= 1e-5

    def test_coefficient_variance_conditional(self):
        rho = np.array([0.4, 0.9, -0.2, 1.1])
        psi = 0.5
        a_tau, b_tau = 3.0, 1.0
        shape, scale = tau2_conditional(rho, psi, a_tau, b_tau)
        xs = np.geomspace(5e-3, 30.0, 8001)
        log_prior = oracles.invgamma_logpdf(xs, a_tau, b_tau)
        log_lik = sum(oracles.norm_logpdf(r, psi, xs) for r in rho)
        sup = self._sup_norm_vs_grid(
            xs, log_prior, log_lik, oracles.invgamma_logpdf(xs, shape, scale))
        assert sup <= 1e-5

    def test_noise_conditional(self):
        a_H, b_H = 5.0, 1.0
        resid = np.array([0.35, -0.6])  # two curves at one grid point
        shape, scale = sigma2_conditional(np.sum(resid ** 2), 2, a_H, b_H)
        xs = np.geomspace(5e-3, 20.0, 8001)
        log_prior = oracles.invgamma_logpdf(xs, a_H, b_H)
        log_lik = sum(oracles.norm_logpdf(r, 0.0, xs) for r in resid)
        sup = self._sup_norm_vs_grid(
            xs, log_prior, log_lik, oracles.invgamma_logpdf(xs, shape, scale))
        assert sup <= 1e-5

    def test_known_mean_conditional(self):
        prior_mean = np.array([1.0])
        phi = 0.5
        sigma2 = np.array([0.2])
        ys = np.array([1.4, 0.9])
        mean, var = known_mean_conditional(prior_mean, phi, np.array([ys.sum()]), 2, sigma2)
        xs = np.linspace(-3, 5, 8001)
        log_prior = oracles.norm_logpdf(xs, 1.0, phi)
        log_lik = sum(oracles.norm_logpdf(y, xs, sigma2[0]) for y in ys)
        sup = self._sup_norm_vs_grid(
            xs, log_prior, log_lik, oracles.norm_logpdf(xs, mean[0], var[0]))
        assert sup <= 1e-5


class TestFunctionalChain:
    def _toy(self, rng, n_per=8):
        grid = np.linspace(0, 1, 30)
        f_known = np.sin(2 * np.pi * grid)
        f_novel = 3.0 + np.cos(2 * np.pi * grid)
        train = CurveSet(grid, f_known + rng.normal(0, 0.1, (n_per, 30)),
                         labels=np.ones(n_per, dtype=int))
        test = CurveSet(grid, np.vstack([
            f_known + rng.normal(0, 0.1, (n_per, 30)),
            f_novel + rng.normal(0, 0.1, (n_per, 30))]))
        return train, test

    def test_inductive_known_curves_frozen(self):
        rng = np.random.default_rng(8)
        train, test = self._toy(rng)
        spec = BasisSpec(n_basis=10, order=4)
        priors = extract_functional_priors(train, spec, McdConfig(eta=1.0, seed=9))
        hyper = FunctionalHyper(a=np.array([0.1, 1.0]), n_iter=60, n_burnin=30,
                                seed=10, basis=spec)
        out = run_functional_chain(test, priors, hyper, record_atoms=True)
        for snap in out.atom_snapshots:
            assert snap["known"][0]["mean_curve"] == pytest.approx(
                priors[0].mean_curve.tolist())

    def test_split_known_from_novel(self):
        rng = np.random.default_rng(11)
        train, test = self._toy(rng)
        spec = BasisSpec(n_basis=10, order=4)
        priors = extract_functional_priors(train, spec, McdConfig(eta=0.75, seed=12))
        hyper = FunctionalHyper(a=np.array([0.1, 1.0]), n_iter=300, n_burnin=150,
                                seed=13, basis=spec)
        out = run_functional_chain(test, priors, hyper)
        from novelbayes.postprocess import ppn

        p = ppn(out.zeta_trace, out.n_known)
        assert np.all(p[:8] < 0.2)
        assert np.all(p[8:] > 0.8)

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(14)
        train, test = self._toy(rng, n_per=5)
        spec = BasisSpec(n_basis=8, order=3)
        priors = extract_functional_priors(train, spec, McdConfig(eta=1.0, seed=15))
        hyper = FunctionalHyper(a=np.array([0.1, 1.0]), n_iter=80, n_burnin=40,
                                seed=16, basis=spec)
        out1 = run_functional_chain(test, priors, hyper)
        out2 = run_functional_chain(test, priors, hyper)
        assert np.array_equal(out1.alpha_trace, out2.alpha_trace)
        assert np.array_equal(out1.beta_trace, out2.beta_trace)

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(17)
        train, test = self._toy(rng, n_per=5)
        spec = BasisSpec(n_basis=8, order=3)
        priors = extract_functional_priors(train, spec, McdConfig(eta=1.0))
        bad = CurveSet(test.grid + 0.5, test.values)
        hyper = FunctionalHyper(a=np.array([0.1, 1.0]), n_iter=20, n_burnin=10, basis=spec)
        with pytest.raises(GridMismatch):
            run_functional_chain(bad, priors, hyper)


class TestStackedCurveLoglik:
    """The stacked log-likelihood pass and the lean prior draws hold the
    bits of the one-atom-at-a-time forms."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("M", [1, 2, 5, 150])
    @pytest.mark.parametrize("K", [1, 3, 32])
    def test_stack_equals_the_per_atom_columns(self, K, M, order):
        rng = np.random.default_rng(K * 1000 + M)
        Phi = bspline_basis(BasisSpec(n_basis=11, order=4), np.linspace(0, 1, 37))
        Y = np.asarray(rng.normal(size=(M, 37)), order=order)
        F = rng.normal(size=(K, 11)) @ Phi.T
        S = rng.gamma(2.0, 0.5, size=(K, 37))
        got = functional._curve_loglik(Y, F, S)
        assert got.shape == (K, M)
        for k in range(K):
            assert np.array_equal(got[k], oracles.curve_column(Y, F[k], S[k]))

    @pytest.mark.parametrize("phi, v", [(0, 0), (0.05, 0), (0, 0.01), (0.05, 0.01)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_family_freezes_every_known_column_or_none(self, order, phi, v):
        """phi = v = 0 freezes all known columns at the training priors;
        otherwise every known column follows the atoms the scan passes."""
        rng = np.random.default_rng(31)
        grid = np.linspace(0, 1, 23)
        spec = BasisSpec(n_basis=7, order=3)
        test = CurveSet(grid, np.asarray(rng.normal(size=(40, 23)), order=order))
        priors = [FunctionalKnownPrior(grid, rng.normal(size=23), rng.gamma(2.0, size=23))
                  for _ in range(5)]
        hyper = FunctionalHyper(a=np.ones(6), basis=spec, phi=phi, v=v)
        family = functional.CurveFamily(test, priors, hyper)
        frozen = phi == v == 0
        known = [(f, s2) if frozen else (f + 0.1, 2.0 * s2) for f, s2 in family.initial_known()]
        novel = [functional._prior_novel_atom(rng, hyper, family.Phi) for _ in range(4)]
        u, xi = rng.random(40) * 0.6, np.sort(rng.random(9))[::-1]
        got = oracles.staircase_to_dense(family.loglik(known, novel, _staircase(u, xi)), u, xi)
        want = np.column_stack([oracles.curve_column(test.values, f, s2) for f, s2 in known]
                               + [oracles.curve_column(test.values, at.curve, at.sigma2)
                                  for at in novel])
        eligible = u[:, None] < xi[None, :]
        assert np.array_equal(got[eligible], want[eligible])
        assert np.all(got[~eligible] == -np.inf)

    def test_prior_atom_draws_and_generator_state(self):
        def sample_ig(rng, shape, scale):
            return scale / rng.gamma(shape, 1.0, size=np.shape(scale) or None)

        hyper = FunctionalHyper(a=np.ones(2), a_tau=2.5, b_tau=0.7, s2=1.3, a_H=4.0, b_H=0.6)
        Phi = bspline_basis(BasisSpec(n_basis=9, order=4), np.linspace(0, 1, 31))
        got_rng, want_rng = np.random.default_rng(41), np.random.default_rng(41)
        for _ in range(5):
            atom = functional._prior_novel_atom(got_rng, hyper, Phi)
            tau2 = float(sample_ig(want_rng, hyper.a_tau, hyper.b_tau))
            psi = float(want_rng.normal(0.0, math.sqrt(hyper.s2)))
            rho = want_rng.normal(psi, math.sqrt(tau2), size=9)
            sigma2 = sample_ig(want_rng, hyper.a_H, np.full(31, hyper.b_H))
            assert (atom.tau2, atom.psi) == (tau2, psi)
            assert np.array_equal(atom.rho, rho) and np.array_equal(atom.sigma2, sigma2)
            assert np.array_equal(atom.curve, Phi @ rho)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
