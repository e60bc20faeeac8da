import math

import numpy as np
import pytest

from novelbayes.errors import NotPositiveDefinite
from novelbayes.model import (
    GammaPrior,
    GaussianAtom,
    Hyperparameters,
    NIWParams,
    alpha_beta_to_zeta,
    xi_values,
)
from novelbayes.robust import RobustClassSummary
from novelbayes.sampler import (
    ChainOutput,
    GaussianFamily,
    TestDataset,
    _initial_state,
    _sample_allocations,
    _sq_mahalanobis_rows,
    gibbs_step,
    niw_posterior,
    run_chain,
    sample_niw,
    update_gamma,
)

import oracles


def _summary(mean, scatter):
    mean = np.asarray(mean, dtype=float)
    scatter = np.asarray(scatter, dtype=float)
    return RobustClassSummary(
        mean=mean, scatter=scatter, untrimmed=np.arange(2), method="MCD",
        determinant=float(np.linalg.det(scatter)),
        log_determinant=float(np.linalg.slogdet(scatter)[1]))


def _hyper(class_sizes, p, **kw):
    defaults = dict(
        a0=0.1, lambda_tr=10.0, nu_tr=float(p + 8),
        base_measure=NIWParams(np.zeros(p), 0.01, float(p + 8), 10 * np.eye(p)),
        gamma=1.0, n_iter=40, n_burnin=20, seed=0)
    defaults.update(kw)
    return Hyperparameters.with_class_weights(class_sizes, **defaults)


class TestNiwPosterior:
    def test_empty_returns_prior(self):
        prior = NIWParams([0.0], 1.0, 3.0, [[1.0]])
        post = niw_posterior(prior, np.empty((0, 1)))
        assert post is prior

    def test_single_observation_hand_algebra(self):
        post = niw_posterior(NIWParams([0.0], 1.0, 3.0, [[1.0]]), np.array([[2.0]]))
        assert post.mean[0] == pytest.approx(1.0)
        assert post.precision_scale == pytest.approx(2.0)
        assert post.dof == pytest.approx(4.0)
        assert post.scale_matrix[0, 0] == pytest.approx(3.0)

    def test_sequential_equals_batch(self):
        rng = np.random.default_rng(0)
        prior = NIWParams(rng.normal(size=3), 0.7, 9.0, np.eye(3) + 0.2)
        obs = rng.normal(size=(12, 3))
        batch = niw_posterior(prior, obs)
        seq = niw_posterior(niw_posterior(prior, obs[:5]), obs[5:])
        assert seq.mean == pytest.approx(batch.mean, rel=1e-12)
        assert seq.precision_scale == pytest.approx(batch.precision_scale)
        assert seq.dof == pytest.approx(batch.dof)
        assert seq.scale_matrix == pytest.approx(batch.scale_matrix, rel=1e-10)

    def test_grid_integration_oracle(self):
        # p = 1, two observations: prior x likelihood and the analytic
        # posterior, both renormalized by the same grid quadrature, must
        # agree pointwise; any error in the update formulas shows up as an
        # O(1) shape difference
        prior = NIWParams([0.5], 2.0, 5.0, [[2.0]])
        obs = np.array([[1.2], [0.4]])
        post = niw_posterior(prior, obs)

        mus = np.linspace(-1.5, 2.5, 401)
        s2s = np.linspace(0.02, 4.0, 399)
        MU, S2 = np.meshgrid(mus, s2s, indexing="ij")
        cell = (mus[1] - mus[0]) * (s2s[1] - s2s[0])

        joint = oracles.niw_joint_logpdf(MU, S2, 0.5, 2.0, 5.0, 2.0) \
            + sum(oracles.norm_logpdf(x, MU, S2) for x in obs.ravel())
        joint = np.exp(joint - joint.max())
        joint /= joint.sum() * cell

        analytic = np.exp(oracles.niw_joint_logpdf(
            MU, S2, post.mean[0], post.precision_scale, post.dof,
            post.scale_matrix[0, 0]))
        analytic /= analytic.sum() * cell
        assert np.max(np.abs(analytic - joint)) <= 1e-6 * joint.max()


class TestSampleNiw:
    def test_inverse_wishart_mean(self):
        rng = np.random.default_rng(1)
        draws = np.array([sample_niw(NIWParams([0.0], 1.0, 5.0, [[3.0]]), rng).cov[0, 0]
                          for _ in range(100000)])
        se = draws.std() / math.sqrt(draws.size)
        assert draws.mean() == pytest.approx(3.0 / (5.0 - 2.0), abs=3 * se)

    def test_spd_always(self):
        rng = np.random.default_rng(2)
        params = NIWParams(np.zeros(3), 0.5, 6.0, np.eye(3))
        for _ in range(200):
            atom = sample_niw(params, rng)
            assert np.linalg.eigvalsh(atom.cov)[0] > 0

    def test_degenerate_dof_limit(self):
        # S = nu * Sigma0 concentrates the draw at Sigma0 as nu grows
        rng = np.random.default_rng(3)
        Sigma0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        dists = []
        for nu in (50.0, 5000.0):
            draws = [sample_niw(NIWParams(np.zeros(2), 1.0, nu, nu * Sigma0), rng).cov
                     for _ in range(200)]
            dists.append(np.mean([np.linalg.norm(d - Sigma0, 2) for d in draws]))
        assert dists[1] < dists[0] / 5

    def test_high_precision_pins_mean(self):
        rng = np.random.default_rng(4)
        m = np.array([3.0, -2.0])
        draws = np.array([sample_niw(NIWParams(m, 1e8, 10.0, np.eye(2)), rng).mean
                          for _ in range(100)])
        assert np.abs(draws - m).max() < 1e-3

    def test_non_spd_scale_is_a_numerical_error(self):
        params = NIWParams(np.zeros(2), 1.0, 5.0, -np.eye(2))
        with pytest.raises(NotPositiveDefinite):
            sample_niw(params, np.random.default_rng(0))


def test_start_distance_with_non_spd_scatter_is_a_numerical_error():
    with pytest.raises(NotPositiveDefinite):
        _sq_mahalanobis_rows(np.ones((3, 2)), np.zeros(2), -np.eye(2))


class TestUpdateGamma:
    def test_fixed_mode_passthrough(self):
        rng = np.random.default_rng(5)
        assert update_gamma(2.5, 10, 3, None, None, rng) == 2.5

    def test_no_novelty_prior_draw(self):
        rng = np.random.default_rng(6)
        draws = np.array([update_gamma(1.0, 0, 0, 2.0, 4.0, rng) for _ in range(100000)])
        se = draws.std() / math.sqrt(draws.size)
        assert draws.mean() == pytest.approx(2.0 / 4.0, abs=3 * se)

    def test_many_clusters_push_upward(self):
        rng1 = np.random.default_rng(7)
        rng2 = np.random.default_rng(7)
        few = np.array([update_gamma(1.0, 20, 2, 1.0, 1.0, rng1) for _ in range(10000)])
        many = np.array([update_gamma(1.0, 20, 15, 1.0, 1.0, rng2) for _ in range(10000)])
        assert many.mean() > few.mean()
        # stochastic dominance at several quantiles
        for q in (0.25, 0.5, 0.75):
            assert np.quantile(many, q) > np.quantile(few, q)


class TestAllocations:
    def test_single_eligible_component(self):
        rng = np.random.default_rng(8)
        log_lik = np.zeros((5, 3))
        xi = np.array([0.5, 0.3, 0.2])
        u = np.full(5, 0.4)  # only component 1 is eligible
        zeta = _sample_allocations(rng, log_lik, np.array([0.2, 0.4, 0.4]), u, xi)
        assert np.all(zeta == 1)

    def test_symmetric_components_split_evenly(self):
        rng = np.random.default_rng(9)
        n = 20000
        log_lik = np.zeros((n, 2))
        zeta = _sample_allocations(rng, log_lik, np.array([0.3, 0.3]),
                                   np.full(n, 0.01), np.array([0.5, 0.5]))
        frac = np.mean(zeta == 1)
        assert frac == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(n))

    def test_likelihood_dominates(self):
        rng = np.random.default_rng(10)
        log_lik = np.tile([0.0, -40.0], (50, 1))
        zeta = _sample_allocations(rng, log_lik, np.array([0.5, 0.5]),
                                   np.full(50, 0.1), np.array([0.5, 0.5]))
        assert np.all(zeta == 1)


class TestGibbsStep:
    def test_dirichlet_posterior_moments(self):
        # all ten units pinned to the novelty block: pi is a fresh draw from
        # Dirichlet(a0 + 10, a1, a2) at every retained iteration
        rng = np.random.default_rng(11)
        data = TestDataset(np.full((10, 1), 1e5) + rng.normal(size=(10, 1)))
        priors = [_summary([0.0], [[1e-4]]), _summary([5.0], [[1e-4]])]
        hp = _hyper([30, 30], 1, a0=1.0, lambda_tr=1e7, nu_tr=1e7,
                    n_iter=12000, n_burnin=2000, seed=12)
        hp.a = np.array([1.0, 1.0, 1.0])
        out = run_chain(data, priors, hp, record_atoms=False)
        assert np.all(out.alpha_trace == 0)
        pi0 = out.pi_trace[:, 0]
        target = 11.0 / 13.0
        se = pi0.std() / math.sqrt(pi0.size)
        assert pi0.mean() == pytest.approx(target, abs=3 * se)

    def test_slice_validity_and_exclusivity(self):
        rng = np.random.default_rng(13)
        data = TestDataset(np.vstack([rng.normal(0, 1, (15, 2)),
                                      rng.normal(9, 1, (5, 2))]))
        priors = [_summary([0.0, 0.0], np.eye(2))]
        hp = _hyper([20], 2, seed=14)
        family = GaussianFamily(data, priors, hp)
        state = _initial_state(family, hp)
        crng = np.random.default_rng(3)
        for _ in range(50):
            state = gibbs_step(state, family, hp, crng)
            zeta = alpha_beta_to_zeta(state.alpha, state.beta, 1)
            xi = xi_values(hp.kappa, 1, int(zeta.max()))
            assert np.all(state.u < xi[zeta - 1])
            assert np.all((state.alpha > 0) != (state.beta > 0))
            assert state.L_star >= 2
            assert abs(state.pi.sum() - 1.0) < 1e-10


class TestRunChain:
    def test_point_mass_prior_absorbs_everything(self):
        rng = np.random.default_rng(15)
        data = TestDataset(rng.normal(2.0, 1.0, size=(60, 2)))
        priors = [_summary([2.0, 2.0], np.eye(2))]
        hp = _hyper([50], 2, lambda_tr=1e6, nu_tr=1e6, n_iter=400, n_burnin=200, seed=16)
        out = run_chain(data, priors, hp)
        assert np.mean(out.alpha_trace == 1) >= 0.99

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(17)
        data = TestDataset(np.vstack([rng.normal(0, 1, (25, 2)),
                                      rng.normal((7, -7), 0.5, (10, 2))]))
        priors = [_summary([0.0, 0.0], np.eye(2))]
        hp = _hyper([25], 2, gamma=GammaPrior(1.0, 1.0), n_iter=150, n_burnin=50, seed=18)
        out1 = run_chain(data, priors, hp)
        out2 = run_chain(data, priors, hp)
        assert np.array_equal(out1.alpha_trace, out2.alpha_trace)
        assert np.array_equal(out1.beta_trace, out2.beta_trace)
        assert np.array_equal(out1.pi_trace, out2.pi_trace)
        assert np.array_equal(out1.gamma_trace, out2.gamma_trace)
        assert np.array_equal(out1.n_active_trace, out2.n_active_trace)

    def test_prior_recovery_without_data(self):
        # M = 0: the pi marginal must match Dirichlet(a) moments
        priors = [_summary([0.0], [[1.0]])]
        hp = _hyper([10], 1, a0=0.5, lambda_tr=1e7, nu_tr=1e7,
                    n_iter=101000, n_burnin=1000, seed=19)
        out = run_chain(TestDataset(np.empty((0, 1))), priors, hp, record_atoms=False)
        a = hp.a
        atot = a.sum()
        want_mean = a / atot
        want_var = a * (atot - a) / (atot ** 2 * (atot + 1))
        got = out.pi_trace
        for j in range(a.size):
            se_mean = got[:, j].std() / math.sqrt(got.shape[0])
            assert got[:, j].mean() == pytest.approx(want_mean[j], abs=4 * se_mean)
            sq = (got[:, j] - want_mean[j]) ** 2
            se_var = sq.std() / math.sqrt(sq.size)
            assert got[:, j].var() == pytest.approx(want_var[j], abs=4 * se_var)

    def test_gamma_trace_constant_when_fixed(self):
        priors = [_summary([0.0], [[1.0]])]
        hp = _hyper([10], 1, gamma=2.0, n_iter=60, n_burnin=30, seed=20)
        out = run_chain(TestDataset(np.zeros((4, 1))), priors, hp)
        assert np.all(out.gamma_trace == 2.0)

    def test_output_invariants_enforced(self):
        with pytest.raises(ValueError):
            ChainOutput(alpha_trace=np.array([[1]]), beta_trace=np.array([[1]]),
                        pi_trace=np.array([[0.5, 0.5]]), gamma_trace=np.ones(1),
                        n_active_trace=np.ones(1), n_known=1, seed=0)
