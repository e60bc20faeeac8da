import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from novelbayes import sampler
from novelbayes.errors import AllSlicesEmpty, NotPositiveDefinite
from novelbayes.model import (
    GammaPrior,
    GaussianAtom,
    Hyperparameters,
    NIWParams,
    log_gaussian_density_many,
    xi_values,
    zeta_to_alpha_beta,
)
from novelbayes.robust import RobustClassSummary
from novelbayes.sampler import (
    _CHECK_ROWS,
    ChainOutput,
    GaussianFamily,
    TestDataset,
    _initial_state,
    _label_swap_sweep,
    _sample_allocations,
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

    @pytest.mark.parametrize("p, n", [(1, 1), (2, 2), (2, 37), (7, 5)])
    def test_bits_equal_the_mean_and_outer_product_formula(self, p, n):
        rng = np.random.default_rng(10 * p + n)
        prior = NIWParams(rng.normal(size=p), 0.3, p + 4.0, np.eye(p) + 0.1)
        obs = rng.normal(size=(n, p)) * 4.0
        xbar = obs.mean(axis=0)
        dev = obs - xbar
        lam = prior.precision_scale + n
        diff = xbar - prior.mean
        scale = prior.scale_matrix + dev.T @ dev \
            + (prior.precision_scale * n / lam) * np.outer(diff, diff)
        post = niw_posterior(prior, obs)
        assert np.array_equal(post.mean, (prior.precision_scale * prior.mean + n * xbar) / lam)
        assert np.array_equal(post.scale_matrix, scale)

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

    def test_non_finite_scale_raises_what_the_wrapper_raised(self):
        params = NIWParams(np.zeros(2), 1.0, 5.0, np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            sample_niw(params, np.random.default_rng(0))

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_draws_match_the_wrapper_formula(self, p):
        """The cached factor and the direct solve reproduce the draw made
        with a fresh Cholesky factor and scipy's solve_triangular."""
        def reference(params, rng):
            C = np.linalg.cholesky(params.scale_matrix)
            A = np.zeros((p, p))
            A[np.diag_indices(p)] = np.sqrt(rng.chisquare(params.dof - np.arange(p)))
            if p > 1:
                A[np.tril_indices(p, -1)] = rng.standard_normal(p * (p - 1) // 2)
            M = solve_triangular(A, C.T, lower=True).T
            cov = M @ M.T
            cov = 0.5 * (cov + cov.T)
            mean = params.mean + (M @ rng.standard_normal(p)) / math.sqrt(params.precision_scale)
            return mean, cov

        S = np.eye(p) + 0.3
        params = NIWParams(np.arange(p, dtype=float), 0.5, p + 3.0, S)
        got_rng, want_rng = np.random.default_rng(p), np.random.default_rng(p)
        for _ in range(20):
            atom = sample_niw(params, got_rng)
            mean, cov = reference(params, want_rng)
            assert np.array_equal(atom.mean, mean) and np.array_equal(atom.cov, cov)


def _full_columns(data, atoms):
    """Every unit's density under every atom, one full column per atom."""
    return np.column_stack([log_gaussian_density_many(data, a.mean, np.linalg.cholesky(a.cov))
                            for a in atoms])


def _family(data, n_known):
    p = data.shape[1]
    return GaussianFamily(TestDataset(data), [_summary(np.zeros(p), np.eye(p))] * n_known,
                          _hyper([5] * n_known, p))


@st.composite
def _masked_loglik_case(draw):
    """Data, atoms and slice variables built like the sampler's (u_m < xi_l,
    so the tail columns thin out geometrically), with one column's xi moved
    to admit a single unit and one's to admit all units."""
    p = draw(st.integers(1, 8))
    M = draw(st.integers(2, 60))
    J = draw(st.integers(1, 3))
    K = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.normal(size=(M, p)) * rng.uniform(0.1, 5.0)
    base = NIWParams(np.zeros(p), 0.1, p + 2.0, np.eye(p))
    atoms = [sample_niw(base, rng) for _ in range(J + K)]
    xi = xi_values(0.5, J, J + K)
    u = rng.random(M) * xi[J]
    single, full = draw(st.lists(st.integers(J + 1, J + K - 1), min_size=2,
                                 max_size=2, unique=True))
    lowest, second = np.sort(u)[:2]
    xi[single] = np.nextafter(lowest, 1.0) if lowest < second else lowest
    xi[full] = 1.0
    return data, atoms[:J], atoms[J:], u, xi


@settings(max_examples=80, deadline=None)
@given(_masked_loglik_case())
def test_masked_loglik_equals_full_loglik_on_eligible_cells(case):
    data, known, novel, u, xi = case
    eligible = u[:, None] < xi
    full = _full_columns(data, known + novel)
    got = _family(data, len(known)).loglik(known, novel, u, xi)
    assert np.array_equal(got[eligible], full[eligible])
    assert np.all(got[~eligible] == -np.inf)


@pytest.mark.parametrize("p", [1, 2, 7])
@pytest.mark.parametrize("M", [1, 2, 3, 40, 950])
def test_prefix_densities_equal_full_columns_bit_for_bit(p, M):
    """The u-sorted prefix blocks reproduce full-column densities, for
    columns of 0, 1, 2, M - 1 and M eligible units."""
    rng = np.random.default_rng(100 * p + M)
    data = rng.normal(size=(M, p)) * 3.0
    base = NIWParams(np.zeros(p), 0.1, p + 2.0, np.eye(p))
    atoms = [sample_niw(base, rng) for _ in range(8)]
    u = rng.random(M)
    us = np.sort(u)
    xi = np.array([1.0, us[0], np.nextafter(us[0], 2.0), us[min(1, M - 1)],
                   np.nextafter(us[min(1, M - 1)], 2.0), us[-1], 1.0, 0.0])
    eligible = u[:, None] < xi
    assert {0, 1, min(2, M), max(M - 1, 0), M} <= set(eligible.sum(axis=0).tolist())
    got = _family(data, 2).loglik(atoms[:2], atoms[2:], u, xi)
    assert np.array_equal(got[eligible], _full_columns(data, atoms)[eligible])
    assert np.all(got[~eligible] == -np.inf)


@pytest.mark.parametrize("bad, error", [(-np.eye(2), NotPositiveDefinite),
                                        (np.diag([np.nan, 1.0]), ValueError),
                                        (np.diag([np.inf, 1.0]), ValueError)])
def test_stacked_factorisation_keeps_the_typed_errors(bad, error):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(6, 2))
    base = NIWParams(np.zeros(2), 0.1, 4.0, np.eye(2))
    atoms = [sample_niw(base, rng) for _ in range(4)]
    atoms[2] = GaussianAtom(np.zeros(2), bad)
    with pytest.raises(error):
        _family(data, 1).loglik(atoms[:1], atoms[1:], rng.random(6) * 0.1,
                                np.full(4, 0.5))


def test_stacked_factorisation_rejects_a_non_finite_mean():
    rng = np.random.default_rng(1)
    atoms = [GaussianAtom(np.zeros(2), np.eye(2)), GaussianAtom([0.0, np.nan], np.eye(2))]
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        _family(rng.normal(size=(4, 2)), 1).loglik(atoms[:1], atoms[1:], np.full(4, 0.1),
                                                   np.full(2, 0.5))


def test_start_distance_with_non_spd_scatter_is_a_numerical_error():
    family = GaussianFamily(TestDataset(np.ones((3, 2))),
                            [_summary(np.zeros(2), -np.eye(2))], _hyper([5], 2))
    with pytest.raises(NotPositiveDefinite):
        family.start_distances()


class TestUpdateGamma:
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


def _gumbel_allocations(rng, log_lik, weights, xi):
    """The allocation draw as numpy's gumbel makes it, at full shape."""
    with np.errstate(divide="ignore"):
        logits = log_lik + (np.log(weights) - np.log(xi))
    return np.argmax(logits + rng.gumbel(size=logits.shape), axis=1) + 1


def _staircase_case(seed, M, L):
    """Log-likelihoods that are -inf where u_m >= xi_l, as a family gives them."""
    rng = np.random.default_rng(seed)
    xi = xi_values(0.5, 2, L)
    u = rng.random(M) * xi[rng.integers(0, L, M)]
    log_lik = np.where(u[:, None] < xi, rng.normal(size=(M, L)) * 5.0, -np.inf)
    return log_lik, rng.dirichlet(np.ones(L)), u, xi


class _CountingMath:
    """Stands in for the sampler's ``math`` module and counts ``log`` calls."""

    def __init__(self):
        self.logs = 0

    def log(self, x):
        self.logs += 1
        return math.log(x)

    def __getattr__(self, name):
        return getattr(math, name)


class _ZeroUniform:
    """A generator whose ``random`` puts an exact 0 into the block it
    returns, as numpy's gumbel would meet one; everything else is the
    wrapped generator's."""

    def __init__(self, rng):
        self.rng, self.bit_generator = rng, rng.bit_generator

    def random(self, size):
        U = self.rng.random(size)
        U.flat[U.size // 2] = 0.0
        return U

    def gumbel(self, size):
        return self.rng.gumbel(size=size)


class TestAllocations:
    def test_single_eligible_component(self):
        rng = np.random.default_rng(8)
        xi = np.array([0.5, 0.3, 0.2])
        u = np.full(5, 0.4)  # only component 1 is eligible
        log_lik = np.where(u[:, None] < xi, 0.0, -np.inf)
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

    @pytest.mark.parametrize("seed, M, L", [(0, 1, 4), (1, 7, 3), (2, 950, 46),
                                            (3, 300, 80), (4, 105, 12)])
    def test_labels_and_generator_state_equal_the_gumbel_draw(self, seed, M, L):
        log_lik, weights, u, xi = _staircase_case(seed, M, L)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = _sample_allocations(got_rng, log_lik, weights, u, xi)
            want = _gumbel_allocations(want_rng, log_lik, weights, xi)
            assert np.array_equal(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_near_ties_take_the_first_exact_maximum(self, monkeypatch):
        """Scores that tie exactly, or differ by one unit in the last place,
        under the libm noise the draw will see: the screen cannot order
        them, so every unit is re-scored exactly."""
        M, seed = 2000, 12
        g = np.random.default_rng(seed).gumbel(size=(M, 3))
        log_lik = -g  # with w = xi every exact score is -g + g = 0
        up = np.arange(M) % 3 == 1  # these units have cell 1 one step ahead
        log_lik[up, 1] = np.nextafter(-g[up, 1], np.inf)
        log_lik[np.arange(M) % 3 == 2, 0] = -np.inf
        w = np.full(3, 0.25)
        counter = _CountingMath()
        monkeypatch.setattr(sampler, "math", counter)
        got = _sample_allocations(np.random.default_rng(seed), log_lik, w, np.zeros(M), w)
        want = _gumbel_allocations(np.random.default_rng(seed), log_lik, w, w)
        assert np.array_equal(got, want)
        assert np.array_equal(np.unique(want[up]), [2]) and np.all(want[~up] < 3)
        assert counter.logs >= 2 * 2 * M  # two logs per cell, two or more cells per unit

    def test_a_zero_uniform_falls_back_to_the_gumbel_stream(self):
        log_lik, weights, u, xi = _staircase_case(5, 200, 20)
        rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = _sample_allocations(_ZeroUniform(rng), log_lik, weights, u, xi)
        assert np.array_equal(got, _gumbel_allocations(want_rng, log_lik, weights, xi))
        assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_a_unit_without_an_eligible_cell_is_an_error(self):
        log_lik = np.zeros((3, 2))
        log_lik[1] = -np.inf
        with pytest.raises(AllSlicesEmpty):
            _sample_allocations(np.random.default_rng(0), log_lik, np.array([0.5, 0.5]),
                                np.full(3, 0.1), np.array([0.5, 0.5]))


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
            zeta = state.zeta
            assert np.all((zeta >= 1) & (zeta <= state.L_star))
            xi = xi_values(hp.kappa, 1, int(zeta.max()))
            assert np.all(state.u < xi[zeta - 1])
            alpha, beta = zeta_to_alpha_beta(zeta, 1)
            assert np.all((alpha > 0) != (beta > 0))
            assert state.L_star >= 2
            assert abs(state.pi.sum() - 1.0) < 1e-10


@st.composite
def _swap_case(draw):
    """Memberships over J known classes and K sticks, one atom (its stick
    index) and one stick fraction per stick, and a seed for the sweep."""
    J = draw(st.integers(1, 3))
    K = draw(st.integers(0, 8))
    zeta = draw(st.lists(st.integers(1, J + K), max_size=40)) if K else []
    v = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=K, max_size=K))
    return J, np.array(zeta, dtype=int), np.array(v), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(_swap_case())
def test_label_swap_relabels_novelty_clusters_with_their_atoms_and_sticks(case):
    J, zeta0, v0, seed = case
    K = v0.size
    zeta, v, atoms = zeta0.copy(), v0.copy(), list(range(K))
    assert _label_swap_sweep(zeta, atoms, v, J, np.random.default_rng(seed)) is None

    known = zeta0 <= J
    assert np.array_equal(zeta[known], zeta0[known])  # known labels stay
    assert np.all(zeta[~known] > J)
    # atoms[k] is the stick that now sits at position k: a permutation that
    # carries every novelty unit, its atom and its stick fraction together
    assert sorted(atoms) == list(range(K))
    assert np.array_equal(np.array(atoms, dtype=int)[zeta[~known] - J - 1],
                          zeta0[~known] - J - 1)
    assert np.array_equal(v, v0[atoms])
    counts0 = np.bincount(zeta0, minlength=J + K + 1)[J + 1:]
    assert np.array_equal(np.bincount(zeta, minlength=J + K + 1)[J + 1:], counts0[atoms])


def _equal(a, b) -> bool:
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 12))
def test_gibbs_step_leaves_its_input_state_unchanged(seed, n_warm):
    rng = np.random.default_rng(seed)
    data = TestDataset(np.vstack([rng.normal(0, 1, (12, 2)),
                                  rng.normal((8, -8), 0.5, (6, 2)),
                                  rng.normal((-8, 8), 0.5, (6, 2))]))
    priors = [_summary([0.0, 0.0], np.eye(2))]
    hp = _hyper([20], 2, gamma=GammaPrior(1.0, 1.0), lambda_tr=5.0, seed=seed)
    family = GaussianFamily(data, priors, hp)
    state = _initial_state(family, hp)
    for _ in range(n_warm):
        state = gibbs_step(state, family, hp, rng)

    before = astuple(state)  # a deep copy, atoms included
    first = gibbs_step(state, family, hp, np.random.default_rng(seed + 1))
    assert _equal(astuple(state), before)
    # the same state and seed give the same scan again
    again = gibbs_step(state, family, hp, np.random.default_rng(seed + 1))
    assert np.array_equal(first.zeta, again.zeta) and np.array_equal(first.v, again.v)


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

    def test_exclusivity_checked_past_first_row_block(self):
        alpha = np.ones((_CHECK_ROWS + 300, 3), dtype=int)
        beta = np.zeros_like(alpha)
        alpha[_CHECK_ROWS + 250, 1] = 0  # neither positive, only in the second block
        with pytest.raises(ValueError, match="exactly one of alpha, beta must be positive"):
            ChainOutput(alpha_trace=alpha, beta_trace=beta,
                        pi_trace=np.full((alpha.shape[0], 2), 0.5),
                        gamma_trace=np.ones(alpha.shape[0]),
                        n_active_trace=np.ones(alpha.shape[0]), n_known=1, seed=0)

    @pytest.mark.parametrize("alpha, beta, match", [
        (-1, 2, r"alpha trace labels span \[-1, 1\]"),
        (7, 0, r"alpha trace labels span \[1, 7\], outside \[0, 1\]"),
        (0, -3, "beta trace labels reach -3"),
    ])
    def test_out_of_range_labels_rejected(self, alpha, beta, match):
        with pytest.raises(ValueError, match=match):
            ChainOutput(alpha_trace=np.array([[1, alpha]]), beta_trace=np.array([[0, beta]]),
                        pi_trace=np.array([[0.5, 0.5]]), gamma_trace=np.ones(1),
                        n_active_trace=np.ones(1), n_known=1, seed=0)
