import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from novelbayes import sampler
from novelbayes.errors import AllSlicesEmpty, DimensionMismatch, NotPositiveDefinite
from novelbayes.model import (
    GammaPrior,
    Hyperparameters,
    NIWParams,
    _alpha_of,
    _beta_of,
    xi_values,
)
from novelbayes.robust import RobustClassSummary
from novelbayes.sampler import (
    _CHECK_ROWS,
    ChainOutput,
    GaussianFamily,
    NIWStack,
    TestDataset,
    _initial_state,
    _label_swap_sweep,
    _sample_allocations,
    _staircase,
    gibbs_step,
    niw_atoms,
    niw_posterior,
    run_chain,
    update_gamma,
)

import oracles


def _summary(mean, scatter):
    mean = np.asarray(mean, dtype=float)
    scatter = np.asarray(scatter, dtype=float)
    return RobustClassSummary(
        mean=mean, scatter=scatter, untrimmed=np.arange(2), method="MCD",
        log_determinant=float(np.linalg.slogdet(scatter)[1]))


def _atoms(laws, rng):
    """One atom per NIW law, as the (means, covs) stacks of :func:`niw_atoms`."""
    return niw_atoms(NIWStack.of(laws), rng)


def _split(atoms, J):
    """Known and novelty atoms: the first J atoms of a stack and the rest."""
    means, covs = atoms
    return (means[:J], covs[:J]), (means[J:], covs[J:])


def _posterior(prior, obs):
    """The posterior of one law, as the stacked pass on a stack of that law."""
    obs = np.asarray(obs, dtype=float)
    post = niw_posterior(NIWStack.of([prior]), obs, [len(obs)])
    return NIWParams(*(a[0] for a in post))


def _slots(zeta, n_slots):
    """The units sorted stably by slot and each slot's count, as a scan
    passes them to ``draw_atoms``."""
    return np.argsort(zeta, kind="stable"), np.bincount(zeta, minlength=n_slots + 1)[1:]


def _hyper(class_sizes, p, **kw):
    defaults = dict(
        a0=0.1, lambda_tr=10.0, nu_tr=float(p + 8),
        base_measure=NIWParams(np.zeros(p), 0.01, float(p + 8), 10 * np.eye(p)),
        gamma=1.0, n_iter=40, n_burnin=20, seed=0)
    defaults.update(kw)
    return Hyperparameters.with_class_weights(class_sizes, **defaults)


class TestNiwPosterior:
    def test_empty_returns_prior(self):
        prior = NIWStack.of([NIWParams([0.0], 1.0, 3.0, [[1.0]])])
        post = niw_posterior(prior, np.empty((0, 1)), [0])
        assert post is prior

    def test_single_observation_hand_algebra(self):
        post = _posterior(NIWParams([0.0], 1.0, 3.0, [[1.0]]), np.array([[2.0]]))
        assert post.mean[0] == pytest.approx(1.0)
        assert post.precision_scale == pytest.approx(2.0)
        assert post.dof == pytest.approx(4.0)
        assert post.scale_matrix[0, 0] == pytest.approx(3.0)

    def test_sequential_equals_batch(self):
        rng = np.random.default_rng(0)
        prior = NIWParams(rng.normal(size=3), 0.7, 9.0, np.eye(3) + 0.2)
        obs = rng.normal(size=(12, 3))
        batch = _posterior(prior, obs)
        seq = _posterior(_posterior(prior, obs[:5]), obs[5:])
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
        post = _posterior(prior, obs)
        assert np.array_equal(post.mean, (prior.precision_scale * prior.mean + n * xbar) / lam)
        assert np.array_equal(post.scale_matrix, scale)

    def test_grid_integration_oracle(self):
        # p = 1, two observations: prior x likelihood and the analytic
        # posterior, both renormalized by the same grid quadrature, must
        # agree pointwise; any error in the update formulas shows up as an
        # O(1) shape difference
        prior = NIWParams([0.5], 2.0, 5.0, [[2.0]])
        obs = np.array([[1.2], [0.4]])
        post = _posterior(prior, obs)

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
        draws = np.array([_atoms([NIWParams([0.0], 1.0, 5.0, [[3.0]])], rng)[1][0, 0, 0]
                          for _ in range(100000)])
        se = draws.std() / math.sqrt(draws.size)
        assert draws.mean() == pytest.approx(3.0 / (5.0 - 2.0), abs=3 * se)

    def test_spd_always(self):
        rng = np.random.default_rng(2)
        params = NIWParams(np.zeros(3), 0.5, 6.0, np.eye(3))
        for _ in range(200):
            _, (cov,) = _atoms([params], rng)
            assert np.linalg.eigvalsh(cov)[0] > 0

    def test_degenerate_dof_limit(self):
        # S = nu * Sigma0 concentrates the draw at Sigma0 as nu grows
        rng = np.random.default_rng(3)
        Sigma0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        dists = []
        for nu in (50.0, 5000.0):
            draws = [_atoms([NIWParams(np.zeros(2), 1.0, nu, nu * Sigma0)], rng)[1][0]
                     for _ in range(200)]
            dists.append(np.mean([np.linalg.norm(d - Sigma0, 2) for d in draws]))
        assert dists[1] < dists[0] / 5

    def test_high_precision_pins_mean(self):
        rng = np.random.default_rng(4)
        m = np.array([3.0, -2.0])
        draws = np.array([_atoms([NIWParams(m, 1e8, 10.0, np.eye(2))], rng)[0][0]
                          for _ in range(100)])
        assert np.abs(draws - m).max() < 1e-3

    def test_non_spd_scale_is_a_numerical_error(self):
        params = NIWParams(np.zeros(2), 1.0, 5.0, -np.eye(2))
        with pytest.raises(NotPositiveDefinite):
            _atoms([NIWParams(np.zeros(2), 1.0, 5.0, np.eye(2)), params],
                   np.random.default_rng(0))

    def test_non_finite_scale_raises_what_the_wrapper_raised(self):
        params = NIWParams(np.zeros(2), 1.0, 5.0, np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            _atoms([params, NIWParams(np.zeros(2), 1.0, 5.0, np.eye(2))],
                   np.random.default_rng(0))

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_draws_match_the_wrapper_formula(self, p):
        """The stacked factor and the direct solve reproduce the draw made
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
            (got_mean,), (got_cov,) = _atoms([params], got_rng)
            mean, cov = reference(params, want_rng)
            assert np.array_equal(got_mean, mean) and np.array_equal(got_cov, cov)

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 9])
    def test_stack_equals_the_per_law_loop_bit_for_bit(self, p):
        """A stack of laws with their own means, precisions, degrees of
        freedom and scales draws the per-law reference's means and
        covariances bit for bit, and leaves the generator where it does."""
        rng = np.random.default_rng(50 + p)
        for _ in range(30):
            laws = []
            for _ in range(int(rng.integers(1, 12))):
                A = rng.normal(size=(p, p))
                laws.append(NIWParams(rng.normal(size=p) * 5.0, rng.uniform(0.01, 50.0),
                                      p - 1 + rng.uniform(0.5, 40.0),
                                      A @ A.T + rng.uniform(0.01, 3.0) * np.eye(p)))
            seed = int(rng.integers(2**32))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for got_mean, got_cov, law in zip(*_atoms(laws, got_rng), laws, strict=True):
                mean, cov = oracles.sample_niw_one(law, want_rng)
                assert np.array_equal(got_mean, mean) and np.array_equal(got_cov, cov)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _random_laws(rng, p, K):
    """K NIW laws with their own means, precisions, degrees of freedom and scales."""
    laws = []
    for _ in range(K):
        A = rng.normal(size=(p, p))
        laws.append(NIWParams(rng.normal(size=p) * 5.0, rng.uniform(0.01, 50.0),
                              p - 1 + rng.uniform(0.5, 40.0),
                              A @ A.T + rng.uniform(0.01, 3.0) * np.eye(p)))
    return laws


@pytest.mark.parametrize("p", [1, 2, 3, 7])
def test_stacked_posterior_equals_the_per_law_reference(p):
    """Runs of 0, 1, 2, 5 and 200 rows under laws of their own: every row of
    the stacked posterior has the bits of the per-law update, and a law
    with an empty run keeps its prior row."""
    rng = np.random.default_rng(60 + p)
    for sizes in ([0, 1, 200, 0, 5, 2], [200], [1], [0, 0, 3], [7, 0]):
        laws = _random_laws(rng, p, len(sizes))
        X = rng.normal(size=(sum(sizes), p)) * 3.0
        prior = NIWStack.of(laws)
        post = niw_posterior(prior, X, sizes)
        bounds = np.cumsum([0] + sizes)
        for k, law in enumerate(laws):
            want = oracles.niw_posterior_one(law, X[bounds[k]:bounds[k + 1]])
            for name in NIWStack._fields:
                assert np.array_equal(getattr(post, name)[k], getattr(want, name))
        assert all(np.array_equal(a, b) for a, b in zip(prior, NIWStack.of(laws)))


@pytest.mark.parametrize("sizes", [[3], [1, 1, 1], [2, 2]])
def test_stacked_posterior_rejects_runs_that_do_not_fit(sizes):
    laws = NIWStack.of([NIWParams(np.zeros(2), 1.0, 4.0, np.eye(2))] * 2)
    with pytest.raises(DimensionMismatch, match="sizes"):
        niw_posterior(laws, np.ones((3, 2)), sizes)


@pytest.mark.parametrize("p", [1, 2, 3, 7])
def test_stacked_atoms_equal_the_per_law_draws(p):
    """The atoms of a stack of posteriors, each law's random calls made into
    its buffer rows, are the per-law draws, and leave the generator where
    they do."""
    rng = np.random.default_rng(70 + p)
    for sizes in ([0, 1, 200, 0, 5], [1], [0]):
        laws = _random_laws(rng, p, len(sizes))
        X = rng.normal(size=(sum(sizes), p))
        post = niw_posterior(NIWStack.of(laws), X, sizes)
        got_rng, want_rng = np.random.default_rng(p), np.random.default_rng(p)
        means, covs = niw_atoms(post, got_rng)
        for k in range(len(sizes)):
            mean, cov = oracles.sample_niw_one(NIWParams(*(a[k] for a in post)), want_rng)
            assert np.array_equal(means[k], mean) and np.array_equal(covs[k], cov)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _draw_atoms_reference(data, priors, hp, members, rng):
    """The per-slot draw: each slot's posterior law by the per-law update,
    drawn one at a time; frozen known atoms stay at the Stage-I estimates."""
    J = len(priors)
    laws = [] if hp.frozen_known_atoms else \
        [oracles.niw_posterior_one(sampler._training_niw(s, hp), data[rows])
         for s, rows in zip(priors, members)]
    laws += [oracles.niw_posterior_one(hp.base_measure, data[rows]) for rows in members[J:]]
    atoms = [oracles.sample_niw_one(law, rng) for law in laws]
    if hp.frozen_known_atoms:
        return [(s.mean, s.scatter) for s in priors], atoms
    return atoms[:J], atoms[J:]


@pytest.mark.parametrize("frozen", [False, True])
def test_draw_atoms_equals_the_per_slot_draws(frozen):
    """Empty, one-member and 200-row slots, known and novelty, drawn by one
    posterior pass and one stacked atom draw at p = 1, 2, 3 and 7: the
    per-slot reference's atoms and generator state."""
    for p in (1, 2, 3, 7):
        rng = np.random.default_rng(21 + p)
        M = 230
        data = rng.normal(size=(M, p)) * 2.0
        kw = dict(lambda_tr=1e6, nu_tr=1e6) if frozen else {}
        hp = _hyper([5, 5], p, **kw)
        priors = [_summary(rng.normal(size=p), np.eye(p) * (j + 1)) for j in range(2)]
        family = GaussianFamily(TestDataset(data), priors, hp)
        known = family.initial_known()
        # slot 1 has 200 members, slot 3 one, slots 2 and 7 none
        zeta = np.concatenate([np.full(200, 1), [3], rng.integers(4, 7, size=M - 201)])
        rng.shuffle(zeta)
        order, counts = _slots(zeta, 7)
        assert counts[0] == 200 and counts[1] == 0 and counts[2] == 1 and counts[6] == 0
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        got_known, got_novel = family.draw_atoms(order, counts, known, None, [], got_rng)
        members = [np.flatnonzero(zeta == l) for l in range(1, 8)]
        want_known, want_novel = _draw_atoms_reference(data, priors, hp, members, want_rng)
        if frozen:
            assert got_known is known
        assert len(got_novel[0]) == 5
        means, covs = (np.concatenate(pair) for pair in zip(got_known, got_novel))
        for mean, cov, (want_mean, want_cov) in zip(means, covs, want_known + want_novel,
                                                    strict=True):
            assert np.array_equal(mean, want_mean) and np.array_equal(cov, want_cov)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_one_scan_makes_one_posterior_pass_and_one_draw_call_per_law(monkeypatch):
    """Tooling guard: a Gaussian scan calls ``niw_posterior`` once and
    ``sample_niw`` once per drawn law (L slots, or the L - J novelty slots
    when frozen), and builds no per-slot NIWParams."""
    calls = {"niw_posterior": 0, "sample_niw": 0}
    for name in calls:
        def counted(*args, _f=getattr(sampler, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(sampler, name, counted)

    def no_law(self):
        raise AssertionError("a scan built an NIWParams")

    rng = np.random.default_rng(40)
    data = TestDataset(np.vstack([rng.normal(0, 1, (20, 2)), rng.normal(9, 1, (6, 2))]))
    priors = [_summary([0.0, 0.0], np.eye(2)), _summary([4.0, 4.0], np.eye(2))]
    for kw in ({}, dict(lambda_tr=1e6, nu_tr=1e6)):
        hp = _hyper([20, 20], 2, seed=41, **kw)
        family = GaussianFamily(data, priors, hp)
        state = _initial_state(family, hp)
        with monkeypatch.context() as scan:
            scan.setattr(NIWParams, "__post_init__", no_law)
            for _ in range(20):
                calls.update(niw_posterior=0, sample_niw=0)
                state = gibbs_step(state, family, hp, rng)
                drawn = state.L_star - (2 if hp.frozen_known_atoms else 0)
                assert calls == {"niw_posterior": 1, "sample_niw": drawn}


def _full_columns(data, atoms):
    """Every unit's density under every atom, one full column per atom."""
    return np.column_stack([oracles.gaussian_column(data, mean, cov) for mean, cov in zip(*atoms)])


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
    known, novel = _split(_atoms([base] * (J + K), rng), J)
    xi = xi_values(0.5, J, J + K)
    u = rng.random(M) * xi[J]
    single, full = draw(st.lists(st.integers(J + 1, J + K - 1), min_size=2,
                                 max_size=2, unique=True))
    lowest, second = np.sort(u)[:2]
    xi[single] = np.nextafter(lowest, 1.0) if lowest < second else lowest
    xi[full] = 1.0
    return data, known, novel, u, xi


@settings(max_examples=80, deadline=None)
@given(_masked_loglik_case())
def test_masked_loglik_equals_full_loglik_on_eligible_cells(case):
    data, known, novel, u, xi = case
    eligible = u[:, None] < xi
    full = _full_columns(data, [np.concatenate(pair) for pair in zip(known, novel)])
    cells = _family(data, len(known)).loglik(known, novel, _staircase(u, xi))
    got = oracles.staircase_to_dense(cells, u, xi)
    assert np.array_equal(got[eligible], full[eligible])
    assert np.all(got[~eligible] == -np.inf)


@pytest.mark.parametrize("p", [1, 2, 7, 9])
@pytest.mark.parametrize("M", [1, 2, 3, 40, 950])
def test_prefix_densities_equal_full_columns_bit_for_bit(p, M):
    """The staircase reproduces full-column densities, for columns of 0, 1,
    2, M - 1 and M eligible units (p = 9 sums its squares pairwise)."""
    rng = np.random.default_rng(100 * p + M)
    data = rng.normal(size=(M, p)) * 3.0
    base = NIWParams(np.zeros(p), 0.1, p + 2.0, np.eye(p))
    atoms = _atoms([base] * 8, rng)
    u = rng.random(M)
    us = np.sort(u)
    xi = np.array([1.0, us[0], np.nextafter(us[0], 2.0), us[min(1, M - 1)],
                   np.nextafter(us[min(1, M - 1)], 2.0), us[-1], 1.0, 0.0])
    eligible = u[:, None] < xi
    assert {0, 1, min(2, M), max(M - 1, 0), M} <= set(eligible.sum(axis=0).tolist())
    cells = _family(data, 2).loglik(*_split(atoms, 2), _staircase(u, xi))
    assert cells.shape == (np.count_nonzero(eligible),)
    got = oracles.staircase_to_dense(cells, u, xi)
    assert np.array_equal(got[eligible], _full_columns(data, atoms)[eligible])
    assert np.all(got[~eligible] == -np.inf)


@pytest.mark.parametrize("p", [2, 9])
def test_column_major_data_give_the_row_major_densities_and_atoms(p):
    """The row gathers copy column-major data into the row-major blocks the
    densities and the NIW posteriors read, so both keep their bits."""
    rng = np.random.default_rng(30 + p)
    M = 400
    data = rng.normal(size=(M, p)) * 3.0
    base = NIWParams(np.zeros(p), 0.1, p + 2.0, np.eye(p))
    atoms = _atoms([base] * 6, rng)
    xi = xi_values(0.5, 2, 6)
    stair = _staircase(rng.random(M) * xi[2], xi)
    row_major, column_major = _family(data, 2), _family(np.asfortranarray(data), 2)
    assert column_major.data.flags.f_contiguous and not column_major.data.flags.c_contiguous
    known, novel = _split(atoms, 2)
    cells = row_major.loglik(known, novel, stair)
    assert np.array_equal(column_major.loglik(known, novel, stair), cells)
    order, counts = _slots(rng.integers(1, 7, size=M), 6)
    want = row_major.draw_atoms(order, counts, known, novel, [], np.random.default_rng(3))
    got = column_major.draw_atoms(order, counts, known, novel, [], np.random.default_rng(3))
    for a, b in zip(got[0] + got[1], want[0] + want[1], strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("bad, error", [(-np.eye(2), NotPositiveDefinite),
                                        (np.diag([np.nan, 1.0]), ValueError),
                                        (np.diag([np.inf, 1.0]), ValueError)])
def test_stacked_factorisation_keeps_the_typed_errors(bad, error):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(6, 2))
    base = NIWParams(np.zeros(2), 0.1, 4.0, np.eye(2))
    means, covs = _atoms([base] * 4, rng)
    covs[2] = bad
    with pytest.raises(error):
        _family(data, 1).loglik(*_split((means, covs), 1),
                                _staircase(rng.random(6) * 0.1, np.full(4, 0.5)))


def test_stacked_factorisation_rejects_a_non_finite_mean():
    rng = np.random.default_rng(1)
    atoms = np.array([[0.0, 0.0], [0.0, np.nan]]), np.array([np.eye(2)] * 2)
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        _family(rng.normal(size=(4, 2)), 1).loglik(
            *_split(atoms, 1), _staircase(np.full(4, 0.1), np.full(2, 0.5)))


def test_start_distances_of_column_major_data_equal_row_major():
    """The start distances, which set the first allocation and its
    chi-square gate, do not depend on the memory order of the data."""
    rng = np.random.default_rng(2)
    X = rng.normal(size=(25, 3)) * 2.0
    priors = [_summary(rng.normal(size=3), np.diag([0.5, 2.0, 4.0])),
              _summary(np.zeros(3), 3.0 * np.eye(3))]
    hp = _hyper([5, 5], 3)
    want, df = GaussianFamily(TestDataset(X), priors, hp).start_distances()
    got, _ = GaussianFamily(TestDataset(np.asfortranarray(X)), priors, hp).start_distances()
    assert np.array_equal(got, want)
    assert want[:, 1] == pytest.approx((X ** 2).sum(axis=1) / 3.0, rel=1e-12)


@pytest.mark.parametrize("order", ["C", "F"])
def test_stacked_start_distances_equal_the_per_prior_reference(order):
    """One stacked call gives each prior's column the bits of scipy's
    triangular solve of that prior alone."""
    rng = np.random.default_rng(30)
    for J in range(1, 6):
        for p in range(1, 10):
            n = int(rng.integers(1, 301))
            X = np.asarray(rng.normal(size=(n, p)) * 3.0, order=order)
            covs = [A @ A.T + p * np.eye(p) for A in rng.normal(size=(J, p, p))]
            priors = [_summary(mean, cov) for mean, cov in zip(rng.normal(size=(J, p)), covs)]
            got, df = GaussianFamily(TestDataset(X), priors, _hyper([5] * J, p)).start_distances()
            assert got.shape == (n, J) and df == p
            for j, s in enumerate(priors):
                Z = solve_triangular(np.linalg.cholesky(s.scatter), (X - s.mean).T, lower=True)
                assert np.array_equal(got[:, j], np.sum(Z * Z, axis=0))


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


def _allocate(rng, log_lik, weights, u, xi):
    """The allocation step on the staircase of (u, xi), as a scan runs it."""
    return _sample_allocations(rng, log_lik, weights, u, xi, _staircase(u, xi))


def _staircase_case(seed, M, L):
    """Log-likelihoods that are -inf where u_m >= xi_l, and their eligible
    cells as the staircase a family gives."""
    rng = np.random.default_rng(seed)
    xi = xi_values(0.5, 2, L)
    u = rng.random(M) * xi[rng.integers(0, L, M)]
    log_lik = np.where(u[:, None] < xi, rng.normal(size=(M, L)) * 5.0, -np.inf)
    return log_lik, oracles.dense_to_staircase(log_lik, u, xi), rng.dirichlet(np.ones(L)), u, xi


class _CountingMath:
    """Stands in for the sampler's ``math`` module and counts ``log`` calls."""

    def __init__(self):
        self.logs = 0

    def log(self, x):
        self.logs += 1
        return math.log(x)

    def __getattr__(self, name):
        return getattr(math, name)


_PCG64_MULT = 0x2360ed051fc65da44385df649fccf645


def _zero_at(k: int, seed: int = 0) -> np.random.Generator:
    """A PCG64 generator whose k-th double (0-based) is exactly 0.  The
    output is rotr(hi ^ lo) of the stepped 128-bit state, so a state with
    equal halves gives 0; the generator is set one step before it and
    moved k steps back."""
    bit_generator = np.random.PCG64(seed)
    state = bit_generator.state
    halves = (0x9E3779B97F4A7C15 << 64) | 0x9E3779B97F4A7C15
    state["state"]["state"] = ((halves - state["state"]["inc"]) * pow(_PCG64_MULT, -1, 2**128)
                               % 2**128)
    bit_generator.state = state
    bit_generator.advance(2**128 - k)
    return np.random.Generator(bit_generator)


class _Scripted:
    """Stands in for a generator: ``random`` returns the next values of a
    fixed stream of doubles."""

    def __init__(self, stream):
        self.stream, self.drawn = stream, 0

    def random(self, size):
        self.drawn += size
        return self.stream[self.drawn - size:self.drawn].copy()


class TestAllocations:
    def test_single_eligible_component(self):
        rng = np.random.default_rng(8)
        xi = np.array([0.5, 0.3, 0.2])
        u = np.full(5, 0.4)  # only component 1 is eligible
        zeta = _allocate(rng, np.zeros(5), np.array([0.2, 0.4, 0.4]), u, xi)
        assert np.all(zeta == 1)

    def test_symmetric_components_split_evenly(self):
        rng = np.random.default_rng(9)
        n = 20000
        log_lik = np.zeros(2 * n)
        zeta = _allocate(rng, log_lik, np.array([0.3, 0.3]),
                                   np.full(n, 0.01), np.array([0.5, 0.5]))
        frac = np.mean(zeta == 1)
        assert frac == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(n))

    def test_likelihood_dominates(self):
        rng = np.random.default_rng(10)
        log_lik = np.repeat([0.0, -40.0], 50)  # column by column
        zeta = _allocate(rng, log_lik, np.array([0.5, 0.5]),
                                   np.full(50, 0.1), np.array([0.5, 0.5]))
        assert np.all(zeta == 1)

    @pytest.mark.parametrize("seed, M, L", [(0, 1, 4), (1, 7, 3), (2, 950, 46),
                                            (3, 300, 80), (4, 105, 12)])
    def test_labels_and_generator_state_equal_the_gumbel_draw(self, seed, M, L):
        log_lik, cells, weights, u, xi = _staircase_case(seed, M, L)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = _allocate(got_rng, cells, weights, u, xi)
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
        got = _allocate(np.random.default_rng(seed), log_lik.T.ravel(), w,
                                  np.zeros(M), w)
        want = _gumbel_allocations(np.random.default_rng(seed), log_lik, w, w)
        assert np.array_equal(got, want)
        assert np.array_equal(np.unique(want[up]), [2]) and np.all(want[~up] < 3)
        assert counter.logs >= 2 * 2 * M  # two logs per cell, two or more cells per unit

    @pytest.mark.parametrize("M, L", [(1, 4), (7, 3), (200, 20)])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_an_exact_zero_uniform_is_redrawn_as_gumbel_redraws_it(self, M, L, where):
        k = {"first": 0, "middle": M * L // 2, "last": M * L - 1}[where]
        assert _zero_at(k).random(M * L)[k] == 0.0
        log_lik, cells, weights, u, xi = _staircase_case(5, M, L)
        got_rng, want_rng = _zero_at(k), _zero_at(k)
        got = _allocate(got_rng, cells, weights, u, xi)
        assert np.array_equal(got, _gumbel_allocations(want_rng, log_lik, weights, xi))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_a_zero_refill_draw_is_redrawn_too(self):
        """Zeros in the first block and in its refill: the noise is libm's
        -log(-log(1 - d)) over the stream's doubles with the zeros left out."""
        M, L = 6, 4
        log_lik, cells, weights, u, xi = _staircase_case(6, M, L)
        stream = np.random.default_rng(6).random(M * L + 3)
        stream[[2, M * L]] = 0.0  # M * L is the first refill draw
        rng = _Scripted(stream)
        got = _allocate(rng, cells, weights, u, xi)
        assert rng.drawn == M * L + 2
        d = stream[stream != 0.0][:M * L].reshape(M, L).tolist()
        with np.errstate(divide="ignore"):
            logits = (log_lik + np.log(weights) - np.log(xi)).tolist()
        want = []
        for m in range(M):
            scores = [logits[m][l] - math.log(-math.log(1.0 - d[m][l])) for l in range(L)]
            want.append(scores.index(max(scores)) + 1)
        assert got.tolist() == want

    def test_a_unit_without_an_eligible_cell_is_an_error(self):
        log_lik = np.zeros((3, 2))
        log_lik[1] = -np.inf
        with pytest.raises(AllSlicesEmpty):
            _allocate(np.random.default_rng(0), log_lik.T.ravel(),
                                np.array([0.5, 0.5]), np.full(3, 0.1), np.array([0.5, 0.5]))
        with pytest.raises(AllSlicesEmpty):  # the unit at u = 0.6 has no cell at all
            _allocate(np.random.default_rng(0), np.zeros(4), np.array([0.5, 0.5]),
                                np.array([0.1, 0.6, 0.2]), np.array([0.5, 0.5]))


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
            alpha, beta = _alpha_of(zeta, 1), _beta_of(zeta, 1)
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

    @pytest.mark.parametrize("name, value", [
        ("zeta_trace", np.ones(3)),
        ("pi_trace", np.full((1, 2), 0.5)),  # one row for three scans
        ("pi_trace", np.full((3, 3), 1 / 3)),  # n_known + 2 columns
        ("pi_trace", np.full(3, 0.5)),
        ("gamma_trace", np.ones(7)),
        ("gamma_trace", np.ones((3, 1))),
        ("n_active_trace", np.ones(0)),
    ])
    def test_traces_have_one_row_per_retained_scan(self, name, value):
        traces = dict(zeta_trace=np.ones((3, 4)), pi_trace=np.full((3, 2), 0.5),
                      gamma_trace=np.ones(3), n_active_trace=np.full(3, 2))
        assert ChainOutput(n_known=1, seed=0, **traces).n_units == 4
        traces[name] = value
        with pytest.raises(DimensionMismatch, match=name):
            ChainOutput(n_known=1, seed=0, **traces)

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
