import numpy as np
import pytest

from novelbayes import robust
from novelbayes.errors import DegenerateData, InsufficientRows, SingularSubset
from novelbayes.robust import (
    LabeledDataset,
    McdConfig,
    consistency_factor,
    extract_class_priors,
    fast_mcd,
    mrcd,
)

import oracles

# chi-square quantile/CDF constants computed with a 30-digit independent
# oracle before the build (regularized incomplete gamma via mpmath)
C0_075_P2 = 1.859075117368965
C0_05_P1 = 7.0100745397032346
C0_075_P1 = 2.7135271017755203
C0_095_P7 = 1.0794925546821824


class TestConsistencyFactor:
    def test_no_trimming_limit(self):
        for p in (1, 2, 5, 20):
            assert consistency_factor(1.0, p) == 1.0

    def test_frozen_constants(self):
        assert consistency_factor(0.75, 2) == pytest.approx(C0_075_P2, rel=1e-12)
        assert consistency_factor(0.5, 1) == pytest.approx(C0_05_P1, rel=1e-12)
        assert consistency_factor(0.75, 1) == pytest.approx(C0_075_P1, rel=1e-12)
        assert consistency_factor(0.95, 7) == pytest.approx(C0_095_P7, rel=1e-12)

    def test_at_least_one(self):
        for eta in (0.5, 0.6, 0.75, 0.9, 0.99):
            for p in (1, 3, 10):
                assert consistency_factor(eta, p) >= 1.0


class TestFastMcd:
    def test_outlier_dropped_1d(self):
        data = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 100.0]).reshape(-1, 1)
        s = fast_mcd(data, McdConfig(eta=7 / 8, n_starts=50, seed=1))
        assert np.array_equal(s.untrimmed, np.arange(7))
        assert s.mean[0] == pytest.approx(0.3)
        assert s.method == "MCD"

    def test_eta_one_classical_moments(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        s = fast_mcd(X, McdConfig(eta=1.0))
        assert s.mean == pytest.approx(X.mean(axis=0), rel=1e-14)
        assert s.scatter == pytest.approx(np.cov(X.T), rel=1e-12)
        assert s.untrimmed.size == 40

    def test_determinant_not_above_full_sample(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 2))
        s = fast_mcd(X, McdConfig(eta=0.75, n_starts=100, seed=2))
        assert s.determinant <= np.linalg.det(np.cov(X.T)) + 1e-12

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(2)
        for trial in range(12):
            n = int(rng.integers(8, 13))
            p = 1 + trial % 2
            X = rng.normal(size=(n, p))
            X[0] += 6.0  # plant an outlier
            cfg = McdConfig(eta=0.75, n_starts=60, seed=trial)
            h = int(np.floor(cfg.eta * n))
            s = fast_mcd(X, cfg)
            idx, det = oracles.exhaustive_mcd(X, h)
            assert np.array_equal(s.untrimmed, idx)
            assert s.log_determinant == pytest.approx(np.log(det), abs=1e-9)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 2))
        X[:5] += 8.0
        A = np.array([[2.0, 0.5], [-0.3, 1.2]])
        b = np.array([3.0, -1.0])
        cfg = McdConfig(eta=0.8, n_starts=200, seed=4)
        s1 = fast_mcd(X, cfg)
        s2 = fast_mcd(X @ A.T + b, cfg)
        assert s2.mean == pytest.approx(A @ s1.mean + b, abs=1e-8)
        assert s2.scatter == pytest.approx(A @ s1.scatter @ A.T, abs=1e-8)
        assert np.array_equal(s1.untrimmed, s2.untrimmed)

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientRows):
            fast_mcd(np.random.default_rng(0).normal(size=(10, 5)),
                     McdConfig(eta=0.5, n_starts=5))

    def test_singular_subset_signals_fallback(self):
        # half the points sit on a line, so some h-subset is rank deficient
        X = np.zeros((12, 2))
        X[:, 0] = np.arange(12)
        with pytest.raises(SingularSubset):
            fast_mcd(X, McdConfig(eta=0.75, n_starts=30, seed=0))


class TestMrcd:
    def test_full_shrinkage_returns_target(self, monkeypatch):
        monkeypatch.setattr(robust, "_RHO_GRID", [1.0])
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 3))
        s = mrcd(X, McdConfig(eta=0.75, n_starts=10, seed=0))
        assert s.rho == 1.0
        assert s.scatter == pytest.approx(np.diag(X.var(axis=0, ddof=1)), rel=1e-10)

    def test_outlier_excluded_matches_enumeration(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(10, 2))
        X[3] = (25.0, -30.0)
        cfg = McdConfig(eta=0.8, n_starts=100, seed=6)
        s = mrcd(X, cfg)
        assert 3 not in s.untrimmed
        # the target is the diagonal of the sample variances, and the oracle's
        # determinant is taken in the coordinates that target whitens
        var = X.var(axis=0, ddof=1)
        idx, det = oracles.exhaustive_mrcd(
            X, 8, s.rho, consistency_factor(0.8, 2), np.diag(var))
        assert np.array_equal(s.untrimmed, idx)
        assert s.determinant == pytest.approx(det * np.prod(var), rel=1e-8)

    def test_high_dimensional_spd(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(28, 150)) * rng.uniform(0.5, 2.0, size=150)
        s = mrcd(X, McdConfig(eta=0.75, n_starts=30, seed=7))
        eig = np.linalg.eigvalsh(s.scatter)
        assert eig[0] > 0
        assert s.condition_number <= 1000.0
        assert s.untrimmed.size == 21
        assert s.method == "MRCD"

    def test_degenerate_data(self):
        with pytest.raises(DegenerateData):
            mrcd(np.ones((8, 3)), McdConfig(eta=0.8))


def _outcome(fn):
    """The value of fn(), or the type and message of what it raised."""
    try:
        return fn()
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)


def _assert_fits_equal(fits, errors, want):
    """Stacked fits and errors against one sequential outcome per start."""
    for k, expected in enumerate(want):
        if isinstance(expected[0], type):
            assert (type(errors[k]), str(errors[k])) == expected
            continue
        assert k not in errors
        for got, ref in zip((f[k] for f in fits), expected, strict=True):
            assert np.array_equal(got, ref)


def _regularized(rho, c0, p):
    return lambda cov: rho * np.eye(p) + (1.0 - rho) * c0 * cov


class TestStackedCSteps:
    """A stack of starts gives each start the subset, mean, scatter,
    log-determinant and C-step count of its own sequential run, and each
    failing start the error its run raises."""

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 9])
    @pytest.mark.parametrize("max_csteps", [1, 2, 100])
    def test_mcd_stack_equals_the_sequential_starts(self, p, max_csteps):
        rng = np.random.default_rng(10 * p + max_csteps)
        n = 30 + 3 * p
        X = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0, size=p)
        X[:3] += 8.0
        h = int(0.75 * n)
        perms = np.array([rng.permutation(n) for _ in range(40)])
        starts, errors = robust._elemental_starts(X, h, perms)
        assert errors == {}
        for start, perm in zip(starts, perms, strict=True):
            assert np.array_equal(start, oracles.elemental_start_one(X, h, perm))
        fits, errors = robust._c_steps(X, starts, h, max_csteps)
        _assert_fits_equal(fits, errors, [oracles.c_steps_one(X, start, h, max_csteps,
                                                              lambda cov: cov)
                                          for start in starts])
        assert fits[4].max() <= max_csteps

    @pytest.mark.parametrize("p, n", [(2, 12), (5, 8), (40, 20)])
    def test_mrcd_stack_equals_the_sequential_starts(self, p, n):
        rng = np.random.default_rng(p + n)
        X = rng.normal(size=(n, p))
        h, rho, c0 = int(0.75 * n), 0.3, consistency_factor(0.75, p)
        starts = np.array([np.sort(rng.choice(n, size=h, replace=False)) for _ in range(30)])
        fits, errors = robust._mrcd_c_steps(X, starts, h, rho, c0, 100)
        _assert_fits_equal(fits, errors, [oracles.c_steps_one(X, start, h, 100,
                                                              _regularized(rho, c0, p))
                                          for start in starts])

    def test_singular_elemental_sets_grow_as_in_the_sequential_search(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(24, 2))
        X[:12] = X[0]  # half the rows coincide
        perms = np.array([rng.permutation(24) for _ in range(60)])
        grown = sum(len(set(perm[:3].tolist()) & set(range(12))) >= 2 for perm in perms)
        assert grown >= 10  # many elemental sets hold a repeated row
        starts, errors = robust._elemental_starts(X, 18, perms)
        assert errors == {}
        for start, perm in zip(starts, perms, strict=True):
            assert np.array_equal(start, oracles.elemental_start_one(X, 18, perm))

    def test_failing_starts_keep_their_own_errors(self):
        """Two starts on collinear rows fail (one at once, one after a
        C-step); the others run on, and the search raises the first one's
        error."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 2)) * 3.0
        X[:10, 1] = 2.0 * X[:10, 0]
        X[:10] *= 0.05  # rows 0-9: a tight cluster on a line
        h = 10
        starts = np.array([np.sort(rng.choice(20, size=h, replace=False)) for _ in range(8)])
        starts[2] = np.arange(10)
        want = [_outcome(lambda: oracles.c_steps_one(X, start, h, 100, lambda cov: cov))
                for start in starts]
        failing = [k for k, w in enumerate(want) if isinstance(w[0], type)]
        assert failing == [2, 4]
        fits, errors = robust._c_steps(X, starts, h, 100)
        assert sorted(errors) == failing
        _assert_fits_equal(fits, errors, want)
        assert fits[4][4] > 0  # start 4 failed after C-steps
        with pytest.raises(SingularSubset) as raised:
            robust._best([(fits, errors)])
        assert raised.value is errors[failing[0]]

    def test_a_start_whose_distances_fail_leaves_the_stack(self):
        """Starts holding a rank-one half of the rows fail at their distances
        and run no further C-steps, each with its own error."""
        rng = np.random.default_rng(1)
        X = rng.normal(size=(24, 3)) * 3
        t = rng.normal(size=12)
        X[:12] = np.outer(t, rng.normal(size=3)) + rng.normal(size=3)
        h = 12
        starts = np.array([np.arange(12)] + [np.sort(rng.choice(24, size=12, replace=False))
                                             for _ in range(5)])
        fits, errors = robust._c_steps(X, starts, h, 100)
        _assert_fits_equal(fits, errors, [
            _outcome(lambda: oracles.c_steps_one(X, start, h, 100, lambda cov: cov))
            for start in starts])
        assert fits[4].max() <= 3

    def test_a_failing_elemental_start_stops_the_search(self):
        X = np.zeros((6, 2))
        X[:, 0] = np.arange(6)  # every subset is collinear
        perms = np.array([np.random.default_rng(k).permutation(6) for k in range(3)])
        starts, errors = robust._elemental_starts(X, 4, perms)
        assert sorted(errors) == [0, 1, 2]
        want = _outcome(lambda: oracles.elemental_start_one(X, 4, perms[0]))
        assert (type(errors[0]), str(errors[0])) == want

    @pytest.mark.parametrize("floats", [1, 200, 1 << 16])
    def test_searches_equal_the_sequential_search_in_any_stack_size(self, floats,
                                                                    monkeypatch):
        """fast_mcd and mrcd keep the first best fit of the one-start-at-a-
        time search, whether the starts run one by one or in stacks."""
        monkeypatch.setattr(robust, "_STACK_FLOATS", floats)
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 3))
        X[:5] += 6.0
        cfg = McdConfig(eta=0.75, n_starts=30, max_csteps=5, seed=3)
        perm_rng = np.random.default_rng(3)
        starts = [oracles.elemental_start_one(X, 30, perm_rng.permutation(40)) for _ in range(30)]
        fits = [oracles.c_steps_one(X, start, 30, 5, lambda cov: cov) for start in starts]
        best = min(fits, key=lambda fit: fit[3])
        got = fast_mcd(X, cfg, rng=np.random.default_rng(3))
        assert np.array_equal(got.untrimmed, best[0])
        assert np.array_equal(got.mean, best[1])
        assert got.log_determinant == best[3]
        ref = mrcd(X, cfg, rng=np.random.default_rng(3))
        monkeypatch.setattr(robust, "_STACK_FLOATS", 1)
        one_by_one = mrcd(X, cfg, rng=np.random.default_rng(3))
        assert ref.to_dict() == one_by_one.to_dict()


    @pytest.mark.parametrize("failing", [False, True])
    def test_column_major_data_give_the_row_major_distances(self, failing):
        """The stacked distances, and the per-start ones a stack with a
        singular start falls back to, solve column-major data too."""
        rng = np.random.default_rng(14)
        X = rng.normal(size=(40, 3)) * [1.0, 3.0, 0.5]
        X[:5] += 6.0
        F = np.asfortranarray(X)
        means = X[:3]
        covs = np.array([np.eye(3), np.diag([1.0, 9.0, 0.25]),
                         np.zeros((3, 3)) if failing else 2.0 * np.eye(3)])
        dist, errors = robust._stacked_sq_mahalanobis(X, means, covs)
        assert sorted(errors) == ([2] if failing else [])
        got, _ = robust._stacked_sq_mahalanobis(F, means, covs)
        assert np.array_equal(got[:2], dist[:2])
        assert dist[1] == pytest.approx((((X - X[1]) / [1.0, 3.0, 0.5]) ** 2).sum(axis=1),
                                        rel=1e-12)
        cfg = McdConfig(eta=0.75, n_starts=30, max_csteps=5, seed=3)
        assert fast_mcd(F, cfg).to_dict() == fast_mcd(X, cfg).to_dict()


class TestSubsetChoice:
    """The subset helpers give the bits of their plain numpy forms."""

    @pytest.mark.parametrize("shape", [(9,), (1, 9), (6, 9), (0, 9), (4, 300)])
    @pytest.mark.parametrize("kind", ["distinct", "ties", "all-equal", "inf"])
    def test_smallest_h_equals_the_stable_argsort(self, shape, kind):
        """Every d below the h-th smallest value, then the lowest-index ties
        at it: the subsets of a stable argsort, for h = 1 to n."""
        rng = np.random.default_rng(shape[-1] + len(shape))
        dist = {"distinct": lambda: rng.random(shape),
                "ties": lambda: rng.integers(0, 3, shape).astype(float),
                "all-equal": lambda: np.full(shape, 2.5),
                "inf": lambda: np.where(rng.random(shape) < 0.4, np.inf,
                                        rng.integers(0, 4, shape))}[kind]()
        n = shape[-1]
        for h in sorted({1, 2, n // 2, n - 1, n}):
            got = robust._smallest_h(dist, h)
            want = oracles.smallest_h_argsort(dist, h)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_smallest_h_equals_the_stable_argsort_on_random_rows(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            shape = (int(rng.integers(1, 5)), n) if rng.random() < 0.7 else (n,)
            dist = rng.integers(0, int(rng.integers(1, 6)), shape).astype(float)
            dist[rng.random(shape) < 0.1] = np.inf
            h = int(rng.integers(1, n + 1))
            assert np.array_equal(robust._smallest_h(dist, h),
                                  oracles.smallest_h_argsort(dist, h))

    @pytest.mark.parametrize("stacked", [False, True])
    def test_subset_moments_of_column_major_rows(self, stacked):
        """Row-major and column-major data give the moments of the
        fancy-index gather, for one subset and for a stack of them."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(300, 2)) * [3.0, 0.5] + 1.0
        idx = np.sort(rng.permuted(np.tile(np.arange(300), (27, 1)), axis=1)[:, :225], axis=1)
        idx = idx if stacked else idx[0]
        want = oracles.subset_moments_fancy(X, idx)
        for data in (X, np.asfortranarray(X)):
            mean, cov = robust._subset_moments(data, idx)
            assert np.array_equal(mean, want[0]) and np.array_equal(cov, want[1])


class TestExtractClassPriors:
    def test_single_class_no_trimming(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 2))
        train = LabeledDataset(X, np.ones(30, dtype=int))
        (s,) = extract_class_priors(train, McdConfig(eta=1.0))
        assert s.mean == pytest.approx(X.mean(axis=0))
        assert s.scatter == pytest.approx(np.cov(X.T))

    def test_label_noise_recovery(self):
        # three Gaussian classes with 12% of labels swapped between 2 and 3;
        # robust means stay within 0.3 of the generating centers
        from novelbayes.simulate import SimulationSpec, generate_simulation

        spec = SimulationSpec.scenario("notsmall", label_noise=True, seed=3)
        train, _, _ = generate_simulation(spec)
        summaries = extract_class_priors(train, McdConfig(eta=0.75, n_starts=300, seed=8))
        true_means = spec.means[:3]
        for s, mu in zip(summaries, true_means):
            assert np.linalg.norm(s.mean - mu) < 0.3

    def test_contaminated_classical_estimate_is_biased(self):
        # same data, eta = 1: the class-2/3 means are dragged toward each other
        from novelbayes.simulate import SimulationSpec, generate_simulation

        spec = SimulationSpec.scenario("notsmall", label_noise=True, seed=3)
        train, _, _ = generate_simulation(spec)
        summaries = extract_class_priors(train, McdConfig(eta=1.0))
        drift2 = np.linalg.norm(summaries[1].mean - spec.means[1])
        drift3 = np.linalg.norm(summaries[2].mean - spec.means[2])
        assert max(drift2, drift3) > 0.8

    def test_mrcd_fallback_when_wide(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 30))
        labels = np.repeat([1, 2], 20)
        out = extract_class_priors(LabeledDataset(X, labels), McdConfig(eta=0.75, n_starts=10))
        assert [s.method for s in out] == ["MRCD", "MRCD"]

    def test_mrcd_fallback_when_mcd_subset_singular(self):
        # the collinear class of test_singular_subset_signals_fallback:
        # h = 9 >= p + 1, so MCD runs first and its singular subset hands over
        X = np.zeros((12, 2))
        X[:, 0] = np.arange(12)
        cfg = McdConfig(eta=0.75, n_starts=30, seed=0)
        (s,) = extract_class_priors(LabeledDataset(X, np.ones(12, dtype=int)), cfg)
        want = mrcd(X, cfg, rng=np.random.default_rng([cfg.seed, 1]))
        assert s.method == "MRCD"
        assert s.to_dict() == want.to_dict()

    def test_error_carries_class_index(self):
        X = np.ones((8, 2))
        X[4:] = 2.0
        labels = np.repeat([1, 2], 4)
        with pytest.raises(DegenerateData, match="class 1"):
            extract_class_priors(LabeledDataset(X, labels), McdConfig(eta=0.75))


class TestLabeledDataset:
    def test_class_bookkeeping(self):
        ds = LabeledDataset(np.zeros((5, 2)) + np.arange(5)[:, None],
                            [1, 2, 1, 2, 2])
        assert ds.n_classes == 2
        assert np.array_equal(ds.class_sizes, [2, 3])
        assert np.array_equal(ds.class_rows(2), [1, 3, 4])

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((4, 1)), [1, 1, 3, 3])
        # no rows at all means no class 1: the rule's message, not numpy's
        with pytest.raises(ValueError, match="labels must cover every class 1..J"):
            LabeledDataset(np.empty((0, 2)), [])

    def test_tiny_class_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 1)), [1, 1, 2])
