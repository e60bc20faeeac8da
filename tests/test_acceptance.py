"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`.

The seeds-dataset criterion needs the public UCI table; it is located via
the NOVELBAYES_SEEDS_PATH environment variable or tests/data/ (the suite
never downloads), and the test reports a skip when neither has it.
"""

import math
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

import novelbayes as nb
from novelbayes.model import GammaPrior, NIWParams

import oracles

pytestmark = pytest.mark.acceptance


def _report(criterion: str, ok: bool, detail: str):
    print(f"\n[acceptance {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# criteria 1 and 2: simulation replication and robustness contrast
# ---------------------------------------------------------------------------

def _simulation_arm(eta, lambda_tr):
    """Fit and score one hyperparameter arm on the simulated dataset; the
    runtime covers Stage I, the chain and the summary, in the arm's own
    process."""
    spec = nb.SimulationSpec.scenario("notsmall", label_noise=True, seed=1)
    train, test, truth = nb.generate_simulation(spec)
    t0 = time.perf_counter()
    priors = nb.extract_class_priors(
        train, nb.McdConfig(eta=eta, n_starts=500, seed=7))
    hp = nb.Hyperparameters.with_class_weights(
        train.class_sizes, a0=0.1, lambda_tr=lambda_tr, nu_tr=10.0,
        base_measure=NIWParams(np.zeros(2), 0.01, 10.0, 10 * np.eye(2)),
        gamma=GammaPrior(1.0, 1.0), n_iter=20000, n_burnin=10000, seed=42)
    out = nb.run_chain(test, priors, hp, record_atoms=False)
    summ = nb.summarize(out)
    runtime = time.perf_counter() - t0
    return {
        "accuracy": nb.known_accuracy(summ.labels, truth, [1, 2, 3]),
        "precision": nb.novelty_precision(summ.labels, truth, [1, 2, 3]),
        "ari": nb.ari(summ.labels, truth),
        "runtime": runtime,
    }


@pytest.fixture(scope="module")
def simulation_runs():
    """Both hyperparameter arms on one simulated dataset, shared seed.  The
    arms share no state, so they run side by side in two fresh ``spawn``
    processes, which inherit the pinned BLAS threads."""
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        arms = pool.starmap_async(_simulation_arm, [(0.75, 10.0), (1.0, 1000.0)])
        robust, naive = arms.get(timeout=2 * 900)  # twice an arm's runtime bound
    return {"robust": robust, "naive": naive}


def test_criterion_1_simulation_replication(simulation_runs):
    r = simulation_runs["robust"]
    detail = (f"accuracy={r['accuracy']:.3f} (>=0.95), ari={r['ari']:.3f} (>=0.85), "
              f"precision={r['precision']:.3f} (>=0.95), runtime={r['runtime']:.0f}s (<=900s)")
    ok = (r["accuracy"] >= 0.95 and r["ari"] >= 0.85
          and r["precision"] >= 0.95 and r["runtime"] <= 900)
    _report("1 simulation replication", ok, detail)


def test_criterion_2_robustness_contrast(simulation_runs):
    naive = simulation_runs["naive"]["accuracy"]
    robust = simulation_runs["robust"]["accuracy"]
    detail = f"naive accuracy={naive:.3f} (<=0.6), robust accuracy={robust:.3f} (>=0.95)"
    _report("2 robustness contrast", naive <= 0.6 and robust >= 0.95, detail)


# ---------------------------------------------------------------------------
# criterion 3: seeds dataset
# ---------------------------------------------------------------------------

def _locate_seeds():
    """A local copy of the seeds table, or None; the suite never downloads."""
    candidates = []
    env = os.environ.get("NOVELBAYES_SEEDS_PATH")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).parent / "data" / "seeds_dataset.txt")
    return next((path for path in candidates if path.exists()), None)


def test_criterion_3_seeds_dataset():
    path = _locate_seeds()
    if path is None:
        pytest.skip("seeds dataset unavailable (no local copy); "
                    "set NOVELBAYES_SEEDS_PATH or place seeds_dataset.txt in tests/data/")
    table = nb.io.load_multivariate(path, has_labels=True)
    X, y = table.data, table.labels

    rng = np.random.default_rng(2024)
    train_rows, test_rows = [], []
    for variety in (1, 2):
        rows = rng.permutation(np.flatnonzero(y == variety))
        train_rows.extend(rows[:35])
        test_rows.extend(rows[35:70])
    rows3 = rng.permutation(np.flatnonzero(y == 3))
    test_rows.extend(rows3[:35])
    train_rows, test_rows = np.sort(train_rows), np.sort(test_rows)

    train = nb.LabeledDataset(X[train_rows], y[train_rows])
    test = nb.TestDataset(X[test_rows])
    truth = y[test_rows]

    priors = nb.extract_class_priors(train, nb.McdConfig(eta=0.95, n_starts=500, seed=11))
    hp = nb.Hyperparameters.with_class_weights(
        train.class_sizes, a0=0.1, lambda_tr=1000.0, nu_tr=250.0,
        base_measure=NIWParams(np.zeros(7), 0.01, 10.0, np.eye(7)),
        gamma=GammaPrior(1.0, 1.0), n_iter=30000, n_burnin=20000, seed=12)
    out = nb.run_chain(test, priors, hp, record_atoms=False)
    summ = nb.summarize(out)

    known_ok = np.sum((truth <= 2) & (summ.labels == truth))
    novel_ok = np.sum((truth == 3) & (summ.labels <= 0))
    correct = int(known_ok + novel_ok)
    detail = (f"correct={correct}/105 (>=85), "
              f"third variety captured={int(novel_ok)}/35 (>=24)")
    _report("3 seeds dataset", correct >= 85 and novel_ok >= 24, detail)


# ---------------------------------------------------------------------------
# criterion 4: analytic prior moments vs Monte Carlo
# ---------------------------------------------------------------------------

def test_criterion_4_prior_moments_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    n = 1_000_000
    worst = 0.0
    for _ in range(5):
        J = int(rng.integers(1, 4))
        a = rng.uniform(0.2, 2.0, size=J + 1)
        gamma = float(rng.uniform(0.1, 3.0))
        mu = rng.uniform(-2.0, 2.0, size=J + 1)
        sigma = rng.uniform(0.3, 1.5, size=J + 1)
        moments = nb.PriorMoments(mu=mu, mu2=sigma ** 2 + mu ** 2, a=a)

        th1, th2, tie = oracles.mc_mixing_measure(a, gamma, mu, sigma, n, rng)
        th1_0, th2_0, _ = oracles.mc_mixing_measure(a, 0.0, mu, sigma, n, rng)

        checks = []
        se = th1.std() / math.sqrt(n)
        checks.append(abs(nb.prior_mean(moments) - th1.mean()) / se)

        sq = (th1 - th1.mean()) ** 2
        checks.append(abs(nb.prior_variance(moments) - th1.var())
                      / (sq.std() / math.sqrt(n)))

        p = tie.mean()
        checks.append(abs(nb.tie_probability(a, gamma) - p)
                      / math.sqrt(p * (1 - p) / n))

        prod = (th1 - th1.mean()) * (th2 - th2.mean())
        prod0 = (th1_0 - th1_0.mean()) * (th2_0 - th2_0.mean())
        se_dec = math.sqrt(prod.var() / n + prod0.var() / n)
        analytic_dec = nb.prior_covariance(moments, gamma) - nb.prior_covariance(moments, 0.0)
        checks.append(abs(analytic_dec - (prod.mean() - prod0.mean())) / se_dec)

        worst = max(worst, max(checks))
    runtime = time.perf_counter() - t0
    detail = f"worst deviation={worst:.2f} SE (<=4), runtime={runtime:.1f}s (<=60s)"
    _report("4 prior moments vs Monte Carlo", worst <= 4.0 and runtime <= 60, detail)


# ---------------------------------------------------------------------------
# criterion 5: MCD exact oracle
# ---------------------------------------------------------------------------

def test_criterion_5_mcd_exact_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    mismatches = 0
    for trial in range(50):
        n = int(rng.integers(7, 13))
        X = rng.normal(size=(n, 2))
        if trial % 2:
            X[rng.integers(0, n)] += rng.uniform(4, 10, size=2)
        cfg = nb.McdConfig(eta=0.75, n_starts=50, seed=1000 + trial)
        h = int(np.floor(cfg.eta * n))
        got = nb.fast_mcd(X, cfg).untrimmed
        want, _ = oracles.exhaustive_mcd(X, h)
        if not np.array_equal(got, want):
            mismatches += 1
    runtime = time.perf_counter() - t0
    detail = f"mismatches={mismatches}/50 (=0), runtime={runtime:.1f}s (<=60s)"
    _report("5 MCD exact oracle", mismatches == 0 and runtime <= 60, detail)


# ---------------------------------------------------------------------------
# criterion 6: slice-sampler structural suite
# ---------------------------------------------------------------------------

def test_criterion_6_structural_suite():
    rng = np.random.default_rng(55)
    train = nb.LabeledDataset(
        np.vstack([rng.normal(0, 1, (40, 2)), rng.normal(6, 1, (40, 2))]),
        np.repeat([1, 2], 40))
    priors = nb.extract_class_priors(train, nb.McdConfig(eta=0.9, n_starts=100, seed=3))
    test = nb.TestDataset(np.vstack([rng.normal(0, 1, (30, 2)),
                                     rng.normal(6, 1, (30, 2)),
                                     rng.normal((-7, 7), 0.4, (15, 2))]))
    hp = nb.Hyperparameters.with_class_weights(
        [40, 40], a0=0.1, lambda_tr=10.0, nu_tr=10.0,
        base_measure=NIWParams(np.zeros(2), 0.01, 10.0, 10 * np.eye(2)),
        gamma=GammaPrior(1.0, 1.0), kappa=0.5, n_iter=1500, n_burnin=500, seed=77)
    out1 = nb.run_chain(test, priors, hp)
    out2 = nb.run_chain(test, priors, hp)

    J = 2
    base = (1 - hp.kappa) / (J + 1)
    r = (J + 1) * hp.kappa / (J * hp.kappa + 1)
    head = sum(nb.xi_sequence(hp.kappa, J, l) for l in range(1, J + 2))
    norm_err = abs(head + base * r / (1 - r) - 1.0)

    trunc_ok = bool(np.all(out1.n_active_trace >= J + 1))
    excl_ok = bool(np.all((out1.alpha_trace > 0) != (out1.beta_trace > 0)))
    identical = (np.array_equal(out1.alpha_trace, out2.alpha_trace)
                 and np.array_equal(out1.beta_trace, out2.beta_trace)
                 and np.array_equal(out1.pi_trace, out2.pi_trace)
                 and np.array_equal(out1.gamma_trace, out2.gamma_trace))

    detail = (f"xi normalization error={norm_err:.1e} (<=1e-12), "
              f"L*>=J+1 {trunc_ok}, exclusivity {excl_ok}, bit-identical {identical}")
    ok = norm_err <= 1e-12 and trunc_ok and excl_ok and identical
    _report("6 structural suite", ok, detail)


# ---------------------------------------------------------------------------
# criterion 7: conjugacy grid oracles
# ---------------------------------------------------------------------------

def _sup_vs_grid(xs, log_prior, log_lik, analytic_log):
    dens = oracles.grid_posterior_1d(xs, log_prior, log_lik)
    analytic = np.exp(analytic_log)
    analytic /= np.trapezoid(analytic, xs)
    return float(np.max(np.abs(dens - analytic)) / dens.max())


def test_criterion_7_conjugacy_oracles():
    sups = {}

    # multivariate NIW, p = 1 reduction, 2-point dataset
    prior = NIWParams([0.5], 2.0, 5.0, [[2.0]])
    obs = np.array([[1.2], [0.4]])
    post = nb.niw_posterior(prior, obs)
    mus = np.linspace(-2.0, 3.0, 501)
    s2s = np.linspace(0.02, 6.0, 499)
    MU, S2 = np.meshgrid(mus, s2s, indexing="ij")
    cell = (mus[1] - mus[0]) * (s2s[1] - s2s[0])
    joint = (oracles.niw_joint_logpdf(MU, S2, 0.5, 2.0, 5.0, 2.0)
             + sum(oracles.norm_logpdf(x, MU, S2) for x in obs.ravel()))
    joint = np.exp(joint - joint.max())
    joint /= joint.sum() * cell
    analytic = np.exp(oracles.niw_joint_logpdf(
        MU, S2, post.mean[0], post.precision_scale, post.dof, post.scale_matrix[0, 0]))
    analytic /= analytic.sum() * cell
    sups["niw"] = float(np.max(np.abs(analytic - joint)) / joint.max())

    # functional conditionals on a 2-curve toy
    from novelbayes.functional import (
        coef_conditional, psi_conditional, sigma2_conditional, tau2_conditional)

    T = 12
    Phi = np.ones((T, 1))
    sigma2 = np.full(T, 0.3)
    Y = np.array([np.full(T, 1.2), np.full(T, 0.8)])
    mean, L = coef_conditional(Y.sum(axis=0), 2, Phi, sigma2, 0.5, 2.0)
    var = 1.0 / (L[0, 0] ** 2)
    xs = np.linspace(mean[0] - 6 * math.sqrt(var), mean[0] + 6 * math.sqrt(var), 4001)
    sups["rho"] = _sup_vs_grid(
        xs, oracles.norm_logpdf(xs, 0.5, 2.0),
        sum(oracles.norm_logpdf(y, xs[:, None] * Phi[:, 0], sigma2).sum(axis=1) for y in Y),
        oracles.norm_logpdf(xs, mean[0], var))

    rho = np.array([0.4, 0.9, -0.2, 1.1])
    m_psi, v_psi = psi_conditional(rho, 0.7, 1.3)
    xs = np.linspace(m_psi - 6 * math.sqrt(v_psi), m_psi + 6 * math.sqrt(v_psi), 4001)
    sups["psi"] = _sup_vs_grid(
        xs, oracles.norm_logpdf(xs, 0.0, 1.3),
        sum(oracles.norm_logpdf(r, xs, 0.7) for r in rho),
        oracles.norm_logpdf(xs, m_psi, v_psi))

    sh, sc = tau2_conditional(rho, 0.5, 3.0, 1.0)
    xs = np.geomspace(5e-3, 30.0, 8001)
    sups["tau2"] = _sup_vs_grid(
        xs, oracles.invgamma_logpdf(xs, 3.0, 1.0),
        sum(oracles.norm_logpdf(r, 0.5, xs) for r in rho),
        oracles.invgamma_logpdf(xs, sh, sc))

    resid = np.array([0.35, -0.6])
    sh, sc = sigma2_conditional(np.sum(resid ** 2), 2, 5.0, 1.0)
    xs = np.geomspace(5e-3, 20.0, 8001)
    sups["sigma2"] = _sup_vs_grid(
        xs, oracles.invgamma_logpdf(xs, 5.0, 1.0),
        sum(oracles.norm_logpdf(r, 0.0, xs) for r in resid),
        oracles.invgamma_logpdf(xs, sh, sc))

    worst = max(sups.values())
    detail = "; ".join(f"{k}={v:.1e}" for k, v in sups.items()) + " (all <=1e-5)"
    _report("7 conjugacy oracles", worst <= 1e-5, detail)


# ---------------------------------------------------------------------------
# criteria 8 and 9: functional toy replication and the regularized path
# ---------------------------------------------------------------------------

def _six_functions():
    return [
        lambda t: 5 * np.cos(np.exp(np.sin(t))),
        lambda t: 3 * np.log(np.sin(t ** 1.5) + 1),
        lambda t: 2 * t * np.cos(t - 2.5),
        lambda t: -3 * np.abs(t - 1) * np.sin(t),
        lambda t: np.abs(t - 2) * np.cos(t),
        lambda t: np.abs(t - 1) ** 2 * np.sin(t),
    ]


@pytest.fixture(scope="module")
def functional_toy():
    fs = _six_functions()
    grid = np.linspace(0, 6, 100)
    rng = np.random.default_rng(11)
    n_per = 25
    sigma_eps = 0.25
    train = nb.CurveSet(
        grid,
        np.vstack([f(grid) + rng.normal(0, sigma_eps, (n_per, 100)) for f in fs[:3]]),
        labels=np.repeat([1, 2, 3], n_per))
    test = nb.CurveSet(
        grid,
        np.vstack([f(grid) + rng.normal(0, sigma_eps, (n_per, 100)) for f in fs]))
    truth = np.repeat([1, 2, 3, 4, 5, 6], n_per)
    return train, test, truth


def test_criterion_8_functional_toy(functional_toy):
    t0 = time.perf_counter()
    train, test, truth = functional_toy
    spec = nb.BasisSpec(n_basis=100, order=5)
    priors = nb.extract_functional_priors(
        train, spec, nb.McdConfig(eta=0.75, n_starts=150, seed=5))
    hyper = nb.FunctionalHyper(
        a=np.concatenate([[0.1], np.full(3, 1 / 3)]),
        a_tau=3.0, b_tau=1.0, s2=1.0, a_H=5.0, b_H=1.0,
        gamma=GammaPrior(1.0, 1.0), n_iter=10000, n_burnin=5000, seed=9, basis=spec)
    out = nb.run_functional_chain(test, priors, hyper)
    summ = nb.summarize(out, min_size=5)
    runtime = time.perf_counter() - t0

    split_acc = float(np.mean((summ.labels <= 0) == (truth > 3)))
    big_clusters = int(np.sum(np.unique(summ.best_partition, return_counts=True)[1] >= 5))
    detail = (f"known/novel split accuracy={split_acc:.3f} (>=0.95), "
              f"novelty clusters={big_clusters} (=3), runtime={runtime:.0f}s (<=1200s)")
    ok = split_acc >= 0.95 and big_clusters == 3 and runtime <= 1200
    _report("8 functional toy replication", ok, detail)


def test_criterion_9_regularized_high_dimensional_path(functional_toy):
    train, _, _ = functional_toy
    spec = nb.BasisSpec(n_basis=100, order=5)
    coefs = nb.smooth_curves(
        nb.CurveSet(train.grid, train.values[train.labels == 1]), spec)
    summary = nb.mrcd(coefs, nb.McdConfig(eta=0.75, n_starts=50, seed=21))
    eigmin = float(np.linalg.eigvalsh(summary.scatter)[0])
    detail = (f"method={summary.method}, min eigenvalue={eigmin:.2e} (>0), "
              f"regularized condition number={summary.condition_number:.0f} (<=1000)")
    ok = (summary.method == "MRCD" and eigmin > 0
          and summary.condition_number <= 1000.0)
    _report("9 regularized high-dimensional path", ok, detail)


# ---------------------------------------------------------------------------
# criterion 10: VI selection against exhaustive scoring
# ---------------------------------------------------------------------------

def test_criterion_10_vi_brute_force():
    rng = np.random.default_rng(321)
    agreements = 0
    for trial in range(20):
        n = int(rng.integers(4, 9))
        P = oracles.random_ppcm(n, rng)
        candidates = oracles.all_partitions(n)
        chosen = nb.best_partition_vi(P, candidates)
        slow_scores = [oracles.vi_lower_bound_slow(P, c) for c in candidates]
        want = candidates[int(np.argmin(slow_scores))]
        if np.array_equal(chosen, want):
            agreements += 1
    detail = f"agreement on {agreements}/20 random coclustering matrices (=20)"
    _report("10 VI brute force", agreements == 20, detail)
