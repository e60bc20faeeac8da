"""Conditional Gibbs sampler for the test-set mixture with a nonparametric
novelty term, shared by every atom family.

One scan follows the slice-sampling recipe: uniform slice variables under
the deterministic sequence, stochastic truncation, conjugate updates for the
mixture weights, the sticks and every atom, a categorical reallocation of
each unit over the finitely many eligible components, and the concentration
update.  A chain adds the chi-square start, a label-swap sweep before every
scan, and the post-burn-in traces.  A chain is a pure function of
(data, priors, hyperparameters, seed).

Only the atoms depend on the model.  An atom family holds the data matrix
as ``data`` (one row per unit) and provides

- ``initial_known()`` and ``start_distances()``: the starting known atoms,
  and an (M, J) matrix of distances that are chi-square under the known
  classes with the returned degrees of freedom;
- ``draw_known(j, members, prev, rng)`` and ``draw_novel(members, prev,
  rng)``: one slot's atom from the row indices of its members and the
  slot's previous atom (None for a novelty slot drawn for the first time);
- ``loglik(known, novel)``: the (M, L) log-likelihood of every unit under
  every atom;
- ``snapshot(known, novel)``: the atoms as a JSON-ready dict.

:class:`GaussianFamily` below serves the multivariate model; the curve
family lives in :mod:`novelbayes.functional`.  The hyperparameters are duck
typed: the loop reads ``a``, ``n_known``, ``kappa``, ``gamma``,
``gamma_is_random``, ``n_iter``, ``n_burnin``, ``seed`` and ``atom_thin``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from .errors import AllSlicesEmpty, DimensionMismatch
from .model import (
    GaussianAtom,
    Hyperparameters,
    NIWParams,
    _chol,
    alpha_beta_to_zeta,
    log_gaussian_density_many,
    stick_breaking,
    truncation_level,
    xi_values,
    zeta_to_alpha_beta,
)
from .robust import RobustClassSummary


@dataclass
class TestDataset:
    """Unlabeled observations to be split into known classes and novelty."""

    __test__ = False  # not a pytest collectible despite the name

    data: np.ndarray

    def __post_init__(self):
        self.data = np.atleast_2d(np.asarray(self.data, dtype=float))
        if self.data.size and not np.all(np.isfinite(self.data)):
            raise ValueError("test data contains non-finite entries")

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass
class ChainState:
    """All latent quantities carried between Gibbs iterations."""

    pi: np.ndarray
    v: np.ndarray
    omega: np.ndarray
    known_atoms: list
    novel_atoms: list
    alpha: np.ndarray
    beta: np.ndarray
    u: np.ndarray
    L_star: int
    gamma: float


@dataclass
class ChainOutput:
    """Post-burn-in traces of the sampler.

    ``alpha_trace[i, m]`` is the known-class label of unit m at retained
    iteration i (0 = novelty); ``beta_trace`` the novelty-cluster label
    (0 = assigned to a known class).  Exactly one of the two is positive for
    every unit at every iteration.
    """

    alpha_trace: np.ndarray
    beta_trace: np.ndarray
    pi_trace: np.ndarray
    gamma_trace: np.ndarray
    n_active_trace: np.ndarray
    n_known: int
    seed: int
    atom_snapshots: Optional[list] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.alpha_trace = np.asarray(self.alpha_trace, dtype=np.int32)
        self.beta_trace = np.asarray(self.beta_trace, dtype=np.int32)
        if self.alpha_trace.shape != self.beta_trace.shape:
            raise DimensionMismatch("alpha and beta traces must align")
        row_sums = self.pi_trace.sum(axis=1)
        if self.pi_trace.size and np.max(np.abs(row_sums - 1.0)) > 1e-10:
            raise ValueError("pi trace rows must lie on the simplex")
        if np.any((self.alpha_trace > 0) == (self.beta_trace > 0)):
            raise ValueError("exactly one of alpha, beta must be positive")

    @property
    def n_retained(self) -> int:
        return self.alpha_trace.shape[0]

    @property
    def n_units(self) -> int:
        return self.alpha_trace.shape[1]


# ---------------------------------------------------------------------------
# conjugate pieces
# ---------------------------------------------------------------------------

def niw_posterior(prior: NIWParams, obs: np.ndarray) -> NIWParams:
    """Normal-inverse-Wishart posterior after observing ``obs`` rows.

    With n observations of mean xbar and centered scatter Sx:
    lambda' = lambda + n, nu' = nu + n,
    m' = (lambda m + n xbar) / (lambda + n),
    S' = S + Sx + lambda n / (lambda + n) (xbar - m)(xbar - m)^T.
    n = 0 returns the prior unchanged.
    """
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    n = obs.shape[0] if obs.size else 0
    if n == 0:
        return prior
    xbar = obs.mean(axis=0)
    dev = obs - xbar
    Sx = dev.T @ dev
    lam_n = prior.precision_scale + n
    mean = (prior.precision_scale * prior.mean + n * xbar) / lam_n
    diff = xbar - prior.mean
    scale = prior.scale_matrix + Sx + (prior.precision_scale * n / lam_n) * np.outer(diff, diff)
    return NIWParams(mean, lam_n, prior.dof + n, scale)


def sample_niw(params: NIWParams, rng: np.random.Generator) -> GaussianAtom:
    """Draw (mean, cov) with cov ~ inverse-Wishart(nu, S), mean ~ N(m, cov/lambda).

    Uses the Bartlett factorization of a Wishart(nu, I) draw, so the result
    is SPD by construction and E[cov] = S / (nu - p - 1).
    """
    p = params.dim
    C = _chol(params.scale_matrix)
    A = np.zeros((p, p))
    A[np.diag_indices(p)] = np.sqrt(rng.chisquare(params.dof - np.arange(p)))
    if p > 1:
        A[np.tril_indices(p, -1)] = rng.standard_normal(p * (p - 1) // 2)
    # cov = C (A A^T)^{-1} C^T
    M = solve_triangular(A, C.T, lower=True).T
    cov = M @ M.T
    cov = 0.5 * (cov + cov.T)
    mean = params.mean + (M @ rng.standard_normal(p)) / math.sqrt(params.precision_scale)
    return GaussianAtom(mean, cov)


def update_gamma(current: float, n_novel: int, k_novel: int,
                 prior_shape: Optional[float], prior_rate: Optional[float],
                 rng: np.random.Generator) -> float:
    """Resample the DP concentration given the novelty partition.

    Standard auxiliary-variable move: draw x ~ Beta(gamma+1, n), then gamma
    from a two-component mixture of Gamma(shape + k, rate - log x) and
    Gamma(shape + k - 1, rate - log x).  With no novelty points this reduces
    to a prior draw; with prior_shape None the value passes through unchanged
    (fixed-concentration mode).
    """
    if prior_shape is None:
        return current
    if n_novel == 0:
        return float(rng.gamma(prior_shape, 1.0 / prior_rate))
    x = rng.beta(current + 1.0, n_novel)
    rate = prior_rate - math.log(x)
    odds = (prior_shape + k_novel - 1.0) / (n_novel * rate)
    shape = prior_shape + k_novel if rng.random() < odds / (1.0 + odds) \
        else prior_shape + k_novel - 1.0
    return float(rng.gamma(shape, 1.0 / rate))


# ---------------------------------------------------------------------------
# allocation machinery
# ---------------------------------------------------------------------------

def _sq_mahalanobis_rows(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    L = _chol(cov)
    Z = solve_triangular(L, (X - mean).T, lower=True)
    return np.sum(Z * Z, axis=0)


def _label_swap_sweep(beta: np.ndarray, atoms: list, v: np.ndarray,
                      rng: np.random.Generator, n_sweeps: int = 3):
    """Metropolis swaps of adjacent novelty labels; each cluster moves with
    its atom, its members, and its stick fraction.

    Stick fractions are iid a priori and the likelihood moves with the
    atoms, so the acceptance ratio reduces to the allocation-prior factor
    (1 - v_{k+1})^{n_k} / (1 - v_k)^{n_{k+1}}.  Run before the slice
    variables are refreshed, the move steadily migrates occupied clusters
    toward low indices, keeping the stochastic truncation level (and with
    it the per-iteration cost) small.  The posterior is exactly preserved.
    """
    K = v.size
    if K < 2:
        return beta, atoms, v
    counts = np.bincount(beta[beta > 0], minlength=K + 1)[1:K + 1]
    occupied = np.flatnonzero(counts > 0)
    if occupied.size == 0:
        return beta, atoms, v
    top = int(occupied.max()) + 1
    with np.errstate(divide="ignore"):
        log1mv = np.log1p(-v)
    for _ in range(n_sweeps):
        moved = False
        for k in range(min(top, K - 1)):
            n1, n2 = counts[k], counts[k + 1]
            if n1 == n2:
                continue
            log_ratio = (n1 * log1mv[k + 1] if n1 else 0.0) \
                - (n2 * log1mv[k] if n2 else 0.0)
            if math.log(max(rng.random(), 1e-300)) < log_ratio:
                lo, hi = beta == k + 1, beta == k + 2
                beta[lo], beta[hi] = k + 2, k + 1
                counts[k], counts[k + 1] = n2, n1
                v[k], v[k + 1] = v[k + 1], v[k]
                log1mv[k], log1mv[k + 1] = log1mv[k + 1], log1mv[k]
                if k + 1 < len(atoms):
                    atoms[k], atoms[k + 1] = atoms[k + 1], atoms[k]
                moved = True
        if not moved:
            break
    return beta, atoms, v


def _sample_allocations(rng, log_lik, weights, u, xi) -> np.ndarray:
    """Draw zeta_m from P(zeta_m = l) ∝ (w_l / xi_l) 1{u_m < xi_l} lik(m, l).

    ``log_lik`` is (M, L); sampling uses the Gumbel-argmax identity in log
    space, which sidesteps underflow for far-away points entirely.
    """
    with np.errstate(divide="ignore"):
        log_w = np.log(weights) - np.log(xi)
    logits = log_lik + log_w[None, :]
    logits = np.where(u[:, None] < xi[None, :], logits, -np.inf)
    if not np.all(np.max(logits, axis=1) > -np.inf):
        raise AllSlicesEmpty("a unit has no eligible component; sampler invariant broken")
    return np.argmax(logits + rng.gumbel(size=logits.shape), axis=1) + 1


def _stick_posterior_counts(beta: np.ndarray, n_sticks: int):
    counts = np.bincount(beta[beta > 0], minlength=n_sticks + 1)[1:n_sticks + 1]
    greater = counts[::-1].cumsum()[::-1] - counts
    return counts, greater


def _training_niw(summary: RobustClassSummary, hp: Hyperparameters) -> NIWParams:
    """Informative NIW for a known class, centered on the robust estimates.

    The scale matrix is (nu_tr - p - 1) * scatter so the prior mean of the
    covariance equals the Stage-I scatter; letting nu_tr and lambda_tr grow
    then concentrates the prior on the robust estimates themselves.
    """
    p = summary.mean.size
    if hp.nu_tr <= p + 1:
        raise ValueError("nu_tr must exceed p + 1 for the training priors")
    return NIWParams(summary.mean, hp.lambda_tr, hp.nu_tr,
                     (hp.nu_tr - p - 1) * summary.scatter)


# ---------------------------------------------------------------------------
# Gaussian atoms
# ---------------------------------------------------------------------------

class GaussianFamily:
    """Gaussian atoms: NIW priors centred on the Stage-I estimates for the
    known classes (frozen at those estimates in inductive mode) and the NIW
    base measure for novelty slots."""

    def __init__(self, data: TestDataset, priors: list, hp: Hyperparameters):
        self.data = data.data
        self.priors = priors
        self.base_measure = hp.base_measure
        # building the training NIWs validates nu_tr against the dimension
        self.known_niw = None if hp.frozen_known_atoms \
            else [_training_niw(s, hp) for s in priors]

    def initial_known(self) -> list:
        return [GaussianAtom(s.mean, s.scatter) for s in self.priors]

    def start_distances(self):
        d2 = np.column_stack([_sq_mahalanobis_rows(self.data, s.mean, s.scatter)
                              for s in self.priors])
        return d2, self.data.shape[1]

    def draw_known(self, j: int, members: np.ndarray, prev, rng) -> GaussianAtom:
        if self.known_niw is None:
            return prev
        return sample_niw(niw_posterior(self.known_niw[j], self.data[members]), rng)

    def draw_novel(self, members: np.ndarray, prev, rng) -> GaussianAtom:
        # unoccupied slots are fresh draws from the base measure
        return sample_niw(niw_posterior(self.base_measure, self.data[members]), rng)

    def loglik(self, known: list, novel: list) -> np.ndarray:
        return np.column_stack([log_gaussian_density_many(self.data, a.mean, a.cov)
                                for a in known + novel])

    def snapshot(self, known: list, novel: list) -> dict:
        return {"known": [a.to_dict() for a in known],
                "novel": [a.to_dict() for a in novel]}


# ---------------------------------------------------------------------------
# one Gibbs iteration
# ---------------------------------------------------------------------------

def gibbs_step(state: ChainState, family, hp, rng: np.random.Generator) -> ChainState:
    """Advance the chain by one full scan.

    Step order: slice variables, truncation level, mixture weights, sticks,
    one-line weights, known atoms, novel atoms, allocations, membership
    split, concentration parameter.
    """
    J = hp.n_known
    M = state.alpha.size
    kappa = hp.kappa

    # 1. slice variables under the current memberships
    zeta = alpha_beta_to_zeta(state.alpha, state.beta, J) if M else np.zeros(0, dtype=int)
    xi_cur = xi_values(kappa, J, max(int(zeta.max()), J + 1) if M else J + 1)
    if M:
        r = np.maximum(rng.random(M), 1e-300)  # keep u strictly positive
        u = r * xi_cur[zeta - 1]
    else:
        u = np.zeros(0)

    # 2. stochastic truncation; never below the currently occupied components
    L = max(truncation_level(u, kappa, J), int(zeta.max())) if M else J + 1

    # 3. mixture weights over novelty + known classes
    counts = np.bincount(state.alpha, minlength=J + 1)[:J + 1] if M \
        else np.zeros(J + 1, dtype=int)
    pi = rng.dirichlet(hp.a + counts)

    # 4-5. sticks and their weights
    K = L - J
    n_k, g_k = _stick_posterior_counts(state.beta, K) if M \
        else (np.zeros(K, dtype=int), np.zeros(K, dtype=int))
    v = rng.beta(1.0 + n_k, state.gamma + g_k)
    omega = stick_breaking(v)

    # 6. one-line weights over the L active components
    pitilde = np.concatenate([pi[1:], pi[0] * omega])

    # 7-8. known-class atoms, then novelty atoms, each from its members
    known = [family.draw_known(j, np.flatnonzero(state.alpha == j + 1), atom, rng)
             for j, atom in enumerate(state.known_atoms)]
    prev = state.novel_atoms
    novel = [family.draw_novel(np.flatnonzero(state.beta == h),
                               prev[h - 1] if h <= len(prev) else None, rng)
             for h in range(1, K + 1)]

    # 9-10. allocation over eligible components
    if M:
        xi = xi_values(kappa, J, L)
        zeta_new = _sample_allocations(rng, family.loglik(known, novel), pitilde, u, xi)
        alpha, beta = zeta_to_alpha_beta(zeta_new, J)
    else:
        alpha = np.zeros(0, dtype=int)
        beta = np.zeros(0, dtype=int)

    # concentration parameter
    gamma = state.gamma
    if hp.gamma_is_random:
        n_novel = int(np.sum(alpha == 0))
        k_novel = int(np.unique(beta[beta > 0]).size)
        gamma = update_gamma(gamma, n_novel, k_novel,
                             hp.gamma.shape, hp.gamma.rate, rng)

    return ChainState(pi=pi, v=v, omega=omega, known_atoms=known,
                      novel_atoms=novel, alpha=alpha, beta=beta, u=u,
                      L_star=L, gamma=gamma)


# ---------------------------------------------------------------------------
# full chain
# ---------------------------------------------------------------------------

def _initial_state(family, hp) -> ChainState:
    """Deterministic start: each unit joins its closest known class unless it
    is implausibly far from all of them, in which case it starts as novelty.

    Gating on the 99.9% chi-square quantile of the start distance keeps
    gross outliers out of the first conjugate update of the known atoms,
    which would otherwise drag those atoms off their priors.  Gated units
    start as singleton novelty clusters: merging equivalent clusters is easy
    for a conditional sampler, splitting a merged one is not, so the initial
    partition errs on the fine side.
    """
    from scipy.stats import chi2

    M = family.data.shape[0]
    alpha = np.zeros(M, dtype=int)
    beta = np.zeros(M, dtype=int)
    if M:
        d2, df = family.start_distances()
        best = np.argmin(d2, axis=1)
        far = d2[np.arange(M), best] > chi2.ppf(0.999, df=df)
        alpha = np.where(far, 0, best + 1)
        beta[far] = 1 + np.arange(int(np.sum(far)))
    gamma = hp.gamma.mean if hp.gamma_is_random else float(hp.gamma)
    return ChainState(
        pi=hp.a / hp.a.sum(), v=np.zeros(0), omega=np.zeros(0),
        known_atoms=family.initial_known(), novel_atoms=[], alpha=alpha,
        beta=beta, u=np.zeros(M), L_star=hp.n_known + 1, gamma=gamma)


def _run_gibbs(family, hp, record_atoms: bool, **meta) -> ChainOutput:
    """Run ``hp.n_iter`` scans from the chi-square start; keep the scans
    after ``hp.n_burnin`` and, when ``record_atoms`` is set, an atom
    snapshot every ``hp.atom_thin`` retained scans.  ``meta`` is added to
    the output's meta after the scan counts and kappa."""
    J = hp.n_known
    rng = np.random.default_rng(hp.seed)
    state = _initial_state(family, hp)

    n_keep = hp.n_iter - hp.n_burnin
    M = state.alpha.size
    alpha_trace = np.empty((n_keep, M), dtype=np.int32)
    beta_trace = np.empty((n_keep, M), dtype=np.int32)
    pi_trace = np.empty((n_keep, J + 1))
    gamma_trace = np.empty(n_keep)
    n_active_trace = np.empty(n_keep, dtype=np.int32)
    snapshots = [] if record_atoms else None

    for it in range(hp.n_iter):
        # sticks/atoms are redrawn inside the step, so the stale omega left
        # behind by the swap is never read
        state.beta, state.novel_atoms, state.v = _label_swap_sweep(
            state.beta, state.novel_atoms, state.v, rng)
        state = gibbs_step(state, family, hp, rng)
        i = it - hp.n_burnin
        if i < 0:
            continue
        alpha_trace[i] = state.alpha
        beta_trace[i] = state.beta
        pi_trace[i] = state.pi
        gamma_trace[i] = state.gamma
        n_active_trace[i] = state.L_star
        if record_atoms and i % hp.atom_thin == 0:
            snapshots.append({"iteration": i,
                              **family.snapshot(state.known_atoms, state.novel_atoms)})

    return ChainOutput(
        alpha_trace=alpha_trace, beta_trace=beta_trace, pi_trace=pi_trace,
        gamma_trace=gamma_trace, n_active_trace=n_active_trace,
        n_known=J, seed=hp.seed, atom_snapshots=snapshots,
        meta={"n_iter": hp.n_iter, "n_burnin": hp.n_burnin, "kappa": hp.kappa, **meta})


def run_chain(data: TestDataset, priors: list, hp: Hyperparameters,
              record_atoms: bool = True) -> ChainOutput:
    """Run the Gibbs sampler with Gaussian atoms and collect post-burn-in
    traces.

    Deterministic given ``hp.seed``: two runs with identical inputs produce
    bit-identical traces.  Atom snapshots are kept every ``hp.atom_thin``
    retained iterations when ``record_atoms`` is set.
    """
    if len(priors) != hp.n_known:
        raise DimensionMismatch("number of priors must equal n_known")
    if len(data) and data.dim != priors[0].mean.size:
        raise DimensionMismatch("data dimension does not match the priors")
    return _run_gibbs(GaussianFamily(data, priors, hp), hp, record_atoms,
                      lambda_tr=hp.lambda_tr, nu_tr=hp.nu_tr)
