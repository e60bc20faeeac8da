"""Conditional Gibbs sampler for the test-set mixture with a nonparametric
novelty term, shared by every atom family.

The chain state gives each unit one membership index zeta on the one-line
sequence: 1..J are the known classes, J + k is novelty stick k.  One scan
is a label-swap sweep of adjacent novelty clusters followed by the
slice-sampling recipe: uniform slice variables under the deterministic
sequence, stochastic truncation, conjugate updates for the mixture weights,
the sticks and every atom, a categorical reallocation of each unit over the
finitely many eligible components, and the concentration update.  A chain
adds the chi-square start and the post-burn-in traces, which store zeta as
the (known class, novelty cluster) pair.  A chain is a pure function of
(data, priors, hyperparameters, seed).

Only the atoms depend on the model.  An atom family holds the data matrix
as ``data`` (one row per unit) and provides

- ``initial_known()`` and ``start_distances()``: the starting known atoms,
  and an (M, J) matrix of distances that are chi-square under the known
  classes with the returned degrees of freedom;
- ``draw_known(j, members, prev, rng)`` and ``draw_novel(members, prev,
  rng)``: one slot's atom from the row indices of its members and the
  slot's previous atom (None for a novelty slot drawn for the first time);
- ``loglik(known, novel, eligible)``: the (M, L) log-likelihood of every
  unit under every atom.  Only the cells where ``eligible`` (u_m < xi_l)
  holds are ever used, so a family may leave the others at -inf;
- ``snapshot(known, novel)``: the atoms as a JSON-ready dict.

:class:`GaussianFamily` below serves the multivariate model; the curve
family lives in :mod:`novelbayes.functional`.  The driver reads its settings
from a :class:`~novelbayes.model.ChainSettings`, which the settings of both
models extend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Optional

import numpy as np

from .errors import AllSlicesEmpty, DimensionMismatch
from .model import (
    ChainSettings,
    GaussianAtom,
    Hyperparameters,
    NIWParams,
    _mahalanobis_chol,
    _solve_triangular,
    log_gaussian_density_many,
    stick_breaking,
    truncation_level,
    xi_values,
    zeta_to_alpha_beta,
)
from .robust import RobustClassSummary

_CHECK_ROWS = 1024  # trace rows per block of the alpha/beta exclusivity check


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
    """All latent quantities carried between Gibbs iterations; ``zeta`` holds
    each unit's membership index on the one-line sequence."""

    pi: np.ndarray
    v: np.ndarray
    known_atoms: list
    novel_atoms: list
    zeta: np.ndarray
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
        if self.alpha_trace.size:
            lo, hi = int(self.alpha_trace.min()), int(self.alpha_trace.max())
            if lo < 0 or hi > self.n_known:
                raise ValueError(f"alpha trace labels span [{lo}, {hi}], "
                                 f"outside [0, {self.n_known}] (n_known)")
            beta_lo = int(self.beta_trace.min())
            if beta_lo < 0:
                raise ValueError(f"beta trace labels reach {beta_lo}, below 0")
        # row blocks keep the boolean temporaries small next to the traces
        for lo in range(0, self.alpha_trace.shape[0], _CHECK_ROWS):
            rows = slice(lo, lo + _CHECK_ROWS)
            if np.any((self.alpha_trace[rows] > 0) == (self.beta_trace[rows] > 0)):
                raise ValueError("exactly one of alpha, beta must be positive")

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


@cache
def _bartlett_index(p: int):
    """Degree-of-freedom offsets, diagonal and strict lower-triangle indices
    of a p x p Bartlett factor."""
    return np.arange(p), np.diag_indices(p), np.tril_indices(p, -1)


def sample_niw(params: NIWParams, rng: np.random.Generator) -> GaussianAtom:
    """Draw (mean, cov) with cov ~ inverse-Wishart(nu, S), mean ~ N(m, cov/lambda).

    Uses the Bartlett factorization of a Wishart(nu, I) draw, so the result
    is SPD by construction and E[cov] = S / (nu - p - 1).
    """
    p = params.dim
    C = params.scale_chol
    offsets, diag, tril = _bartlett_index(p)
    A = np.zeros((p, p))
    A[diag] = np.sqrt(rng.chisquare(params.dof - offsets))
    if p > 1:
        A[tril] = rng.standard_normal(p * (p - 1) // 2)
    # cov = C (A A^T)^{-1} C^T
    M = _solve_triangular(A, C.T).T
    cov = M @ M.T
    cov = 0.5 * (cov + cov.T)
    mean = params.mean + (M @ rng.standard_normal(p)) / math.sqrt(params.precision_scale)
    return GaussianAtom(mean, cov)


def update_gamma(current: float, n_novel: int, k_novel: int,
                 prior_shape: float, prior_rate: float,
                 rng: np.random.Generator) -> float:
    """Resample the DP concentration given the novelty partition.

    Standard auxiliary-variable move: draw x ~ Beta(gamma+1, n), then gamma
    from a two-component mixture of Gamma(shape + k, rate - log x) and
    Gamma(shape + k - 1, rate - log x).  With no novelty points this reduces
    to a prior draw.
    """
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

_SWAP_SWEEPS = 3  # passes over the adjacent pairs per label-swap sweep


def _label_swap_sweep(zeta: np.ndarray, atoms: list, v: np.ndarray, n_known: int,
                      rng: np.random.Generator) -> None:
    """Metropolis swaps of adjacent novelty labels, in place; each cluster
    moves with its atom, its members (zeta = n_known + k for stick k), and
    its stick fraction.  ``atoms`` and ``v`` hold one entry per stick.

    Stick fractions are iid a priori and the likelihood moves with the
    atoms, so the acceptance ratio reduces to the allocation-prior factor
    (1 - v_{k+1})^{n_k} / (1 - v_k)^{n_{k+1}}.  Run before the slice
    variables are refreshed, the move steadily migrates occupied clusters
    toward low indices, keeping the stochastic truncation level (and with
    it the per-iteration cost) small.  The posterior is exactly preserved.
    """
    J, K = n_known, v.size
    if K < 2:
        return
    counts = np.bincount(zeta, minlength=J + K + 1)[J + 1:J + K + 1]
    occupied = np.flatnonzero(counts > 0)
    if occupied.size == 0:
        return
    top = int(occupied.max()) + 1
    with np.errstate(divide="ignore"):
        log1mv = np.log1p(-v)
    for _ in range(_SWAP_SWEEPS):
        moved = False
        for k in range(min(top, K - 1)):
            n1, n2 = counts[k], counts[k + 1]
            if n1 == n2:
                continue
            log_ratio = (n1 * log1mv[k + 1] if n1 else 0.0) \
                - (n2 * log1mv[k] if n2 else 0.0)
            if math.log(max(rng.random(), 1e-300)) < log_ratio:
                lo, hi = zeta == J + k + 1, zeta == J + k + 2
                zeta[lo], zeta[hi] = J + k + 2, J + k + 1
                counts[k], counts[k + 1] = n2, n1
                v[k], v[k + 1] = v[k + 1], v[k]
                log1mv[k], log1mv[k + 1] = log1mv[k + 1], log1mv[k]
                atoms[k], atoms[k + 1] = atoms[k + 1], atoms[k]
                moved = True
        if not moved:
            break


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


def _members(labels: np.ndarray, counts: np.ndarray) -> list:
    """Increasing row indices of each label 1..n, from one stable sort;
    ``counts`` is ``np.bincount(labels)`` padded to length n + 1."""
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(counts)[:-1])[1:]


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
        d2 = np.column_stack([_mahalanobis_chol(self.data, s.mean, s.scatter)[0]
                              for s in self.priors])
        return d2, self.data.shape[1]

    def draw_known(self, j: int, members: np.ndarray, prev, rng) -> GaussianAtom:
        if self.known_niw is None:
            return prev
        return sample_niw(niw_posterior(self.known_niw[j], self.data[members]), rng)

    def draw_novel(self, members: np.ndarray, prev, rng) -> GaussianAtom:
        if members.size == 0:  # an unoccupied slot is a fresh base-measure draw
            return sample_niw(self.base_measure, rng)
        return sample_niw(niw_posterior(self.base_measure, self.data[members]), rng)

    def loglik(self, known: list, novel: list, eligible: np.ndarray) -> np.ndarray:
        """Densities on the eligible cells, -inf elsewhere.  A column with
        one eligible row is computed in full: a one-row solve can differ in
        the last bits from that row of a many-row solve, while any subset of
        two or more rows reproduces it exactly."""
        M = self.data.shape[0]
        out = np.full(eligible.shape, -np.inf)
        for l, atom in enumerate(known + novel):
            rows = np.flatnonzero(eligible[:, l])
            if rows.size in (1, M):
                out[rows, l] = log_gaussian_density_many(self.data, atom.mean, atom.cov)[rows]
            elif rows.size:
                out[rows, l] = log_gaussian_density_many(self.data[rows], atom.mean, atom.cov)
        return out

    def snapshot(self, known: list, novel: list) -> dict:
        return {"known": [a.to_dict() for a in known],
                "novel": [a.to_dict() for a in novel]}


# ---------------------------------------------------------------------------
# one Gibbs iteration
# ---------------------------------------------------------------------------

def gibbs_step(state: ChainState, family, hp: ChainSettings,
               rng: np.random.Generator) -> ChainState:
    """Advance the chain by one full scan; ``state`` is left unchanged.

    Step order: label swap, slice variables, truncation level, mixture
    weights, sticks, one-line weights, known atoms, novel atoms,
    allocations, concentration parameter.
    """
    J = hp.n_known
    kappa = hp.kappa
    zeta, v, prev = state.zeta.copy(), state.v.copy(), list(state.novel_atoms)
    M = zeta.size

    # 0. label swap: clusters, atoms and sticks move together
    _label_swap_sweep(zeta, prev, v, J, rng)

    # 1. slice variables under the current memberships
    xi_cur = xi_values(kappa, J, int(zeta.max(initial=J + 1)))
    r = np.maximum(rng.random(M), 1e-300)  # keep u strictly positive
    u = r * xi_cur[zeta - 1]

    # 2. stochastic truncation; never below the currently occupied components
    L = max(truncation_level(u, kappa, J), int(zeta.max())) if M else J + 1

    # 3. mixture weights over novelty + known classes
    counts = np.bincount(zeta, minlength=L + 1)
    n_k = counts[J + 1:]
    pi = rng.dirichlet(hp.a + np.concatenate(([n_k.sum()], counts[1:J + 1])))

    # 4-5. sticks: n_k units on stick k, g_k units on the sticks after it
    g_k = n_k[::-1].cumsum()[::-1] - n_k
    v = rng.beta(1.0 + n_k, state.gamma + g_k)

    # 6. one-line weights over the L active components
    pitilde = np.concatenate([pi[1:], pi[0] * stick_breaking(v)])

    # 7-8. known-class atoms, then novelty atoms, each from its members
    members = _members(zeta, counts)
    known = [family.draw_known(j, rows, atom, rng)
             for j, (rows, atom) in enumerate(zip(members[:J], state.known_atoms))]
    novel = [family.draw_novel(rows, prev[h] if h < len(prev) else None, rng)
             for h, rows in enumerate(members[J:])]

    # 9. allocation over eligible components
    if M:
        xi = xi_values(kappa, J, L)
        eligible = u[:, None] < xi[None, :]
        zeta = _sample_allocations(rng, family.loglik(known, novel, eligible),
                                   pitilde, u, xi)

    # 10. concentration parameter, from the new novelty partition
    gamma = state.gamma
    if hp.gamma_is_random:
        labels = zeta[zeta > J]
        gamma = update_gamma(gamma, labels.size, np.unique(labels).size,
                             hp.gamma.shape, hp.gamma.rate, rng)

    return ChainState(pi=pi, v=v, known_atoms=known, novel_atoms=novel,
                      zeta=zeta, u=u, L_star=L, gamma=gamma)


# ---------------------------------------------------------------------------
# full chain
# ---------------------------------------------------------------------------

def _initial_state(family, hp: ChainSettings) -> ChainState:
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
    zeta = np.zeros(0, dtype=int)
    if M:
        d2, df = family.start_distances()
        zeta = np.argmin(d2, axis=1) + 1
        far = d2[np.arange(M), zeta - 1] > chi2.ppf(0.999, df=df)
        zeta[far] = hp.n_known + 1 + np.arange(np.count_nonzero(far))
    gamma = hp.gamma.mean if hp.gamma_is_random else float(hp.gamma)
    return ChainState(
        pi=hp.a / hp.a.sum(), v=np.zeros(0), known_atoms=family.initial_known(),
        novel_atoms=[], zeta=zeta, u=np.zeros(M), L_star=hp.n_known + 1, gamma=gamma)


def _run_gibbs(family, hp: ChainSettings, record_atoms: bool, **meta) -> ChainOutput:
    """Run ``hp.n_iter`` scans from the chi-square start; keep the scans
    after ``hp.n_burnin`` and, when ``record_atoms`` is set, an atom
    snapshot every ``hp.atom_thin`` retained scans.  ``meta`` is added to
    the output's meta after the scan counts and kappa."""
    J = hp.n_known
    rng = np.random.default_rng(hp.seed)
    state = _initial_state(family, hp)

    n_keep = hp.n_iter - hp.n_burnin
    M = state.zeta.size
    alpha_trace = np.empty((n_keep, M), dtype=np.int32)
    beta_trace = np.empty((n_keep, M), dtype=np.int32)
    pi_trace = np.empty((n_keep, J + 1))
    gamma_trace = np.empty(n_keep)
    n_active_trace = np.empty(n_keep, dtype=np.int32)
    snapshots = [] if record_atoms else None

    for it in range(hp.n_iter):
        state = gibbs_step(state, family, hp, rng)
        i = it - hp.n_burnin
        if i < 0:
            continue
        alpha_trace[i], beta_trace[i] = zeta_to_alpha_beta(state.zeta, J)
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
