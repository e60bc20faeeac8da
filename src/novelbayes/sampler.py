"""Conditional Gibbs sampler for the test-set mixture with a nonparametric
novelty term, shared by every atom family.

The chain state gives each unit one membership index zeta on the one-line
sequence: 1..J are the known classes, J + k is novelty stick k.  One scan
is a label-swap sweep of adjacent novelty clusters followed by the
slice-sampling recipe: uniform slice variables under the deterministic
sequence, stochastic truncation, conjugate updates for the mixture weights,
the sticks and every atom, a categorical reallocation of each unit over the
finitely many eligible components, and the concentration update.  A chain
adds the chi-square start and the post-burn-in traces.  The label trace is
one zeta trace in memory; the (known class, novelty cluster) pair is derived
from it on demand and is the form written to disk.  A chain is a pure
function of (data, priors, hyperparameters, seed).

Only the atoms depend on the model.  An atom family holds the data matrix
as ``data`` (one row per unit) and provides

- ``initial_known()`` and ``start_distances()``: the starting known atoms,
  and an (M, J) matrix of distances that are chi-square under the known
  classes with the returned degrees of freedom;
- ``draw_atoms(members, known, novel, rng)``: the scan's atoms as the
  pair (known atoms, novelty atoms), from the increasing row indices of
  each slot's members (the J known classes, then the novelty slots) and the
  previous atoms (a novelty slot past the end of ``novel`` has none), so a
  family may draw all slots at once;
- ``loglik(known, novel, stair)``: the log-likelihood of the units under
  the atoms on the eligible cells u_m < xi_l only, in the order of the
  scan's :class:`Staircase`: column by column, the eligible units in
  increasing order of u.  Sorted by u, the eligible units of every column
  are a prefix of the rows (of n_l rows), and xi does not increase, so each
  unit's cells are a prefix of the columns, which the allocation step uses;
- ``snapshot(known, novel)``: the atoms as a JSON-ready dict.

:class:`GaussianFamily` below serves the multivariate model; the curve
family lives in :mod:`novelbayes.functional`.  The driver reads its settings
from a :class:`~novelbayes.model.ChainSettings`, which the settings of both
models extend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import AllSlicesEmpty, DimensionMismatch
from .model import (
    ChainSettings,
    GaussianAtom,
    Hyperparameters,
    NIWParams,
    _alpha_of,
    _beta_of,
    _checked_rows,
    _chi2_ppf,
    _chol,
    _solve_triangular,
    _sq_distances,
    log_gaussian_density_many,
    stick_breaking,
    truncation_level,
    xi_values,
)
from .robust import RobustClassSummary

_CHECK_ROWS = 256  # trace rows per block of the alpha/beta check and conversion


@dataclass
class TestDataset:
    """Unlabeled observations to be split into known classes and novelty."""

    __test__ = False  # not a pytest collectible despite the name

    data: np.ndarray

    def __post_init__(self):
        self.data = _checked_rows(self.data, "test data contains non-finite entries")

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


def _zeta_from_labels(alpha: np.ndarray, beta_rows, beta_shape, n_known: int) -> np.ndarray:
    """Check an (alpha, beta) trace pair and overwrite ``alpha`` with its
    zeta trace: alpha where it is positive, beta + n_known where beta is.
    ``beta_rows(rows)`` returns a slice of rows of the beta trace (of shape
    ``beta_shape``) as int32, so beta is read and converted one row block
    at a time, which keeps it and the temporaries small next to the traces.
    A check fails with its message over the whole trace: the alpha range,
    then the beta range, then exclusivity (exactly one label positive)."""
    if alpha.shape != tuple(beta_shape):
        raise DimensionMismatch("alpha and beta traces must align")
    if alpha.size and not 0 <= alpha.min() <= alpha.max() <= n_known:
        raise ValueError(f"alpha trace labels span [{alpha.min()}, {alpha.max()}], "
                         f"outside [0, {n_known}] (n_known)")
    lowest, mixed = 0, False
    for lo in range(0, alpha.shape[0], _CHECK_ROWS):
        rows = slice(lo, lo + _CHECK_ROWS)
        known, beta = alpha[rows], beta_rows(rows)
        lowest = min(lowest, beta.min(initial=0))
        mixed = mixed or bool(np.any((known > 0) == (beta > 0)))
        alpha[rows] = np.where(known > 0, known, beta + n_known)
    if lowest < 0:
        raise ValueError(f"beta trace labels reach {lowest}, below 0")
    if mixed:
        raise ValueError("exactly one of alpha, beta must be positive")
    return alpha


class ChainOutput:
    """Post-burn-in traces of the sampler, given as ``zeta_trace`` or as the
    ``alpha_trace``/``beta_trace`` pair.

    ``zeta_trace[i, m]``, the one label trace in memory, is the membership
    index of unit m at retained iteration i.  ``alpha_trace`` (known class,
    0 = novelty) and ``beta_trace`` (novelty cluster, 0 = known class) are
    derived from it on each access; they are the form written to disk.
    """

    def __init__(self, *, pi_trace, gamma_trace, n_active_trace, n_known: int, seed: int,
                 zeta_trace=None, alpha_trace=None, beta_trace=None,
                 atom_snapshots: Optional[list] = None, meta: Optional[dict] = None):
        if (zeta_trace is None) == (alpha_trace is None):
            raise TypeError("pass either zeta_trace or alpha_trace and beta_trace")
        self.n_known, self.seed = int(n_known), seed
        if zeta_trace is None:
            beta = np.asarray(beta_trace, dtype=np.int32)
            zeta_trace = _zeta_from_labels(np.array(alpha_trace, dtype=np.int32),
                                           beta.__getitem__, beta.shape, self.n_known)
        self.zeta_trace = np.asarray(zeta_trace, dtype=np.int32)
        if self.zeta_trace.size and self.zeta_trace.min() < 1:
            raise ValueError("zeta trace labels are 1-based")
        if self.zeta_trace.ndim != 2:
            raise DimensionMismatch(f"zeta_trace has shape {self.zeta_trace.shape}, not 2-D")
        scans = self.zeta_trace.shape[0]
        for name, array, shape in (("pi_trace", pi_trace, (scans, self.n_known + 1)),
                                   ("gamma_trace", gamma_trace, (scans,)),
                                   ("n_active_trace", n_active_trace, (scans,))):
            if np.shape(array) != shape:
                raise DimensionMismatch(f"{name} has shape {np.shape(array)}, not {shape}")
        if pi_trace.size and np.max(np.abs(pi_trace.sum(axis=1) - 1.0)) > 1e-10:
            raise ValueError("pi trace rows must lie on the simplex")
        self.pi_trace, self.gamma_trace, self.n_active_trace = pi_trace, gamma_trace, n_active_trace
        self.atom_snapshots, self.meta = atom_snapshots, {} if meta is None else meta

    @property
    def alpha_trace(self) -> np.ndarray:
        return _alpha_of(self.zeta_trace, self.n_known)

    @property
    def beta_trace(self) -> np.ndarray:
        return _beta_of(self.zeta_trace, self.n_known)

    @property
    def n_units(self) -> int:
        return self.zeta_trace.shape[1]


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
    xbar = obs.sum(axis=0) / n  # the bits of obs.mean(axis=0)
    dev = obs - xbar
    Sx = dev.T @ dev
    lam_n = prior.precision_scale + n
    mean = (prior.precision_scale * prior.mean + n * xbar) / lam_n
    diff = xbar - prior.mean
    scale = prior.scale_matrix + Sx \
        + (prior.precision_scale * n / lam_n) * (diff[:, None] * diff)  # np.outer's bits
    return NIWParams(mean, lam_n, prior.dof + n, scale)


@cache
def _strict_lower(p: int):
    """Strict lower-triangle indices of a p x p Bartlett factor."""
    return np.tril_indices(p, -1)


def sample_niw(law: NIWParams, rng: np.random.Generator):
    """The random part of one draw from an NIW law: the lower Bartlett
    factor A of a Wishart(nu, I) draw (one scalar chi-square draw per
    diagonal entry, then normals below it) and the standard normal noise z
    of the mean, in that order.  :func:`niw_atoms` makes the atoms."""
    p = law.dim
    A = np.zeros((p, p))
    for i in range(p):  # scalar draws: the calls and values of an array draw
        A[i, i] = math.sqrt(rng.chisquare(law.dof - i))
    normals = rng.standard_normal(p * (p - 1) // 2 + p)
    A[_strict_lower(p)] = normals[:-p]
    return A, normals[-p:]


def niw_atoms(laws: list, draws: list) -> list:
    """The atoms (mean, cov) of NIW laws from their :func:`sample_niw`
    draws (A, z): cov = C (A A^T)^{-1} C^T ~ inverse-Wishart(nu, S) and
    mean = m + C A^{-T} z / sqrt(lambda) ~ N(m, cov / lambda), with C the
    Cholesky factor of S.  Every covariance is SPD by construction and
    E[cov] = S / (nu - p - 1).  The factors of the scale matrices and the
    products are one stacked call each, with the bits of one-law calls;
    only the triangular solves go law by law.
    """
    C = _chol(np.array([law.scale_matrix for law in laws]))
    M = np.array([_solve_triangular(A, c.T).T for (A, _), c in zip(draws, C)])  # C A^{-T}
    cov = M @ M.transpose(0, 2, 1)
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    z = np.array([noise for _, noise in draws])
    scale = np.sqrt([law.precision_scale for law in laws])[:, None]
    means = np.array([law.mean for law in laws]) + (M @ z[:, :, None])[:, :, 0] / scale
    return [GaussianAtom(mean, c) for mean, c in zip(means, cov)]


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


class Staircase(NamedTuple):
    """The eligible cells (u_m < xi_l) of one scan, column by column with
    each column's units in increasing order of u: ``order`` is the units by
    u, column l's eligible units are the first ``n_rows[l]`` of it, and
    ``unit``/``col`` give the unit and column of every cell."""

    order: np.ndarray
    n_rows: np.ndarray
    unit: np.ndarray
    col: np.ndarray


def _staircase(u: np.ndarray, xi: np.ndarray) -> Staircase:
    order = np.argsort(u)
    n_rows = np.searchsorted(u[order], xi)
    return Staircase(order, n_rows, order[_runs(n_rows)], np.repeat(np.arange(xi.size), n_rows))


def _runs(sizes: np.ndarray) -> np.ndarray:
    """0, 1, ..., n - 1 for every n in ``sizes``, concatenated."""
    sizes = np.asarray(sizes)
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


# The screen's tolerance, relative to 1 + |best score|.  numpy's gumbel is
# -log(-log(1 - d)) of one double d per cell, with libm's log; the screen
# uses numpy's log.  If both logs are within k units in the last place, a
# cell's noise differs between the two by at most about 76 k eps (eps =
# 2^-52): the inner log is 2k eps off relatively, which the outer log passes
# on as an absolute error, and the outer log is 2k eps off relatively on a
# value of size at most 36.8, since d >= 2^-53.  Rounding a score s adds
# eps |s|.  So a cell screened more than 1e-9 (1 + |best|) below the best
# one is below it exactly for any k < 10^4: near the best, the two cells'
# errors sum to at most (152 k + 3 |best| + 1) eps, less than that margin,
# and a cell with |s| > 2 |best| + 1 lies further below than its own error.
# Every other cell is re-scored with libm.
_SCREEN_TOL = 1e-9


def _sample_allocations(rng, log_lik, weights, u, xi, stair: Staircase) -> np.ndarray:
    """Draw zeta_m from P(zeta_m = l) ∝ (w_l / xi_l) 1{u_m < xi_l} lik(m, l).

    ``log_lik`` holds the eligible cells (u_m < xi_l) only, in the order of
    ``stair``, the :class:`Staircase` of (u, xi).  Sampling is the Gumbel
    argmax in log space, which sidesteps underflow, with the draws numpy's
    gumbel makes at shape (M, L): its uniforms are drawn at once, each exact
    0 dropped for the next draw of the stream (as gumbel redraws it), and
    the eligible cells' scores are screened with numpy's log; a unit whose
    best cell is within the screen's error of another cell is re-scored
    with ``math.log`` (libm, as in numpy's gumbel) and takes the first
    exact maximum.
    """
    M, L = u.size, xi.size
    unit, col = stair.unit, stair.col
    with np.errstate(divide="ignore"):
        logits = log_lik + (np.log(weights) - np.log(xi))[col]
    cell = unit * L + col  # the cell's index in a unit-order (M, L) draw
    U = rng.random(M * L)
    while not U.all():  # as gumbel does, an exact 0 gives way to the next draw
        U = np.append(U[U != 0.0], rng.random(U.size - np.count_nonzero(U)))
    U = U[cell]
    scores = np.subtract(1.0, U)  # in place: logits - log(-log(1 - U))
    np.log(scores, out=scores)
    np.log(np.negative(scores, out=scores), out=scores)
    np.subtract(logits, scores, out=scores)
    top = np.full(M, -np.inf)
    np.maximum.at(top, unit, scores)
    if not np.all(top > -np.inf):
        raise AllSlicesEmpty("a unit has no eligible component; sampler invariant broken")
    # the cells at or near each unit's best: mostly the best one alone
    near = np.flatnonzero(scores >= (top - _SCREEN_TOL * (1.0 + np.abs(top)))[unit])
    best = np.empty(M, dtype=np.intp)
    best[unit[near]] = near
    if near.size > M:  # a unit with a second cell: the first exact maximum wins
        for m in np.flatnonzero(np.bincount(unit[near], minlength=M) > 1).tolist():
            cells = near[unit[near] == m].tolist()  # columns ascending
            exact = [logits[c] - math.log(-math.log(1.0 - U[c])) for c in cells]
            best[m] = cells[exact.index(max(exact))]
    return col[best] + 1


def _members(labels: np.ndarray, counts: np.ndarray) -> list:
    """Increasing row indices of each label 1..n, from one stable sort;
    ``counts`` is ``np.bincount(labels)`` padded to length n + 1."""
    order = np.argsort(labels, kind="stable")
    bounds = np.cumsum(counts).tolist()
    return [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


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
        d2 = _sq_distances(self.data, np.array([s.mean for s in self.priors]),
                           np.array([s.scatter for s in self.priors]))
        return d2.T, self.data.shape[1]

    def draw_atoms(self, members: list, known: list, novel: list, rng) -> tuple:
        """Every slot's atom from its members' rows, the random draws slot
        by slot and the atoms from them in one stack: known atoms from their
        training NIW posteriors (kept as they are when frozen), novelty atoms
        from the base-measure posterior (an unoccupied slot from the base
        measure itself)."""
        J = len(known)
        laws = [] if self.known_niw is None else \
            [niw_posterior(law, self.data[rows]) for law, rows in zip(self.known_niw, members[:J])]
        laws += [niw_posterior(self.base_measure, self.data[rows]) if rows.size
                 else self.base_measure for rows in members[J:]]
        atoms = niw_atoms(laws, [sample_niw(law, rng) for law in laws])
        return (known, atoms) if self.known_niw is None else (atoms[:J], atoms[J:])

    def loglik(self, known: list, novel: list, stair: Staircase) -> np.ndarray:
        """Densities on the eligible cells of ``stair``.

        Every column's rows are gathered into one block and its densities
        computed by one :func:`log_gaussian_density_many` call, from one
        stacked factorisation of all covariances.  A one-row column is
        computed on two rows: a one-row solve can differ in the last bits
        from that row of a many-row solve, while any block of two or more
        rows reproduces it exactly (a chain of one unit has only the one
        row); the padding row is dropped from the result."""
        atoms = known + novel
        order, n_rows = stair.order, stair.n_rows
        means = np.asarray_chkfinite([a.mean for a in atoms])
        factors = _chol(np.array([a.cov for a in atoms]))
        cols = np.flatnonzero(n_rows)
        sizes = np.maximum(n_rows[cols], min(2, order.size))
        rows = _runs(sizes)
        dens = log_gaussian_density_many(self.data[order[rows]], means[cols], factors[cols],
                                         sizes)
        return dens[rows < np.repeat(n_rows[cols], sizes)]

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
    known, novel = family.draw_atoms(_members(zeta, counts), state.known_atoms, prev, rng)

    # 9. allocation over eligible components
    if M:
        xi = xi_values(kappa, J, L)
        stair = _staircase(u, xi)  # one cell layout for the densities and the draw
        zeta = _sample_allocations(rng, family.loglik(known, novel, stair), pitilde, u, xi,
                                   stair)

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
    M = family.data.shape[0]
    zeta = np.zeros(0, dtype=int)
    if M:
        d2, df = family.start_distances()
        zeta = np.argmin(d2, axis=1) + 1
        far = d2[np.arange(M), zeta - 1] > _chi2_ppf(0.999, df)
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
    zeta_trace = np.empty((n_keep, M), dtype=np.int32)
    pi_trace = np.empty((n_keep, J + 1))
    gamma_trace = np.empty(n_keep)
    n_active_trace = np.empty(n_keep, dtype=np.int32)
    snapshots = [] if record_atoms else None

    for it in range(hp.n_iter):
        state = gibbs_step(state, family, hp, rng)
        i = it - hp.n_burnin
        if i < 0:
            continue
        zeta_trace[i] = state.zeta
        pi_trace[i] = state.pi
        gamma_trace[i] = state.gamma
        n_active_trace[i] = state.L_star
        if record_atoms and i % hp.atom_thin == 0:
            snapshots.append({"iteration": i,
                              **family.snapshot(state.known_atoms, state.novel_atoms)})

    return ChainOutput(
        zeta_trace=zeta_trace, pi_trace=pi_trace,
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
