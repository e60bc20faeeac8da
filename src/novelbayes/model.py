"""Core probability model: hyperparameters, stick breaking, the deterministic
slice sequence with its truncation rule, the (known class, novelty cluster)
labels of a membership index, the one check of a data block's rows,
Gaussian primitives (the squared Mahalanobis distances under a stack of
(mean, cov) pairs and the row-wise densities of a block of row runs), the
two chi-square values, and closed-form prior moments of the mixing measure.

Everything in this module is a pure function of its inputs; the sampler owns
all mutable state.  This module is the package's only door to scipy: its
LAPACK and chi-square helpers call ``scipy.linalg.lapack`` and
``scipy.special`` directly, and the other modules call those helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrs, dtrtrs
from scipy.special import chdtr, gammaincinv

from .errors import EmptySlice, NotPositiveDefinite

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# hyperparameter containers
# ---------------------------------------------------------------------------

@dataclass
class NIWParams:
    """Normal-inverse-Wishart parameters (mean m, precision scale lambda,
    degrees of freedom nu, scale matrix S).

    The covariance marginal is inverse-Wishart(nu, S) with mean
    S / (nu - p - 1); the mean given the covariance is N(m, cov / lambda).
    """

    mean: np.ndarray
    precision_scale: float
    dof: float
    scale_matrix: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).ravel()
        self.scale_matrix = np.asarray(self.scale_matrix, dtype=float)
        p = self.mean.size
        if self.scale_matrix.shape != (p, p):
            raise ValueError("scale_matrix shape must match mean dimension")
        if self.precision_scale <= 0:
            raise ValueError("precision_scale must be positive")
        if self.dof <= p - 1:
            raise ValueError("dof must exceed p - 1")

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class GammaPrior:
    """Gamma(shape, rate) hyperprior for the DP concentration parameter."""

    shape: float = 1.0
    rate: float = 1.0

    def __post_init__(self):
        if self.shape <= 0 or self.rate <= 0:
            raise ValueError("Gamma prior requires positive shape and rate")

    @property
    def mean(self) -> float:
        return self.shape / self.rate


_FREEZE_THRESHOLD = 1e5  # lambda_tr and nu_tr at or above it freeze known atoms


@dataclass(kw_only=True)
class ChainSettings:
    """What the shared Gibbs driver reads; each model's settings extend it.

    ``a`` holds the Dirichlet weights (a_0, a_1, ..., a_J); a_0 is the prior
    weight of the novelty component.  ``gamma`` is either a fixed DP
    concentration or a GammaPrior to be resampled along the chain.
    ``kappa`` sets the decay of the deterministic slice sequence.  The chain
    runs ``n_iter`` scans from ``seed``, keeps those after ``n_burnin``, and
    snapshots the atoms every ``atom_thin`` retained scans.
    """

    a: np.ndarray
    gamma: Union[float, GammaPrior] = field(default_factory=GammaPrior)
    kappa: float = 0.5
    n_iter: int = 2000
    n_burnin: int = 1000
    seed: int = 0
    atom_thin: int = 10

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float).ravel()
        if np.any(self.a <= 0):
            raise ValueError("all Dirichlet weights a_j must be positive")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie in (0, 1)")
        if not (self.gamma_is_random or self.gamma > 0):
            raise ValueError("fixed gamma must be positive")
        if self.n_burnin < 0:
            raise ValueError("n_burnin must be non-negative")
        if self.n_iter <= self.n_burnin:
            raise ValueError("n_iter must exceed n_burnin")
        if self.atom_thin < 1:
            raise ValueError("atom_thin must be at least 1")

    @property
    def n_known(self) -> int:
        return self.a.size - 1

    @property
    def gamma_is_random(self) -> bool:
        return isinstance(self.gamma, GammaPrior)

    @classmethod
    def with_class_weights(cls, class_sizes, a0: float = 0.1, **kwargs):
        """Build weights a_j = n_j / N for observed classes, novelty weight a0."""
        sizes = np.asarray(class_sizes, dtype=float)
        a = np.concatenate([[a0], sizes / sizes.sum()])
        return cls(a=a, **kwargs)


@dataclass(kw_only=True)
class Hyperparameters(ChainSettings):
    """Settings of the multivariate chain.

    ``lambda_tr`` / ``nu_tr`` control how tightly the known-class atoms are
    tied to the robust training estimates; when both reach
    ``_FREEZE_THRESHOLD`` (1e5) the atoms are frozen at those estimates
    (inductive mode).  ``base_measure`` is the NIW law of the novelty atoms.
    """

    lambda_tr: float
    nu_tr: float
    base_measure: NIWParams

    def __post_init__(self):
        super().__post_init__()
        if self.lambda_tr <= 0:
            raise ValueError("lambda_tr must be positive")
        if self.nu_tr <= self.base_measure.dim + 1:
            raise ValueError("nu_tr (nu-tr) must exceed p + 1 for the training priors")
        try:  # an empty novelty slot draws from the base measure itself
            _chol(self.base_measure.scale_matrix)
        except (NotPositiveDefinite, ValueError):
            raise ValueError("base measure scale (s0-scale) must be positive definite") from None

    @property
    def frozen_known_atoms(self) -> bool:
        return min(self.lambda_tr, self.nu_tr) >= _FREEZE_THRESHOLD


# ---------------------------------------------------------------------------
# deterministic slice sequence and truncation
# ---------------------------------------------------------------------------

def _xi_constants(kappa: float, n_known: int):
    """(J, base, ratio): the mass (1 - kappa)/(J + 1) shared by the first
    J + 1 elements and the ratio (J + 1) kappa / (J kappa + 1) of the tail."""
    J = int(n_known)
    return J, (1.0 - kappa) / (J + 1), (J + 1) * kappa / (J * kappa + 1.0)


def xi_sequence(kappa: float, n_known: int, l: int) -> float:
    """Mass of the l-th element (1-based) of the deterministic slice sequence.

    The first n_known + 1 elements share (1 - kappa) equally, so the known
    components and the first novelty slot are never under-represented; the
    remainder decays geometrically with ratio
    (J + 1) kappa / (J kappa + 1) and the whole sequence sums to one.
    """
    if l < 1:
        raise ValueError("sequence index l must be >= 1")
    return float(xi_values(kappa, n_known, l)[l - 1])


def xi_values(kappa: float, n_known: int, length: int) -> np.ndarray:
    """First ``length`` elements of the slice sequence as an array."""
    if not 0.0 < kappa < 1.0:
        raise ValueError("kappa must lie in (0, 1)")
    J, base, ratio = _xi_constants(kappa, n_known)
    out = np.full(length, base)
    if length > J + 1:
        tail = np.arange(1, length - J)
        out[J + 1:] = base * ratio ** tail
    return out


def truncation_level(u: np.ndarray, kappa: float, n_known: int) -> int:
    """Stochastic truncation threshold for the current slice variables.

    Largest integer strictly below
    J + 1 + [log(min u) - log((1-kappa)/(J+1))] / log((J+1)kappa/(J kappa+1)),
    clamped below at J + 1 so at least one novelty slot is always considered.
    """
    u = np.asarray(u, dtype=float).ravel()
    if u.size == 0:
        raise EmptySlice("truncation level requires at least one slice variable")
    J, base, ratio = _xi_constants(kappa, n_known)
    bound = J + 1 + (math.log(u.min()) - math.log(base)) / math.log(ratio)
    level = math.ceil(bound) - 1  # largest integer strictly below the bound
    return max(level, J + 1)


def stick_breaking(v: np.ndarray) -> np.ndarray:
    """Stick-breaking weights w_k = v_k * prod_{l<k} (1 - v_l)."""
    v = np.asarray(v, dtype=float).ravel()
    with np.errstate(divide="ignore"):  # a stick at exactly 1.0 zeroes the rest
        log_remain = np.concatenate([[0.0], np.cumsum(np.log1p(-v))[:-1]])
    return v * np.exp(log_remain)


def _alpha_of(zeta: np.ndarray, n_known: int) -> np.ndarray:
    """Known-class label of each 1-based membership index (0 = novelty)."""
    return np.where(zeta > n_known, 0, zeta)


def _beta_of(zeta: np.ndarray, n_known: int) -> np.ndarray:
    """Novelty-cluster label of each 1-based membership index (0 = known)."""
    beta = np.asarray(zeta - n_known)  # one array, clipped in place
    return np.maximum(beta, 0, out=beta)


# ---------------------------------------------------------------------------
# data blocks and Gaussian primitives
# ---------------------------------------------------------------------------

def _checked_rows(data, message: str) -> np.ndarray:
    """``data`` as a 2-D float array of rows; ``ValueError(message)`` if an
    entry is NaN or infinite."""
    X = np.atleast_2d(np.asarray(data, dtype=float))
    if not np.all(np.isfinite(X)):
        raise ValueError(message)
    return X


def _chol(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of one covariance or of an (n, p, p) stack:
    ``NotPositiveDefinite`` for a failed factorisation, and the
    ``asarray_chkfinite`` ValueError for a NaN or inf, which numpy passes
    through to the factor.  A stack is factored by one call, whose factors
    equal the one-matrix calls bit for bit."""
    try:
        return np.asarray_chkfinite(np.linalg.cholesky(cov))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("covariance is not positive definite") from exc


def _solve_triangular(A: np.ndarray, B: np.ndarray, lower: bool = True,
                      overwrite: bool = False) -> np.ndarray:
    """``scipy.linalg.solve_triangular(A, B, lower=lower)`` for float64
    arrays, without the wrapper's per-call overhead.

    Makes the LAPACK call the wrapper makes, so the result is bit-identical,
    and raises the wrapper's error for a singular ``A``.  The wrapper also
    rejects non-finite arrays (ValueError); callers check, with
    ``np.asarray_chkfinite``, whichever of their inputs can be non-finite.
    With ``overwrite`` an F-ordered ``B`` is solved in place.
    """
    if A.flags.f_contiguous:  # also every 1 x 1 factor
        x, info = dtrtrs(A, B, lower=int(lower), overwrite_b=int(overwrite))
    else:  # a C-ordered factor: solve the transposed system
        x, info = dtrtrs(A.T, B, lower=int(not lower), trans=1, overwrite_b=int(overwrite))
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cho_solve((L, True), b)`` for float64 arrays: the
    wrapper's LAPACK call, finiteness check and error, without its
    per-call overhead."""
    x, info = dpotrs(np.asarray_chkfinite(L), np.asarray_chkfinite(b), lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _chi2_ppf(q: float, df: int) -> float:
    """``scipy.stats.chi2.ppf(q, df)`` for 0 < q < 1: the kernel that
    method calls, without importing ``scipy.stats``."""
    return 2 * gammaincinv(df / 2, q)


def _chi2_cdf(x: float, df: int) -> float:
    """``scipy.stats.chi2.cdf(x, df)`` for x >= 0: the kernel that method
    calls, without importing ``scipy.stats``."""
    return chdtr(df, x)


def _sq_distances(X: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances of the rows of X under every (mean,
    cov) pair of the stacks ``means`` (S, p) and ``covs`` (S, p, p), as an
    (S, n) array whose row k has the bits of a one-pair call.  The rows of
    X are finite (the data are checked when loaded); the factors come from
    one :func:`_chol` call, and the means are checked after them."""
    (n, p), factors = X.shape, _chol(covs)
    S = len(factors)
    D = X - np.asarray_chkfinite(means)[:, None, :]
    return _block_distances(D.reshape(S * n, p), factors, [n] * S).reshape(S, n)


def _block_distances(D: np.ndarray, factors, sizes) -> np.ndarray:
    """Squared Mahalanobis norms of the rows of the (N, p) block D of
    deviations: the k-th run of ``sizes[k]`` rows under the lower factor
    ``factors[k]``.  D is taken as a C-ordered float64 block (copied only if
    it is not one, else overwritten), so D.T is an F-ordered (p, N) block
    and each run is solved in place by one LAPACK call on a contiguous
    slice, the call a one-run block gets.  A norm has the bits of numpy's
    sum over its row, which adds fewer than 8 values in plain order, ((a0 +
    a1) + a2) + ...: below p = 8 the rows of Z * Z are added so, along the
    long axis, without numpy's per-row loop."""
    Z = np.ascontiguousarray(D, dtype=np.float64).T
    lo = 0
    for L, n in zip(factors, sizes):
        if n:
            _solve_triangular(L, Z[:, lo:lo + n], overwrite=True)
        lo += n
    Z = np.multiply(Z, Z, out=Z)
    return Z.sum(axis=0) if len(Z) >= 8 else sum(Z[1:], Z[0])  # 8 or more: pairwise


def log_gaussian_density_many(X: np.ndarray, means: np.ndarray, chols: np.ndarray,
                              sizes) -> np.ndarray:
    """Row-wise log N(x; mean_k, cov_k) for an (N, p) float block of row
    runs: the k-th run of ``sizes[k]`` rows under ``means[k]`` and the lower
    Cholesky factor ``chols[k]`` of cov_k.  ``means`` and ``chols`` are
    finite (:func:`_chol` gives such factors); each density has the bits of
    a one-run call."""
    logdet = 2.0 * np.log(chols.diagonal(axis1=1, axis2=2)).sum(axis=1)
    d2 = _block_distances(X - np.repeat(means, sizes, axis=0), chols, sizes)
    return -0.5 * (np.repeat(X.shape[1] * LOG_2PI + logdet, sizes) + d2)


# ---------------------------------------------------------------------------
# closed-form prior moments of the mixing measure
# ---------------------------------------------------------------------------

@dataclass
class PriorMoments:
    """Univariate moments of the component priors, index 0 = novelty.

    ``mu[j]`` and ``mu2[j]`` are the mean and second moment of the j-th
    component prior; ``a`` carries the Dirichlet weights in the same order.
    """

    mu: np.ndarray
    mu2: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float).ravel()
        self.mu2 = np.asarray(self.mu2, dtype=float).ravel()
        self.a = np.asarray(self.a, dtype=float).ravel()
        if not (self.mu.size == self.mu2.size == self.a.size):
            raise ValueError("mu, mu2 and a must have equal length J + 1")
        if np.any(self.sigma2 < -1e-12):
            raise ValueError("second moments imply negative variances")

    @property
    def sigma2(self) -> np.ndarray:
        return self.mu2 - self.mu ** 2

    @property
    def a_total(self) -> float:
        return float(self.a.sum())


def prior_mean(moments: PriorMoments) -> float:
    """E[Theta_m] = sum_j (a_j / a) mu_j."""
    a = moments.a
    return float(np.sum(a / moments.a_total * moments.mu))


def prior_variance(moments: PriorMoments) -> float:
    """Marginal variance of a draw from the random mixing measure."""
    a = moments.a
    atot = moments.a_total
    w = a / atot
    diag = np.sum(w * (moments.mu2 - w * moments.mu ** 2))
    wm = w * moments.mu
    # 2 * sum_{l > j} (a_j a_l / a^2) mu_j mu_l
    cross = np.sum(wm) ** 2 - np.sum(wm ** 2)
    return float(diag - cross)


def prior_covariance(moments: PriorMoments, gamma: float) -> float:
    """Cov(Theta_m, Theta_m') for two draws sharing the same random measure.

    Equals the finite-mixture covariance minus
    [a_0(a_0+1)/(a(a+1))] * [gamma/(1+gamma)] * sigma_0^2, so growing the
    novelty block (larger gamma, a_0, or base-measure spread) decorrelates
    the draws.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    a = moments.a
    atot = moments.a_total
    pair = a * (a + 1.0) / (atot * (atot + 1.0))
    diag = np.sum(pair * moments.mu2 - (a / atot) ** 2 * moments.mu ** 2)
    wm = a / atot * moments.mu
    cross = (np.sum(wm) ** 2 - np.sum(wm ** 2)) / (atot + 1.0)
    cov0 = float(diag - cross)
    decrement = pair[0] * gamma / (1.0 + gamma) * moments.sigma2[0]
    return cov0 - float(decrement)


def tie_probability(a: np.ndarray, gamma: float) -> float:
    """Probability that two draws from the random measure share an atom.

    Known components contribute a_k(a_k+1)/(a(a+1)); the novelty block
    contributes the same weight damped by 1/(1+gamma).
    """
    a = np.asarray(a, dtype=float).ravel()
    if np.any(a <= 0):
        raise ValueError("all Dirichlet weights must be positive")
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    atot = a.sum()
    pair = a * (a + 1.0) / (atot * (atot + 1.0))
    return float(pair[1:].sum() + pair[0] / (1.0 + gamma))
