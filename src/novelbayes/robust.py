"""Stage I: robust class-wise extraction of location and scatter.

For every observed class the minimum-covariance-determinant estimator is run
on that class's rows; when the subset size drops to the data dimension or
below (or the subset covariance degenerates), the regularized variant with a
shrinkage target takes over.  The resulting (mean, scatter, untrimmed-set)
triples seed the informative priors of the second stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.stats import chi2

from .errors import (
    DegenerateData,
    InsufficientRows,
    NotPositiveDefinite,
    NumericalError,
    SingularSubset,
)
from .model import _chol, _mahalanobis_chol, _solve_triangular

_DET_TOL = 1e-9  # relative slack when checking the C-step descent property
_MAX_CONDITION = 1000.0  # bound on the condition number of an MRCD scatter
_RHO_GRID = np.arange(1, 101) / 100  # MRCD shrinkage weights 0.01, 0.02, ..., 1.00


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

@dataclass
class LabeledDataset:
    """Training observations with integer class labels in {1..J}."""

    data: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.data = np.atleast_2d(np.asarray(self.data, dtype=float))
        self.labels = np.asarray(self.labels, dtype=int).ravel()
        if self.data.shape[0] != self.labels.size:
            raise ValueError("labels length must match number of rows")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("training data contains non-finite entries")
        if self.labels.min(initial=1) < 1:
            raise ValueError("labels must be 1-based class indices")
        J = int(self.labels.max())
        present = np.unique(self.labels)
        if not np.array_equal(present, np.arange(1, J + 1)):
            raise ValueError("labels must cover every class 1..J")
        sizes = np.bincount(self.labels, minlength=J + 1)[1:]
        if np.any(sizes < 2):
            raise ValueError("every class needs at least two observations")

    @property
    def n_classes(self) -> int:
        return int(self.labels.max())

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes + 1)[1:]

    def class_rows(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.labels == j)


@dataclass(frozen=True)
class McdConfig:
    """Controls for the subset search.

    ``eta`` is the untrimmed fraction of every class; ``n_starts`` initial
    subsets each run at most ``max_csteps`` concentration steps; ``seed``
    seeds the starts when no generator is passed.
    """

    eta: float = 0.75
    n_starts: int = 500
    max_csteps: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 0.5 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0.5, 1]")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if self.max_csteps < 1:
            raise ValueError("max_csteps must be >= 1")


@dataclass
class RobustClassSummary:
    """Robust location/scatter for one class plus the untrimmed index set.

    ``untrimmed`` holds row indices relative to the data matrix the estimator
    was run on (class-local when produced by :func:`extract_class_priors`).
    ``determinant`` is the value of the minimized objective: the subset
    covariance determinant for MCD, the regularized-scatter determinant for
    MRCD.  ``condition_number`` and ``rho`` are populated by MRCD only.
    """

    mean: np.ndarray
    scatter: np.ndarray
    untrimmed: np.ndarray
    method: str
    determinant: float
    log_determinant: float
    rho: Optional[float] = None
    condition_number: Optional[float] = None

    def to_dict(self) -> dict:
        d = {
            "mean": self.mean.tolist(),
            "scatter": self.scatter.ravel().tolist(),
            "untrimmed": self.untrimmed.tolist(),
            "method": self.method,
            "determinant": float(self.determinant),
            "log_determinant": float(self.log_determinant),
        }
        if self.rho is not None:
            d["rho"] = float(self.rho)
        if self.condition_number is not None:
            d["condition_number"] = float(self.condition_number)
        return d


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def consistency_factor(eta: float, p: int) -> float:
    """Multiplicative correction making the trimmed covariance consistent
    under Gaussian sampling: eta / F_{chi2(p+2)}(q) with q the eta-quantile
    of chi2(p).  Equals 1 when nothing is trimmed.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if p < 1:
        raise ValueError("p must be a positive integer")
    if eta == 1.0:
        return 1.0
    q = chi2.ppf(eta, df=p)
    return float(eta / chi2.cdf(q, df=p + 2))


def _subset_moments(X: np.ndarray, idx: np.ndarray):
    sub = X[idx]
    mean = sub.mean(axis=0)
    dev = sub - mean
    cov = dev.T @ dev / (len(idx) - 1)
    return mean, cov


def _sq_mahalanobis(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    try:
        return _mahalanobis_chol(X, mean, cov)[0]
    except NotPositiveDefinite as exc:
        raise SingularSubset("subset covariance is singular") from exc


def _smallest_h(dist: np.ndarray, h: int) -> np.ndarray:
    # stable sort: ties in distance resolve to the lowest row index
    return np.sort(np.argsort(dist, kind="stable")[:h])


def _slogdet_spd(cov: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0 or not np.isfinite(logdet):
        raise SingularSubset("subset covariance determinant is not positive")
    return float(logdet)


# ---------------------------------------------------------------------------
# FAST-MCD
# ---------------------------------------------------------------------------

def _elemental_start(X: np.ndarray, h: int, rng: np.random.Generator) -> np.ndarray:
    """One random (p+1)-point elemental set expanded to an h-subset."""
    n, p = X.shape
    order = rng.permutation(n)
    size = p + 1
    while True:
        idx = np.sort(order[:size])
        mean, cov = _subset_moments(X, idx)
        try:
            dist = _sq_mahalanobis(X, mean, cov)
            return _smallest_h(dist, h)
        except SingularSubset:
            size += 1
            if size > n:
                raise


def _concentrate(X: np.ndarray, idx: np.ndarray, h: int, max_csteps: int, scatter):
    """Concentration steps from an initial h-subset, minimizing det S with
    S = ``scatter(subset covariance)``; returns (subset, mean, S, log det S)
    at the fixed point.  det S never increases along the way; a violation
    beyond floating-point slack is a NumericalError (a bug, not a data problem).
    """
    mean, cov = _subset_moments(X, idx)
    S = scatter(cov)
    logdet = _slogdet_spd(S)
    for _ in range(max_csteps):
        dist = _sq_mahalanobis(X, mean, S)
        new_idx = _smallest_h(dist, h)
        if np.array_equal(new_idx, idx):
            break
        new_mean, new_cov = _subset_moments(X, new_idx)
        new_S = scatter(new_cov)
        new_logdet = _slogdet_spd(new_S)
        if new_logdet > logdet + _DET_TOL * max(1.0, abs(logdet)):
            raise NumericalError("C-step determinant increased")
        converged = new_logdet >= logdet - _DET_TOL * max(1.0, abs(logdet))
        idx, mean, S, logdet = new_idx, new_mean, new_S, new_logdet
        if converged:
            break
    return idx, mean, S, logdet


def _best(fits):
    """The fit with the smallest log-determinant; the first one wins ties."""
    return min(fits, key=lambda fit: fit[3])


def _c_steps(X: np.ndarray, idx: np.ndarray, h: int, max_csteps: int):
    """MCD concentration: minimizes the plain subset covariance determinant."""
    return _concentrate(X, idx, h, max_csteps, lambda cov: cov)


def fast_mcd(data: np.ndarray, cfg: McdConfig,
             rng: Optional[np.random.Generator] = None) -> RobustClassSummary:
    """Raw minimum-covariance-determinant estimate of location and scatter.

    Runs concentration steps from ``cfg.n_starts`` random elemental sets and
    keeps the h-subset (h = floor(eta * n)) whose covariance determinant is
    smallest.  The returned scatter is the subset covariance times the
    consistency factor; ``untrimmed`` lists the h retained row indices.

    Raises
    ------
    InsufficientRows
        If h < p + 1, where no h-subset covariance can be full rank.
    SingularSubset
        If a minimizing subset is (numerically) rank deficient; callers
        should fall back to :func:`mrcd`.
    """
    X = np.atleast_2d(np.asarray(data, dtype=float))
    if not np.all(np.isfinite(X)):
        raise ValueError("data contains non-finite entries")
    n, p = X.shape
    h = int(np.floor(cfg.eta * n))
    if h < p + 1:
        raise InsufficientRows(
            f"subset size h={h} is below p+1={p + 1}; use mrcd instead")

    c0 = consistency_factor(cfg.eta, p)
    if h == n:
        mean, cov = _subset_moments(X, np.arange(n))
        logdet = _slogdet_spd(cov)
        return RobustClassSummary(
            mean=mean, scatter=c0 * cov, untrimmed=np.arange(n),
            method="MCD", determinant=float(np.exp(logdet)),
            log_determinant=logdet)

    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    # a generator, so each start is drawn right before its C-steps run
    idx, mean, cov, logdet = _best(
        _c_steps(X, _elemental_start(X, h, rng), h, cfg.max_csteps)
        for _ in range(cfg.n_starts))
    # final SPD check of the reported scatter
    _sq_mahalanobis(X[:1], mean, cov)
    return RobustClassSummary(
        mean=mean, scatter=c0 * cov, untrimmed=idx, method="MCD",
        determinant=float(np.exp(logdet)), log_determinant=logdet)


# ---------------------------------------------------------------------------
# regularized MCD for h <= p
# ---------------------------------------------------------------------------

def _regularized(cov: np.ndarray, rho: float, c0: float, p: int) -> np.ndarray:
    return rho * np.eye(p) + (1.0 - rho) * c0 * cov


def _condition_number(K: np.ndarray) -> float:
    eig = np.linalg.eigvalsh(K)
    return float(eig[-1] / eig[0])


def _mrcd_c_steps(X, idx, h, rho, c0, max_csteps):
    """MRCD concentration: minimizes the regularized scatter's determinant."""
    p = X.shape[1]
    return _concentrate(X, idx, h, max_csteps, lambda cov: _regularized(cov, rho, c0, p))


def mrcd(data: np.ndarray, cfg: McdConfig,
         target: Optional[np.ndarray] = None,
         rng: Optional[np.random.Generator] = None) -> RobustClassSummary:
    """Minimum regularized covariance determinant estimate.

    The scatter is rho * target + (1 - rho) * c0 * (subset covariance), with
    the h-subset chosen to minimize its determinant.  The search runs in the
    coordinates whitened by the target (default: diagonal of the full-sample
    covariance), where the target becomes the identity; rho is the smallest
    ``_RHO_GRID`` value whose regularized scatter stays below ``_MAX_CONDITION``
    in condition number, bumped upward if the optimized subset violates the
    bound.  Applicable whenever n >= 2, including p >= h.
    """
    X = np.atleast_2d(np.asarray(data, dtype=float))
    if not np.all(np.isfinite(X)):
        raise ValueError("data contains non-finite entries")
    n, p = X.shape
    if n < 2:
        raise InsufficientRows("mrcd needs at least two observations")
    if np.allclose(X, X[0]):
        raise DegenerateData("all observations identical")
    h = max(int(np.floor(cfg.eta * n)), 2)

    if target is None:
        var = X.var(axis=0, ddof=1)
        # (near-)constant columns carry no scale information
        var[var <= 1e-18 * max(var.max(), 1.0)] = 1.0
        target = np.diag(var)
    else:
        target = np.asarray(target, dtype=float)

    # whiten so the target is the identity
    C = np.asarray_chkfinite(_chol(target))
    Xw = _solve_triangular(C, X.T).T

    c0 = consistency_factor(cfg.eta, p)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    med = np.median(Xw, axis=0)
    idx0 = _smallest_h(np.sum((Xw - med) ** 2, axis=1), h)
    _, cov0 = _subset_moments(Xw, idx0)

    for start_pos, rho in enumerate(_RHO_GRID):
        if _condition_number(_regularized(cov0, rho, c0, p)) <= _MAX_CONDITION:
            break

    starts = [idx0] + [np.sort(rng.choice(n, size=h, replace=False))
                       for _ in range(cfg.n_starts - 1)]

    for rho in _RHO_GRID[start_pos:]:
        idx, mean_w, K, logdet_w = _best(
            _mrcd_c_steps(Xw, start, h, rho, c0, cfg.max_csteps) for start in starts)
        cond = _condition_number(K)
        if cond <= _MAX_CONDITION:
            mean = C @ mean_w
            scatter = C @ K @ C.T
            scatter = 0.5 * (scatter + scatter.T)
            logdet = logdet_w + 2.0 * float(np.sum(np.log(np.diag(C))))
            return RobustClassSummary(
                mean=mean, scatter=scatter, untrimmed=idx, method="MRCD",
                determinant=float(np.exp(logdet)), log_determinant=logdet,
                rho=float(rho), condition_number=cond)
    raise NumericalError("no shrinkage weight met the condition-number bound")


# ---------------------------------------------------------------------------
# class-wise extraction
# ---------------------------------------------------------------------------

def extract_class_priors(train: LabeledDataset, cfg: McdConfig) -> list[RobustClassSummary]:
    """Run the robust estimator within every observed class.

    MCD is attempted first; MRCD takes over in two cases: the subset size
    is at most the dimension (h <= p, ``InsufficientRows``), or an MCD
    subset is singular (``SingularSubset``).  Each attempt draws from a
    fresh generator seeded with (cfg.seed, class index), so adding a class
    never perturbs the others.
    """
    out = []
    for j in range(1, train.n_classes + 1):
        X = train.data[train.class_rows(j)]
        try:
            try:
                out.append(fast_mcd(X, cfg, rng=np.random.default_rng([cfg.seed, j])))
            except (InsufficientRows, SingularSubset):
                out.append(mrcd(X, cfg, rng=np.random.default_rng([cfg.seed, j])))
        except (DegenerateData, InsufficientRows, NumericalError) as exc:
            raise type(exc)(f"class {j}: {exc}") from exc
    return out
