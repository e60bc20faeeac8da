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

from .errors import (
    DataError,
    DegenerateData,
    InsufficientRows,
    NotPositiveDefinite,
    NumericalError,
    SingularSubset,
)
from .model import _checked_rows, _chi2_cdf, _chi2_ppf, _chol, _solve_triangular, _sq_distances

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
        self.data = _checked_rows(self.data, "training data contains non-finite entries")
        self.labels = np.asarray(self.labels, dtype=int).ravel()
        if self.data.shape[0] != self.labels.size:
            raise ValueError("labels length must match number of rows")
        if self.labels.min(initial=1) < 1:
            raise ValueError("labels must be 1-based class indices")
        J = int(self.labels.max(initial=0))
        if J < 1 or not np.array_equal(np.unique(self.labels), np.arange(1, J + 1)):
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
    ``determinant`` is the value of the minimized objective (the subset
    covariance determinant for MCD, the regularized-scatter determinant for
    MRCD) as ``exp(log_determinant)``: inf when that overflows, which
    ``to_dict`` writes as None.  ``condition_number`` and ``rho`` are
    populated by MRCD only.
    """

    mean: np.ndarray
    scatter: np.ndarray
    untrimmed: np.ndarray
    method: str
    log_determinant: float
    rho: Optional[float] = None
    condition_number: Optional[float] = None

    @property
    def determinant(self) -> float:
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_determinant))

    def to_dict(self) -> dict:
        det = self.determinant
        d = {
            "mean": self.mean.tolist(),
            "scatter": self.scatter.ravel().tolist(),
            "untrimmed": self.untrimmed.tolist(),
            "method": self.method,
            "determinant": det if np.isfinite(det) else None,
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
    q = _chi2_ppf(eta, p)
    return float(eta / _chi2_cdf(q, p + 2))


def _subset_moments(X: np.ndarray, idx: np.ndarray):
    """Mean and covariance of the rows ``idx`` of X, or of each row of an
    (S, h) stack of subsets; a stacked subset gets the bits of its own call."""
    dev = np.take(X, idx, axis=0)  # X[idx]'s bytes, without its per-row cost
    mean = dev.mean(axis=-2)
    dev -= mean[..., None, :]
    return mean, np.swapaxes(dev, -1, -2) @ dev / (idx.shape[-1] - 1)


def _sq_mahalanobis(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    try:
        return _sq_distances(X, mean[None], cov[None])[0]
    except NotPositiveDefinite as exc:
        raise SingularSubset("subset covariance is singular") from exc


def _stacked_sq_mahalanobis(X: np.ndarray, means: np.ndarray, covs: np.ndarray):
    """:func:`_sq_mahalanobis` of every (mean, cov) pair of a stack, as an
    (S, n) array, and the error each failing pair raises by position.  The
    stack is taken in one call; when it fails, the pairs are taken one by
    one."""
    try:
        return _sq_distances(X, means, covs), {}
    except (NotPositiveDefinite, ValueError):
        dist, errors = np.empty((len(means), X.shape[0])), {}
        for k in range(len(means)):
            try:
                dist[k] = _sq_mahalanobis(X, means[k], covs[k])
            except (SingularSubset, ValueError) as exc:
                errors[k] = exc
        return dist, errors


def _smallest_h(dist: np.ndarray, h: int) -> np.ndarray:
    # The first h of each row's stable argsort, ties to the lowest index, in
    # increasing order.  With t the h-th smallest value they are every d < t
    # (at most h - 1) and then the lowest-index d == t (at least as many as
    # are missing), picked by a running count of the ties; np.nonzero lists
    # them in index order.  Distances are never NaN (finite rows, factors).
    t = np.partition(dist, h - 1, axis=-1)[..., h - 1:h]
    below, ties = dist < t, dist == t
    keep = below | (ties & (np.cumsum(ties, axis=-1) <= h - below.sum(-1, keepdims=True)))
    return np.nonzero(keep)[-1].reshape(dist.shape[:-1] + (h,))


def _slogdet_spd(cov: np.ndarray):
    """Log-determinants of an SPD matrix or of a stack, and where they are
    not positive (sign <= 0 or not finite)."""
    sign, logdet = np.linalg.slogdet(cov)
    return logdet, (sign <= 0) | ~np.isfinite(logdet)


def _singular_determinant() -> SingularSubset:
    return SingularSubset("subset covariance determinant is not positive")


# Starts run as stacks of at most this many floats per (n, p) distance
# block and (p, p) scatter, which bounds the memory a stack adds.
_STACK_FLOATS = 1 << 14


def _stack_size(n: int, p: int) -> int:
    return max(1, _STACK_FLOATS // (n * p + p * p))


# ---------------------------------------------------------------------------
# FAST-MCD
# ---------------------------------------------------------------------------

def _elemental_starts(X: np.ndarray, h: int, perms: np.ndarray):
    """Each permutation's first p + 1 rows expanded to an h-subset; a
    start whose elemental set is singular grows it by its next row, and
    fails once the set holds all rows.  Returns the (S, h) subsets and the
    error of each failing start by position."""
    n, p = X.shape
    starts, errors = np.zeros((len(perms), h), dtype=np.intp), {}
    todo, size = np.arange(len(perms)), p + 1
    while todo.size:
        mean, cov = _subset_moments(X, np.sort(perms[todo, :size], axis=1))
        dist, failed = _stacked_sq_mahalanobis(X, mean, cov)
        fine = np.array([k not in failed for k in range(todo.size)])
        starts[todo[fine]] = _smallest_h(dist[fine], h)
        retry = [k for k, exc in failed.items() if isinstance(exc, SingularSubset) and size < n]
        errors.update({int(todo[k]): exc for k, exc in failed.items() if k not in retry})
        todo, size = todo[sorted(retry)], size + 1
    return starts, errors


def _concentrate(X: np.ndarray, starts: np.ndarray, h: int, max_csteps: int, scatter):
    """Concentration steps from each initial h-subset of the (S, h) stack
    ``starts``, minimizing det S with S = ``scatter(subset covariance)``.

    Returns the fits (subsets, means, S, log det S, C-steps run) at each
    start's fixed point, and the error each failing start raises by
    position.  det S never increases along the way; a violation beyond
    floating-point slack is a NumericalError (a bug, not a data problem).
    The stack is taken together, and each start gets the bits of its own
    run: a start leaves the stack when its subset repeats, its determinant
    stops falling, ``max_csteps`` steps have run, or it fails.
    """
    idx = starts.copy()
    mean, cov = _subset_moments(X, idx)
    S = scatter(cov)
    logdet, bad = _slogdet_spd(S)
    steps = np.zeros(len(idx), dtype=np.intp)
    errors = {int(k): _singular_determinant() for k in np.flatnonzero(bad)}
    live = ~bad
    for _ in range(max_csteps):
        act = np.flatnonzero(live)
        if act.size == 0:
            break
        steps[act] += 1
        dist, failed = _stacked_sq_mahalanobis(X, mean[act], S[act])
        for k, exc in failed.items():
            errors[int(act[k])] = exc
        fine = np.array([k not in failed for k in range(act.size)])
        live[act[~fine]] = False
        act = act[fine]
        new_idx = _smallest_h(dist[fine], h)
        moved = ~(new_idx == idx[act]).all(axis=1)
        live[act[~moved]] = False
        act, new_idx = act[moved], new_idx[moved]
        if act.size == 0:
            continue
        new_mean, new_cov = _subset_moments(X, new_idx)
        new_S = scatter(new_cov)
        new_logdet, bad = _slogdet_spd(new_S)
        tol = _DET_TOL * np.maximum(1.0, np.abs(logdet[act]))
        rose = ~bad & (new_logdet > logdet[act] + tol)
        for k in np.flatnonzero(bad | rose).tolist():
            errors[int(act[k])] = _singular_determinant() if bad[k] else \
                NumericalError("C-step determinant increased")
        live[act[bad | rose]] = False
        keep = ~(bad | rose)
        done = new_logdet[keep] >= (logdet[act] - tol)[keep]
        act = act[keep]
        idx[act], mean[act], S[act], logdet[act] = \
            new_idx[keep], new_mean[keep], new_S[keep], new_logdet[keep]
        live[act[done]] = False
    return (idx, mean, S, logdet, steps), errors


def _best(stacks):
    """The fit with the smallest log-determinant over a sequence of
    (fits, errors) stacks of consecutive starts, the first one winning ties;
    the first failing start's error is raised instead."""
    best = None
    for fits, errors in stacks:
        if errors:
            raise errors[min(errors)]
        k = int(np.argmin(fits[3]))
        if best is None or fits[3][k] < best[3]:
            best = tuple(f[k] for f in fits)
    return best


def _c_steps(X: np.ndarray, starts: np.ndarray, h: int, max_csteps: int):
    """MCD concentration: minimizes the plain subset covariance determinant."""
    return _concentrate(X, starts, h, max_csteps, lambda cov: cov)


def _mcd_stacks(X: np.ndarray, h: int, cfg: McdConfig, rng: np.random.Generator):
    """The C-step fits of the FAST-MCD starts, one stack at a time; the
    generator draws only the elemental permutations, so drawing a stack's
    permutations first keeps every start's."""
    n, p = X.shape
    size = _stack_size(n, p)
    for lo in range(0, cfg.n_starts, size):
        perms = np.array([rng.permutation(n) for _ in range(min(size, cfg.n_starts - lo))])
        starts, errors = _elemental_starts(X, h, perms)
        first = min(errors, default=len(perms))  # no later start can matter
        fits, c_errors = _c_steps(X, starts[:first], h, cfg.max_csteps) if first else (None, {})
        yield fits, c_errors or errors


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
    X = _checked_rows(data, "data contains non-finite entries")
    n, p = X.shape
    h = int(np.floor(cfg.eta * n))
    if h < p + 1:
        raise InsufficientRows(
            f"subset size h={h} is below p+1={p + 1}; use mrcd instead")

    c0 = consistency_factor(cfg.eta, p)
    if h == n:
        mean, cov = _subset_moments(X, np.arange(n))
        logdet, bad = _slogdet_spd(cov)
        if bad:
            raise _singular_determinant()
        return RobustClassSummary(
            mean=mean, scatter=c0 * cov, untrimmed=np.arange(n),
            method="MCD", log_determinant=float(logdet))

    if rng is None:
        rng = np.random.default_rng(cfg.seed)

    idx, mean, cov, logdet, _ = _best(_mcd_stacks(X, h, cfg, rng))
    # final SPD check of the reported scatter
    _sq_mahalanobis(X[:1], mean, cov)
    return RobustClassSummary(
        mean=mean, scatter=c0 * cov, untrimmed=idx, method="MCD", log_determinant=float(logdet))


# ---------------------------------------------------------------------------
# regularized MCD for h <= p
# ---------------------------------------------------------------------------

def _regularized(cov: np.ndarray, rho: float, c0: float, p: int) -> np.ndarray:
    return rho * np.eye(p) + (1.0 - rho) * c0 * cov


def _condition_number(K: np.ndarray) -> float:
    eig = np.linalg.eigvalsh(K)
    return float(eig[-1] / eig[0])


def _mrcd_c_steps(X, starts, h, rho, c0, max_csteps):
    """MRCD concentration: minimizes the regularized scatter's determinant."""
    p = X.shape[1]
    return _concentrate(X, starts, h, max_csteps, lambda cov: _regularized(cov, rho, c0, p))


def mrcd(data: np.ndarray, cfg: McdConfig,
         rng: Optional[np.random.Generator] = None) -> RobustClassSummary:
    """Minimum regularized covariance determinant estimate.

    The scatter is rho * target + (1 - rho) * c0 * (subset covariance), with
    the h-subset chosen to minimize its determinant.  The target is the
    diagonal of the full-sample covariance, and the search runs in the
    coordinates it whitens to the identity; rho is the smallest ``_RHO_GRID``
    value whose regularized scatter stays below ``_MAX_CONDITION`` in
    condition number, bumped upward if the optimized subset violates the
    bound.  Applicable whenever n >= 2, including p >= h.
    """
    X = _checked_rows(data, "data contains non-finite entries")
    n, p = X.shape
    if n < 2:
        raise InsufficientRows("mrcd needs at least two observations")
    if np.allclose(X, X[0]):
        raise DegenerateData("all observations identical")
    h = max(int(np.floor(cfg.eta * n)), 2)

    var = X.var(axis=0, ddof=1)
    # (near-)constant columns carry no scale information
    var[var <= 1e-18 * max(var.max(), 1.0)] = 1.0
    # whiten so the target is the identity
    C = _chol(np.diag(var))
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

    starts = np.array([idx0] + [np.sort(rng.choice(n, size=h, replace=False))
                                for _ in range(cfg.n_starts - 1)])
    size = _stack_size(n, p)

    for rho in _RHO_GRID[start_pos:]:
        idx, mean_w, K, logdet_w, _ = _best(
            _mrcd_c_steps(Xw, starts[lo:lo + size], h, rho, c0, cfg.max_csteps)
            for lo in range(0, len(starts), size))
        cond = _condition_number(K)
        if cond <= _MAX_CONDITION:
            mean = C @ mean_w
            scatter = C @ K @ C.T
            scatter = 0.5 * (scatter + scatter.T)
            logdet = float(logdet_w) + 2.0 * float(np.sum(np.log(np.diag(C))))
            return RobustClassSummary(
                mean=mean, scatter=scatter, untrimmed=idx, method="MRCD",
                log_determinant=logdet, rho=float(rho), condition_number=cond)
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
    never perturbs the others.  A class whose n squared ranges can overflow
    float64 in a sum of squared deviations is a ``DataError`` up front.
    """
    out = []
    for j in range(1, train.n_classes + 1):
        X = train.data[train.class_rows(j)]
        half = np.ptp(X / 2, axis=0).max()  # half the range, which cannot overflow
        if not half <= np.sqrt(np.finfo(float).max / len(X)) / 2:
            raise DataError(f"class {j}: squared deviations overflow float64")
        try:
            try:
                out.append(fast_mcd(X, cfg, rng=np.random.default_rng([cfg.seed, j])))
            except (InsufficientRows, SingularSubset):
                out.append(mrcd(X, cfg, rng=np.random.default_rng([cfg.seed, j])))
        except (DegenerateData, InsufficientRows, NumericalError) as exc:
            raise type(exc)(f"class {j}: {exc}") from exc
    return out
