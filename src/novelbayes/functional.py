"""Novelty detection for curves: B-spline smoothing, robust functional
priors, and a Gibbs sampler whose atoms are (mean curve, pointwise noise)
pairs.

Known classes carry an informative prior built from the training set
(mean curve from robust spline coefficients, noise curve from the untrimmed
residuals); the novelty base measure is hierarchical over spline
coefficients with independent inverse-gamma noise at every grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, GridMismatch, InvalidKnots, RankDeficientBasis
from .model import ChainSettings, _checked_rows, _chol, _cho_solve, _solve_triangular
from .robust import LabeledDataset, McdConfig, extract_class_priors
from .sampler import ChainOutput, Staircase, _run_gibbs

_NOISE_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

@dataclass
class CurveSet:
    """Curves evaluated on a common strictly increasing grid.  Class labels,
    when given, follow the rule of :class:`LabeledDataset`: classes 1..J,
    each with at least two curves."""

    grid: np.ndarray
    values: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float).ravel()
        self.values = _checked_rows(self.values, "curves contain non-finite values")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if self.values.shape[1] != self.grid.size:
            raise DimensionMismatch("values must have one column per grid point")
        if self.labels is not None:
            self.labels = LabeledDataset(self.values, self.labels).labels


@dataclass(frozen=True)
class BasisSpec:
    """Uniform clamped B-spline basis: ``n_basis`` functions of ``order``
    (order = degree + 1) with equally spaced interior knots over the grid."""

    n_basis: int = 100
    order: int = 5

    def __post_init__(self):
        if self.order < 1:
            raise InvalidKnots("spline order must be >= 1")
        if self.n_basis < self.order:
            raise InvalidKnots("need at least `order` basis functions")

    def knot_vector(self, lo: float, hi: float) -> np.ndarray:
        if not hi > lo:
            raise InvalidKnots("grid range is degenerate")
        n_interior = self.n_basis - self.order
        interior = lo + (hi - lo) * np.arange(1, n_interior + 1) / (n_interior + 1)
        return np.concatenate([np.full(self.order, lo), interior, np.full(self.order, hi)])


@dataclass
class FunctionalKnownPrior:
    """Training-derived prior for one observed class: its mean curve and its
    pointwise noise curve sbar^2(t) on the training grid."""

    grid: np.ndarray
    mean_curve: np.ndarray
    noise_curve: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float).ravel()
        self.mean_curve = np.asarray(self.mean_curve, dtype=float).ravel()
        self.noise_curve = np.asarray(self.noise_curve, dtype=float).ravel()
        if not (self.grid.size == self.mean_curve.size == self.noise_curve.size):
            raise DimensionMismatch("curves must share the grid length")
        if np.any(self.noise_curve <= 0):
            raise ValueError("noise curve must be positive everywhere")

    def noise_ig_params(self, v: float):
        """IG(2 + sbar^4/v, sbar^2 (1 + sbar^4/v)) at each t: the noise prior
        with mean sbar^2(t) and variance v > 0 exactly."""
        if v <= 0:
            raise ValueError("IG parameterization requires v > 0")
        ratio = self.noise_curve ** 2 / v
        return 2.0 + ratio, self.noise_curve * (1.0 + ratio)


@dataclass
class FunctionalNovelAtom:
    """One novelty component: spline coefficients with their hierarchy and a
    pointwise noise curve.  ``curve`` is the fitted mean curve Phi @ rho on
    the grid, kept so the chain computes it once per atom."""

    rho: np.ndarray
    psi: float
    tau2: float
    sigma2: np.ndarray
    curve: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        return {"rho": self.rho.tolist(), "psi": float(self.psi),
                "tau2": float(self.tau2), "sigma2": self.sigma2.tolist()}


@dataclass(kw_only=True)
class FunctionalHyper(ChainSettings):
    """Settings of the functional chain: the hierarchy of the novelty
    coefficients (IG(a_tau, b_tau) variance, N(0, s2) level), the IG(a_H,
    b_H) pointwise noise of novelty atoms, and the spline basis.

    ``phi`` is the pointwise prior variance of a known class's mean curve
    around its training estimate and ``v`` the prior variance of its noise
    level; phi = v = 0 freezes every known atom at the training estimates
    (inductive mode), and otherwise a zero keeps that quantity frozen.
    """

    phi: float = 0.0
    v: float = 0.0
    a_tau: float = 3.0
    b_tau: float = 1.0
    s2: float = 1.0
    a_H: float = 5.0
    b_H: float = 1.0
    basis: BasisSpec = field(default_factory=BasisSpec)

    def __post_init__(self):
        super().__post_init__()
        for name in ("a_tau", "b_tau", "s2", "a_H", "b_H"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if min(self.phi, self.v) < 0:
            raise ValueError("phi and v must be non-negative")


# ---------------------------------------------------------------------------
# basis and smoothing
# ---------------------------------------------------------------------------

def bspline_basis(spec: BasisSpec, grid: np.ndarray) -> np.ndarray:
    """Evaluate the basis at the grid via the Cox-de Boor recursion.

    Returns a (T, B) matrix with non-negative entries whose rows sum to one
    everywhere on the closed grid range (clamped end knots).
    """
    t = np.asarray(grid, dtype=float).ravel()
    knots = spec.knot_vector(t.min(), t.max())
    n_int = knots.size - 1

    N = np.zeros((t.size, n_int))
    for i in range(n_int):
        if knots[i] < knots[i + 1]:
            N[:, i] = (t >= knots[i]) & (t < knots[i + 1])
    # close the right end: the last non-empty interval absorbs t == t_max
    last = np.flatnonzero(np.diff(knots) > 0)[-1]
    N[t == knots[-1], last] = 1.0

    for order in range(2, spec.order + 1):
        cols = n_int - order + 1
        new = np.zeros((t.size, cols))
        for i in range(cols):
            left_den = knots[i + order - 1] - knots[i]
            right_den = knots[i + order] - knots[i + 1]
            acc = np.zeros(t.size)
            if left_den > 0:
                acc += (t - knots[i]) / left_den * N[:, i]
            if right_den > 0:
                acc += (knots[i + order] - t) / right_den * N[:, i + 1]
            new[:, i] = acc
        N = new
    return N


def smooth_curves(curves: CurveSet, spec: BasisSpec,
                  Phi: Optional[np.ndarray] = None) -> np.ndarray:
    """Least-squares spline coefficients, one row per curve.

    When the number of bases approaches the number of grid points the
    collocation matrix can carry a small structural null space at the
    boundaries; the minimum-norm solution is used, which leaves fitted
    values on the grid unaffected.  A basis function with no support on the
    grid at all means the specification cannot represent anything there.
    ``Phi`` is the basis at the grid when the caller has already built it.
    """
    if curves.grid.size < spec.n_basis:
        raise RankDeficientBasis("fewer grid points than basis functions")
    if Phi is None:
        Phi = bspline_basis(spec, curves.grid)
    if np.any(np.max(np.abs(Phi), axis=0) == 0.0):
        raise RankDeficientBasis("a basis function has no support on the grid")
    coef, _, _, _ = np.linalg.lstsq(Phi, curves.values.T, rcond=None)
    return coef.T


def extract_functional_priors(train: CurveSet, spec: BasisSpec,
                              cfg: McdConfig) -> list[FunctionalKnownPrior]:
    """Robust per-class mean and noise curves from labeled training curves.

    Spline coefficients are treated as multivariate observations and go
    through the class-wise Stage-I dispatch of :func:`extract_class_priors`;
    the robust location of each class gives the mean curve, and the noise
    curve is the untrimmed residual curve averaged with denominator n_j - 1.
    """
    if train.labels is None:
        raise ValueError("training curves must carry class labels")
    Phi = bspline_basis(spec, train.grid)
    coefs = smooth_curves(train, spec, Phi=Phi)
    summaries = extract_class_priors(LabeledDataset(coefs, train.labels), cfg)
    priors = []
    for j, summ in enumerate(summaries, start=1):
        rows = np.flatnonzero(train.labels == j)
        mean_curve = Phi @ summ.mean
        resid = train.values[rows[summ.untrimmed]] - mean_curve
        noise = np.maximum(np.sum(resid ** 2, axis=0) / (rows.size - 1), _NOISE_FLOOR)
        priors.append(FunctionalKnownPrior(train.grid, mean_curve, noise))
    return priors


# ---------------------------------------------------------------------------
# full conditionals (exposed for oracle testing)
# ---------------------------------------------------------------------------

def coef_conditional(y_sum: np.ndarray, n: int, Phi: np.ndarray,
                     sigma2: np.ndarray, psi: float, tau2: float):
    """Gaussian full conditional of a novelty coefficient vector.

    Returns (mean, chol_precision); a draw is mean + solve(L^T, z).
    """
    B = Phi.shape[1]
    D = 1.0 / sigma2
    prec = np.eye(B) / tau2 + n * (Phi.T * D) @ Phi
    lin = np.full(B, psi / tau2) + Phi.T @ (D * y_sum)
    L = _chol(prec)
    mean = _cho_solve(L, lin)
    return mean, L


def psi_conditional(rho: np.ndarray, tau2: float, s2: float):
    """Normal full conditional of the coefficient-level mean."""
    B = rho.size
    var = 1.0 / (1.0 / s2 + B / tau2)
    return var * rho.sum() / tau2, var


def tau2_conditional(rho: np.ndarray, psi: float, a_tau: float, b_tau: float):
    """IG(shape, scale) full conditional of the coefficient variance."""
    return a_tau + rho.size / 2.0, b_tau + 0.5 * np.sum((rho - psi) ** 2)


def sigma2_conditional(sq_resid: np.ndarray, n: int, a: float, b) -> tuple:
    """Pointwise IG(shape, scale) full conditional of a noise curve."""
    return a + n / 2.0, b + 0.5 * sq_resid


def known_mean_conditional(prior_mean: np.ndarray, phi: float,
                           y_sum: np.ndarray, n: int, sigma2: np.ndarray):
    """Pointwise normal full conditional of a known-class mean curve."""
    var = 1.0 / (1.0 / phi + n / sigma2)
    return var * (prior_mean / phi + y_sum / sigma2), var


def _sample_ig(rng, shape, scale):
    return scale / rng.gamma(shape, 1.0, size=np.shape(scale) or None)


# ---------------------------------------------------------------------------
# curve atoms and the functional chain
# ---------------------------------------------------------------------------

def _curve_loglik(Y: np.ndarray, F, S) -> np.ndarray:
    """Sum over grid points of log N(y_m(t); f_k(t), s_k(t)) for every curve m
    and every row k of the stacked curves F and S, as a (K, M) stack.  Row k
    is one gemv on the full (M, T) block, in a buffer of the data's memory
    order (another order switches the BLAS kernel): the bits of a K = 1 call."""
    S = np.reshape(S, (-1, Y.shape[1]))
    const = -0.5 * np.log(2.0 * math.pi * S).sum(axis=1)
    out, resid = np.empty((S.shape[0], Y.shape[0])), np.empty_like(Y)
    for f, w, row in zip(np.reshape(F, S.shape), 1.0 / S, out):
        np.matmul(np.square(np.subtract(Y, f, out=resid), out=resid), w, out=row)
    return np.add(const[:, None], np.multiply(out, -0.5, out=out), out=out)


def _prior_novel_atom(rng, hyper: FunctionalHyper, Phi: np.ndarray) -> FunctionalNovelAtom:
    T, B = Phi.shape
    tau2 = hyper.b_tau / rng.gamma(hyper.a_tau)
    psi = rng.normal(0.0, math.sqrt(hyper.s2))
    rho = rng.normal(psi, math.sqrt(tau2), size=B)
    sigma2 = hyper.b_H / rng.gamma(hyper.a_H, 1.0, size=T)
    return FunctionalNovelAtom(rho=rho, psi=psi, tau2=tau2, sigma2=sigma2, curve=Phi @ rho)


class CurveFamily:
    """Curve atoms for the shared Gibbs driver.

    A known atom is a (mean curve, noise curve) pair: with ``hyper.phi > 0``
    the mean is drawn given the previous noise curve, with ``hyper.v > 0``
    the noise is drawn given the new mean, and each stays at its training
    estimate otherwise.
    A novelty atom is a :class:`FunctionalNovelAtom`; an occupied slot
    updates its coefficients given the previous hierarchy and noise (a slot
    without one first draws it from the prior), an empty slot is a fresh
    prior draw.  Frozen known atoms (phi = v = 0) have their log-likelihood
    columns computed once per fit, every other column in one stacked pass.
    """

    def __init__(self, test: CurveSet, priors: list, hyper: FunctionalHyper):
        self.data = test.values
        self.priors = priors
        self.hyper = hyper
        self.Phi = bspline_basis(hyper.basis, test.grid)
        self.frozen = hyper.phi == hyper.v == 0
        frozen = priors if self.frozen else []
        self.frozen_cols = _curve_loglik(self.data, [pr.mean_curve for pr in frozen],
                                         [pr.noise_curve for pr in frozen])

    def initial_known(self) -> list:
        return [(pr.mean_curve.copy(), pr.noise_curve.copy()) for pr in self.priors]

    def start_distances(self):
        # pointwise-standardized squared residual, one degree per grid point
        d2 = np.column_stack([((self.data - pr.mean_curve) ** 2 / pr.noise_curve).sum(axis=1)
                              for pr in self.priors])
        return d2, self.data.shape[1]

    def draw_known(self, j: int, members: np.ndarray, prev, rng):
        pr, phi, v = self.priors[j], self.hyper.phi, self.hyper.v
        Y = self.data[members]
        f, s2 = pr.mean_curve, pr.noise_curve
        if phi > 0:
            mean, var = known_mean_conditional(pr.mean_curve, phi, Y.sum(axis=0),
                                               members.size, prev[1])
            f = mean + np.sqrt(var) * rng.standard_normal(f.size)
        if v > 0:
            s2 = _sample_ig(rng, *sigma2_conditional(np.sum((Y - f) ** 2, axis=0), members.size,
                                                     *pr.noise_ig_params(v)))
        return f, s2

    def draw_novel(self, members: np.ndarray, prev, rng) -> FunctionalNovelAtom:
        hyper, Phi = self.hyper, self.Phi
        n = members.size
        if n == 0:
            return _prior_novel_atom(rng, hyper, Phi)
        if prev is None:
            prev = _prior_novel_atom(rng, hyper, Phi)
        Y = self.data[members]
        mean, Lp = coef_conditional(Y.sum(axis=0), n, Phi, prev.sigma2, prev.psi, prev.tau2)
        rho = mean + _solve_triangular(Lp.T, rng.standard_normal(Phi.shape[1]), lower=False)
        m_psi, v_psi = psi_conditional(rho, prev.tau2, hyper.s2)
        psi = float(rng.normal(m_psi, math.sqrt(v_psi)))
        tau2 = float(_sample_ig(rng, *tau2_conditional(rho, psi, hyper.a_tau, hyper.b_tau)))
        curve = Phi @ rho
        sq = np.sum((Y - curve) ** 2, axis=0)
        sigma2 = _sample_ig(rng, *sigma2_conditional(sq, n, hyper.a_H, hyper.b_H))
        return FunctionalNovelAtom(rho=rho, psi=psi, tau2=tau2, sigma2=sigma2, curve=curve)

    def draw_atoms(self, order, counts, known: list, novel: list, moved: list, rng) -> tuple:
        J = len(known)
        members = [order[hi - n:hi] for hi, n in zip(np.cumsum(counts).tolist(), counts.tolist())]
        return ([self.draw_known(j, rows, atom, rng)
                 for j, (rows, atom) in enumerate(zip(members[:J], known))],
                [self.draw_novel(rows, novel[moved[h]] if h < len(moved) else None, rng)
                 for h, rows in enumerate(members[J:])])

    def loglik(self, known: list, novel: list, stair: Staircase) -> np.ndarray:
        """The frozen columns and one stacked pass over the others, then the
        eligible cells in staircase order.  A row subset of the ``resid**2 @
        (1/sigma2)`` product is not bit-identical to those rows of the full
        product (the BLAS blocks the rows), so every column is computed in full."""
        live = ([] if self.frozen else known) + [(at.curve, at.sigma2) for at in novel]
        rows = np.concatenate([self.frozen_cols, _curve_loglik(
            self.data, [f for f, _ in live], [s2 for _, s2 in live])])
        return rows[stair.col, stair.unit]

    def snapshot(self, known: list, novel: list) -> dict:
        return {"known": [{"mean_curve": f.tolist()} for f, _ in known],
                "novel": [at.to_dict() for at in novel]}


def run_functional_chain(test: CurveSet, priors: list, hyper: FunctionalHyper,
                         record_atoms: bool = False) -> ChainOutput:
    """Gibbs sampler for curves: the shared driver of
    :mod:`novelbayes.sampler` with :class:`CurveFamily` atoms.

    Known atoms follow their training priors (frozen when ``hyper.phi``
    resp. ``hyper.v`` is 0); novelty atoms update coefficients, their
    hierarchy, and the pointwise noise by conjugacy.  Curves start at their
    closest known class unless their standardized residual exceeds the 99.9%
    chi-square quantile with one degree per grid point.  Deterministic given
    ``hyper.seed``.
    """
    if len(priors) != hyper.n_known:
        raise DimensionMismatch("number of priors must equal n_known")
    for pr in priors:
        if pr.grid.size != test.grid.size or not np.allclose(pr.grid, test.grid):
            raise GridMismatch("test grid differs from the training grid")
    return _run_gibbs(CurveFamily(test, priors, hyper), hyper, record_atoms,
                      model="functional")
