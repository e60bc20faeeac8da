"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the code paths under test: subset
searches are exhaustive, integrals are quadrature on grids, moments come
from brute-force simulation, and partition scores enumerate candidates.
The sequential references are the one-at-a-time forms of the stacked
computations (atom draws, densities, C-steps), written with scipy's checked
wrappers, so the stacks can be held to their bits.  The plain numpy forms at
the end (fancy-index row gathers, numpy's own row sums, a stable argsort)
pin the faster idioms that replace them to the same bits.
"""

import itertools
import math

import numpy as np
from scipy.linalg import solve_triangular

from novelbayes.errors import NumericalError, SingularSubset
from novelbayes.postprocess import vi_score


# ---------------------------------------------------------------------------
# exhaustive subset searches
# ---------------------------------------------------------------------------

def exhaustive_mcd(X, h):
    """Minimum-determinant h-subset by full enumeration (tiny n only)."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    best_det, best_idx = None, None
    for idx in itertools.combinations(range(n), h):
        sub = X[list(idx)]
        cov = np.cov(sub.T, ddof=1).reshape(X.shape[1], X.shape[1])
        det = np.linalg.det(cov)
        if best_det is None or det < best_det:
            best_det, best_idx = det, np.asarray(idx)
    return best_idx, best_det


def exhaustive_mrcd(X, h, rho, c0, target):
    """Minimum regularized-determinant h-subset by full enumeration.

    Operates in the coordinates whitened by the target, mirroring the
    regularized objective exactly.
    """
    X = np.asarray(X, dtype=float)
    C = np.linalg.cholesky(target)
    Xw = np.linalg.solve(C, X.T).T
    p = X.shape[1]
    best_det, best_idx = None, None
    for idx in itertools.combinations(range(X.shape[0]), h):
        sub = Xw[list(idx)]
        cov = np.cov(sub.T, ddof=1).reshape(p, p)
        K = rho * np.eye(p) + (1 - rho) * c0 * cov
        det = np.linalg.det(K)
        if best_det is None or det < best_det:
            best_det, best_idx = det, np.asarray(idx)
    return best_idx, best_det


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def all_partitions(n):
    """Every set partition of {0..n-1} as a label vector (canonical labels)."""
    if n == 0:
        return [np.zeros(0, dtype=int)]
    out = []

    def grow(labels, next_label):
        i = len(labels)
        if i == n:
            out.append(np.asarray(labels, dtype=int))
            return
        for lab in range(1, next_label + 1):
            grow(labels + [lab], next_label)
        grow(labels + [next_label + 1], next_label + 1)

    grow([1], 1)
    return out


def pair_counting_ari(p1, p2):
    """Adjusted Rand index straight from the pair classification."""
    p1 = np.asarray(p1).ravel()
    p2 = np.asarray(p2).ravel()
    n = p1.size
    a = b = c = d = 0
    for i in range(n):
        for j in range(i + 1, n):
            s1 = p1[i] == p1[j]
            s2 = p2[i] == p2[j]
            if s1 and s2:
                a += 1
            elif s1 and not s2:
                b += 1
            elif s2 and not s1:
                c += 1
            else:
                d += 1
    denom = (a + b) * (b + d) + (a + c) * (c + d)
    if denom == 0:
        return 1.0
    return 2.0 * (a * d - b * c) / denom


def vi_lower_bound_slow(P, labels):
    """Expected-VI lower bound of a partition, written as plain loops."""
    n = len(labels)
    total = 0.0
    for m in range(n):
        same = sum(P[m][mp] for mp in range(n) if labels[mp] == labels[m])
        size = sum(1 for mp in range(n) if labels[mp] == labels[m])
        row = sum(P[m][mp] for mp in range(n))
        total += math.log2(size) + math.log2(row) - 2.0 * math.log2(same)
    return total


def best_partition_vi_slow(P, candidates):
    """Expected-VI search as one ``vi_score`` call per candidate; the first
    minimum wins.  ``vi_score`` is the public reference score."""
    scores = [vi_score(P, c) for c in candidates]
    return np.asarray(candidates[int(np.argmin(scores))], dtype=int)


def ppcm_slow(beta, units):
    """Coclustering matrix from pairwise counts over the retained scans.

    Entry (a, b) is the share of scans with both units in the novelty block
    (beta > 0) in which they share a label; 0 when there is no such scan.
    """
    beta = np.asarray(beta)[:, units].tolist()
    n = len(units)
    P = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            both = same = 0
            for row in beta:
                if row[a] > 0 and row[b] > 0:
                    both += 1
                    same += int(row[a] == row[b])
            P[a, b] = same / both if both else 0.0
        P[a, a] = 1.0
    return P


def candidates_slow(beta, units):
    """Visited partitions, clusters numbered by first appearance, first visit first.

    A unit in a known class (beta = 0) is a singleton of its own.
    """
    out = []
    for row in np.asarray(beta)[:, units]:
        number = {}
        part = [number.setdefault(("novel", int(c)) if c > 0 else ("known", m),
                                  len(number) + 1)
                for m, c in enumerate(row)]
        if part not in out:
            out.append(part)
    return [np.asarray(p, dtype=int) for p in out]


def classify_slow(alpha, partition, units):
    """Per-unit plurality vote; the lowest label wins ties, novel units get -cluster."""
    alpha = np.asarray(alpha)
    cluster = dict(zip(np.asarray(units).tolist(), np.asarray(partition).tolist()))
    labels = []
    for m in range(alpha.shape[1]):
        vote = int(np.argmax(np.bincount(alpha[:, m])))
        labels.append(vote if vote else -cluster.get(m, 0))
    return np.asarray(labels)


def random_ppcm(n, rng):
    """Symmetric matrix with unit diagonal and entries in [0, 1]."""
    R = rng.random((n, n))
    P = 0.5 * (R + R.T)
    np.fill_diagonal(P, 1.0)
    return P


# ---------------------------------------------------------------------------
# Monte-Carlo mixing-measure oracle
# ---------------------------------------------------------------------------

def mc_mixing_measure(a, gamma, mu, sigma, n_rep, rng):
    """Simulate paired draws (Theta_m, Theta_m') from the random measure.

    Components j >= 1 are N(mu[j], sigma[j]^2) atoms; index 0 is the
    nonparametric block with base measure N(mu[0], sigma[0]^2).  Only two
    draws per replicate are needed, so the infinite part reduces to the
    exact two-sample urn: the second novelty draw repeats the first with
    probability 1/(1+gamma).  Returns the two draw vectors plus the tie
    indicator.
    """
    a = np.asarray(a, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    Jp1 = a.size
    pis = rng.dirichlet(a, size=n_rep)
    atoms = rng.normal(mu, sigma, size=(n_rep, Jp1))  # column 0 = 1st novelty atom
    second_novel = rng.normal(mu[0], sigma[0], size=n_rep)
    repeat = rng.random(n_rep) < 1.0 / (1.0 + gamma)

    cum = np.cumsum(pis, axis=1)
    c1 = (rng.random(n_rep)[:, None] > cum).sum(axis=1)
    c2 = (rng.random(n_rep)[:, None] > cum).sum(axis=1)

    rows = np.arange(n_rep)
    th1 = atoms[rows, c1]
    th2 = atoms[rows, c2]
    both_novel = (c1 == 0) & (c2 == 0)
    th2 = np.where(both_novel & ~repeat, second_novel, th2)
    tie = (c1 == c2) & ((c1 > 0) | repeat)
    return th1, th2, tie


# ---------------------------------------------------------------------------
# grid-integration oracles for conjugate updates
# ---------------------------------------------------------------------------

def norm_logpdf(x, mean, var):
    return -0.5 * (np.log(2 * np.pi * var) + (x - mean) ** 2 / var)


def invgamma_logpdf(x, shape, scale):
    return shape * np.log(scale) - math.lgamma(shape) - (shape + 1) * np.log(x) - scale / x


def grid_posterior_1d(grid, log_prior, log_lik):
    """Renormalized prior x likelihood on a 1-D grid (density values)."""
    logp = log_prior + log_lik
    logp -= logp.max()
    dens = np.exp(logp)
    dens /= np.trapezoid(dens, grid)
    return dens


def niw_joint_logpdf(mu, s2, m, lam, nu, S):
    """p=1 normal-inverse-Wishart density: IG(nu/2, S/2) x N(m, s2/lam)."""
    return invgamma_logpdf(s2, nu / 2.0, S / 2.0) + norm_logpdf(mu, m, s2 / lam)


# ---------------------------------------------------------------------------
# sequential references of the stacked computations
# ---------------------------------------------------------------------------

def sample_niw_one(law, rng):
    """One NIW draw as (mean, cov), the Bartlett way, one law at a time:
    p scalar chi-square draws, the strict lower triangle, then the mean's
    noise."""
    p = law.dim
    A = np.zeros((p, p))
    for i in range(p):
        A[i, i] = math.sqrt(rng.chisquare(law.dof - i))
    if p > 1:
        A[np.tril_indices(p, -1)] = rng.standard_normal(p * (p - 1) // 2)
    C = np.linalg.cholesky(law.scale_matrix)
    M = solve_triangular(A, C.T, lower=True).T
    cov = M @ M.T
    cov = 0.5 * (cov + cov.T)
    mean = law.mean + (M @ rng.standard_normal(p)) / math.sqrt(law.precision_scale)
    return mean, cov


def gaussian_column(X, mean, cov):
    """log N(x; mean, cov) of every row of X, one column of densities."""
    L = np.linalg.cholesky(cov)
    Z = solve_triangular(L, (X - mean).T, lower=True)
    logdet = 2.0 * np.log(L.diagonal()).sum()
    return -0.5 * (X.shape[1] * math.log(2.0 * math.pi) + logdet + np.sum(Z * Z, axis=0))


def curve_column(Y, f, sigma2):
    """Sum over grid points of log N(y_m(t); f(t), sigma2(t)) for every
    curve, one curve atom at a time."""
    const = -0.5 * np.sum(np.log(2.0 * math.pi * sigma2))
    resid = Y - f
    return const - 0.5 * (resid ** 2) @ (1.0 / sigma2)


def staircase_to_dense(cells, u, xi):
    """The (M, L) matrix of a staircase of eligible cells, -inf elsewhere;
    column l's cells belong to its n_l units of smallest u, in u order."""
    order = np.argsort(u)
    n_rows = np.searchsorted(u[order], xi)
    dense = np.full((u.size, xi.size), -np.inf)
    pos = 0
    for l, n in enumerate(n_rows.tolist()):
        dense[order[:n], l] = cells[pos:pos + n]
        pos += n
    assert pos == len(cells)
    return dense


def dense_to_staircase(dense, u, xi):
    """The eligible cells of an (M, L) matrix as a staircase: column by
    column, the units with u_m < xi_l in increasing order of u."""
    order = np.argsort(u)
    return np.concatenate([dense[order[:n], l] for l, n in
                           enumerate(np.searchsorted(u[order], xi).tolist())])


def subset_moments_one(X, idx):
    sub = X[idx]
    mean = sub.mean(axis=0)
    dev = sub - mean
    return mean, dev.T @ dev / (len(idx) - 1)


def sq_mahalanobis_one(X, mean, cov):
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SingularSubset("subset covariance is singular") from exc
    Z = solve_triangular(L, (X - mean).T, lower=True)
    return np.sum(Z * Z, axis=0)


def slogdet_one(cov):
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0 or not np.isfinite(logdet):
        raise SingularSubset("subset covariance determinant is not positive")
    return float(logdet)


def elemental_start_one(X, h, perm):
    """The permutation's first p + 1 rows, grown while singular, expanded
    to the h rows nearest their moments."""
    n, p = X.shape
    size = p + 1
    while True:
        idx = np.sort(perm[:size])
        mean, cov = subset_moments_one(X, idx)
        try:
            dist = sq_mahalanobis_one(X, mean, cov)
            return np.sort(np.argsort(dist, kind="stable")[:h])
        except SingularSubset:
            size += 1
            if size > n:
                raise


def c_steps_one(X, idx, h, max_csteps, scatter, tol=1e-9):
    """Concentration steps from one start: (subset, mean, S, log det S,
    steps run), S = scatter(subset covariance)."""
    mean, cov = subset_moments_one(X, idx)
    S = scatter(cov)
    logdet = slogdet_one(S)
    steps = 0
    for _ in range(max_csteps):
        steps += 1
        dist = sq_mahalanobis_one(X, mean, S)
        new_idx = np.sort(np.argsort(dist, kind="stable")[:h])
        if np.array_equal(new_idx, idx):
            break
        new_mean, new_cov = subset_moments_one(X, new_idx)
        new_S = scatter(new_cov)
        new_logdet = slogdet_one(new_S)
        if new_logdet > logdet + tol * max(1.0, abs(logdet)):
            raise NumericalError("C-step determinant increased")
        converged = new_logdet >= logdet - tol * max(1.0, abs(logdet))
        idx, mean, S, logdet = new_idx, new_mean, new_S, new_logdet
        if converged:
            break
    return idx, mean, S, logdet, steps


# ---------------------------------------------------------------------------
# plain numpy forms of the fast Gaussian helpers
# ---------------------------------------------------------------------------

def block_distances_sum(D, factors, sizes):
    """Squared Mahalanobis norms of the rows of D, the k-th run of sizes[k]
    rows under the lower factor factors[k]: each run solved by scipy, and
    every norm numpy's own sum over its row of squares."""
    Z = np.array(D, dtype=float, order="C").T
    lo = 0
    for L, n in zip(factors, sizes):
        if n:
            Z[:, lo:lo + n] = solve_triangular(L, Z[:, lo:lo + n], lower=True)
        lo += n
    return np.multiply(Z, Z).sum(axis=0)


def smallest_h_argsort(dist, h):
    """The h smallest entries of each row, ties to the lowest index, as
    increasing indices: the first h of a stable argsort, sorted."""
    return np.sort(np.argsort(dist, axis=-1, kind="stable")[..., :h], axis=-1)


def subset_moments_fancy(X, idx):
    """Mean and covariance of the rows idx of X, or of each row of an (S, h)
    stack of subsets, with the rows gathered by fancy indexing."""
    dev = X[idx]
    mean = dev.mean(axis=-2)
    dev -= mean[..., None, :]
    return mean, np.swapaxes(dev, -1, -2) @ dev / (idx.shape[-1] - 1)
