"""Posterior post-processing: novelty probabilities, classification,
coclustering of the novelty block, partition selection, anomaly flags,
and the evaluation metrics used in the experiments.

Label convention for final assignments: known classes keep their 1..J ids;
units in the s-th estimated novelty cluster are labeled -s; a label of 0
marks a unit whose plurality vote is "novel" without being in the
partitioned subset (possible only when its novelty frequency is at or below
the threshold).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import LengthMismatch
from .sampler import ChainOutput

_BLOCK = 1024  # retained scans per block of the coclustering counts
_VI_BLOCK = 16  # candidates per GEMM of the VI screen; larger blocks raise the peak memory


@dataclass
class PosteriorSummary:
    """Everything one needs to report after a run.

    ``novelty_units`` indexes the units whose novelty frequency exceeded the
    threshold; ``ppcm``, ``best_partition`` and ``anomaly_flags`` are defined
    over those units in the same order.
    """

    ppn: np.ndarray
    labels: np.ndarray
    novelty_units: np.ndarray
    ppcm: np.ndarray
    best_partition: np.ndarray
    anomaly_flags: np.ndarray
    ppn_threshold: float
    min_size: int


def ppn(zeta_trace: np.ndarray, n_known: int) -> np.ndarray:
    """Posterior probability of being a novelty: frequency of zeta_m > J."""
    zeta_trace = np.asarray(zeta_trace)
    if zeta_trace.size == 0:
        raise ValueError("empty trace")
    return np.mean(zeta_trace > n_known, axis=0)


def classify(zeta_trace: np.ndarray, n_known: int, best_partition: np.ndarray,
             novelty_units: np.ndarray) -> np.ndarray:
    """Majority-vote labels; plurality-novel units get their cluster id.

    Votes go to 0 (novelty, zeta > J) or a class 1..J; ties go to the
    smallest label, so novelty beats any class.  Clusters get negative ids.
    """
    zeta_trace = np.asarray(zeta_trace)
    # one (J+1, M) count table; a flat bincount over zeta * M + m would need
    # an int64 copy of the whole trace
    votes = np.stack([np.count_nonzero(zeta_trace == j if j else zeta_trace > n_known, axis=0)
                      for j in range(n_known + 1)])
    labels = votes.argmax(axis=0)  # argmax takes the lowest label on ties
    cluster = np.zeros(labels.size, dtype=int)
    cluster[np.asarray(novelty_units, dtype=int)] = best_partition
    return np.where(labels == 0, -cluster, labels)


def coclustering(zeta_trace: np.ndarray, n_known: int, novelty_units: np.ndarray) -> np.ndarray:
    """Pairwise probability that two novelty units share a cluster.

    For each pair, only iterations where both units sit in the novelty block
    (zeta > J) count; a pair with no such iteration gets probability 0.
    """
    zeta_trace = np.asarray(zeta_trace)
    units = np.asarray(novelty_units, dtype=int)
    # Gram matrices of 0/1 indicators: the float32 counts are exact integers
    # below 2**24 retained scans
    num = np.zeros((units.size, units.size), dtype=np.float32)
    den = np.zeros_like(num)
    for lo in range(0, zeta_trace.shape[0], _BLOCK):
        b = zeta_trace[lo:lo + _BLOCK, units]
        novel = b > n_known
        active = novel.astype(np.float32)
        den += active.T @ active
        for k in np.unique(b[novel]):
            same = (b == k).astype(np.float32)
            num += same.T @ same
    num, den = num.astype(np.int64), den.astype(np.int64)
    P = np.where(den > 0, num / np.maximum(den, 1), 0.0)
    np.fill_diagonal(P, 1.0)
    return P


def candidate_partitions(zeta_trace: np.ndarray, n_known: int,
                         novelty_units: np.ndarray) -> list[np.ndarray]:
    """Distinct novelty partitions visited by the chain, up to relabeling.

    At iterations where a selected unit momentarily sits in a known class
    (zeta <= J) it forms its own singleton, so every candidate partitions the
    whole selected set.  Clusters are numbered 1, 2, ... by first appearance
    along the units, and candidates come in the order the chain first
    visited them.  Each candidate is a read-only int64 view of the bytes
    that deduplicate it, so the list holds every partition once.
    """
    units = np.asarray(novelty_units, dtype=int)
    singletons = -np.arange(units.size)  # distinct ids no novelty label takes
    seen = {}
    for row in np.asarray(zeta_trace):
        row = row[units]
        row = np.where(row > n_known, row, singletons)
        _, first, inverse = np.unique(row, return_index=True, return_inverse=True)
        rank = np.empty(first.size, dtype=int)
        rank[np.argsort(first)] = np.arange(1, first.size + 1)
        seen.setdefault(rank[inverse].tobytes())
    return [np.frombuffer(key, dtype=int) for key in seen]


def vi_score(ppcm: np.ndarray, partition: np.ndarray) -> float:
    """Posterior-expected variation-of-information lower bound of a partition.

    score = sum_m [ log2 n_{c(m)} + log2 sum_m' p_{m m'}
                    - 2 log2 sum_{m' in c(m)} p_{m m'} ].
    Zero for a partition that exactly matches a 0/1 block PPCM.  A row of
    the PPCM that sums to zero leaves the score undefined: ValueError.
    """
    P = np.asarray(ppcm, dtype=float)
    c = np.asarray(partition)
    row_tot = P.sum(axis=1)
    zero = np.flatnonzero(row_tot == 0)
    if zero.size:
        raise ValueError(f"PPCM row {zero[0]} sums to zero; the expected VI is undefined")
    same = c[:, None] == c[None, :]
    size = same.sum(axis=1)
    within = np.sum(P * same, axis=1)
    return float(np.sum(np.log2(size) + np.log2(row_tot) - 2.0 * np.log2(within)))


def _screen_vi(P: np.ndarray, candidates: Sequence[np.ndarray]) -> np.ndarray:
    """``vi_score`` of every candidate up to rounding, one GEMM per block.

    Each block's clusters get their own columns of a 0/1 membership matrix
    H (units x clusters of the block), so ``P @ H`` holds every unit's
    within-cluster sum.  Sorting each candidate's labels numbers its
    clusters, so any integer labels work.
    """
    n = P.shape[0]
    row_term = np.sum(np.log2(P.sum(axis=1)))
    screen = np.empty(len(candidates))
    for lo in range(0, len(candidates), _VI_BLOCK):
        labels = np.stack(candidates[lo:lo + _VI_BLOCK])
        order = np.argsort(labels, axis=1)
        ordered = np.take_along_axis(labels, order, axis=1)
        starts = np.ones(ordered.shape, dtype=bool)
        starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        col = np.empty(ordered.shape, dtype=int)
        np.put_along_axis(col, order, np.cumsum(starts).reshape(starts.shape) - 1, axis=1)
        H = np.zeros((n, int(starts.sum())))
        H[np.arange(n), col] = 1.0
        within = (P @ H)[np.arange(n), col]
        size = H.sum(axis=0)[col]
        screen[lo:lo + labels.shape[0]] = (
            np.sum(np.log2(size) - 2.0 * np.log2(within), axis=1) + row_term)
    return screen


def best_partition_vi(ppcm: np.ndarray, candidates: Sequence[np.ndarray]) -> np.ndarray:
    """Candidate minimizing the expected-VI score; first wins on ties.

    Exact two-pass search: the result of scoring every candidate with
    ``vi_score``.  ``_screen_vi`` scores all candidates in blocks of
    ``_VI_BLOCK``; ``vi_score`` then re-scores those whose screened score
    is within ``tol`` of the screened minimum, and the first exact minimum
    in candidate order wins.

    Exactness: let s_i be ``vi_score`` and t_i the screened score, with
    |t_i - s_i| <= eps.  An exact minimizer i* has t_i* <= s_i* + eps <=
    s_j + eps <= t_j + 2 eps for every j, so tol >= 2 eps keeps it.  Both
    passes add the same nonnegative entries of P in different orders and
    take the same logarithms, so the standard rounding bounds give
    eps <= 16 u n (n + Lambda) for unit roundoff u, n units and
    Lambda = sum_m [log2 n + |log2 r_m| + 2 max(|log2 d_m|, |log2 r_m|)],
    where the row sum r_m and the diagonal entry d_m of P bound every
    within-cluster sum of unit m.  tol is the larger of
    1e-9 max(1, |min t|) and twice that bound.  On the resummarize
    benchmark traces (n = 300) the measured eps is below 6e-13.  With a
    negative entry in P or a screened score that is not finite the bound
    does not hold, and every candidate is re-scored; a PPCM row that sums
    to zero makes ``vi_score`` raise ValueError there.
    """
    if len(candidates) == 0:
        raise ValueError("no candidate partitions supplied")
    P = np.asarray(ppcm, dtype=float)
    near = np.arange(len(candidates))
    if len(candidates) > 1 and np.all(P >= 0):
        with np.errstate(divide="ignore", invalid="ignore"):
            screen = _screen_vi(P, candidates)
            log_row = np.abs(np.log2(P.sum(axis=1)))
            log_within_max = np.maximum(np.abs(np.log2(np.diag(P))), log_row)
        if np.all(np.isfinite(screen)):
            n = P.shape[0]
            lam = np.sum(np.log2(max(n, 1)) + log_row + 2.0 * log_within_max)
            low = screen.min()
            # finfo.eps is 2u, so the second term is twice the rounding bound
            tol = max(1e-9 * max(1.0, abs(low)),
                      16 * np.finfo(float).eps * n * (n + lam))
            near = np.flatnonzero(screen <= low + tol)
    scores = [vi_score(P, candidates[i]) for i in near]
    return np.array(candidates[near[int(np.argmin(scores))]], dtype=int)


def flag_anomalies(partition: np.ndarray, min_size: int) -> np.ndarray:
    """True for units in novelty clusters smaller than ``min_size``."""
    _, inverse, counts = np.unique(partition, return_inverse=True, return_counts=True)
    return counts[inverse] < min_size


def default_min_size(n_units: int) -> int:
    return max(5, int(np.ceil(0.01 * n_units)))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _check_lengths(a, b):
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.size != b.size:
        raise LengthMismatch(f"length {a.size} vs {b.size}")
    return a, b


def ari(p1, p2) -> float:
    """Adjusted Rand index between two partitions (pair-counting form)."""
    p1, p2 = _check_lengths(p1, p2)
    n = p1.size
    if n < 2:
        return 1.0
    _, r = np.unique(p1, return_inverse=True)
    _, c = np.unique(p2, return_inverse=True)
    table = np.zeros((r.max() + 1, c.max() + 1), dtype=np.int64)
    np.add.at(table, (r, c), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_i = comb2(table.sum(axis=1)).sum()
    sum_j = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_i * sum_j / total
    max_index = 0.5 * (sum_i + sum_j)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def novelty_precision(labels, truth, known_labels) -> float:
    """Fraction of units flagged as novel whose true class is unobserved."""
    labels, truth = _check_lengths(labels, truth)
    predicted_novel = labels <= 0
    if not predicted_novel.any():
        return float("nan")
    truly_novel = ~np.isin(truth, known_labels)
    return float(np.mean(truly_novel[predicted_novel]))


def known_accuracy(labels, truth, known_labels) -> float:
    """Accuracy restricted to units whose true class was observed in training."""
    labels, truth = _check_lengths(labels, truth)
    mask = np.isin(truth, known_labels)
    if not mask.any():
        return float("nan")
    return float(np.mean(labels[mask] == truth[mask]))


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def summarize(output: ChainOutput, ppn_threshold: float = 0.5,
              min_size: Optional[int] = None) -> PosteriorSummary:
    """Turn chain traces into decisions.

    Units with novelty frequency above ``ppn_threshold`` enter the
    coclustering stage; the best partition among those visited by the chain
    is selected by expected-VI, small clusters are flagged as anomalies, and
    every unit receives a final label.
    """
    zeta, J = output.zeta_trace, output.n_known
    probs = ppn(zeta, J)
    units = np.flatnonzero(probs > ppn_threshold)
    if min_size is None:
        min_size = default_min_size(output.n_units)

    if units.size:
        P = coclustering(zeta, J, units)
        part = best_partition_vi(P, candidate_partitions(zeta, J, units))
        flags = flag_anomalies(part, min_size)
    else:
        P = np.zeros((0, 0))
        part = np.zeros(0, dtype=int)
        flags = np.zeros(0, dtype=bool)

    labels = classify(zeta, J, part, units)
    return PosteriorSummary(
        ppn=probs, labels=labels, novelty_units=units, ppcm=P,
        best_partition=part, anomaly_flags=flags,
        ppn_threshold=ppn_threshold, min_size=min_size)
