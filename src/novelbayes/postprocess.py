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


def ppn(alpha_trace: np.ndarray) -> np.ndarray:
    """Posterior probability of being a novelty: frequency of alpha_m = 0."""
    alpha_trace = np.asarray(alpha_trace)
    if alpha_trace.size == 0:
        raise ValueError("empty trace")
    return np.mean(alpha_trace == 0, axis=0)


def classify(alpha_trace: np.ndarray, best_partition: np.ndarray,
             novelty_units: np.ndarray) -> np.ndarray:
    """Majority-vote labels; plurality-novel units get their cluster id.

    Ties in the vote go to the smallest label value, so 0 (novelty) beats
    any known class.  Novelty clusters are reported as negative ids.
    """
    alpha_trace = np.asarray(alpha_trace)
    I, M = alpha_trace.shape
    labels = np.empty(M, dtype=int)
    for m in range(M):
        counts = np.bincount(alpha_trace[:, m])
        labels[m] = int(np.argmax(counts))  # argmax takes the lowest index on ties
    cluster_of = dict(zip(np.asarray(novelty_units).tolist(),
                          np.asarray(best_partition).tolist()))
    for m in np.flatnonzero(labels == 0):
        labels[m] = -cluster_of.get(m, 0)
    return labels


def coclustering(beta_trace: np.ndarray, novelty_units: np.ndarray) -> np.ndarray:
    """Pairwise probability that two novelty units share a cluster.

    For each pair, only iterations where both units sit in the novelty block
    (beta > 0) count; a pair with no such iteration gets probability 0.
    """
    beta = np.asarray(beta_trace)[:, np.asarray(novelty_units, dtype=int)]
    I, Mn = beta.shape
    num = np.zeros((Mn, Mn), dtype=np.int64)
    den = np.zeros((Mn, Mn), dtype=np.int64)
    # accumulate in iteration blocks to bound the temporary (I x Mn x Mn) cube
    block = max(1, int(2e7 / max(Mn * Mn, 1)))
    for lo in range(0, I, block):
        b = beta[lo:lo + block]
        act = b > 0
        both = act[:, :, None] & act[:, None, :]
        num += np.sum((b[:, :, None] == b[:, None, :]) & both, axis=0)
        den += np.sum(both, axis=0)
    P = np.where(den > 0, num / np.maximum(den, 1), 0.0)
    np.fill_diagonal(P, 1.0)
    return P


def _canonical(partition: np.ndarray) -> tuple:
    """Relabel clusters by first appearance so label permutations collapse."""
    mapping = {}
    out = []
    for c in partition:
        if c not in mapping:
            mapping[c] = len(mapping) + 1
        out.append(mapping[c])
    return tuple(out)


def candidate_partitions(beta_trace: np.ndarray, novelty_units: np.ndarray) -> list[np.ndarray]:
    """Distinct novelty partitions visited by the chain, up to relabeling.

    At iterations where a selected unit momentarily sits in a known class
    (beta = 0) it forms its own singleton, so every candidate partitions the
    whole selected set.
    """
    beta = np.asarray(beta_trace)[:, np.asarray(novelty_units, dtype=int)]
    seen = {}
    singleton_base = int(beta.max()) + 1
    for row in beta:
        row = row.astype(int).copy()
        zero = row == 0
        if zero.any():
            row[zero] = singleton_base + np.arange(np.sum(zero))
        key = _canonical(row)
        if key not in seen:
            seen[key] = np.asarray(key, dtype=int)
    return list(seen.values())


def vi_score(ppcm: np.ndarray, partition: np.ndarray) -> float:
    """Posterior-expected variation-of-information lower bound of a partition.

    score = sum_m [ log2 n_{c(m)} + log2 sum_m' p_{m m'}
                    - 2 log2 sum_{m' in c(m)} p_{m m'} ].
    Zero for a partition that exactly matches a 0/1 block PPCM.
    """
    P = np.asarray(ppcm, dtype=float)
    c = np.asarray(partition)
    row_tot = P.sum(axis=1)
    same = c[:, None] == c[None, :]
    size = same.sum(axis=1)
    within = np.sum(P * same, axis=1)
    return float(np.sum(np.log2(size) + np.log2(row_tot) - 2.0 * np.log2(within)))


def best_partition_vi(ppcm: np.ndarray, candidates: Sequence[np.ndarray]) -> np.ndarray:
    """Candidate minimizing the expected-VI score; first wins on ties."""
    if len(candidates) == 0:
        raise ValueError("no candidate partitions supplied")
    scores = [vi_score(ppcm, c) for c in candidates]
    return np.asarray(candidates[int(np.argmin(scores))], dtype=int)


def flag_anomalies(partition: np.ndarray, min_size: int) -> np.ndarray:
    """True for units in novelty clusters smaller than ``min_size``."""
    partition = np.asarray(partition)
    if partition.size == 0:
        return np.zeros(0, dtype=bool)
    ids, counts = np.unique(partition, return_counts=True)
    small = {int(i) for i, c in zip(ids, counts) if c < min_size}
    return np.asarray([int(c) in small for c in partition])


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
    known = set(int(k) for k in known_labels)
    predicted_novel = labels <= 0
    if not predicted_novel.any():
        return float("nan")
    truly_novel = np.asarray([int(t) not in known for t in truth])
    return float(np.mean(truly_novel[predicted_novel]))


def known_accuracy(labels, truth, known_labels) -> float:
    """Accuracy restricted to units whose true class was observed in training."""
    labels, truth = _check_lengths(labels, truth)
    known = set(int(k) for k in known_labels)
    mask = np.asarray([int(t) in known for t in truth])
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
    probs = ppn(output.alpha_trace)
    units = np.flatnonzero(probs > ppn_threshold)
    if min_size is None:
        min_size = default_min_size(output.n_units)

    if units.size:
        P = coclustering(output.beta_trace, units)
        cands = candidate_partitions(output.beta_trace, units)
        part = best_partition_vi(P, cands)
        flags = flag_anomalies(part, min_size)
    else:
        P = np.zeros((0, 0))
        part = np.zeros(0, dtype=int)
        flags = np.zeros(0, dtype=bool)

    labels = classify(output.alpha_trace, part, units)
    return PosteriorSummary(
        ppn=probs, labels=labels, novelty_units=units, ppcm=P,
        best_partition=part, anomaly_flags=flags,
        ppn_threshold=ppn_threshold, min_size=min_size)
