import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novelbayes.errors import LengthMismatch
from novelbayes.postprocess import (
    _BLOCK,
    _VI_BLOCK,
    ari,
    best_partition_vi,
    candidate_partitions,
    classify,
    coclustering,
    default_min_size,
    flag_anomalies,
    known_accuracy,
    novelty_precision,
    ppn,
    summarize,
    vi_score,
)
from novelbayes.sampler import ChainOutput

import oracles

J = 3  # known classes of the traces below


def _zeta(alpha, beta):
    """Membership trace of an (alpha, beta) pair: class alpha, or J + beta."""
    return np.where(np.asarray(beta) > 0, np.asarray(beta) + J, alpha)


def _from_alpha(alpha):
    """Membership trace with class alpha, and novelty cluster 1 where alpha = 0."""
    alpha = np.asarray(alpha)
    return np.where(alpha > 0, alpha, J + 1)


def _from_beta(beta):
    """Membership trace with novelty cluster beta, and class 1 where beta = 0."""
    return _zeta(1, beta)


class TestPpn:
    def test_always_novel(self):
        assert ppn(_from_alpha(np.zeros((7, 3), dtype=int)), J)[0] == 1.0

    def test_direct_count(self):
        trace = _from_alpha([[0], [1], [0], [2]])
        assert ppn(trace, J)[0] == 0.5

    def test_range(self):
        rng = np.random.default_rng(0)
        trace = _from_alpha(rng.integers(0, 3, size=(50, 20)))
        p = ppn(trace, J)
        assert np.all((p >= 0) & (p <= 1))


class TestClassify:
    def test_majority(self):
        trace = _from_alpha([[1], [1], [1], [2]])
        labels = classify(trace, J, np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        assert labels[0] == 1

    def test_tie_goes_to_smaller_label(self):
        trace = _from_alpha([[1], [2], [2], [1]])
        labels = classify(trace, J, np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        assert labels[0] == 1

    def test_novel_units_get_cluster_ids(self):
        trace = _from_alpha([[0, 1], [0, 1], [2, 1]])
        labels = classify(trace, J, np.array([4]), np.array([0]))
        assert labels[0] == -4
        assert labels[1] == 1

    def test_iteration_order_irrelevant(self):
        rng = np.random.default_rng(1)
        trace = _from_alpha(rng.integers(0, 4, size=(30, 8)))
        l1 = classify(trace, J, np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        l2 = classify(trace[::-1], J, np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        assert np.array_equal(l1, l2)


class TestCoclustering:
    def test_identical_traces(self):
        beta = np.tile([1, 1], (6, 1))
        P = coclustering(_from_beta(beta), J, np.array([0, 1]))
        assert P[0, 1] == 1.0

    def test_direct_count(self):
        beta = np.array([[1, 1], [1, 2], [2, 2], [2, 1]])
        P = coclustering(_from_beta(beta), J, np.array([0, 1]))
        assert P[0, 1] == 0.5

    def test_known_iterations_excluded(self):
        # iterations where either unit sits in a known class do not count
        beta = np.array([[1, 0], [1, 1], [0, 1], [2, 2]])
        P = coclustering(_from_beta(beta), J, np.array([0, 1]))
        assert P[0, 1] == 1.0

    def test_no_shared_iterations_gives_zero(self):
        beta = np.array([[1, 0], [0, 1]])
        P = coclustering(_from_beta(beta), J, np.array([0, 1]))
        assert P[0, 1] == 0.0
        assert P[0, 0] == 1.0

    def test_random_permutations(self):
        rng = np.random.default_rng(2)
        I = 10000
        beta = np.stack([rng.permutation([1, 1, 2, 2, 3, 3]) for _ in range(I)])
        P = coclustering(_from_beta(beta), J, np.arange(6))
        # two fixed positions share a label with probability 1/5
        off = P[np.triu_indices(6, 1)]
        se = math.sqrt(0.2 * 0.8 / I)
        assert np.all(np.abs(off - 0.2) < 4 * se)

    def test_symmetry_and_diagonal(self):
        rng = np.random.default_rng(3)
        beta = rng.integers(0, 4, size=(200, 10))
        beta[0] = 1  # ensure every unit is novel at least once
        P = coclustering(_from_beta(beta), J, np.arange(10))
        assert np.allclose(P, P.T)
        assert np.all(np.diag(P) == 1.0)
        assert np.all((P >= 0) & (P <= 1))


def _traces(rng, n_scans, n_units, novel_labels, p_novel=0.6):
    """alpha/beta traces: each unit sits in a known class or in a novelty cluster."""
    novel = rng.random((n_scans, n_units)) < p_novel
    alpha = np.where(novel, 0, rng.integers(1, J + 1, size=novel.shape))
    beta = np.where(novel, rng.choice(novel_labels, size=novel.shape), 0)
    return alpha, beta


def _relabelled(rng, n_scans, n_units):
    """A few partitions revisited under fresh label permutations."""
    base = rng.integers(0, 3, size=(4, n_units))
    beta = np.stack([rng.permutation(np.arange(1, 10))[:3][base[i % 4]]
                     for i in range(n_scans)])
    return np.zeros_like(beta), beta


_CASES = {
    **{f"random-{seed}": (seed, lambda rng: _traces(rng, 60, 10, np.arange(1, 6)), 6)
       for seed in range(4)},
    "permuted labels": (4, lambda rng: _relabelled(rng, 40, 8), 8),
    "label gaps": (5, lambda rng: _traces(rng, 50, 9, [3, 7]), 7),
    "one scan": (6, lambda rng: _traces(rng, 1, 8, np.arange(1, 4)), 5),
    "one novelty unit": (7, lambda rng: _traces(rng, 30, 6, np.arange(1, 4)), 1),
    "no novelty units": (8, lambda rng: _traces(rng, 30, 6, np.arange(1, 4)), 0),
    "vote ties": (9, lambda rng: _traces(rng, 2, 12, np.arange(1, 4), p_novel=0.5), 6),
    "several blocks": (10, lambda rng: _traces(rng, 2 * _BLOCK + 17, 7, np.arange(1, 5)), 5),
}


@pytest.mark.parametrize("case", _CASES)
def test_trace_passes_match_loop_references(case):
    seed, make, n_selected = _CASES[case]
    rng = np.random.default_rng(seed)
    alpha, beta = make(rng)
    zeta = _zeta(alpha, beta)
    units = np.sort(rng.choice(beta.shape[1], size=n_selected, replace=False))

    P = coclustering(zeta, J, units)
    assert P.tobytes() == oracles.ppcm_slow(beta, units).tobytes()

    cands = candidate_partitions(zeta, J, units)
    want = oracles.candidates_slow(beta, units)
    assert len(cands) == len(want)
    for got, ref in zip(cands, want):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)

    part = cands[-1]
    assert np.array_equal(classify(zeta, J, part, units),
                          oracles.classify_slow(alpha, part, units))


def _visited(rng):
    """PPCM and candidates of random traces where units sometimes sit in a known class."""
    zeta = _zeta(*_traces(rng, 200, 12, np.arange(1, 5), p_novel=0.8))
    units = np.arange(12)
    return coclustering(zeta, J, units), candidate_partitions(zeta, J, units)


def _tied(rng):
    """Constant off-diagonal PPCM of ones on 8 units and clusters of 4, 2, 1 and 1:
    every per-unit term is an integer, so each reordering of the units ties
    exactly, and two worse candidates come first."""
    P = np.ones((8, 8))
    worse = [np.arange(8), np.repeat([1, 2, 3, 4], 2)]
    base = np.array([1, 1, 1, 1, 2, 2, 3, 4])
    tied = [rng.permutation(base) * 3 for _ in range(2 * _VI_BLOCK + 5)]
    assert len({vi_score(P, c) for c in tied}) == 1
    assert all(vi_score(P, w) > vi_score(P, tied[0]) for w in worse)
    return P, worse + tied


def _rounding_ties(rng):
    """Constant 0.3 off-diagonal PPCM and reorderings of one partition: the
    exact scores differ only by rounding, which the screen can reorder."""
    P = np.full((12, 12), 0.3)
    np.fill_diagonal(P, 1.0)
    base = np.repeat([1, 2, 3, 4, 5], [4, 3, 2, 2, 1])
    return P, [rng.permutation(base) for _ in range(40)]


def _non_canonical(rng):
    """Visited candidates, each under its own map onto labels with 0, negatives,
    gaps and very large ids."""
    P, cands = _visited(rng)
    pool = np.array([-9, -3, 0, 2, 7, 40, 10**12, -(10**15), 5, 11, 13, 17, 19, 23])
    return P, [rng.permutation(pool)[np.unique(c, return_inverse=True)[1]] for c in cands]


def _random_candidates(rng, n_cands, n=10):
    return oracles.random_ppcm(n, rng), [rng.integers(1, 5, size=n) for _ in range(n_cands)]


def _zero_diagonal(rng):
    P, cands = _random_candidates(rng, 20)
    np.fill_diagonal(P, 0.0)  # singletons score inf: the screen is not finite
    return P, cands


def _negative_entry(rng):
    P, cands = _random_candidates(rng, 20)
    P[0, 1] = P[1, 0] = -0.2
    return P, cands


_VI_CASES = {
    "visited traces": _visited,
    "exact ties": _tied,
    "rounding ties": _rounding_ties,
    "non-canonical labels": _non_canonical,
    "one candidate": lambda rng: (oracles.random_ppcm(6, rng), [np.array([5, 0, 5, -2, 9, 0])]),
    "several blocks": lambda rng: _random_candidates(rng, 5 * _VI_BLOCK + 3),
    "zero diagonal": _zero_diagonal,
    "negative entry": _negative_entry,
    "no units": lambda rng: (np.zeros((0, 0)), [np.zeros(0, dtype=int)] * 3),
}


@pytest.mark.parametrize("case", _VI_CASES)
def test_vi_search_matches_loop_reference(case):
    rng = np.random.default_rng(sorted(_VI_CASES).index(case))
    P, cands = _VI_CASES[case](rng)
    with np.errstate(divide="ignore", invalid="ignore"):
        got = best_partition_vi(P, cands)
        want = oracles.best_partition_vi_slow(P, cands)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.flags.writeable


def test_vi_search_first_of_tied_minima_wins():
    P, cands = _tied(np.random.default_rng(0))
    got = best_partition_vi(P, cands)
    assert np.array_equal(got, cands[2])  # the first tied candidate, after two worse ones


def test_zero_ppcm_row_rejected():
    P, cands = _random_candidates(np.random.default_rng(0), 20)
    P[3] = P[:, 3] = 0.0  # the expected VI of every candidate is undefined
    with pytest.raises(ValueError, match="PPCM row 3 sums to zero"):
        vi_score(P, cands[0])
    for some in (cands, cands[:1]):
        with pytest.raises(ValueError, match="PPCM row 3 sums to zero"):
            best_partition_vi(P, some)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=12),
       st.lists(st.integers(-10**6, 10**6), min_size=5, max_size=5, unique=True),
       st.integers(0, 2**32 - 1))
def test_vi_and_ari_invariant_under_relabelling(labels, new_ids, seed):
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    relabelled = np.asarray(new_ids)[labels]
    other = rng.integers(0, 3, size=labels.size)
    P = oracles.random_ppcm(labels.size, rng)
    assert vi_score(P, relabelled) == vi_score(P, labels)
    assert ari(relabelled, other) == ari(labels, other)
    assert ari(other, relabelled) == ari(other, labels)


class TestVi:
    def test_block_ppcm_true_partition_scores_zero(self):
        part = np.array([1, 1, 2, 2, 3])
        P = (part[:, None] == part[None, :]).astype(float)
        assert vi_score(P, part) == pytest.approx(0.0, abs=1e-12)

    def test_block_ppcm_selects_truth(self):
        part = np.array([1, 1, 2, 2, 3])
        P = (part[:, None] == part[None, :]).astype(float)
        cands = oracles.all_partitions(5)
        best = best_partition_vi(P, cands)
        assert ari(best, part) == 1.0

    def test_three_unit_example(self):
        P = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.1], [0.1, 0.1, 1.0]])
        best = best_partition_vi(P, oracles.all_partitions(3))
        assert ari(best, [1, 1, 2]) == 1.0

    def test_single_candidate(self):
        P = np.eye(3)
        only = np.array([1, 2, 1])
        assert np.array_equal(best_partition_vi(P, [only]), only)

    def test_merge_split_neighbors_score_worse(self):
        part = np.array([1, 1, 1, 2, 2, 3, 3, 3])
        P = (part[:, None] == part[None, :]).astype(float)
        base = vi_score(P, part)
        # every pairwise merge
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                if a < b:
                    merged = np.where(part == b, a, part)
                    assert vi_score(P, merged) > base
        # every single-unit split
        for m in range(part.size):
            split = part.copy()
            split[m] = 4
            assert vi_score(P, split) > base

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            best_partition_vi(np.eye(2), [])


class TestCandidates:
    def test_dedup_up_to_relabeling(self):
        beta = np.array([[1, 1, 2], [2, 2, 1], [1, 2, 2]])
        cands = candidate_partitions(_from_beta(beta), J, np.arange(3))
        assert len(cands) == 2  # rows 1 and 2 are the same partition relabeled

    def test_zero_entries_become_singletons(self):
        beta = np.array([[1, 0, 1]])
        (cand,) = candidate_partitions(_from_beta(beta), J, np.arange(3))
        assert cand[0] == cand[2]
        assert cand[1] != cand[0]


class TestAnomalies:
    def test_no_flags_when_all_large(self):
        part = np.array([1, 1, 1, 2, 2, 2])
        assert not flag_anomalies(part, 3).any()

    def test_singleton_flagged(self):
        part = np.array([1, 1, 2])
        assert np.array_equal(flag_anomalies(part, 2), [False, False, True])

    def test_default_min_size(self):
        assert default_min_size(100) == 5
        assert default_min_size(2000) == 20


class TestMetrics:
    def test_identical_partitions(self):
        assert ari([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0

    def test_permutation_invariance(self):
        p = [1, 1, 2, 3, 3, 2]
        q = [7, 7, 5, 9, 9, 5]
        assert ari(p, q) == 1.0

    def test_crossed_pairs_value(self):
        # brute-force pair counting gives -1/2 for this classic example
        assert ari([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(-0.5)
        assert oracles.pair_counting_ari([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(-0.5)

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            p1 = rng.integers(1, 4, size=n)
            p2 = rng.integers(1, 4, size=n)
            assert ari(p1, p2) == pytest.approx(oracles.pair_counting_ari(p1, p2), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        p1 = rng.integers(1, 4, size=30)
        p2 = rng.integers(1, 5, size=30)
        assert ari(p1, p2) == pytest.approx(ari(p2, p1))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ari([1, 2], [1, 2, 3])

    def test_precision_and_accuracy(self):
        labels = np.array([1, 2, -1, -1, 0, 2])
        truth = np.array([1, 2, 4, 1, 5, 3])
        # predicted novel: units 2, 3, 4 -> truths 4, 1, 5 -> 2/3 truly novel
        assert novelty_precision(labels, truth, [1, 2, 3]) == pytest.approx(2 / 3)
        # known truths: units 0, 1, 3, 5 -> labels 1, 2, -1, 2 -> 2/4 correct
        assert known_accuracy(labels, truth, [1, 2, 3]) == pytest.approx(0.5)

    def test_precision_nan_when_nothing_flagged(self):
        assert math.isnan(novelty_precision([1, 1], [1, 2], [1, 2]))


class TestSummarize:
    def _output(self):
        # 2 units firmly known, 3 units firmly novel in two clusters
        I = 40
        alpha = np.zeros((I, 5), dtype=int)
        beta = np.zeros((I, 5), dtype=int)
        alpha[:, 0] = 1
        alpha[:, 1] = 2
        beta[:, 2] = 1
        beta[:, 3] = 1
        beta[:, 4] = 2
        pi = np.tile([0.4, 0.3, 0.3], (I, 1))
        return ChainOutput(alpha_trace=alpha, beta_trace=beta, pi_trace=pi,
                           gamma_trace=np.ones(I), n_active_trace=np.full(I, 4),
                           n_known=2, seed=0)

    def test_end_to_end(self):
        summ = summarize(self._output(), min_size=2)
        assert np.array_equal(summ.novelty_units, [2, 3, 4])
        assert summ.ppn == pytest.approx([0, 0, 1, 1, 1])
        assert summ.labels[0] == 1 and summ.labels[1] == 2
        assert summ.labels[2] == summ.labels[3] != summ.labels[4]
        assert np.array_equal(summ.anomaly_flags, [False, False, True])

    def test_ppcm_block_structure(self):
        summ = summarize(self._output(), min_size=2)
        assert summ.ppcm[0, 1] == 1.0
        assert summ.ppcm[0, 2] == 0.0
