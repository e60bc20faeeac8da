"""Benchmark workloads: input generation, the CLI call each run makes, and
the per-call correctness check.

Every dataset is fixed by its workload; the workload seed is passed to the
program as ``--seed`` (Stage-I starts and the chain) and, for
``resummarize``, also draws the stored traces.  Scan counts and burn-in are
constants here, so a parent commit and a change always run the same work.

The chain starts with far-away units as singletons, so its first few hundred
scans draw more atoms than a long chain does on average; the short fit
chains here sit mostly in that transient, which every user run pays.

The ``resummarize`` traces are synthetic: a real chain of paper length
costs about two minutes per seed, more than a run may take.  They keep the
shape that drives post-processing cost (950 units, 10 000 scans, about 300
units above the novelty threshold, nearly all partitions distinct).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import novelbayes as nb
from novelbayes import io as nio
from novelbayes.postprocess import ari, known_accuracy, novelty_precision

import spec

# chain lengths: long enough that every chain seed tried passes the quality
# floors (at 400 scans some notsmall chains still sit in a poor mode, e.g.
# seeds 15 and 24), short enough to fit a run
NOTSMALL_ITER, NOTSMALL_BURNIN = 1500, 750
SEEDS7_ITER, SEEDS7_BURNIN = 600, 300
CURVES_ITER, CURVES_BURNIN = 800, 400
# paper length of the stored notsmall traces
RESUMMARIZE_SCANS = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[Path, int], None]   # (input dir, seed) -> files on disk
    argv: Callable[[Path, Path, int], list]  # (input dir, out dir, seed) -> CLI argv
    known: tuple                            # true labels of the observed classes
    floors: Callable[[dict], list]          # quality -> list of violated floors
    trace_files: tuple                      # outputs whose digests must repeat
    summary_subdir: str = "summary"         # where the CLI call puts labels.csv


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

def _notsmall():
    """The paper's simulation: label noise, seed 1, J = 3, M = 950, p = 2."""
    spec = nb.SimulationSpec.scenario("notsmall", label_noise=True, seed=1)
    return nb.generate_simulation(spec)


# class means and standard deviations shaped like the UCI seeds table
# (area, perimeter, compactness, kernel length, kernel width, asymmetry,
# groove length) for the Kama, Rosa and Canadian varieties
_SEEDS_MEANS = np.array([
    [14.33, 14.29, 0.880, 5.51, 3.24, 2.67, 5.09],
    [18.33, 16.14, 0.884, 6.15, 3.68, 3.64, 6.02],
    [11.87, 13.25, 0.849, 5.23, 2.85, 4.79, 5.12],
])
_SEEDS_SDS = np.array([
    [1.22, 0.58, 0.016, 0.23, 0.18, 1.17, 0.26],
    [1.44, 0.62, 0.016, 0.27, 0.19, 1.19, 0.25],
    [0.72, 0.34, 0.022, 0.14, 0.15, 1.34, 0.16],
])
# within-class correlation: the five size features move together,
# compactness follows width, asymmetry is nearly independent
_SEEDS_CORR = np.array([
    [1.000, 0.982, 0.476, 0.916, 0.946, -0.050, 0.861],
    [0.982, 1.000, 0.340, 0.951, 0.892, -0.050, 0.910],
    [0.476, 0.340, 1.000, 0.121, 0.658, -0.098, 0.063],
    [0.916, 0.951, 0.121, 1.000, 0.801, -0.048, 0.929],
    [0.946, 0.892, 0.658, 0.801, 1.000, -0.050, 0.769],
    [-0.050, -0.050, -0.098, -0.048, -0.050, 1.000, 0.001],
    [0.861, 0.910, 0.063, 0.929, 0.769, 0.001, 1.000],
])
SEEDS7_DATA_SEED = 2024


def _seeds7():
    """p = 7; 35 training rows of each of two varieties; 105 test rows with
    35 of each variety, the third one unseen in training."""
    rng = np.random.default_rng(SEEDS7_DATA_SEED)
    train_x, train_y, test_x, truth = [], [], [], []
    for k in range(3):
        cov = _SEEDS_CORR * np.outer(_SEEDS_SDS[k], _SEEDS_SDS[k])
        rows = rng.multivariate_normal(_SEEDS_MEANS[k], cov, size=70)
        if k < 2:
            train_x.append(rows[:35])
            train_y.append(np.full(35, k + 1))
        test_x.append(rows[35:])
        truth.append(np.full(35, k + 1))
    return (np.vstack(train_x), np.concatenate(train_y),
            np.vstack(test_x), np.concatenate(truth))


def _six_functions():
    return [
        lambda t: 5 * np.cos(np.exp(np.sin(t))),
        lambda t: 3 * np.log(np.sin(t ** 1.5) + 1),
        lambda t: 2 * t * np.cos(t - 2.5),
        lambda t: -3 * np.abs(t - 1) * np.sin(t),
        lambda t: np.abs(t - 2) * np.cos(t),
        lambda t: np.abs(t - 1) ** 2 * np.sin(t),
    ]


def _curves():
    """The criterion-8 toy: 6 families x 25 curves, T = 100, noise 0.25;
    the first three families are observed in training."""
    fs = _six_functions()
    grid = np.linspace(0, 6, 100)
    rng = np.random.default_rng(11)
    train = nb.CurveSet(
        grid, np.vstack([f(grid) + rng.normal(0, 0.25, (25, 100)) for f in fs[:3]]),
        labels=np.repeat([1, 2, 3], 25))
    test = nb.CurveSet(
        grid, np.vstack([f(grid) + rng.normal(0, 0.25, (25, 100)) for f in fs]))
    return train, test, np.repeat([1, 2, 3, 4, 5, 6], 25)


def _write_truth(path: Path, truth):
    path.write_text("".join(f"{int(t)}\n" for t in truth))


def read_truth(indir: Path) -> np.ndarray:
    return np.array([int(x) for x in (indir / "truth.csv").read_text().split()])


def _prepare_notsmall(indir: Path, seed: int):
    train, test, truth = _notsmall()
    nio.write_multivariate(indir / "train.csv", train.data, train.labels)
    nio.write_multivariate(indir / "test.csv", test.data)
    _write_truth(indir / "truth.csv", truth)


def _prepare_seeds7(indir: Path, seed: int):
    train_x, train_y, test_x, truth = _seeds7()
    nio.write_multivariate(indir / "train.csv", train_x, train_y)
    nio.write_multivariate(indir / "test.csv", test_x)
    _write_truth(indir / "truth.csv", truth)


def _prepare_curves(indir: Path, seed: int):
    train, test, truth = _curves()
    nio.write_curves(indir / "train.csv", train)
    nio.write_curves(indir / "test.csv", test)
    _write_truth(indir / "truth.csv", truth)


def synthetic_traces(truth: np.ndarray, n_known: int, n_scans: int,
                     rng: np.random.Generator):
    """(alpha, beta) traces shaped like a long notsmall chain.

    Each scan keeps every unit in its true component except for a small
    share of moves: 2% of novelty units hop to another cluster, 0.5% become
    singletons and 1% sit in a known class; 0.5% of known units become
    novelty singletons.  Cluster ids are permuted every scan, as label
    switching does in the chain.  About 300 units end up above the novelty
    threshold and nearly every scan visits a distinct partition, as in the
    paper-length chain.
    """
    M = truth.size
    comp0 = np.where(truth > n_known, truth - n_known, 0)
    n_comp = int(comp0.max())
    is_novel = comp0 > 0
    alpha0 = np.where(is_novel, 0, truth)
    singleton_ids = n_comp + 1 + np.arange(M)
    alpha = np.empty((n_scans, M), dtype=np.int32)
    beta = np.empty((n_scans, M), dtype=np.int32)
    for i in range(n_scans):
        a, c = alpha0.copy(), comp0.copy()
        r = rng.random(M)
        hop = is_novel & (r < 0.02)
        c[hop] = rng.integers(1, n_comp + 1, size=int(hop.sum()))
        to_known = is_novel & (r >= 0.025) & (r < 0.035)
        a[to_known] = rng.integers(1, n_known + 1, size=int(to_known.sum()))
        c[to_known] = 0
        single = (is_novel & (r >= 0.02) & (r < 0.025)) | (~is_novel & (r < 0.005))
        a[single] = 0
        c[single] = singleton_ids[single]
        ids = np.unique(c[c > 0])
        lookup = np.zeros(n_comp + M + 1, dtype=np.int32)
        lookup[ids] = rng.permutation(ids.size) + 1
        alpha[i], beta[i] = a, lookup[c]
    return alpha, beta


def _prepare_resummarize(indir: Path, seed: int):
    """Stored notsmall traces of paper length (10 000 retained scans over 950
    units), drawn from the workload seed."""
    _, _, truth = _notsmall()
    J = 3
    rng = np.random.default_rng(seed)
    alpha, beta = synthetic_traces(truth, J, RESUMMARIZE_SCANS, rng)
    counts = np.stack([np.sum(alpha == j, axis=1) for j in range(J + 1)], axis=1)
    out = nb.ChainOutput(
        alpha_trace=alpha, beta_trace=beta,
        pi_trace=np.stack([rng.dirichlet(0.1 + c) for c in counts]),
        gamma_trace=rng.gamma(2.0, 0.5, size=RESUMMARIZE_SCANS),
        # about 30 empty slots above the occupied ones, as at L* ~ 37
        n_active_trace=(J + beta.max(axis=1)
                        + rng.poisson(30, size=RESUMMARIZE_SCANS)).astype(np.int32),
        n_known=J, seed=seed,
        meta={"n_iter": RESUMMARIZE_SCANS, "n_burnin": 0, "kappa": 0.5})
    nio.save_chain(out, indir / "traces")
    _write_truth(indir / "truth.csv", truth)


# ---------------------------------------------------------------------------
# CLI calls
# ---------------------------------------------------------------------------

def _fit_argv(command, extra):
    def argv(indir: Path, outdir: Path, seed: int) -> list:
        return [command, "--train", str(indir / "train.csv"),
                "--test", str(indir / "test.csv"),
                "--outdir", str(outdir), "--seed", str(seed)] + extra
    return argv


def _summarize_argv(indir: Path, outdir: Path, seed: int) -> list:
    return ["summarize", "--chain-dir", str(indir / "traces"), "--outdir", str(outdir)]


# ---------------------------------------------------------------------------
# quality
# ---------------------------------------------------------------------------

def read_labels(summary_dir: Path) -> np.ndarray:
    lines = (summary_dir / "labels.csv").read_text().split()[1:]
    return np.array([int(line.split(",")[1]) for line in lines])


def quality(labels: np.ndarray, truth: np.ndarray, known: tuple) -> dict:
    """The three acceptance metrics, from the package's own functions."""
    return {
        "known_accuracy": known_accuracy(labels, truth, known),
        "ari": ari(labels, truth),
        "novelty_precision": novelty_precision(labels, truth, known),
        # criterion-8 quantities, used by the curves floors
        "split_accuracy": float(np.mean((labels <= 0) == ~np.isin(truth, known))),
        "novelty_clusters_ge5": int(np.sum(
            np.unique(labels[labels < 0], return_counts=True)[1] >= 5)),
    }


def _min_floors(**mins):
    def check(q: dict) -> list:
        return [f"{k}={q[k]:.4f} < {v}" for k, v in mins.items()
                if not q[k] >= v]  # also catches NaN
    return check


def _curves_floors(q: dict) -> list:
    bad = _min_floors(split_accuracy=0.95)(q)
    if q["novelty_clusters_ge5"] != 3:
        bad.append(f"novelty clusters of size >= 5: {q['novelty_clusters_ge5']} != 3")
    return bad


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


WORKLOADS = {w.name: w for w in [
    Workload(
        name="notsmall",
        prepare=_prepare_notsmall,
        argv=_fit_argv("fit", ["--eta", "0.75", "--n-starts", "500",
                               "--n-iter", str(NOTSMALL_ITER),
                               "--n-burnin", str(NOTSMALL_BURNIN)]),
        known=(1, 2, 3),
        # acceptance criterion 1
        floors=_min_floors(known_accuracy=0.95, ari=0.85, novelty_precision=0.95),
        trace_files=("traces/alpha_trace.bin", "traces/beta_trace.bin"),
    ),
    Workload(
        name="seeds7",
        prepare=_prepare_seeds7,
        # base-measure scale matched to the features' within-class spread
        # (SD 0.016 to 1.4); the training priors stay at the CLI defaults
        argv=_fit_argv("fit", ["--eta", "0.95", "--s0-scale", "0.1",
                               "--n-iter", str(SEEDS7_ITER),
                               "--n-burnin", str(SEEDS7_BURNIN)]),
        known=(1, 2),
        # all three read 1.0 over chain seeds 1-20; the floors leave room
        # for the spread of up to 0.07 seen on the real seeds table
        floors=_min_floors(known_accuracy=0.90, ari=0.85, novelty_precision=0.90),
        trace_files=("traces/alpha_trace.bin", "traces/beta_trace.bin"),
    ),
    Workload(
        name="curves",
        prepare=_prepare_curves,
        argv=_fit_argv("fit-functional", ["--eta", "0.75", "--n-starts", "150",
                                          "--n-iter", str(CURVES_ITER),
                                          "--n-burnin", str(CURVES_BURNIN),
                                          "--min-size", "5"]),
        known=(1, 2, 3),
        # acceptance criterion 8
        floors=_curves_floors,
        trace_files=("traces/alpha_trace.bin", "traces/beta_trace.bin"),
    ),
    Workload(
        name="resummarize",
        prepare=_prepare_resummarize,
        argv=_summarize_argv,
        known=(1, 2, 3),
        floors=_min_floors(known_accuracy=0.95, ari=0.85, novelty_precision=0.95),
        trace_files=("labels.csv", "ppcm.bin"),
        summary_subdir="",
    ),
]}


def summary_dir(workload: Workload, outdir: Path) -> Path:
    return outdir / workload.summary_subdir


def ensure_inputs(root: Path, workload: Workload, seed: int) -> Path:
    """Generate the workload's inputs once and reuse them afterwards."""
    indir = spec.input_dir(root, workload.name, seed)
    marker = indir / spec.READY
    if not marker.exists():
        indir.mkdir(parents=True, exist_ok=True)
        workload.prepare(indir, seed)
        marker.write_text(json.dumps({"workload": workload.name, "seed": seed}))
        spec.evict_inputs(root, workload.name)
    return indir
