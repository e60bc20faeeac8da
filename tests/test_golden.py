"""Golden traces: fixed-seed chains must reproduce recorded sha256 digests.

Each chain digest covers the alpha, beta, pi, gamma and n_active traces (as
little-endian bytes) and the JSON of the atom snapshots.  Two CLI runs
(``fit`` and ``fit-functional``) are pinned by every file of their run
directory except ``manifest.json``, which holds a timestamp and a runtime,
and one posterior summary by its arrays.  A refactor must leave every
digest unchanged; only a change that deliberately
alters the order of the random draws may re-record them, and says so in
CHANGES.md.  The digests hold for the numpy/scipy build they were recorded
with (numpy 2.4, scipy 1.17, x86-64); another BLAS may move the last bits of
the curve atoms.
"""

import hashlib
import json

import numpy as np
import pytest

from novelbayes import io as nio
from novelbayes.cli import main
from novelbayes.functional import (
    BasisSpec,
    CurveSet,
    FunctionalHyper,
    extract_functional_priors,
    run_functional_chain,
)
from novelbayes.model import GammaPrior, Hyperparameters, NIWParams
from novelbayes.postprocess import summarize
from novelbayes.robust import LabeledDataset, McdConfig, extract_class_priors
from novelbayes.sampler import TestDataset, run_chain


def _digest(out) -> str:
    h = hashlib.sha256()
    for arr, dtype in ((out.alpha_trace, "<i4"), (out.beta_trace, "<i4"),
                       (out.pi_trace, "<f8"), (out.gamma_trace, "<f8"),
                       (out.n_active_trace, "<i4")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    h.update(json.dumps(out.atom_snapshots).encode())
    return h.hexdigest()


def _gaussian_data():
    rng = np.random.default_rng(101)
    means = np.array([[0.0, 0.0], [6.0, 0.0]])
    train_x = np.vstack([rng.normal(m, 1.0, (20, 2)) for m in means])
    train_x[:2] += 15.0  # gross outliers for Stage I to trim
    test_x = np.vstack([rng.normal(means[0], 1.0, (15, 2)),
                        rng.normal(means[1], 1.0, (15, 2)),
                        rng.normal((3.0, 9.0), 0.7, (8, 2)),
                        [[-20.0, 20.0]]])
    return train_x, np.repeat([1, 2], 20), test_x


def _gaussian_problem():
    train_x, labels, test_x = _gaussian_data()
    train = LabeledDataset(train_x, labels)
    priors = extract_class_priors(train, McdConfig(eta=0.75, n_starts=20, seed=102))
    return TestDataset(test_x), priors


def _hyper(**kw):
    defaults = dict(a0=0.5, lambda_tr=10.0, nu_tr=10.0,
                    base_measure=NIWParams(np.zeros(2), 0.01, 6.0, 10 * np.eye(2)),
                    gamma=1.0, n_iter=60, n_burnin=30, seed=103, atom_thin=7)
    defaults.update(kw)
    return Hyperparameters.with_class_weights([20, 20], **defaults)


def _random_gamma():
    test, priors = _gaussian_problem()
    return run_chain(test, priors, _hyper(gamma=GammaPrior(2.0, 1.0)), record_atoms=True)


def _fixed_gamma():
    test, priors = _gaussian_problem()
    return run_chain(test, priors, _hyper(gamma=1.5, seed=104), record_atoms=False)


def _frozen_known():
    test, priors = _gaussian_problem()
    return run_chain(test, priors, _hyper(lambda_tr=1e6, nu_tr=1e6, seed=105),
                     record_atoms=True)


def _no_test_rows():
    _, priors = _gaussian_problem()
    return run_chain(TestDataset(np.empty((0, 2))), priors,
                     _hyper(gamma=GammaPrior(1.0, 1.0), seed=106), record_atoms=True)


def _dim_chain(p):
    """A non-frozen chain in p dimensions (two known classes, one unseen)
    with its atoms recorded: its posterior scatters are p x p."""
    rng = np.random.default_rng(110 + p)
    means = np.zeros((3, p))
    means[1, 0], means[2] = 6.0, -7.0
    train_x = np.vstack([rng.normal(m, 1.0, (25, p)) for m in means[:2]])
    test_x = np.vstack([rng.normal(m, 1.0, (n, p)) for m, n in zip(means, (15, 15, 8))])
    priors = extract_class_priors(LabeledDataset(train_x, np.repeat([1, 2], 25)),
                                  McdConfig(eta=0.75, n_starts=20, seed=111))
    hp = Hyperparameters.with_class_weights(
        [25, 25], a0=0.5, lambda_tr=10.0, nu_tr=p + 8.0,
        base_measure=NIWParams(np.zeros(p), 0.01, p + 4.0, 10 * np.eye(p)),
        gamma=GammaPrior(2.0, 1.0), n_iter=60, n_burnin=30, seed=112, atom_thin=7)
    return run_chain(TestDataset(test_x), priors, hp, record_atoms=True)


def _one_dim():
    return _dim_chain(1)


def _seven_dims():
    return _dim_chain(7)


def _curve_problem():
    rng = np.random.default_rng(201)
    grid = np.linspace(0, 1, 30)
    shapes = [np.sin(2 * np.pi * grid), 1.5 * grid]
    train = CurveSet(grid, np.vstack([f + rng.normal(0, 0.1, (10, 30)) for f in shapes]),
                     labels=np.repeat([1, 2], 10))
    test = CurveSet(grid, np.vstack([shapes[0] + rng.normal(0, 0.1, (6, 30)),
                                     shapes[1] + rng.normal(0, 0.1, (6, 30)),
                                     3.0 + np.cos(2 * np.pi * grid)
                                     + rng.normal(0, 0.1, (6, 30))]))
    return train, test, BasisSpec(n_basis=8, order=3)


def _curves_frozen():
    train, test, spec = _curve_problem()
    priors = extract_functional_priors(train, spec, McdConfig(eta=0.75, n_starts=20, seed=202))
    hyper = FunctionalHyper(a=np.array([0.1, 1.0, 1.0]), n_iter=60, n_burnin=30,
                            seed=203, basis=spec)
    return run_functional_chain(test, priors, hyper)


def _curves_transductive():
    train, test, spec = _curve_problem()
    priors = extract_functional_priors(train, spec, McdConfig(eta=0.75, n_starts=20, seed=202))
    hyper = FunctionalHyper(a=np.array([0.1, 1.0, 1.0]), n_iter=60, n_burnin=30,
                            seed=204, basis=spec, atom_thin=7, phi=0.05, v=0.01)
    return run_functional_chain(test, priors, hyper, record_atoms=True)


GOLDEN = [
    (_random_gamma, "55fe645fbef06ffa0c507275ac006625634d197be4e0fbeaae5cf59ad044e6ca"),
    (_fixed_gamma, "65419d46d7a97a3d8e58526e9c0ef69b95a70c09baeb523cf8ad595beb31d7d3"),
    (_frozen_known, "733665d0bb74400062e64354a76ad8df5baa663e098ef14d62f402fae822c6e2"),
    (_no_test_rows, "ce8d02a5f4fa05a8c1918c83731b89568d7c8fef0646a74e2ce1e4d666f35a23"),
    (_one_dim, "a36739824976bce24b2cd989bc924f3ae6f51138296f8637b65ee2080b4d1fba"),
    (_seven_dims, "d259c03ad4e5bc5fa9d5d02967e0c7c096d5cdeafbf524f019c60b68488e42d1"),
    (_curves_frozen, "1e9e91d27f9969ef390b56fc9f471144bb82ca3c0ef1c1c3b3bca8386061ed95"),
    (_curves_transductive, "558bdfc42898a85c1c64cb04a2abaedb967fa0859a499fb6ae492ac0e8f3c347"),
]


@pytest.mark.parametrize("build,want", GOLDEN, ids=[b.__name__[1:] for b, _ in GOLDEN])
def test_golden_trace_digest(build, want):
    assert _digest(build()) == want


def _run_dir_digest(out) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            h.update(str(path.relative_to(out)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _cli_fit(tmp_path):
    train_x, labels, test_x = _gaussian_data()
    nio.write_multivariate(tmp_path / "train.csv", train_x, labels)
    nio.write_multivariate(tmp_path / "test.csv", test_x)
    (tmp_path / "chain.cfg").write_text("gamma-shape = 2\ngamma-rate = 1\n")
    assert main(["fit", "--config", str(tmp_path / "chain.cfg"),
                 "--train", str(tmp_path / "train.csv"), "--test", str(tmp_path / "test.csv"),
                 "--outdir", str(tmp_path / "run"), "--eta", "0.75", "--n-starts", "20",
                 "--a0", "0.5", "--kappa", "0.6", "--n-iter", "60", "--n-burnin", "30",
                 "--seed", "301", "--s0-scale", "5", "--min-size", "3"]) == 0
    return tmp_path / "run"


def _cli_fit_functional(tmp_path):
    train, test, _ = _curve_problem()
    nio.write_curves(tmp_path / "train.csv", train)
    nio.write_curves(tmp_path / "test.csv", test)
    assert main(["fit-functional", "--train", str(tmp_path / "train.csv"),
                 "--test", str(tmp_path / "test.csv"), "--outdir", str(tmp_path / "run"),
                 "--n-basis", "8", "--order", "3", "--eta", "0.75", "--n-starts", "20",
                 "--a0", "0.2", "--gamma-fixed", "1.5", "--n-iter", "60", "--n-burnin", "30",
                 "--seed", "302", "--phi", "0.05", "--v", "0.01", "--min-size", "2"]) == 0
    return tmp_path / "run"


CLI_GOLDEN = [
    (_cli_fit, "720fafe7a6e9eab54c479dd5e1de72602f1d766b98439afd38f3b8f72d307d40"),
    (_cli_fit_functional,
     "6904a23ce533bb29ca0234ff8460fc024c3c5796abc056e3f8d04ee51c69cb9f"),
]


@pytest.mark.parametrize("build,want", CLI_GOLDEN, ids=[b.__name__[1:] for b, _ in CLI_GOLDEN])
def test_golden_cli_run_digest(build, want, tmp_path):
    assert _run_dir_digest(build(tmp_path)) == want


def test_golden_summary_digest():
    s = summarize(_random_gamma(), ppn_threshold=0.3)
    h = hashlib.sha256()
    for arr, dtype in ((s.ppn, "<f8"), (s.labels, "<i8"), (s.novelty_units, "<i8"),
                       (s.ppcm, "<f8"), (s.best_partition, "<i8"), (s.anomaly_flags, "?")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    h.update(str(s.min_size).encode())
    assert h.hexdigest() == "ec8046dafe5b643cdd75a9483f59679953e16fe10c588307a40059abeea499ca"
