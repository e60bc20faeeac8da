"""Golden traces: fixed-seed chains must reproduce recorded sha256 digests.

Each digest covers the alpha, beta, pi, gamma and n_active traces (as
little-endian bytes) and the JSON of the atom snapshots.  A refactor of the
sampler must leave every digest unchanged; only a change that deliberately
alters the order of the random draws may re-record them, and says so in
CHANGES.md.  The digests hold for the numpy/scipy build they were recorded
with (numpy 2.4, scipy 1.17, x86-64); another BLAS may move the last bits of
the curve atoms.
"""

import hashlib
import json

import numpy as np
import pytest

from novelbayes.functional import (
    BasisSpec,
    CurveSet,
    FunctionalHyper,
    extract_functional_priors,
    run_functional_chain,
)
from novelbayes.model import GammaPrior, Hyperparameters, NIWParams
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


def _gaussian_problem():
    rng = np.random.default_rng(101)
    means = np.array([[0.0, 0.0], [6.0, 0.0]])
    train_x = np.vstack([rng.normal(m, 1.0, (20, 2)) for m in means])
    train_x[:2] += 15.0  # gross outliers for Stage I to trim
    train = LabeledDataset(train_x, np.repeat([1, 2], 20))
    priors = extract_class_priors(train, McdConfig(eta=0.75, n_starts=20, seed=102))
    test = TestDataset(np.vstack([rng.normal(means[0], 1.0, (15, 2)),
                                  rng.normal(means[1], 1.0, (15, 2)),
                                  rng.normal((3.0, 9.0), 0.7, (8, 2)),
                                  [[-20.0, 20.0]]]))
    return test, priors


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
    priors = extract_functional_priors(train, spec, McdConfig(eta=0.75, n_starts=20, seed=202),
                                       phi=0.05, v=0.01)
    hyper = FunctionalHyper(a=np.array([0.1, 1.0, 1.0]), n_iter=60, n_burnin=30,
                            seed=204, basis=spec, atom_thin=7)
    return run_functional_chain(test, priors, hyper, record_atoms=True)


GOLDEN = [
    (_random_gamma, "55fe645fbef06ffa0c507275ac006625634d197be4e0fbeaae5cf59ad044e6ca"),
    (_fixed_gamma, "65419d46d7a97a3d8e58526e9c0ef69b95a70c09baeb523cf8ad595beb31d7d3"),
    (_frozen_known, "733665d0bb74400062e64354a76ad8df5baa663e098ef14d62f402fae822c6e2"),
    (_no_test_rows, "ce8d02a5f4fa05a8c1918c83731b89568d7c8fef0646a74e2ce1e4d666f35a23"),
    (_curves_frozen, "1e9e91d27f9969ef390b56fc9f471144bb82ca3c0ef1c1c3b3bca8386061ed95"),
    (_curves_transductive, "558bdfc42898a85c1c64cb04a2abaedb967fa0859a499fb6ae492ac0e8f3c347"),
]


@pytest.mark.parametrize("build,want", GOLDEN, ids=[b.__name__[1:] for b, _ in GOLDEN])
def test_golden_trace_digest(build, want):
    assert _digest(build()) == want
