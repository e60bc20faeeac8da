import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from novelbayes import io as nio
from novelbayes.errors import ParseError
from novelbayes.functional import CurveSet
from novelbayes.model import zeta_to_alpha_beta
from novelbayes.robust import LabeledDataset, McdConfig, extract_class_priors
from novelbayes.sampler import _CHECK_ROWS, ChainOutput
from novelbayes.simulate import (
    NOT_SMALL_TEST_SIZES,
    SMALL_TEST_SIZES,
    SimulationSpec,
    generate_simulation,
)


class TestSimulation:
    def test_not_small_sizes(self):
        spec = SimulationSpec.scenario("notsmall", label_noise=False, seed=0)
        train, test, truth = generate_simulation(spec)
        assert train.data.shape == (1000, 2)
        assert len(test) == sum(NOT_SMALL_TEST_SIZES)
        assert np.array_equal(np.bincount(truth)[1:], NOT_SMALL_TEST_SIZES)

    def test_small_sizes(self):
        spec = SimulationSpec.scenario("small", label_noise=False, seed=0)
        _, test, truth = generate_simulation(spec)
        assert len(test) == sum(SMALL_TEST_SIZES)
        assert np.sum(truth == 7) == 1

    def test_zero_noise_labels_match_components(self):
        spec = SimulationSpec.scenario("notsmall", label_noise=False, seed=1)
        train, _, _ = generate_simulation(spec)
        assert np.array_equal(train.class_sizes, [300, 300, 400])

    def test_label_noise_swaps_between_2_and_3(self):
        spec = SimulationSpec.scenario("notsmall", label_noise=True, seed=1)
        train, _, _ = generate_simulation(spec)
        clean, _, _ = generate_simulation(
            SimulationSpec.scenario("notsmall", label_noise=False, seed=1))
        changed = np.flatnonzero(train.labels != clean.labels)
        assert changed.size == round(0.12 * 300) + round(0.12 * 400)
        assert set(clean.labels[changed]) == {2, 3}
        assert np.all(train.labels[clean.labels == 1] == 1)

    def test_empirical_means_near_spec(self):
        spec = SimulationSpec.scenario("notsmall", label_noise=False, seed=2)
        _, test, truth = generate_simulation(spec)
        for comp in range(1, 8):
            rows = test.data[truth == comp]
            if rows.shape[0] < 200:
                continue
            se = np.sqrt(np.diag(spec.covs[comp - 1]) / rows.shape[0])
            assert np.all(np.abs(rows.mean(axis=0) - spec.means[comp - 1]) < 4 * se)

    def test_deterministic_given_seed(self):
        s1 = generate_simulation(SimulationSpec.scenario("small", label_noise=True, seed=5))
        s2 = generate_simulation(SimulationSpec.scenario("small", label_noise=True, seed=5))
        assert np.array_equal(s1[0].data, s2[0].data)
        assert np.array_equal(s1[2], s2[2])


class TestTabularIo:
    def test_round_trip_unlabeled(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 3))
        path = tmp_path / "data.csv"
        nio.write_multivariate(path, X)
        back = nio.load_multivariate(path)
        assert np.array_equal(back.data, X)

    def test_round_trip_labeled(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(8, 2))
        y = rng.integers(1, 3, size=8)
        y[:2] = [1, 2]
        path = tmp_path / "train.csv"
        nio.write_multivariate(path, X, y)
        back = nio.load_multivariate(path, has_labels=True)
        assert np.array_equal(back.data, X)
        assert np.array_equal(back.labels, y)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n1.0,oops\n")
        with pytest.raises(ParseError, match="row 2"):
            nio.load_multivariate(path)

    def test_curves_round_trip_wide(self, tmp_path):
        rng = np.random.default_rng(2)
        curves = CurveSet(np.linspace(0, 1, 7), rng.normal(size=(4, 7)))
        path = tmp_path / "curves.csv"
        nio.write_curves(path, curves, layout="wide")
        back = nio.load_curves(path, layout="wide")
        assert np.array_equal(back.grid, curves.grid)
        assert np.array_equal(back.values, curves.values)

    def test_curves_round_trip_long(self, tmp_path):
        rng = np.random.default_rng(3)
        curves = CurveSet(np.linspace(0, 2, 9), rng.normal(size=(3, 9)))
        path = tmp_path / "curves_long.csv"
        nio.write_curves(path, curves, layout="long")
        back = nio.load_curves(path, layout="long")
        assert np.array_equal(back.values, curves.values)


class TestSummariesAndChains:
    def test_summaries_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        train = LabeledDataset(rng.normal(size=(30, 2)), np.repeat([1, 2], 15))
        summaries = extract_class_priors(train, McdConfig(eta=0.8, n_starts=20, seed=1))
        path = tmp_path / "priors.json"
        nio.summaries_to_json(summaries, path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == nio.FORMAT_VERSION
        assert doc["classes"] == [s.to_dict() for s in summaries]

    def _chain(self):
        I, M = 12, 5
        rng = np.random.default_rng(5)
        alpha = rng.integers(0, 3, size=(I, M))
        beta = np.where(alpha == 0, 1, 0)
        pi = rng.dirichlet([1, 1, 1], size=I)
        return ChainOutput(alpha_trace=alpha, beta_trace=beta, pi_trace=pi,
                           gamma_trace=np.ones(I), n_active_trace=np.full(I, 4),
                           n_known=2, seed=3, meta={"n_iter": 20})

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_chain_round_trip(self, tmp_path, fmt):
        out = self._chain()
        nio.save_chain(out, tmp_path / "traces", fmt=fmt)
        back = nio.load_chain(tmp_path / "traces")
        assert np.array_equal(back.alpha_trace, out.alpha_trace)
        assert np.array_equal(back.beta_trace, out.beta_trace)
        assert back.pi_trace == pytest.approx(out.pi_trace, rel=1e-15)
        assert back.n_known == 2 and back.seed == 3
        assert back.meta["n_iter"] == 20

    def test_manifest_contents(self, tmp_path):
        data = tmp_path / "input.csv"
        data.write_text("1,2\n")
        nio.write_manifest(tmp_path, {"eta": "0.75"}, seed=7, inputs={"train": data})
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["seed"] == 7
        assert doc["config"]["eta"] == "0.75"
        assert doc["inputs"]["train"]["sha256"] == nio.file_sha256(data)

    def test_config_parse(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\neta = 0.75\nn-iter=100\n\nseed = 4  # trailing\n")
        parsed = nio.read_config(cfg)
        assert parsed == {"eta": "0.75", "n-iter": "100", "seed": "4"}

    def test_config_rejects_garbage(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta 0.75\n")
        with pytest.raises(ParseError):
            nio.read_config(cfg)


# a csv trace of zero units must load without numpy's empty-input warning;
# only that warning is an error, so a failure report's own warnings stay warnings
@pytest.mark.filterwarnings("error:loadtxt. input contained no data:UserWarning")
@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.sampled_from([1, 2, _CHECK_ROWS + 37]), st.integers(0, 4),
       st.integers(0, 2**32 - 1))
def test_zeta_and_label_traces_agree(n_known, n_scans, n_units, seed):
    rng = np.random.default_rng(seed)
    zeta = rng.integers(1, n_known + 6, size=(n_scans, n_units)).astype(np.int32)
    alpha, beta = zeta_to_alpha_beta(zeta, n_known)
    rest = dict(pi_trace=rng.dirichlet(np.ones(n_known + 1), size=n_scans),
                gamma_trace=np.ones(n_scans), n_active_trace=np.full(n_scans, n_known + 5),
                n_known=n_known, seed=seed)
    from_zeta = ChainOutput(zeta_trace=zeta, **rest)
    from_labels = ChainOutput(alpha_trace=alpha, beta_trace=beta, **rest)
    for out in (from_zeta, from_labels):
        assert out.zeta_trace.dtype == np.int32
        assert np.array_equal(out.zeta_trace, zeta)
        for got, want in ((out.alpha_trace, alpha), (out.beta_trace, beta)):
            assert got.dtype == np.int32
            assert np.array_equal(got, want)

    with tempfile.TemporaryDirectory() as tmp:
        dirs = {fmt: Path(tmp, fmt) for fmt in nio.TRACE_FORMATS}
        for fmt, directory in dirs.items():
            nio.save_chain(from_zeta, directory, fmt=fmt)
            back = nio.load_chain(directory)
            assert back.zeta_trace.dtype == np.int32
            assert np.array_equal(back.zeta_trace, zeta)
        if n_scans <= _CHECK_ROWS or n_units == 0:
            return
        # flip one alpha past the first row block: neither or both positive
        row, unit = rng.integers(_CHECK_ROWS, n_scans), rng.integers(n_units)
        alpha[row, unit] = 0 if alpha[row, unit] else 1
        with pytest.raises(ValueError, match="exactly one of alpha, beta must be positive"):
            ChainOutput(alpha_trace=alpha, beta_trace=beta, **rest)
        alpha.astype("<i4").tofile(dirs["bin"] / "alpha_trace.bin")
        np.savetxt(dirs["csv"] / "alpha_trace.csv", alpha, fmt="%d", delimiter=",")
        for directory in dirs.values():
            with pytest.raises(ValueError, match="exactly one of alpha, beta must be positive"):
                nio.load_chain(directory)
