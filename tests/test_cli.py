import json
import re
import urllib.error
import urllib.request
import warnings
from pathlib import Path

import numpy as np
import pytest

import novelbayes.io as nio
from novelbayes import cli
from novelbayes.cli import main
from novelbayes.functional import CurveSet
from novelbayes.sampler import ChainOutput


def run_cli(*argv):
    return main(list(argv))


def _saved_chain(tmp_path, n_units):
    """The traces directory of a stored three-scan chain with two known classes."""
    chain = ChainOutput(zeta_trace=np.ones((3, n_units)),
                        pi_trace=np.tile([0.5, 0.3, 0.2], (3, 1)),
                        gamma_trace=np.ones(3), n_active_trace=np.full(3, 3),
                        n_known=2, seed=0)
    nio.save_chain(chain, tmp_path / "traces")
    return tmp_path / "traces"


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("sim")
    assert run_cli("simulate", "--scenario", "small", "--seed", "3",
                   "--outdir", str(d)) == 0
    return d


class TestSimulateCommand:
    def test_writes_all_files(self, sim_dir):
        for name in ("train.csv", "test.csv", "truth.csv", "manifest.json"):
            assert (sim_dir / name).exists()

    def test_truth_sizes(self, sim_dir):
        truth = [int(x) for x in (sim_dir / "truth.csv").read_text().split()]
        assert len(truth) == 1000


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    d = tmp_path_factory.mktemp("quick")
    assert run_cli("simulate", "--scenario", "small", "--seed", "3",
                   "--outdir", str(d)) == 0
    out = d / "run"
    code = run_cli("fit", "--train", str(d / "train.csv"),
                   "--test", str(d / "test.csv"), "--outdir", str(out),
                   "--eta", "0.75", "--n-starts", "50",
                   "--n-iter", "300", "--n-burnin", "150", "--seed", "9")
    assert code == 0
    return d, out


class TestFitPipeline:
    def test_layout(self, fitted):
        _, out = fitted
        assert (out / "manifest.json").exists()
        assert (out / "traces" / "metadata.json").exists()
        assert (out / "summary" / "labels.csv").exists()
        assert (out / "summary" / "ppcm.json").exists()
        assert (out / "priors.json").exists()

    def test_metrics_command(self, fitted):
        d, out = fitted
        code = run_cli("metrics", "--labels", str(out / "summary" / "labels.csv"),
                       "--truth", str(d / "truth.csv"), "--n-known", "3",
                       "--out", str(out / "metrics.json"))
        assert code == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert set(doc) == {"ari", "novelty_precision", "known_accuracy"}
        # frozen after the first verified run of this exact pipeline;
        # the chain is bit-reproducible so these are exact
        assert doc["known_accuracy"] == pytest.approx(1.0)
        assert doc["novelty_precision"] == pytest.approx(1.0)
        assert doc["ari"] == pytest.approx(0.987378912759185, abs=1e-12)

    def test_summarize_recomputes_identically(self, fitted, tmp_path):
        _, out = fitted
        dest = tmp_path / "summary2"
        code = run_cli("summarize", "--chain-dir", str(out / "traces"),
                       "--outdir", str(dest))
        assert code == 0
        a = (out / "summary" / "labels.csv").read_text()
        b = (dest / "labels.csv").read_text()
        assert a == b

    def test_manifest_echoes_config(self, fitted):
        _, out = fitted
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["config"]["eta"] == "0.75"
        assert doc["seed"] == 9
        assert "train" in doc["inputs"]


class TestExtractPriors:
    def test_writes_json(self, sim_dir, tmp_path):
        out = tmp_path / "priors.json"
        code = run_cli("extract-priors", "--train", str(sim_dir / "train.csv"),
                       "--eta", "0.9", "--n-starts", "50", "--seed", "1",
                       "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["classes"]) == 3


def _write_curve_files(directory):
    rng = np.random.default_rng(0)
    grid = np.linspace(0, 1, 25)
    known = np.sin(2 * np.pi * grid)
    novel = 3 + np.cos(2 * np.pi * grid)
    train = CurveSet(grid, known + rng.normal(0, 0.1, (6, 25)),
                     labels=np.ones(6, dtype=int))
    test = CurveSet(grid, np.vstack([known + rng.normal(0, 0.1, (6, 25)),
                                     novel + rng.normal(0, 0.1, (4, 25))]))
    nio.write_curves(directory / "train.csv", train)
    nio.write_curves(directory / "test.csv", test)


class TestFunctionalPipeline:
    def test_end_to_end(self, tmp_path):
        _write_curve_files(tmp_path)
        out = tmp_path / "frun"
        code = run_cli("fit-functional", "--train", str(tmp_path / "train.csv"),
                       "--test", str(tmp_path / "test.csv"), "--outdir", str(out),
                       "--n-basis", "8", "--order", "3", "--eta", "1.0",
                       "--n-iter", "200", "--n-burnin", "100", "--seed", "2",
                       "--min-size", "2")
        assert code == 0
        assert (out / "summary" / "labels.csv").exists()
        assert (out / "novelty_cluster_means.csv").exists()
        rows = (out / "summary" / "labels.csv").read_text().strip().splitlines()[1:]
        labels = [int(r.split(",")[1]) for r in rows]
        assert all(l == 1 for l in labels[:6])
        assert all(l < 0 for l in labels[6:])


def _fit_argv(command, sim_dir, tmp_path):
    """A quick fit or fit-functional run on small inputs, without --outdir."""
    if command == "fit":
        return [command, "--train", str(sim_dir / "train.csv"),
                "--test", str(sim_dir / "test.csv"), "--n-starts", "20"]
    _write_curve_files(tmp_path)
    return [command, "--train", str(tmp_path / "train.csv"),
            "--test", str(tmp_path / "test.csv"), "--n-basis", "8", "--order", "3"]


def _unlike_test_file(command, sim_dir, tmp_path):
    """Replace the run's test file by one the trained model cannot score: an
    extra column for fit, another time grid for fit-functional."""
    argv = _fit_argv(command, sim_dir, tmp_path)
    test = tmp_path / "unlike.csv"
    if command == "fit":
        data = nio.load_multivariate(sim_dir / "test.csv").data
        nio.write_multivariate(test, np.hstack([data, data[:, :1]]))
    else:
        grid = np.linspace(0, 1, 30)
        nio.write_curves(test, CurveSet(grid, np.sin(2 * np.pi * grid)[None, :]))
    argv[argv.index("--test") + 1] = str(test)
    return argv + ["--n-iter", "3", "--n-burnin", "1"]


class TestErrorPaths:
    def test_missing_test_file(self, sim_dir, tmp_path):
        code = run_cli("fit", "--train", str(sim_dir / "train.csv"),
                       "--test", str(tmp_path / "nope.csv"),
                       "--outdir", str(tmp_path / "x"))
        assert code == 2

    def test_bad_subcommand_is_usage_error(self):
        assert run_cli("frobnicate") == 1

    def test_fit_without_inputs_is_usage_error(self, tmp_path):
        assert run_cli("fit", "--outdir", str(tmp_path)) == 1

    def test_extract_priors_without_train_is_usage_error(self, capsys):
        assert run_cli("extract-priors") == 1
        assert "extract-priors requires --train" in capsys.readouterr().err

    def test_fetch_without_network_is_data_error(self, tmp_path, monkeypatch, capsys):
        def offline(*args, **kwargs):
            raise urllib.error.URLError("network is unreachable")

        monkeypatch.setattr(urllib.request, "urlopen", offline)
        dest = tmp_path / "new" / "dir" / "seeds.txt"
        assert run_cli("fetch", "--name", "seeds", "--dest", str(dest)) == 2
        assert "network is unreachable" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command", ["fit", "fit-functional"])
    def test_unlike_test_file_leaves_no_run_directory(self, command, sim_dir, tmp_path):
        out = tmp_path / "run"
        assert run_cli(*_unlike_test_file(command, sim_dir, tmp_path),
                       "--outdir", str(out)) == 2
        assert not out.exists()

    def test_negative_burnin_stops_before_stage_one(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "neg"
        code = run_cli("fit", "--train", str(sim_dir / "train.csv"),
                       "--test", str(sim_dir / "test.csv"), "--outdir", str(out),
                       "--n-starts", "20", "--n-iter", "3", "--n-burnin", "-2")
        assert code == 2
        assert "n_burnin" in capsys.readouterr().err
        assert not out.exists()

    def test_functional_zero_gamma_is_data_error(self, tmp_path, capsys):
        _write_curve_files(tmp_path)
        out = tmp_path / "frun"
        code = run_cli("fit-functional", "--train", str(tmp_path / "train.csv"),
                       "--test", str(tmp_path / "test.csv"), "--outdir", str(out),
                       "--n-basis", "8", "--order", "3", "--gamma-fixed", "0")
        assert code == 2
        assert "gamma" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_eta_stops_before_output_directory(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "eta"
        code = run_cli("fit", "--train", str(sim_dir / "train.csv"),
                       "--test", str(sim_dir / "test.csv"), "--outdir", str(out),
                       "--n-iter", "3", "--n-burnin", "1", "--eta", "0.3")
        assert code == 2
        assert "eta" in capsys.readouterr().err
        assert not out.exists()

    def test_functional_bad_eta_stops_before_output_directory(self, tmp_path, capsys):
        _write_curve_files(tmp_path)
        out = tmp_path / "feta"
        code = run_cli("fit-functional", "--train", str(tmp_path / "train.csv"),
                       "--test", str(tmp_path / "test.csv"), "--outdir", str(out),
                       "--n-basis", "8", "--order", "3", "--eta", "0.3")
        assert code == 2
        assert "eta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--phi", "--v"])
    def test_functional_negative_phi_stops_before_output_directory(self, tmp_path, capsys,
                                                                   monkeypatch, flag):
        """phi and v are chain settings, checked before Stage I runs."""
        def stage_one(*args, **kwargs):
            raise AssertionError("Stage I ran before the chain settings were checked")

        monkeypatch.setattr(cli, "extract_functional_priors", stage_one)
        _write_curve_files(tmp_path)
        out = tmp_path / "fphi"
        code = run_cli("fit-functional", "--train", str(tmp_path / "train.csv"),
                       "--test", str(tmp_path / "test.csv"), "--outdir", str(out),
                       "--n-basis", "8", "--order", "3", flag, "-1")
        assert code == 2
        assert "phi and v must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,line,key", [
        ("fit", "trace-format = csv", "trace-format"),
        ("fit", "n-iter = abc", "n-iter"),
        ("fit-functional", "layout = diagonal", "layout"),
        ("fit", "n_iter = 5", "unknown config key n_iter"),
    ], ids=["trace-format", "n-iter", "layout", "unknown-key"])
    def test_bad_config_value_stops_before_output_directory(
            self, command, line, key, sim_dir, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        out = tmp_path / "bad"
        code = run_cli(*_fit_argv(command, sim_dir, tmp_path), "--config", str(conf),
                       "--outdir", str(out))
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_empty_labels_file_is_data_error(self, sim_dir, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("")
        code = run_cli("metrics", "--labels", str(labels),
                       "--truth", str(sim_dir / "truth.csv"), "--n-known", "3")
        assert code == 2
        assert str(labels) in capsys.readouterr().err

    def test_labels_row_without_label_is_data_error(self, sim_dir, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("unit,label,ppn,anomaly\n0,1,0.0,0\n1\n")
        code = run_cli("metrics", "--labels", str(labels),
                       "--truth", str(sim_dir / "truth.csv"), "--n-known", "3")
        assert code == 2
        assert "row 3" in capsys.readouterr().err

    def test_fractional_truth_label_is_data_error(self, fitted, tmp_path, capsys):
        d, out = fitted
        values = (d / "truth.csv").read_text().split()
        truth = tmp_path / "truth.csv"
        truth.write_text("\n".join(["1.7"] + values[1:]) + "\n")
        code = run_cli("metrics", "--labels", str(out / "summary" / "labels.csv"),
                       "--truth", str(truth), "--n-known", "3")
        assert code == 2
        assert f"{truth}: label column must be integer" in capsys.readouterr().err

    def test_fractional_curve_label_stops_before_output_directory(self, tmp_path, capsys):
        argv = _fit_argv("fit-functional", None, tmp_path)
        train = tmp_path / "train.csv"
        lines = train.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",1.7"  # was label 1
        train.write_text("\n".join(lines) + "\n")
        out = tmp_path / "frun"
        code = run_cli(*argv, "--outdir", str(out), "--n-iter", "30", "--n-burnin", "10")
        assert code == 2
        assert f"{train}: label column must be integer" in capsys.readouterr().err
        assert not out.exists()

    def test_layout_is_no_option(self, tmp_path, capsys):
        """Curves are read in the wide layout only."""
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["fit-functional", "--help"])
        assert "--layout" not in capsys.readouterr().out
        out = tmp_path / "frun"
        assert run_cli(*_fit_argv("fit-functional", None, tmp_path), "--layout", "wide",
                       "--outdir", str(out), "--n-iter", "30", "--n-burnin", "10") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "fit-functional"])
    def test_trace_format_is_no_option(self, command, tmp_path, capsys):
        """Traces are written as flat binaries only."""
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--help"])
        assert "--trace-format" not in capsys.readouterr().out
        out = tmp_path / "run"
        assert run_cli(command, "--train", str(tmp_path / "train.csv"), "--test",
                       str(tmp_path / "test.csv"), "--trace-format", "csv",
                       "--outdir", str(out)) == 1
        assert not out.exists()

    @pytest.mark.parametrize("meta", [
        {},
        {"n_known": 1, "seed": 0, "meta": {}, "arrays": {}},
        {"n_known": 1, "seed": 0, "meta": {}, "arrays": {"alpha_trace": {}}},
    ])
    def test_incomplete_chain_metadata_is_data_error(self, meta, tmp_path, capsys):
        chain = tmp_path / "traces"
        chain.mkdir()
        (chain / "metadata.json").write_text(json.dumps(meta))
        assert run_cli("summarize", "--chain-dir", str(chain)) == 2
        assert "missing key" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha, beta, message", [
        (-1, 2, "alpha trace labels span [-1, 1]"),
        (7, 0, "alpha trace labels span [1, 7], outside [0, 2]"),
    ])
    def test_out_of_range_trace_labels_leave_no_summary(self, alpha, beta, message,
                                                        tmp_path, capsys):
        traces = tmp_path / "traces"
        chain = ChainOutput(alpha_trace=np.ones((3, 2)), beta_trace=np.zeros((3, 2)),
                            pi_trace=np.tile([0.5, 0.3, 0.2], (3, 1)),
                            gamma_trace=np.ones(3), n_active_trace=np.full(3, 3),
                            n_known=2, seed=0)
        nio.save_chain(chain, traces)
        for name, value in (("alpha_trace", alpha), ("beta_trace", beta)):
            trace = getattr(chain, name).copy()
            trace[1, 0] = value
            trace.astype("<i4").tofile(traces / f"{name}.bin")
        assert run_cli("summarize", "--chain-dir", str(traces)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "summary").exists()

    @pytest.mark.parametrize("n_units", [0, 2])
    def test_missing_trace_file_is_data_error(self, n_units, tmp_path, capsys):
        traces = _saved_chain(tmp_path, n_units)
        (traces / "alpha_trace.bin").unlink()
        assert run_cli("summarize", "--chain-dir", str(traces)) == 2
        err = capsys.readouterr().err
        assert str(traces / "alpha_trace.bin") in err and err.count("\n") == 1
        assert not (tmp_path / "summary").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta["arrays"]["pi_trace"].update(dtype="foo"), "data type 'foo'"),
        (lambda meta: meta["arrays"]["pi_trace"].update(dtype="<U3"), "pi_trace has dtype"),
        (lambda meta: meta["arrays"]["gamma_trace"].update(shape="abc"), "integer"),
        (lambda meta: meta["arrays"]["gamma_trace"].update(shape=[-3]), "shape [-3]"),
        (lambda meta: meta["arrays"]["alpha_trace"].update(shape=[]), "shape []"),
        (lambda meta: meta["arrays"]["beta_trace"].update(file=5), "metadata.json"),
        (lambda meta: meta.update(arrays=[]), "metadata.json"),
        (lambda meta: meta.update(n_known="2"), "integer"),
        (lambda meta: "{not json", "metadata.json"),
    ], ids=["dtype-foo", "dtype-str", "shape-abc", "shape-negative", "shape-empty",
            "file-number", "arrays-list", "n-known-str", "not-json"])
    def test_malformed_chain_metadata_is_data_error(self, edit, message, tmp_path, capsys):
        traces = _saved_chain(tmp_path, 2)
        meta = json.loads((traces / "metadata.json").read_text())
        text = edit(meta)
        (traces / "metadata.json").write_text(text or json.dumps(meta))
        assert run_cli("summarize", "--chain-dir", str(traces)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {traces / 'metadata.json'}: ") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "summary").exists()

    def test_csv_trace_is_data_error(self, tmp_path, capsys):
        """A run directory with CSV traces is refused, not read."""
        traces = _saved_chain(tmp_path, 2)
        meta = json.loads((traces / "metadata.json").read_text())
        meta["arrays"]["alpha_trace"].update(file="alpha_trace.csv", format="csv")
        (traces / "metadata.json").write_text(json.dumps(meta))
        np.savetxt(traces / "alpha_trace.csv", np.ones((3, 2)), fmt="%d", delimiter=",")
        assert run_cli("summarize", "--chain-dir", str(traces)) == 2
        assert capsys.readouterr().err == (f"data error: {traces / 'alpha_trace.csv'}: a 'csv' "
                                           "trace; only 'bin' traces are read\n")
        assert not (tmp_path / "summary").exists()

    def test_trace_shapes_that_disagree_are_data_error(self, tmp_path, capsys):
        traces = _saved_chain(tmp_path, 2)
        meta = json.loads((traces / "metadata.json").read_text())
        meta["arrays"]["gamma_trace"]["shape"] = [5]  # against 3 retained scans
        (traces / "metadata.json").write_text(json.dumps(meta))
        np.ones(5).astype("<f8").tofile(traces / "gamma_trace.bin")
        assert run_cli("summarize", "--chain-dir", str(traces)) == 2
        assert capsys.readouterr().err == "data error: gamma_trace has shape (5,), not (3,)\n"
        assert not (tmp_path / "summary").exists()

    @pytest.mark.parametrize("name, dtype", [("alpha_trace", "<f8"), ("beta_trace", "<f4")])
    def test_non_integer_trace_labels_leave_no_summary(self, name, dtype, tmp_path, capsys):
        traces = tmp_path / "traces"
        chain = ChainOutput(alpha_trace=np.ones((3, 2)), beta_trace=np.zeros((3, 2)),
                            pi_trace=np.tile([0.5, 0.3, 0.2], (3, 1)),
                            gamma_trace=np.ones(3), n_active_trace=np.full(3, 3),
                            n_known=2, seed=0)
        nio.save_chain(chain, traces)
        trace = getattr(chain, name).astype(dtype)
        trace[1, 0] += 0.9  # alpha 1.9 or beta 0.9 would truncate to a valid label
        trace.tofile(traces / f"{name}.bin")
        meta = json.loads((traces / "metadata.json").read_text())
        meta["arrays"][name]["dtype"] = dtype
        (traces / "metadata.json").write_text(json.dumps(meta))
        assert run_cli("summarize", "--chain-dir", str(traces)) == 2
        assert f"{name} has dtype {dtype}, not an integer type" in capsys.readouterr().err
        assert not (tmp_path / "summary").exists()

    def test_malformed_data_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,x\n")
        code = run_cli("fit", "--train", str(bad), "--test", str(bad),
                       "--outdir", str(tmp_path / "y"))
        assert code == 2


# curve training labels that break the class rule, and the rule's message
_CURVE_LABELS = {
    "curve labels 1 and 3": ([1, 1, 1, 3, 3, 3], "labels must cover every class 1..J"),
    "a curve label of -1": ([1, 1, 1, 1, 1, -1], "labels must be 1-based class indices"),
    "a class of one curve": ([1, 1, 1, 1, 1, 2], "every class needs at least two observations"),
}


def _adversarial_inputs(case, directory):
    """Train and test files of one degenerate input, and the fit command."""
    rng = np.random.default_rng(7)
    p, scale, sizes = 2, 1.0, (30, 30)
    test = rng.normal(size=(20, 2))
    if case == "constant curves" or case in _CURVE_LABELS:
        grid = np.linspace(0, 1, 20)
        if case == "constant curves":
            nio.write_curves(directory / "train.csv",
                             CurveSet(grid, np.ones((12, 20)), np.repeat([1, 2], 6)))
        else:  # written as text, since a CurveSet rejects these labels
            rows = [[*np.sin(6 * grid) + rng.normal(0, 0.1, 20), label]
                    for label in _CURVE_LABELS[case][0]]
            (directory / "train.csv").write_text(
                "".join(",".join(map(str, row)) + "\n" for row in [grid, *rows]))
        nio.write_curves(directory / "test.csv", CurveSet(grid, np.ones((5, 20))))
        return ["fit-functional", "--n-basis", "8", "--order", "3"]
    if case == "one test row":
        test = test[:1]
    elif case == "one feature":
        p, test = 1, test[:, :1]
    elif case == "duplicated test rows":
        test = np.repeat(test[:1], 15, axis=0)
    elif case == "a class of two rows":
        sizes = (30, 2)
    elif case.startswith("values near"):  # 1e160 squared overflows
        scale = float(case.split()[-1])
        test = test * scale
    train = np.vstack([rng.normal(3 * k, 1, (n, p)) for k, n in enumerate(sizes)]) * scale
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    nio.write_multivariate(directory / "train.csv", train, labels)
    nio.write_multivariate(directory / "test.csv", test)
    return ["fit"]


@pytest.mark.parametrize("case, code", [
    ("one test row", 0), ("one feature", 0), ("duplicated test rows", 0),
    ("a class of two rows", 0), ("values near 1e150", 0), ("values near 1e160", 2),
    ("constant curves", 2), *((case, 2) for case in _CURVE_LABELS)])
def test_adversarial_inputs_end_in_their_exit_code(case, code, tmp_path, capsys):
    """Degenerate inputs run through Stage I and the chain and end in the
    documented exit code (0 success, 2 data error, 3 numerical failure);
    at 1e160 the squared deviations would overflow, a DataError (exit 2)
    raised before they are computed.  Curve training labels follow the
    multivariate class rule and fail when the file is loaded."""
    argv = _adversarial_inputs(case, tmp_path)
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(*argv, "--train", str(tmp_path / "train.csv"),
                       "--test", str(tmp_path / "test.csv"), "--outdir", str(out),
                       "--n-starts", "20", "--n-iter", "30", "--n-burnin", "10") == code
    err = capsys.readouterr().err
    if code:  # one line naming the failure, no traceback
        assert err.count("\n") == 1 and "Traceback" not in err
    else:
        assert (out / "summary" / "labels.csv").exists()
    if case == "values near 1e150":  # the determinants overflow: JSON null, not Infinity
        doc = json.loads((out / "priors.json").read_text(), parse_constant=_not_json)
        assert [c["determinant"] for c in doc["classes"]] == [None, None]
    if case == "values near 1e160":
        assert "overflow" in err
    if case in _CURVE_LABELS:
        assert err == f"error: {_CURVE_LABELS[case][1]}\n" and not out.exists()
    if case.startswith("values near"):
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _not_json(constant):
    raise ValueError(f"{constant} is not valid JSON")


class TestManifestDeterminism:
    def test_identical_runs_identical_outputs(self, tmp_path):
        d = tmp_path
        assert run_cli("simulate", "--scenario", "small", "--seed", "4",
                       "--outdir", str(d / "data")) == 0
        args = ["fit", "--train", str(d / "data" / "train.csv"),
                "--test", str(d / "data" / "test.csv"),
                "--eta", "0.9", "--n-starts", "20",
                "--n-iter", "120", "--n-burnin", "60", "--seed", "5"]
        assert run_cli(*args, "--outdir", str(d / "r1")) == 0
        assert run_cli(*args, "--outdir", str(d / "r2")) == 0
        for rel in ("traces/alpha_trace.bin", "traces/beta_trace.bin",
                    "traces/pi_trace.bin", "summary/labels.csv", "summary/ppcm.bin"):
            b1 = (d / "r1" / rel).read_bytes()
            b2 = (d / "r2" / rel).read_bytes()
            assert b1 == b2, rel


def test_every_option_is_offered_or_config_only():
    """_OPTIONS decides which config keys are accepted, so a key that no
    command offers and no config file needs would let a dead knob through."""
    offered = {key for command in cli._COMMANDS.values() for key in command.options}
    config_only = {"config", "seed", "outdir", "max-csteps", "gamma-shape", "gamma-rate"}
    assert sorted(cli._OPTIONS.keys() - offered - config_only) == []


def test_readme_configuration_lists_every_fit_option():
    """Every option of both fit commands, and the config-only keys, appear in
    the README's Configuration section, and every backticked token there is
    an option, a command or ``key = value``, so a removed key cannot stay
    documented."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1].split("\n#", 1)[0]
    named = {token.lstrip("-") for token in re.findall(r"`([^`]+)`", section)}
    keys = {"config", "seed", "outdir", "max-csteps", "gamma-shape", "gamma-rate"}
    for command in ("fit", "fit-functional"):
        keys.update(cli._COMMANDS[command].options)
    assert keys <= set(cli._OPTIONS)
    assert sorted(keys - named) == []
    assert sorted(named - cli._OPTIONS.keys() - cli._COMMANDS.keys() - {"key = value"}) == []
