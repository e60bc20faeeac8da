"""Tests of the benchmark's own arithmetic and wrappers.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest perfbench``.
The tests from the layer metrics on need numpy; one traces a real, tiny chain.
"""

import sys
import types

import pytest

from spans import Probe, Span, Tracer, covered, installed, ratio, resolve, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        tracer.call("leaf", leaf, (2.0,))
        clock.now += 0.5
        tracer.call("leaf", leaf, (3.0,))

    def top():
        tracer.call("middle", middle)
        clock.now += 4.0

    tracer.call("top", top)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = self_times(tracer.spans)
    top_span, = by_name["top"]
    mid_span, = by_name["middle"]
    assert top_span.duration == pytest.approx(10.5)
    assert selfs[top_span.sid] == pytest.approx(4.0)
    assert selfs[mid_span.sid] == pytest.approx(1.5)
    assert [selfs[s.sid] for s in by_name["leaf"]] == pytest.approx([2.0, 3.0])
    assert sum(selfs.values()) == pytest.approx(top_span.duration)


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, "p", None, 0.0, 10.0),
             Span(1, "a", 0, 1.0, 5.0),
             Span(2, "b", 0, 4.0, 6.0),
             Span(3, "c", 0, 9.0, 12.0)]   # runs past its parent's end
    assert covered((0.0, 10.0), [(1.0, 5.0), (4.0, 6.0), (9.0, 12.0)]) == pytest.approx(6.0)
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_ratio_with_zero_base():
    assert ratio(0, 0) == (0.0, 0)
    assert ratio(5, 0) == (0.0, 0)
    assert ratio(3, 4) == (0.75, 4)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.call("boom", boom)
    assert tracer.spans[0].duration == pytest.approx(1.0)
    assert tracer.call("after", lambda: 7) == 7
    assert tracer.spans[1].parent is None


def test_failing_hook_is_recorded_not_raised():
    tracer = Tracer()

    def bad_hook(args, kwargs, out):
        return {"n": args[5]}

    assert tracer.call("f", lambda x: x + 1, (1,), hook=bad_hook) == 2
    assert "IndexError" in tracer.hook_errors["f"]


@pytest.fixture
def fake_package(monkeypatch):
    """pkg.a defines f; pkg.b imports f by value, as ``from .a import f``."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return x * 2

    a.f = f
    b.f = f
    b.call_f = lambda x: b.f(x)
    for m in (pkg, a, b):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    return a, b, f


def test_wrapper_patches_every_importing_namespace_and_restores(fake_package):
    a, b, f = fake_package
    tracer = Tracer()
    with installed(tracer, [Probe("fakepkg.a", "f")], package="fakepkg") as absent:
        assert absent == []
        assert b.call_f(3) == 6
        assert a.f(1) == 2
    assert [s.name for s in tracer.spans] == ["a.f", "a.f"]
    assert a.f is f and b.f is f


def test_missing_name_is_reported_absent(fake_package):
    a, b, f = fake_package
    assert resolve("fakepkg.a", "renamed_away") is None
    assert resolve("fakepkg.no_such_module", "f") is None
    tracer = Tracer()
    probes = [Probe("fakepkg.a", "renamed_away"), Probe("fakepkg.gone", "f"),
              Probe("fakepkg.a", "f", count_only=True)]
    with installed(tracer, probes, package="fakepkg") as absent:
        assert b.call_f(2) == 4
    assert absent == ["a.renamed_away", "gone.f"]
    assert tracer.counts == {"a.f": 1}
    assert tracer.spans == []


def test_layer_metrics_with_absent_layers():
    """A traced call with no chain at all reads 0 for every chain metric,
    including ratios whose base is 0."""
    pytest.importorskip("numpy")
    import layers

    clock = FakeClock()
    tracer = Tracer(clock)

    def main():
        clock.now += 2.0

    tracer.call(layers.ROOT_SPAN, main)
    values, bases = layers.layer_metrics(tracer, overhead_s=0.1)
    assert values["sampler.eligible_ratio"] == 0.0
    assert values["sampler.scan_ms"] == 0.0
    assert values["functional.mean_L"] == 0.0
    assert values["cli.self_s"] == pytest.approx(2.0)
    assert values["trace.covered_ratio"] == 0.0
    assert "0 eligible of 0" in bases["sampler.eligible_ratio"]


def test_traced_tiny_chain():
    """Ratios computed from call arguments and outputs on a real chain."""
    np = pytest.importorskip("numpy")
    nb = pytest.importorskip("novelbayes")
    import layers

    spec = nb.SimulationSpec(train_sizes=(20, 20, 20), test_sizes=(5, 5, 5, 4, 4, 4, 3), seed=3)
    train, test, _ = nb.generate_simulation(spec)
    priors = nb.extract_class_priors(train, nb.McdConfig(eta=0.75, n_starts=5, seed=1))
    hp = nb.Hyperparameters.with_class_weights(
        train.class_sizes, lambda_tr=10.0, nu_tr=10.0, n_iter=12, n_burnin=4, seed=2,
        base_measure=nb.NIWParams(np.zeros(2), 0.01, 10.0, 10 * np.eye(2)))
    tracer = Tracer()
    with installed(tracer, layers.PROBES) as absent:
        tracer.call(layers.ROOT_SPAN, nb.run_chain, (test, priors, hp))
    assert absent == []
    values, _ = layers.layer_metrics(tracer, overhead_s=0.0)
    assert len([s for s in tracer.spans if s.name == "sampler.gibbs_step"]) == 12
    assert 0.0 < values["sampler.eligible_ratio"] <= 1.0
    assert 0.0 < values["sampler.occupied_ratio"] <= 1.0
    assert values["sampler.density_rows_per_scan"] >= 3 * len(test)
    assert values["sampler.mean_L"] == pytest.approx(values["sampler.atom_draws_per_scan"])
    assert values["trace.covered_ratio"] == pytest.approx(1.0, abs=0.01)


def test_scaling_to_nominal_host_speed():
    pytest.importorskip("numpy")
    import hostspeed

    nominal = hostspeed.NOMINAL_S
    assert hostspeed.scaled(10.0, [2 * nominal, 2 * nominal, 9 * nominal]) == pytest.approx(5.0)
    assert hostspeed.scaled(10.0, [nominal / 2]) == pytest.approx(20.0)
    assert hostspeed.scaled(10.0, []) == 10.0


def test_sampling_runs_during_the_block_and_stops_after():
    pytest.importorskip("numpy")
    import signal
    import time

    import hostspeed

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.sampling([]) as samples:
        end = time.perf_counter() + 6 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    taken = len(samples)
    time.sleep(3 * hostspeed.INTERVAL_S)
    assert taken >= 3 and len(samples) == taken
    assert all(s > 0 for s in samples)
    assert signal.getsignal(signal.SIGALRM) is before
