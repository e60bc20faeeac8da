"""Measuring process of the benchmark; started by run.py.

    python3 perfbench/worker.py prepare --root R --workload W --seed N
    python3 perfbench/worker.py measure --root R --workload W --seed N \
        --seconds S --trace 0|1

``measure`` calls ``novelbayes.cli.main`` in this process, repeatedly and
always with the same seed, until the next call would overrun ``--seconds``
(at least once).  Every call is checked: exit code, quality floors, and the
digests of its outputs against the earlier calls and against the digests
recorded by earlier runs of the same workload and seed in this checkout.
With ``--trace 1`` untraced and traced calls alternate; the traced ones give
the per-layer metrics.  run_s is the median over untraced calls of the wall
time scaled to a nominal host speed sampled during the call (hostspeed.py).
The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed


def _calls(seconds: float, one_round):
    """Run ``one_round`` until the next round is predicted to overrun."""
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        one_round()
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return


class Runner:
    def __init__(self, root: Path, name: str, seed: int):
        from novelbayes import cli

        import spec
        import workloads

        self.cli = cli
        self.seed = seed
        self.workload = workloads.WORKLOADS[name]
        self.wl = workloads
        self.indir = workloads.ensure_inputs(root, self.workload, seed)
        self.truth = workloads.read_truth(self.indir)
        self.outdir = root / spec.WORK_DIR / "runs" / f"{name}-{seed}"
        self.digest_log = root / spec.WORK_DIR / "digests.json"
        self.digests = (json.loads(self.digest_log.read_text())
                        if self.digest_log.exists() else {})
        self.key = f"{name}/{seed}"
        self.calls = []      # one dict per CLI call
        self.quality = None

    def call(self, tracer=None) -> dict:
        shutil.rmtree(self.outdir, ignore_errors=True)
        argv = self.workload.argv(self.indir, self.outdir, self.seed)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                hostspeed.sampling([]) as refs:
            t0 = time.perf_counter()
            if tracer is None:
                rc = self.cli.main(argv)
            else:
                rc = tracer.call("cli.main", self.cli.main, (argv,))
            seconds = time.perf_counter() - t0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rec = {"seconds": seconds, "scaled_s": hostspeed.scaled(seconds, refs),
               "ref_us": 1e6 * _median(refs), "ref_samples": len(refs),
               "rss_mb": rss_mb, "rc": rc, "traced": tracer is not None,
               "problems": self._check(rc, sink.getvalue())}
        self.calls.append(rec)
        return rec

    def _check(self, rc, output: str) -> list:
        if rc != 0:
            return [f"exit code {rc}: {output.strip()[-300:]}"]
        w = self.workload
        try:
            labels = self.wl.read_labels(self.wl.summary_dir(w, self.outdir))
            digest = self.wl.digest(self.outdir / f for f in w.trace_files)
        except (OSError, ValueError, IndexError) as exc:
            return [f"unreadable output: {exc}"]
        q = self.wl.quality(labels, self.truth, w.known)
        problems = w.floors(q)
        if self.quality is None:
            self.quality = q
        expected = self.digests.setdefault(self.key, digest)
        if digest != expected:
            problems.append(f"output digest {digest[:12]} differs from {expected[:12]} "
                            "recorded for this workload and seed")
        return problems

    def save_digests(self):
        self.digest_log.write_text(json.dumps(self.digests, indent=1, sort_keys=True))


def environment() -> dict:
    """Interpreter, libraries, BLAS and machine, so results from another
    machine are not compared blindly."""
    import platform

    import numpy as np
    import scipy

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (KeyError, TypeError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def measure(args) -> dict:
    import layers
    import spec
    from spans import Tracer, installed

    r = Runner(Path(args.root), args.workload, args.seed)
    tracer = None
    absent = []
    if args.trace:
        def one_round():
            nonlocal tracer, absent
            r.call()
            tracer = Tracer()
            with installed(tracer, layers.PROBES) as absent:
                r.call(tracer)
    else:
        def one_round():
            r.call()
    _calls(args.seconds, one_round)
    r.save_digests()

    ok = [c for c in r.calls if not c["problems"]]
    untraced = [c for c in ok if not c["traced"]]
    run_s = _median([c["scaled_s"] for c in untraced])
    host = {"host.wall_s": _median([c["seconds"] for c in untraced]),
            "host.ref_us": _median([c["ref_us"] for c in untraced])}
    result = {
        "attempted": len(r.calls),
        "failed": len(r.calls) - len(ok),
        "problems": [p for c in r.calls for p in c["problems"]],
        "calls": r.calls,
        "environment": environment(),
    }
    if args.trace:
        traced = [c["scaled_s"] for c in ok if c["traced"]]
        values, bases = layers.layer_metrics(tracer, _median(traced) - run_s)
        values.update(host)
        result.update(values=values, bases=bases, absent=absent,
                      hook_errors=tracer.hook_errors)
        spans_file = (Path(args.root) / spec.WORK_DIR / "results"
                      / f"{args.workload}-{args.seed}-spans.json")
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps(
            [[s.sid, s.name, s.parent, s.start, s.end, s.info] for s in tracer.spans]))
    else:
        q = r.quality or {}
        result["values"] = dict(host, **{
            "run_s": run_s,
            # peak after the first call, as one CLI process would see it;
            # later calls can raise it through heap fragmentation alone
            "peak_rss_mb": r.calls[0]["rss_mb"],
            "known_accuracy": q.get("known_accuracy", float("nan")),
            "ari": q.get("ari", float("nan")),
            "novelty_precision": q.get("novelty_precision", float("nan")),
        })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    parser.add_argument("action", choices=["prepare", "measure"])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    src = Path(args.root) / "src"
    sys.path.insert(0, str(src))
    import novelbayes

    if Path(novelbayes.__file__).resolve().parent.parent != src.resolve():
        print(f"novelbayes imported from {novelbayes.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.action == "prepare":
        import workloads

        workloads.ensure_inputs(Path(args.root), workloads.WORKLOADS[args.workload], args.seed)
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
