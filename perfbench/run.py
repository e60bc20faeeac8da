"""novelbayes benchmark: one command per workload run.

    python3 perfbench/run.py --workload notsmall --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-benchmark-json

Run from the root of a checkout.  Each run builds its inputs from the
workload and seed, calls the CLI in process (``novelbayes.cli.main``) in a
worker process for about ``--seconds`` seconds, checks every call's output
and prints one metric per line followed by a JSON result line.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones from traced calls.  Call times are
scaled to a nominal host speed measured during each call (hostspeed.py).  Full results,
the environment and the spans go to ``.perfbench/results/``.

BLAS threads are pinned to 1 in the worker's environment, so runs do not
depend on how many cores the machine lends the process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402  (standard library only)

RUN_LIMIT_S = 170  # every run must end within 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


def bench_env(root: Path) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _worker(root: Path, env: dict, action: str, args, timeout: float):
    cmd = [sys.executable, str(HERE / "worker.py"), action, "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                           timeout=timeout)


def setup_seconds(root: Path, env: dict, n: int) -> float:
    """Median wall time to start the interpreter and import novelbayes.cli."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import novelbayes.cli"], env=env,
                       cwd=root, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _finite(x) -> float:
    return float(x) if isinstance(x, (int, float)) and math.isfinite(x) else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    root = Path.cwd()

    if args.write_benchmark_json:
        (root / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (root / "src" / "novelbayes" / "cli.py").is_file():
        print(f"no novelbayes sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    env = bench_env(root)
    ready = spec.input_dir(root, args.workload, args.seed) / spec.READY
    if not ready.exists():
        # own process, so input generation never counts toward the peak RSS
        proc = _worker(root, env, "prepare", args, RUN_LIMIT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
    proc = _worker(root, env, "measure", args,
                   RUN_LIMIT_S - (time.perf_counter() - start))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        return proc.returncode or 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    values = result["values"]
    if args.trace:
        names = [(n, u) for n, u, _ in spec.PER_LAYER]
    else:
        values["setup_s"] = setup_seconds(root, env, spec.SETUP_PROBES)
        names = [(n, u) for n, u, _, _ in spec.END_TO_END]
    metrics = {n: {"value": _finite(values.get(n)), "unit": u} for n, u in names}

    result["workload"], result["seed"], result["trace"] = args.workload, args.seed, args.trace
    out = root / spec.WORK_DIR / "results" / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))

    print(f"environment: {json.dumps(result['environment'])}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"run_s is wall time scaled to the nominal host speed; unscaled "
              f"{values['host.wall_s']:.6g} s, host reference {values['host.ref_us']:.4g} us")
    for name, base in result.get("bases", {}).items():
        print(f"base of {name}: {base}")
    for name in result.get("absent", []):
        print(f"absent: {name} (function not found; its metrics read 0)")
    for name, err in result.get("hook_errors", {}).items():
        print(f"hook failed: {name}: {err}")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
