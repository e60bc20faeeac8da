"""What the benchmark measures: workloads, metrics, units, directions and
bounds.  ``run.py --write-benchmark-json`` renders this as BENCHMARK.json.

Standard library only, so the entry point can read it before any check
that the package is present.
"""

import shutil

RUN_SECONDS = 25
SETUP_PROBES = 3  # interpreter starts per run; setup_s is their median

# name -> (why, inputs depend on the seed)
WORKLOADS = {
    "notsmall": (
        "fit on the paper's label-noise simulation (M = 950, p = 2): "
        "chain-bound; atom draws and M-row density columns dominate", False),
    "seeds7": (
        "fit on a simulated seeds-shaped set (p = 7, M = 105, one unseen "
        "class): same sampler at small M, where per-call overhead dominates", False),
    "curves": (
        "fit-functional on the criterion-8 toy (150 curves, T = B = 100): "
        "functional chain and MRCD; bypasses the multivariate sampler", False),
    "resummarize": (
        "summarize on stored notsmall-shaped traces (10 000 scans x 950 "
        "units): no chain, only trace reads and post-processing", True),
}

# name, unit, better, bound
END_TO_END = [
    ("run_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("known_accuracy", "ratio", "higher", 0.05),
    ("ari", "ratio", "higher", 0.10),
    ("novelty_precision", "ratio", "higher", 0.05),
]

# name, unit, better
PER_LAYER = [
    ("robust.stage1_s", "s", "lower"),
    ("robust.cstep_calls", "count", "lower"),
    ("robust.subset_moments_calls", "count", "lower"),
    ("sampler.chain_s", "s", "lower"),
    ("sampler.scan_ms", "ms", "lower"),
    ("sampler.atom_draw_s", "s", "lower"),
    ("sampler.atom_draws_per_scan", "count/scan", "lower"),
    ("sampler.niw_posterior_s", "s", "lower"),
    ("sampler.density_s", "s", "lower"),
    ("sampler.density_rows_per_scan", "rows/scan", "lower"),
    ("sampler.allocation_s", "s", "lower"),
    ("sampler.eligible_ratio", "ratio", "higher"),
    ("sampler.label_swap_s", "s", "lower"),
    ("sampler.step_self_s", "s", "lower"),
    ("sampler.mean_L", "count", "lower"),
    ("sampler.occupied_ratio", "ratio", "higher"),
    ("functional.smooth_s", "s", "lower"),
    ("functional.chain_s", "s", "lower"),
    ("functional.scan_ms", "ms", "lower"),
    ("functional.coef_draw_s", "s", "lower"),
    ("functional.coef_draws_per_scan", "count/scan", "lower"),
    ("functional.prior_atom_s", "s", "lower"),
    ("functional.prior_atoms_per_scan", "count/scan", "lower"),
    ("functional.loglik_s", "s", "lower"),
    ("functional.allocation_s", "s", "lower"),
    ("functional.eligible_ratio", "ratio", "higher"),
    ("functional.chain_self_s", "s", "lower"),
    ("functional.mean_L", "count", "lower"),
    ("postprocess.summarize_s", "s", "lower"),
    ("postprocess.ppcm_s", "s", "lower"),
    ("postprocess.candidates_s", "s", "lower"),
    ("postprocess.vi_s", "s", "lower"),
    ("postprocess.classify_s", "s", "lower"),
    ("postprocess.novelty_units", "count", "lower"),
    ("postprocess.candidates", "count", "lower"),
    ("postprocess.candidate_distinct_ratio", "ratio", "lower"),
    ("postprocess.run_share", "ratio", "higher"),
    ("io.load_inputs_s", "s", "lower"),
    ("io.save_chain_s", "s", "lower"),
    ("io.trace_bytes_written", "bytes", "lower"),
    ("io.load_chain_s", "s", "lower"),
    ("io.trace_bytes_read", "bytes", "lower"),
    ("io.save_summary_s", "s", "lower"),
    ("io.manifest_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.covered_ratio", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("host.wall_s", "s", "lower"),
    ("host.ref_us", "us", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, (why, _) in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# where generated inputs live inside the checkout
# ---------------------------------------------------------------------------

WORK_DIR = ".perfbench"
READY = "ready.json"
KEEP_SEEDED_INPUTS = 4  # seed-dependent input sets kept on disk (73 MB each)


def input_dir(root, workload: str, seed: int):
    seeded = WORKLOADS[workload][1]
    tag = f"{workload}-{seed}" if seeded else workload
    return root / WORK_DIR / "inputs" / tag


def evict_inputs(root, workload: str):
    """Delete all but the newest seed-dependent input sets of a workload."""
    if not WORKLOADS[workload][1]:
        return
    dirs = sorted((root / WORK_DIR / "inputs").glob(f"{workload}-*"),
                  key=lambda d: d.stat().st_mtime, reverse=True)
    for d in dirs[KEEP_SEEDED_INPUTS:]:
        shutil.rmtree(d, ignore_errors=True)
