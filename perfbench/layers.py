"""Which package functions the traced run wraps, and how the per-layer
metrics follow from the recorded spans.

Layers are named after the package's modules.  Counts that judge useful
work (eligible density cells, occupied novelty slots, distinct candidate
partitions) are computed here from call arguments and return values, so the
package itself needs no instrumentation.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from spans import Probe, Tracer, ancestors, ratio, self_times

PKG = "novelbayes"
SAMPLER_CHAIN = "sampler.run_chain"
FUNCTIONAL_CHAIN = "functional.run_functional_chain"


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _dir_bytes(directory) -> int:
    return sum(f.stat().st_size for f in Path(directory).iterdir() if f.is_file())


def _chain_info(args, kwargs, out) -> dict:
    """Scans run, and novelty slots occupied over slots drawn per retained scan."""
    beta = np.sort(out.beta_trace, axis=1)
    distinct = (np.diff(beta, axis=1) != 0) & (beta[:, 1:] > 0)
    occupied = int(distinct.sum() + np.count_nonzero(beta[:, 0] > 0))
    drawn = int(np.sum(out.n_active_trace.astype(np.int64) - out.n_known))
    return {"scans": int(out.meta["n_iter"]), "occupied": occupied, "drawn": drawn}


def _allocation_info(args, kwargs, out) -> dict:
    """Density cells a unit could take (u_m < xi_l) out of all M x L cells."""
    u = np.asarray(_arg(args, kwargs, 3, "u"))
    xi = np.asarray(_arg(args, kwargs, 4, "xi"))
    eligible = int(np.count_nonzero(u[:, None] < xi[None, :]))
    return {"eligible": eligible, "cells": u.size * xi.size, "L": xi.size}


def _density_info(args, kwargs, out) -> dict:
    return {"rows": int(np.shape(_arg(args, kwargs, 0, "X"))[0])}


def _candidates_info(args, kwargs, out) -> dict:
    return {"candidates": len(out),
            "retained": int(np.shape(_arg(args, kwargs, 0, "beta_trace"))[0])}


def _summary_info(args, kwargs, out) -> dict:
    return {"units": int(np.size(out.novelty_units))}


def _save_chain_info(args, kwargs, out) -> dict:
    return {"bytes": _dir_bytes(_arg(args, kwargs, 1, "directory"))}


def _load_chain_info(args, kwargs, out) -> dict:
    return {"bytes": _dir_bytes(_arg(args, kwargs, 0, "directory"))}


def _p(module, attr, hook=None, count_only=False):
    return Probe(f"{PKG}.{module}", attr, hook, count_only)


PROBES = [
    _p("robust", "fast_mcd"),
    _p("robust", "mrcd"),
    _p("robust", "_c_steps", count_only=True),
    _p("robust", "_mrcd_c_steps", count_only=True),
    _p("robust", "_subset_moments", count_only=True),
    _p("sampler", "run_chain", _chain_info),
    _p("sampler", "gibbs_step"),
    _p("sampler", "sample_niw"),
    _p("sampler", "niw_posterior"),
    _p("sampler", "log_gaussian_density_many", _density_info),
    _p("sampler", "_sample_allocations", _allocation_info),
    _p("sampler", "_label_swap_sweep"),
    _p("functional", "smooth_curves"),
    _p("functional", "run_functional_chain", _chain_info),
    _p("functional", "coef_conditional"),
    _p("functional", "_prior_novel_atom"),
    _p("functional", "_curve_loglik"),
    _p("postprocess", "summarize", _summary_info),
    _p("postprocess", "coclustering"),
    _p("postprocess", "candidate_partitions", _candidates_info),
    _p("postprocess", "best_partition_vi"),
    _p("postprocess", "classify"),
    _p("io", "load_multivariate"),
    _p("io", "load_curves"),
    _p("io", "save_chain", _save_chain_info),
    _p("io", "load_chain", _load_chain_info),
    _p("io", "save_summary"),
    _p("io", "write_manifest"),
]

ROOT_SPAN = "cli.main"


class _Spans:
    """Lookups over one traced call."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.by_id = {s.sid: s for s in tracer.spans}
        self.selfs = self_times(tracer.spans)

    def of(self, name: str, chain: str | None = None):
        out = [s for s in self.tracer.spans if s.name == name]
        if chain is not None:
            out = [s for s in out
                   if any(a.name == chain for a in ancestors(s, self.by_id))]
        return out

    def seconds(self, name: str, chain: str | None = None) -> float:
        return sum(s.duration for s in self.of(name, chain))

    def info(self, name: str, key: str, chain: str | None = None) -> int:
        return sum(s.info.get(key, 0) for s in self.of(name, chain))

    def self_seconds(self, name: str) -> float:
        return sum(self.selfs[s.sid] for s in self.of(name))


def _chain_metrics(sp: _Spans, chain: str, prefix: str, out: dict, bases: dict):
    scans = sp.info(chain, "scans")
    chain_s = sp.seconds(chain)
    out[f"{prefix}.chain_s"] = chain_s
    out[f"{prefix}.scan_ms"] = ratio(1000.0 * chain_s, scans)[0]
    out[f"{prefix}.allocation_s"] = sp.seconds("sampler._sample_allocations", chain)
    eligible = sp.info("sampler._sample_allocations", "eligible", chain)
    cells = sp.info("sampler._sample_allocations", "cells", chain)
    out[f"{prefix}.eligible_ratio"] = ratio(eligible, cells)[0]
    bases[f"{prefix}.eligible_ratio"] = f"{eligible} eligible of {cells} density cells"
    allocs = sp.of("sampler._sample_allocations", chain)
    out[f"{prefix}.mean_L"] = ratio(sum(s.info.get("L", 0) for s in allocs), len(allocs))[0]
    return scans


def layer_metrics(tracer: Tracer, overhead_s: float) -> tuple[dict, dict]:
    """Per-layer metric values and, for every ratio, a line naming its base."""
    sp = _Spans(tracer)
    out, bases = {}, {}
    root = sp.of(ROOT_SPAN)
    run_s = sum(s.duration for s in root)

    out["robust.stage1_s"] = sp.seconds("robust.fast_mcd") + sp.seconds("robust.mrcd")
    out["robust.cstep_calls"] = (tracer.counts.get("robust._c_steps", 0)
                                 + tracer.counts.get("robust._mrcd_c_steps", 0))
    out["robust.subset_moments_calls"] = tracer.counts.get("robust._subset_moments", 0)

    scans = _chain_metrics(sp, SAMPLER_CHAIN, "sampler", out, bases)
    out["sampler.atom_draw_s"] = sp.seconds("sampler.sample_niw")
    out["sampler.atom_draws_per_scan"] = ratio(len(sp.of("sampler.sample_niw")), scans)[0]
    out["sampler.niw_posterior_s"] = sp.seconds("sampler.niw_posterior")
    out["sampler.density_s"] = sp.seconds("sampler.log_gaussian_density_many", SAMPLER_CHAIN)
    rows = sp.info("sampler.log_gaussian_density_many", "rows", SAMPLER_CHAIN)
    out["sampler.density_rows_per_scan"] = ratio(rows, scans)[0]
    out["sampler.label_swap_s"] = sp.seconds("sampler._label_swap_sweep", SAMPLER_CHAIN)
    out["sampler.step_self_s"] = sp.self_seconds("sampler.gibbs_step")
    occupied = sp.info(SAMPLER_CHAIN, "occupied")
    drawn = sp.info(SAMPLER_CHAIN, "drawn")
    out["sampler.occupied_ratio"] = ratio(occupied, drawn)[0]
    bases["sampler.occupied_ratio"] = (f"{occupied} occupied of {drawn} novelty slots "
                                       "drawn over retained scans")

    scans = _chain_metrics(sp, FUNCTIONAL_CHAIN, "functional", out, bases)
    out["functional.smooth_s"] = sp.seconds("functional.smooth_curves")
    out["functional.coef_draw_s"] = sp.seconds("functional.coef_conditional")
    out["functional.coef_draws_per_scan"] = ratio(
        len(sp.of("functional.coef_conditional")), scans)[0]
    out["functional.prior_atom_s"] = sp.seconds("functional._prior_novel_atom")
    out["functional.prior_atoms_per_scan"] = ratio(
        len(sp.of("functional._prior_novel_atom")), scans)[0]
    out["functional.loglik_s"] = sp.seconds("functional._curve_loglik")
    out["functional.chain_self_s"] = sp.self_seconds(FUNCTIONAL_CHAIN)

    out["postprocess.summarize_s"] = sp.seconds("postprocess.summarize")
    out["postprocess.ppcm_s"] = sp.seconds("postprocess.coclustering")
    out["postprocess.candidates_s"] = sp.seconds("postprocess.candidate_partitions")
    out["postprocess.vi_s"] = sp.seconds("postprocess.best_partition_vi")
    out["postprocess.classify_s"] = sp.seconds("postprocess.classify")
    out["postprocess.novelty_units"] = sp.info("postprocess.summarize", "units")
    candidates = sp.info("postprocess.candidate_partitions", "candidates")
    retained = sp.info("postprocess.candidate_partitions", "retained")
    out["postprocess.candidates"] = candidates
    out["postprocess.candidate_distinct_ratio"] = ratio(candidates, retained)[0]
    bases["postprocess.candidate_distinct_ratio"] = (
        f"{candidates} distinct candidates of {retained} retained scans")
    out["postprocess.run_share"] = ratio(out["postprocess.summarize_s"], run_s)[0]
    bases["postprocess.run_share"] = f"{out['postprocess.summarize_s']:.4f} s of {run_s:.4f} s"

    out["io.load_inputs_s"] = sp.seconds("io.load_multivariate") + sp.seconds("io.load_curves")
    out["io.save_chain_s"] = sp.seconds("io.save_chain")
    out["io.trace_bytes_written"] = sp.info("io.save_chain", "bytes")
    out["io.load_chain_s"] = sp.seconds("io.load_chain")
    out["io.trace_bytes_read"] = sp.info("io.load_chain", "bytes")
    out["io.save_summary_s"] = sp.seconds("io.save_summary")
    out["io.manifest_s"] = sp.seconds("io.write_manifest")

    cli_self = sp.self_seconds(ROOT_SPAN)
    out["cli.self_s"] = cli_self
    out["trace.run_s"] = run_s
    out["trace.overhead_s"] = overhead_s
    out["trace.covered_ratio"] = ratio(run_s - cli_self, run_s)[0]
    bases["trace.covered_ratio"] = (f"{run_s - cli_self:.4f} s inside named spans "
                                    f"of {run_s:.4f} s")
    out["trace.spans"] = len(tracer.spans)
    return out, bases
