"""Command-line pipeline: simulate / extract-priors / fit / fit-functional /
summarize / metrics (+ fetch for the public benchmark tables).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every fitting run writes a manifest.json (config echo, seed, input digests)
so results can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import io as nio
from .errors import DataError, NoveltyError, NumericalError, ParseError
from .functional import BasisSpec, FunctionalHyper, extract_functional_priors, run_functional_chain
from .model import GammaPrior, Hyperparameters, NIWParams
from .postprocess import ari, known_accuracy, novelty_precision, summarize
from .robust import McdConfig, extract_class_priors
from .sampler import run_chain
from .simulate import SimulationSpec, generate_simulation

USAGE_EXIT, DATA_EXIT, NUMERICAL_EXIT = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--seed", type=int, help="root seed for the whole run")
    p.add_argument("--outdir", help="output directory")


def _merged_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        cfg.update(nio.read_config(args.config))
    for key, value in vars(args).items():
        if key in ("config", "command") or value is None:
            continue
        cfg[key.replace("_", "-")] = value
    return cfg


def _get(cfg, key, cast, default):
    if key in cfg:
        return cast(cfg[key])
    return default


def _mcd_config(cfg) -> McdConfig:
    return McdConfig(
        eta=_get(cfg, "eta", float, 0.75),
        n_starts=_get(cfg, "n-starts", int, 500),
        max_csteps=_get(cfg, "max-csteps", int, 100),
        seed=_get(cfg, "seed", int, 0),
    )


def _gamma_from(cfg):
    if "gamma-fixed" in cfg:
        return float(cfg["gamma-fixed"])
    return GammaPrior(_get(cfg, "gamma-shape", float, 1.0),
                      _get(cfg, "gamma-rate", float, 1.0))


def _base_measure(cfg, p: int) -> NIWParams:
    m0 = cfg.get("m0", "0")
    parts = [float(x) for x in str(m0).split(",")]
    mean = np.full(p, parts[0]) if len(parts) == 1 else np.asarray(parts)
    nu0 = _get(cfg, "nu0", float, float(max(p + 2, 10)))
    return NIWParams(mean,
                     _get(cfg, "lambda0", float, 0.01),
                     nu0,
                     _get(cfg, "s0-scale", float, 10.0) * np.eye(p))


def _chain_settings(settings_cls, cfg, class_sizes, n_iter: int, n_burnin: int, **own):
    """Settings of either chain: the flags both fit commands share, with the
    command's own scan-count defaults, plus the model's own fields."""
    return settings_cls.with_class_weights(
        class_sizes,
        a0=_get(cfg, "a0", float, 0.1),
        gamma=_gamma_from(cfg),
        kappa=_get(cfg, "kappa", float, 0.5),
        n_iter=_get(cfg, "n-iter", int, n_iter),
        n_burnin=_get(cfg, "n-burnin", int, n_burnin),
        seed=_get(cfg, "seed", int, 0),
        **own)


def _summarize(cfg, output):
    return summarize(output,
                     ppn_threshold=_get(cfg, "ppn-threshold", float, 0.5),
                     min_size=_get(cfg, "min-size", int, None))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    cfg = _merged_config(args)
    outdir = Path(cfg.get("outdir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    seed = _get(cfg, "seed", int, 0)
    spec = SimulationSpec.scenario(
        novelty_size=cfg.get("scenario", "notsmall"),
        label_noise=str(cfg.get("label-noise", "false")).lower() in ("1", "true", "yes"),
        seed=seed)
    train, test, truth = generate_simulation(spec)
    nio.write_multivariate(outdir / "train.csv", train.data, train.labels)
    nio.write_multivariate(outdir / "test.csv", test.data)
    with open(outdir / "truth.csv", "w") as fh:
        fh.writelines(f"{int(t)}\n" for t in truth)
    nio.write_manifest(outdir, cfg, seed, {})
    print(f"wrote train/test/truth to {outdir}")
    return 0


def _cmd_extract_priors(args) -> int:
    cfg = _merged_config(args)
    train = nio.load_multivariate(cfg["train"], has_labels=True,
                                  has_header=str(cfg.get("header", "false")).lower() == "true")
    summaries = extract_class_priors(train, _mcd_config(cfg))
    out = Path(cfg.get("out", "priors.json"))
    nio.summaries_to_json(summaries, out)
    print(f"wrote {len(summaries)} class summaries to {out}")
    return 0


def _fit_common(cfg, outdir: Path, run, inputs: dict, seed: int):
    fmt = cfg.get("trace-format", "bin")
    if fmt not in nio.TRACE_FORMATS:
        raise ValueError(f"trace-format must be one of {', '.join(nio.TRACE_FORMATS)}")
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    output, summary = run()
    nio.save_chain(output, outdir / "traces", fmt=fmt)
    nio.save_summary(summary, outdir / "summary")
    nio.write_manifest(outdir, {k: str(v) for k, v in cfg.items()}, seed, inputs,
                       runtime_seconds=time.perf_counter() - t0)


def _cmd_fit(args) -> int:
    cfg = _merged_config(args)
    for key in ("train", "test"):
        if key not in cfg:
            print(f"fit requires --{key}", file=sys.stderr)
            return USAGE_EXIT
    outdir = Path(cfg.get("outdir", "run"))
    header = str(cfg.get("header", "false")).lower() == "true"
    train = nio.load_multivariate(cfg["train"], has_labels=True, has_header=header)
    test = nio.load_multivariate(cfg["test"], has_labels=False, has_header=header)
    hp = _chain_settings(
        Hyperparameters, cfg, train.class_sizes, 20000, 10000,
        lambda_tr=_get(cfg, "lambda-tr", float, 10.0),
        nu_tr=_get(cfg, "nu-tr", float, float(max(train.dim + 2, 10))),
        base_measure=_base_measure(cfg, train.dim))
    mcd = _mcd_config(cfg)

    def run():
        priors = extract_class_priors(train, mcd)
        nio.summaries_to_json(priors, outdir / "priors.json")
        output = run_chain(test, priors, hp)
        return output, _summarize(cfg, output)

    _fit_common(cfg, outdir, run,
                {"train": cfg["train"], "test": cfg["test"]}, hp.seed)
    print(f"fit complete; outputs under {outdir}")
    return 0


def _cmd_fit_functional(args) -> int:
    cfg = _merged_config(args)
    for key in ("train", "test"):
        if key not in cfg:
            print(f"fit-functional requires --{key}", file=sys.stderr)
            return USAGE_EXIT
    outdir = Path(cfg.get("outdir", "run"))
    layout = cfg.get("layout", "wide")
    train = nio.load_curves(cfg["train"], layout=layout, has_labels=True)
    test = nio.load_curves(cfg["test"], layout=layout)
    basis = BasisSpec(n_basis=_get(cfg, "n-basis", int, 100),
                      order=_get(cfg, "order", int, 5))
    hyper = _chain_settings(
        FunctionalHyper, cfg, np.bincount(train.labels)[1:], 10000, 5000,
        a_tau=_get(cfg, "a-tau", float, 3.0),
        b_tau=_get(cfg, "b-tau", float, 1.0),
        s2=_get(cfg, "s2", float, 1.0),
        a_H=_get(cfg, "a-h", float, 5.0),
        b_H=_get(cfg, "b-h", float, 1.0),
        basis=basis)
    mcd = _mcd_config(cfg)
    phi, v = _get(cfg, "phi", float, 0.0), _get(cfg, "v", float, 0.0)
    if min(phi, v) < 0:
        raise ValueError("phi and v must be non-negative")

    def run():
        priors = extract_functional_priors(train, basis, mcd, phi=phi, v=v)
        output = run_functional_chain(test, priors, hyper)
        summary = _summarize(cfg, output)
        # per-cluster mean curves for the novelty partition
        _write_cluster_means(outdir, test, summary)
        return output, summary

    _fit_common(cfg, outdir, run,
                {"train": cfg["train"], "test": cfg["test"]}, hyper.seed)
    print(f"functional fit complete; outputs under {outdir}")
    return 0


def _write_cluster_means(outdir: Path, test, summary):
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    ids = np.unique(summary.best_partition)
    for s in ids:
        members = summary.novelty_units[summary.best_partition == s]
        rows.append((int(s), test.values[members].mean(axis=0)))
    with open(outdir / "novelty_cluster_means.csv", "w") as fh:
        fh.write("cluster," + ",".join(repr(float(t)) for t in test.grid) + "\n")
        for s, curve in rows:
            fh.write(f"{s}," + ",".join(repr(float(x)) for x in curve) + "\n")


def _cmd_summarize(args) -> int:
    cfg = _merged_config(args)
    chain_dir = cfg.get("chain-dir")
    if not chain_dir:
        print("summarize requires --chain-dir", file=sys.stderr)
        return USAGE_EXIT
    summary = _summarize(cfg, nio.load_chain(chain_dir))
    dest = Path(cfg.get("outdir", Path(chain_dir).parent / "summary"))
    nio.save_summary(summary, dest)
    print(f"summary written to {dest}")
    return 0


def _cmd_metrics(args) -> int:
    cfg = _merged_config(args)
    for key in ("labels", "truth", "n-known"):
        if key not in cfg:
            print(f"metrics requires --{key}", file=sys.stderr)
            return USAGE_EXIT
    labels = []
    with open(cfg["labels"]) as fh:
        if not fh.readline():
            raise ParseError(f"{cfg['labels']}: empty file, expected a header row")
        for lineno, line in enumerate(fh, start=2):
            fields = line.split(",")
            if len(fields) < 2:
                raise ParseError(f"{cfg['labels']}: row {lineno} has no label column")
            labels.append(int(fields[1]))
    truth = [int(float(x)) for x in Path(cfg["truth"]).read_text().split()]
    J = int(cfg["n-known"])
    known = list(range(1, J + 1))
    out = {
        "ari": ari(labels, truth),
        "novelty_precision": novelty_precision(labels, truth, known),
        "known_accuracy": known_accuracy(labels, truth, known),
    }
    out = {k: (None if np.isnan(v) else v) for k, v in out.items()}
    text = json.dumps(out, indent=1)
    if cfg.get("out"):
        Path(cfg["out"]).write_text(text)
    print(text)
    return 0


def _cmd_fetch(args) -> int:
    cfg = _merged_config(args)
    name = cfg.get("name")
    if not name:
        print("fetch requires --name", file=sys.stderr)
        return USAGE_EXIT
    source = nio.DATASET_SOURCES.get(name)
    if source is None:
        print(f"unknown dataset {name!r}", file=sys.stderr)
        return USAGE_EXIT
    print(f"{name}: {source['notes']}\nsource: {source['url']}")
    dest = cfg.get("dest", f"{name}.txt")
    path = nio.fetch_dataset(name, dest)
    print(f"saved to {path} (sha256 {nio.file_sha256(path)})")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="novelbayes",
                     description="two-stage robust Bayesian novelty detection")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate the synthetic benchmark")
    _add_common(p)
    p.add_argument("--scenario", choices=["notsmall", "small"])
    p.add_argument("--label-noise", action="store_const", const="true")

    p = sub.add_parser("extract-priors", help="stage I only")
    _add_common(p)
    p.add_argument("--train")
    p.add_argument("--eta", type=float)
    p.add_argument("--n-starts", type=int)
    p.add_argument("--out")

    for name in ("fit", "fit-functional"):
        p = sub.add_parser(name, help=f"{name}: stage I + sampler + post-processing")
        _add_common(p)
        p.add_argument("--train")
        p.add_argument("--test")
        p.add_argument("--eta", type=float)
        p.add_argument("--n-starts", type=int)
        p.add_argument("--a0", type=float)
        p.add_argument("--kappa", type=float)
        p.add_argument("--n-iter", type=int)
        p.add_argument("--n-burnin", type=int)
        p.add_argument("--gamma-fixed", type=float)
        p.add_argument("--ppn-threshold", type=float)
        p.add_argument("--min-size", type=int)
        p.add_argument("--trace-format", choices=nio.TRACE_FORMATS)
        if name == "fit":
            p.add_argument("--lambda-tr", type=float)
            p.add_argument("--nu-tr", type=float)
            p.add_argument("--lambda0", type=float)
            p.add_argument("--nu0", type=float)
            p.add_argument("--s0-scale", type=float)
            p.add_argument("--m0")
            p.add_argument("--header", action="store_const", const="true")
        else:
            p.add_argument("--n-basis", type=int)
            p.add_argument("--order", type=int)
            p.add_argument("--a-tau", type=float)
            p.add_argument("--b-tau", type=float)
            p.add_argument("--s2", type=float)
            p.add_argument("--a-h", type=float)
            p.add_argument("--b-h", type=float)
            p.add_argument("--phi", type=float)
            p.add_argument("--v", type=float)
            p.add_argument("--layout", choices=["wide", "long"])

    p = sub.add_parser("summarize", help="recompute the posterior summary")
    _add_common(p)
    p.add_argument("--chain-dir")
    p.add_argument("--ppn-threshold", type=float)
    p.add_argument("--min-size", type=int)

    p = sub.add_parser("metrics", help="score labels against ground truth")
    _add_common(p)
    p.add_argument("--labels")
    p.add_argument("--truth")
    p.add_argument("--n-known", type=int)
    p.add_argument("--out")

    p = sub.add_parser("fetch", help="download a public benchmark table")
    _add_common(p)
    p.add_argument("--name")
    p.add_argument("--dest")
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "extract-priors": _cmd_extract_priors,
    "fit": _cmd_fit,
    "fit-functional": _cmd_fit_functional,
    "summarize": _cmd_summarize,
    "metrics": _cmd_metrics,
    "fetch": _cmd_fetch,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
        return DATA_EXIT
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except (NoveltyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
