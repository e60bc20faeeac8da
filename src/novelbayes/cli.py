"""Command-line pipeline: simulate / extract-priors / fit / fit-functional /
summarize / metrics (+ fetch for the public benchmark tables).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Every fitting run writes a manifest.json (config echo, seed, input digests)
so results can be reproduced exactly.  Flags, config keys and their checks
follow from two tables, ``_OPTIONS`` and ``_COMMANDS``; only the options the
user set are passed on, so the rest keep their defaults in the library.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

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


def _flag(value) -> bool:
    return str(value).lower() in ("1", "true", "yes")


class _Option(NamedTuple):
    type: Callable = str
    choices: Optional[tuple] = None
    help: Optional[str] = None


# every flag and the only config keys; max-csteps, gamma-shape and
# gamma-rate are config-only, since no command lists them in _COMMANDS
_OPTIONS = {
    "config": _Option(help="flat key=value config file; flags override it"),
    "seed": _Option(int, help="root seed for the whole run"),
    "outdir": _Option(help="output directory"),
    "scenario": _Option(choices=("notsmall", "small")),
    "label-noise": _Option(_flag),
    "header": _Option(_flag),
    **dict.fromkeys(("train", "test", "out", "m0", "chain-dir", "labels", "truth",
                     "name", "dest"), _Option()),
    **dict.fromkeys(("n-starts", "max-csteps", "n-iter", "n-burnin", "min-size",
                     "n-basis", "order", "n-known"), _Option(int)),
    **dict.fromkeys(("eta", "a0", "kappa", "gamma-fixed", "gamma-shape", "gamma-rate",
                     "ppn-threshold", "lambda-tr", "nu-tr", "lambda0", "nu0", "s0-scale",
                     "a-tau", "b-tau", "s2", "a-h", "b-h", "phi", "v"), _Option(float)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _merged_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        cfg.update(nio.read_config(args.config))
        unknown = sorted(cfg.keys() - _OPTIONS.keys())
        if unknown:
            raise ParseError(f"{args.config}: unknown config key {', '.join(unknown)}")
    for key, value in vars(args).items():
        if key in ("config", "command") or value is None:
            continue
        cfg[key.replace("_", "-")] = value
    return cfg


def _get(cfg, key, default=None):
    """``cfg[key]`` cast to the option's type and checked against its
    choices, or ``default`` when the key is not set."""
    if key not in cfg:
        return default
    option = _OPTIONS[key]
    try:
        value = option.type(cfg[key])
    except ValueError:
        raise ValueError(f"{key}: cannot read {cfg[key]!r} as "
                         f"{option.type.__name__}") from None
    if option.choices and value not in option.choices:
        raise ValueError(f"{key} must be one of {', '.join(option.choices)}")
    return value


def _given(cfg, *fields, **keyed) -> dict:
    """Keyword arguments for only the options the user set.  Each field reads
    the option spelt like it (lower case, '-' for '_') unless ``keyed`` names
    the option."""
    keys = {field: field.lower().replace("_", "-") for field in fields} | keyed
    return {field: _get(cfg, key) for field, key in keys.items() if key in cfg}


def _mcd_config(cfg) -> McdConfig:
    return McdConfig(**_given(cfg, "eta", "n_starts", "max_csteps", "seed"))


def _chain_settings(settings_cls, cfg, class_sizes, n_iter: int, n_burnin: int, **own):
    """Settings of either chain: the options both fit commands share, with the
    command's own scan-count defaults, plus the model's own fields."""
    gamma = _get(cfg, "gamma-fixed") if "gamma-fixed" in cfg \
        else GammaPrior(**_given(cfg, shape="gamma-shape", rate="gamma-rate"))
    return settings_cls.with_class_weights(
        class_sizes, gamma=gamma,
        n_iter=_get(cfg, "n-iter", n_iter), n_burnin=_get(cfg, "n-burnin", n_burnin),
        **_given(cfg, "a0", "kappa", "seed"), **own)


def _summarize(cfg, output):
    return summarize(output, **_given(cfg, "ppn_threshold", "min_size"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg) -> int:
    spec = SimulationSpec.scenario(**_given(cfg, "label_noise", "seed",
                                            novelty_size="scenario"))
    train, test, truth = generate_simulation(spec)
    outdir = Path(cfg.get("outdir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    nio.write_multivariate(outdir / "train.csv", train.data, train.labels)
    nio.write_multivariate(outdir / "test.csv", test.data)
    nio.write_multivariate(outdir / "truth.csv", np.empty((truth.size, 0)), truth)
    nio.write_manifest(outdir, cfg, spec.seed, {})
    print(f"wrote train/test/truth to {outdir}")
    return 0


def _cmd_extract_priors(cfg) -> int:
    train = nio.load_multivariate(cfg["train"], has_labels=True,
                                  **_given(cfg, has_header="header"))
    summaries = extract_class_priors(train, _mcd_config(cfg))
    out = Path(cfg.get("out", "priors.json"))
    nio.summaries_to_json(summaries, out)
    print(f"wrote {len(summaries)} class summaries to {out}")
    return 0


def _fit_common(cfg, run, seed: int) -> Path:
    """Run a fit, then write its run directory.

    ``run()`` does Stage I, the chain and the summary, and returns the chain
    output, the summary and a writer of the command's own files.  The
    directory is made only after it returns, so a failed fit leaves none.
    """
    t0 = time.perf_counter()
    output, summary, write_own = run()
    outdir = Path(cfg.get("outdir", "run"))
    outdir.mkdir(parents=True, exist_ok=True)
    write_own(outdir)
    nio.save_chain(output, outdir / "traces")
    nio.save_summary(summary, outdir / "summary")
    nio.write_manifest(outdir, {k: str(v) for k, v in cfg.items()}, seed,
                       {"train": cfg["train"], "test": cfg["test"]},
                       runtime_seconds=time.perf_counter() - t0)
    return outdir


def _cmd_fit(cfg) -> int:
    header = _given(cfg, has_header="header")
    train = nio.load_multivariate(cfg["train"], has_labels=True, **header)
    test = nio.load_multivariate(cfg["test"], **header)
    p = train.dim
    nu = float(max(p + 2, 10))  # default degrees of freedom of both NIW laws
    m0 = [float(x) for x in _get(cfg, "m0", "0").split(",")]
    base_measure = NIWParams(np.full(p, m0[0]) if len(m0) == 1 else np.asarray(m0),
                             _get(cfg, "lambda0", 0.01), _get(cfg, "nu0", nu),
                             _get(cfg, "s0-scale", 10.0) * np.eye(p))
    hp = _chain_settings(Hyperparameters, cfg, train.class_sizes, 20000, 10000,
                         lambda_tr=_get(cfg, "lambda-tr", 10.0),
                         nu_tr=_get(cfg, "nu-tr", nu), base_measure=base_measure)
    mcd = _mcd_config(cfg)

    def run():
        priors = extract_class_priors(train, mcd)
        output = run_chain(test, priors, hp)
        return (output, _summarize(cfg, output),
                lambda outdir: nio.summaries_to_json(priors, outdir / "priors.json"))

    outdir = _fit_common(cfg, run, hp.seed)
    print(f"fit complete; outputs under {outdir}")
    return 0


def _cmd_fit_functional(cfg) -> int:
    train = nio.load_curves(cfg["train"], has_labels=True)
    test = nio.load_curves(cfg["test"])
    hyper = _chain_settings(FunctionalHyper, cfg, np.bincount(train.labels)[1:], 10000, 5000,
                            basis=BasisSpec(**_given(cfg, "n_basis", "order")),
                            **_given(cfg, "a_tau", "b_tau", "s2", "a_H", "b_H", "phi", "v"))
    mcd = _mcd_config(cfg)

    def run():
        priors = extract_functional_priors(train, hyper.basis, mcd)
        output = run_functional_chain(test, priors, hyper)
        summary = _summarize(cfg, output)
        return output, summary, lambda outdir: nio.write_cluster_means(
            outdir / "novelty_cluster_means.csv", test, summary)

    outdir = _fit_common(cfg, run, hyper.seed)
    print(f"functional fit complete; outputs under {outdir}")
    return 0


def _cmd_summarize(cfg) -> int:
    chain_dir = cfg["chain-dir"]
    summary = _summarize(cfg, nio.load_chain(chain_dir))
    dest = Path(cfg.get("outdir", Path(chain_dir).parent / "summary"))
    nio.save_summary(summary, dest)
    print(f"summary written to {dest}")
    return 0


def _cmd_metrics(cfg) -> int:
    labels = nio.load_labels(cfg["labels"], column=1, has_header=True)
    truth = nio.load_labels(cfg["truth"])
    known = list(range(1, _get(cfg, "n-known") + 1))
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


def _cmd_fetch(cfg) -> int:
    name = cfg["name"]
    source = nio.DATASET_SOURCES.get(name)
    if source is None:
        print(f"unknown dataset {name!r}", file=sys.stderr)
        return USAGE_EXIT
    print(f"{name}: {source['notes']}\nsource: {source['url']}")
    path = nio.fetch_dataset(name, cfg.get("dest", f"{name}.txt"))
    print(f"saved to {path} (sha256 {nio.file_sha256(path)})")
    return 0


# ---------------------------------------------------------------------------

class _Command(NamedTuple):
    run: Callable
    help: str
    options: tuple  # in --help order, after --config, --seed and --outdir
    required: tuple = ()


_FIT_OPTIONS = ("train", "test", "eta", "n-starts", "a0", "kappa", "n-iter", "n-burnin",
                "gamma-fixed", "ppn-threshold", "min-size")

_COMMANDS = {
    "simulate": _Command(_cmd_simulate, "generate the synthetic benchmark",
                         ("scenario", "label-noise")),
    "extract-priors": _Command(_cmd_extract_priors, "stage I only",
                               ("train", "eta", "n-starts", "out"), ("train",)),
    "fit": _Command(_cmd_fit, "fit: stage I + sampler + post-processing",
                    _FIT_OPTIONS + ("lambda-tr", "nu-tr", "lambda0", "nu0", "s0-scale",
                                    "m0", "header"),
                    ("train", "test")),
    "fit-functional": _Command(_cmd_fit_functional,
                               "fit-functional: stage I + sampler + post-processing",
                               _FIT_OPTIONS + ("n-basis", "order", "a-tau", "b-tau", "s2",
                                               "a-h", "b-h", "phi", "v"),
                               ("train", "test")),
    "summarize": _Command(_cmd_summarize, "recompute the posterior summary",
                          ("chain-dir", "ppn-threshold", "min-size"), ("chain-dir",)),
    "metrics": _Command(_cmd_metrics, "score labels against ground truth",
                        ("labels", "truth", "n-known", "out"), ("labels", "truth", "n-known")),
    "fetch": _Command(_cmd_fetch, "download a public benchmark table",
                      ("name", "dest"), ("name",)),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="novelbayes",
                     description="two-stage robust Bayesian novelty detection")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key in ("config", "seed", "outdir") + command.options:
            option = _OPTIONS[key]
            if option.type is _flag:
                p.add_argument(f"--{key}", action="store_const", const="true")
            else:
                p.add_argument(f"--{key}", type=option.type, choices=option.choices,
                               help=option.help)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = _COMMANDS[args.command]
    try:
        cfg = _merged_config(args)
        for key in command.required:
            if cfg.get(key, "") == "":
                print(f"{args.command} requires --{key}", file=sys.stderr)
                return USAGE_EXIT
        return command.run(cfg)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
