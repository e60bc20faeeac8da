"""File formats and persistence.

CSV conventions: multivariate files carry p numeric columns (plus a trailing
integer label column for training data); curve files are either wide (header
row of time stamps, one row per curve) or long (first column is the grid,
one column per curve).  Chain traces go to a directory as flat little-endian
binaries (or CSV on request) described by a JSON metadata file, so nothing
here is Python-specific.
"""

from __future__ import annotations

import hashlib
import json
import time
import urllib.request
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, ParseError
from .functional import CurveSet
from .robust import LabeledDataset
from .sampler import ChainOutput, TestDataset, _zeta_from_labels

FORMAT_VERSION = 1
TRACE_FORMATS = ("bin", "csv")  # flat little-endian binary, or CSV
_TRACE_ARRAYS = ("alpha_trace", "beta_trace", "pi_trace", "gamma_trace", "n_active_trace")

# sha256 digests pin the copies we validated against; None = accept any and
# report, for sources that occasionally re-serve with altered whitespace
DATASET_SOURCES = {
    "seeds": {
        "url": "https://archive.ics.uci.edu/ml/machine-learning-databases/00236/seeds_dataset.txt",
        "sha256": None,
        "notes": "210 wheat kernels, 7 geometric features + variety label (UCI ML repository).",
    },
    "wine": {
        "url": "https://archive.ics.uci.edu/ml/machine-learning-databases/wine/wine.data",
        "sha256": None,
        "notes": "178 wines, 13 chemical features, cultivar label first (UCI ML repository).",
    },
}


# ---------------------------------------------------------------------------
# tabular data
# ---------------------------------------------------------------------------

def _read_numeric_rows(path, has_header: bool):
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1 and has_header:
                continue
            line = line.strip()
            if not line:
                continue
            parts = [p for p in line.replace(",", " ").split() if p]
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise ParseError(f"{path}: row {lineno}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = len(rows[0])
    for i, r in enumerate(rows, start=1):
        if len(r) != width:
            raise ParseError(f"{path}: row {i} has {len(r)} fields, expected {width}")
    return np.asarray(rows, dtype=float)


def load_multivariate(path, has_labels: bool = False, has_header: bool = False):
    """Read a CSV/whitespace table; the last column is the label if requested."""
    table = _read_numeric_rows(path, has_header)
    if has_labels:
        if table.shape[1] < 2:
            raise ParseError(f"{path}: need at least one feature column plus labels")
        labels = table[:, -1]
        if np.any(labels != np.round(labels)):
            raise ParseError(f"{path}: label column must be integer")
        return LabeledDataset(table[:, :-1], labels.astype(int))
    return TestDataset(table)


def write_multivariate(path, data: np.ndarray, labels: Optional[np.ndarray] = None):
    data = np.atleast_2d(np.asarray(data, dtype=float))
    with open(path, "w") as fh:
        for i in range(data.shape[0]):
            fields = [repr(float(x)) for x in data[i]]
            if labels is not None:
                fields.append(str(int(labels[i])))
            fh.write(",".join(fields) + "\n")


def load_curves(path, layout: str = "wide", has_labels: bool = False) -> CurveSet:
    """Read curves; 'wide' = header of time stamps + one row per curve,
    'long' = first column the grid, remaining columns one curve each."""
    if layout == "wide":
        with open(path) as fh:
            header = fh.readline().strip()
        try:
            grid = np.asarray([float(x) for x in header.replace(",", " ").split()])
        except ValueError as exc:
            raise ParseError(f"{path}: header must hold numeric time stamps") from exc
        table = _read_numeric_rows(path, has_header=True)
        labels = None
        if has_labels:
            labels = table[:, -1].astype(int)
            table = table[:, :-1]
        if table.shape[1] != grid.size:
            raise DimensionMismatch(
                f"{path}: {table.shape[1]} value columns vs {grid.size} time stamps")
        return CurveSet(grid, table, labels)
    if layout == "long":
        table = _read_numeric_rows(path, has_header=False)
        return CurveSet(table[:, 0], table[:, 1:].T)
    raise ValueError("layout must be 'wide' or 'long'")


def write_curves(path, curves: CurveSet, layout: str = "wide"):
    if layout == "wide":
        with open(path, "w") as fh:
            fh.write(",".join(repr(float(t)) for t in curves.grid) + "\n")
            for i in range(curves.n_curves):
                fields = [repr(float(x)) for x in curves.values[i]]
                if curves.labels is not None:
                    fields.append(str(int(curves.labels[i])))
                fh.write(",".join(fields) + "\n")
    elif layout == "long":
        with open(path, "w") as fh:
            for t in range(curves.n_points):
                fields = [repr(float(curves.grid[t]))] + [repr(float(x)) for x in curves.values[:, t]]
                fh.write(",".join(fields) + "\n")
    else:
        raise ValueError("layout must be 'wide' or 'long'")


# ---------------------------------------------------------------------------
# summaries and priors
# ---------------------------------------------------------------------------

def summaries_to_json(summaries: list, path):
    doc = {"format_version": FORMAT_VERSION,
           "classes": [s.to_dict() for s in summaries]}
    Path(path).write_text(json.dumps(doc, indent=1))


# ---------------------------------------------------------------------------
# chain persistence
# ---------------------------------------------------------------------------

def _write_array(directory: Path, name: str, arr: np.ndarray, fmt: str) -> dict:
    if fmt == "bin":
        fname = f"{name}.bin"
        arr.astype(arr.dtype.newbyteorder("<"), copy=False).tofile(directory / fname)
    elif fmt == "csv":
        fname = f"{name}.csv"
        np.savetxt(directory / fname, np.atleast_2d(arr),
                   fmt="%.17g" if arr.dtype.kind == "f" else "%d", delimiter=",")
    else:
        raise ValueError(f"fmt must be one of {', '.join(TRACE_FORMATS)}")
    return {"file": fname, "dtype": f"<{arr.dtype.kind}{arr.dtype.itemsize}",
            "shape": list(arr.shape), "format": fmt}


def _read_array(directory: Path, entry: dict) -> np.ndarray:
    path, dtype, shape = directory / entry["file"], np.dtype(entry["dtype"]), entry["shape"]
    if entry["format"] == "bin":
        return np.fromfile(path, dtype=dtype).reshape(shape)
    if 0 in shape:  # no data to parse, and loadtxt warns about that
        if not path.is_file():
            raise FileNotFoundError(f"{path} not found.")  # what loadtxt raises
        return np.empty(shape, dtype=dtype)
    return np.loadtxt(path, delimiter=",", dtype=dtype, ndmin=2).reshape(shape)


def save_chain(output: ChainOutput, directory, fmt: str = "bin"):
    """Persist traces plus a metadata JSON describing every array."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {"format_version": FORMAT_VERSION, "n_known": output.n_known,
            "seed": output.seed, "meta": output.meta, "arrays": {}}
    for name in _TRACE_ARRAYS:
        meta["arrays"][name] = _write_array(directory, name, getattr(output, name), fmt)
    if output.atom_snapshots is not None:
        (directory / "atoms.json").write_text(json.dumps(output.atom_snapshots))
        meta["atoms"] = "atoms.json"
    (directory / "metadata.json").write_text(json.dumps(meta, indent=1, sort_keys=True))


def load_chain(directory) -> ChainOutput:
    directory = Path(directory)
    meta = json.loads((directory / "metadata.json").read_text())
    try:
        arrays = {name: _read_array(directory, meta["arrays"][name]) for name in _TRACE_ARRAYS}
        n_known, seed, run_meta = meta["n_known"], meta["seed"], meta["meta"]
    except KeyError as exc:
        raise ParseError(f"{directory / 'metadata.json'}: missing key {exc}") from exc
    alpha, beta = arrays.pop("alpha_trace"), arrays.pop("beta_trace")
    for name, trace in (("alpha_trace", alpha), ("beta_trace", beta)):
        if trace.dtype.kind not in "iu":
            raise ParseError(f"{directory / 'metadata.json'}: {name} has dtype "
                             f"{trace.dtype.str}, not an integer type")
    # zeta overwrites the alpha buffer, so alpha, beta and zeta never coexist in full
    zeta = _zeta_from_labels(alpha.astype(np.int32, copy=False),
                             beta.astype(np.int32, copy=False), n_known)
    snapshots = None
    if "atoms" in meta:
        snapshots = json.loads((directory / meta["atoms"]).read_text())
    return ChainOutput(zeta_trace=zeta, n_known=n_known, seed=seed, atom_snapshots=snapshots,
                       meta=run_meta, **arrays)


def save_summary(summary, directory):
    """labels CSV (unit, label, ppn, anomaly flag), PPCM binary + JSON header."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    flags = np.zeros(summary.ppn.size, dtype=bool)
    flags[summary.novelty_units] = summary.anomaly_flags
    with open(directory / "labels.csv", "w") as fh:
        fh.write("unit,label,ppn,anomaly\n")
        for m in range(summary.ppn.size):
            fh.write(f"{m},{int(summary.labels[m])},{float(summary.ppn[m])!r},{int(flags[m])}\n")
    summary.ppcm.astype("<f8").tofile(directory / "ppcm.bin")
    header = {"dimension": int(summary.ppcm.shape[0]),
              "unit_ids": summary.novelty_units.tolist(),
              "dtype": "<f8",
              "best_partition": summary.best_partition.tolist(),
              "ppn_threshold": summary.ppn_threshold,
              "min_size": summary.min_size}
    (directory / "ppcm.json").write_text(json.dumps(header, indent=1))


# ---------------------------------------------------------------------------
# manifest and config
# ---------------------------------------------------------------------------

def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(directory, config: dict, seed: int, inputs: dict,
                   runtime_seconds: Optional[float] = None):
    """Record everything needed to re-run: config echo, seed, input hashes.

    The timestamp field is informational only and excluded from any
    byte-identity comparison of outputs.
    """
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "seed": seed,
        "inputs": {name: {"path": str(p), "sha256": file_sha256(p)}
                   for name, p in inputs.items()},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if runtime_seconds is not None:
        manifest["runtime_seconds"] = round(runtime_seconds, 3)
    Path(directory, "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))


def read_config(path) -> dict:
    """Flat ``key = value`` text; '#' starts a comment; values stay strings."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}: line {lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# public dataset fetcher (not bundled; provenance + checksum)
# ---------------------------------------------------------------------------

def fetch_dataset(name: str, dest) -> Path:
    """Download a public benchmark table to ``dest`` and verify its digest.

    Files are never bundled with the package; this helper documents their
    origin and, when ``DATASET_SOURCES`` pins a digest, refuses silently
    corrupted copies.  An existing file at ``dest`` is verified and reused
    without network.
    """
    if name not in DATASET_SOURCES:
        raise ValueError(f"unknown dataset {name!r}; known: {sorted(DATASET_SOURCES)}")
    source = DATASET_SOURCES[name]
    dest = Path(dest)
    digest = source["sha256"]
    if not dest.exists():
        with urllib.request.urlopen(source["url"], timeout=60) as resp:
            body = resp.read()
        dest.parent.mkdir(parents=True, exist_ok=True)  # only once the download succeeded
        dest.write_bytes(body)
    actual = file_sha256(dest)
    if digest and actual != digest:
        raise ParseError(f"{dest}: sha256 {actual} does not match expected {digest}")
    return dest
