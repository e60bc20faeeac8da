"""File formats and persistence.

Every input table and every file of a run directory is read or written here.
CSV conventions: multivariate files carry p numeric columns, and curve files
a header row of time stamps and one row per curve; training files of both
add a trailing integer label column, whose classes the dataset types check
(1..J, at least two rows or curves each).  ``load_labels`` reads and checks
every integer label column, those that ``metrics`` scores too.  A
functional fit's novelty cluster means are a curve file led by a cluster
column.  Chain traces go to a directory as flat little-endian binaries
described by a JSON metadata file, so nothing here is Python-specific; one
reader reads every trace back by row slices once its metadata entry and
its file's size check out.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import time
import urllib.request
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, ParseError
from .functional import CurveSet
from .robust import LabeledDataset
from .model import _alpha_of, _beta_of
from .sampler import _CHECK_ROWS, ChainOutput, TestDataset, _zeta_from_labels

FORMAT_VERSION = 1
_TRACE_ARRAYS = ("alpha_trace", "beta_trace", "pi_trace", "gamma_trace", "n_active_trace")
_LABELS_OF = {"alpha_trace": _alpha_of, "beta_trace": _beta_of}

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
            parts = line.replace(",", " ").split()
            if not parts or (lineno == 1 and has_header):
                continue
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise ParseError(f"{path}: row {lineno}: {exc}") from exc
            if len(rows[-1]) != len(rows[0]):
                raise ParseError(f"{path}: row {lineno} has {len(rows[-1])} fields, "
                                 f"expected {len(rows[0])}")
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def load_labels(path, column: int = 0, has_header: bool = False, table=None) -> np.ndarray:
    """Column ``column`` of the CSV/whitespace table in ``path`` (read unless
    passed as ``table``), checked to hold integer labels."""
    table = _read_numeric_rows(path, has_header) if table is None else table
    if column >= table.shape[1]:
        raise ParseError(f"{path}: no label column {column + 1}")
    labels = table[:, column]
    if not np.all(np.isfinite(labels) & (labels == np.round(labels))):
        raise ParseError(f"{path}: label column must be integer")
    return labels.astype(int)


def load_multivariate(path, has_labels: bool = False, has_header: bool = False):
    """Read a CSV/whitespace table; the last column is the label if requested."""
    table = _read_numeric_rows(path, has_header)
    if has_labels:
        if table.shape[1] < 2:
            raise ParseError(f"{path}: need at least one feature column plus labels")
        return LabeledDataset(table[:, :-1], load_labels(path, -1, table=table))
    return TestDataset(table)


def _write_rows(fh, rows, labels: Optional[np.ndarray] = None):
    """One comma-separated line per row, floats as repr so they read back
    exactly, with the row's integer label last if ``labels`` is given."""
    for i, row in enumerate(rows):
        fields = [repr(float(x)) for x in row]
        if labels is not None:
            fields.append(str(int(labels[i])))
        fh.write(",".join(fields) + "\n")


def write_multivariate(path, data: np.ndarray, labels: Optional[np.ndarray] = None):
    with open(path, "w") as fh:
        _write_rows(fh, np.atleast_2d(np.asarray(data, dtype=float)), labels)


def load_curves(path, has_labels: bool = False) -> CurveSet:
    """Read curves: a header row of time stamps, then one row per curve,
    with the curve's integer label last if requested."""
    with open(path) as fh:
        header = fh.readline()
    try:
        grid = np.asarray([float(x) for x in header.replace(",", " ").split()])
    except ValueError as exc:
        raise ParseError(f"{path}: header must hold numeric time stamps") from exc
    table = _read_numeric_rows(path, has_header=True)
    labels = None
    if has_labels:
        table, labels = table[:, :-1], load_labels(path, -1, table=table)
    if table.shape[1] != grid.size:
        raise DimensionMismatch(
            f"{path}: {table.shape[1]} value columns vs {grid.size} time stamps")
    return CurveSet(grid, table, labels)


def write_curves(path, curves: CurveSet):
    with open(path, "w") as fh:
        _write_rows(fh, [curves.grid])
        _write_rows(fh, curves.values, curves.labels)


def write_cluster_means(path, curves: CurveSet, summary):
    """The mean curve of each novelty cluster of ``summary``'s best
    partition, one row led by the cluster's id, under the header row
    ``cluster`` and the grid."""
    with open(path, "w") as fh:
        fh.write("cluster,")
        _write_rows(fh, [curves.grid])
        for s in np.unique(summary.best_partition):
            fh.write(f"{int(s)},")
            _write_rows(fh, [curves.values[summary.novelty_units[summary.best_partition == s]]
                             .mean(axis=0)])


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

def _write_array(directory: Path, name: str, blocks, dtype: np.dtype, shape: tuple) -> dict:
    """Write an array of ``dtype`` and ``shape`` given as its consecutive row
    blocks; the file has the bytes of a whole-array write."""
    fname = f"{name}.bin"
    with open(directory / fname, "wb") as fh:
        for block in blocks:
            block.astype(dtype.newbyteorder("<"), copy=False).tofile(fh)
    return {"file": fname, "dtype": f"<{dtype.kind}{dtype.itemsize}", "shape": list(shape),
            "format": "bin"}


def save_chain(output: ChainOutput, directory):
    """Persist traces plus a metadata JSON describing every array."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {"format_version": FORMAT_VERSION, "n_known": output.n_known,
            "seed": output.seed, "meta": output.meta, "arrays": {}}
    zeta, J = output.zeta_trace, output.n_known
    for name in _TRACE_ARRAYS:
        if name in _LABELS_OF:  # derived from zeta one row block at a time
            blocks = (_LABELS_OF[name](zeta[lo:lo + _CHECK_ROWS], J)
                      for lo in range(0, zeta.shape[0], _CHECK_ROWS))
            entry = _write_array(directory, name, blocks, zeta.dtype, zeta.shape)
        else:
            arr = getattr(output, name)
            entry = _write_array(directory, name, [arr], arr.dtype, arr.shape)
        meta["arrays"][name] = entry
    if output.atom_snapshots is not None:
        (directory / "atoms.json").write_text(json.dumps(output.atom_snapshots))
        meta["atoms"] = "atoms.json"
    (directory / "metadata.json").write_text(json.dumps(meta, indent=1, sort_keys=True))


def _trace_reader(directory: Path, name: str, entry: dict):
    """A reader of row slices of the stored trace ``name``, once its file has
    the size its metadata ``entry`` gives.  A bad entry raises LookupError,
    TypeError or ValueError, which load_chain reports against metadata.json."""
    path = directory / entry["file"]
    if entry["format"] != "bin":
        raise ParseError(f"{path}: a {entry['format']!r} trace; only 'bin' traces are read")
    dtype, shape = np.dtype(entry["dtype"]), tuple(map(operator.index, entry["shape"]))
    if dtype.kind not in ("iu" if name in _LABELS_OF else "iuf"):
        raise ValueError(f"{name} has dtype {dtype.str}, not "
                         f"{'an integer' if name in _LABELS_OF else 'a numeric'} type")
    if not shape or min(shape) < 0:
        raise ValueError(f"{name} has shape {list(shape)}")
    row = math.prod(shape[1:])
    size = path.stat().st_size  # a missing file fails here, as a whole read would
    if size != shape[0] * row * dtype.itemsize:
        raise ParseError(f"{path}: {size} bytes, not the {shape[0] * row * dtype.itemsize} "
                         f"of a {dtype.str} trace of shape {shape}")

    def rows(block: slice) -> np.ndarray:
        lo, hi, _ = block.indices(shape[0])
        return np.fromfile(path, dtype=dtype, count=(hi - lo) * row,
                           offset=lo * row * dtype.itemsize).reshape((hi - lo,) + shape[1:])

    return rows


def load_chain(directory) -> ChainOutput:
    """The chain stored in ``directory``; bad metadata.json is a ParseError."""
    directory = Path(directory)
    meta_path = directory / "metadata.json"
    try:
        meta = json.loads(meta_path.read_text())
        readers = {name: _trace_reader(directory, name, meta["arrays"][name])
                   for name in _TRACE_ARRAYS}
        n_known, seed, run_meta = operator.index(meta["n_known"]), meta["seed"], meta["meta"]
    except (LookupError, TypeError, ValueError) as exc:
        why = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ParseError(f"{meta_path}: {why}") from exc
    arrays = {name: readers[name](slice(None)) for name in _TRACE_ARRAYS if name not in _LABELS_OF}
    # zeta overwrites the alpha buffer and beta is read in row blocks, so
    # only one full label trace is ever held
    alpha, beta = readers["alpha_trace"], readers["beta_trace"]
    zeta = _zeta_from_labels(alpha(slice(None)).astype(np.int32, copy=False),
                             lambda rows: beta(rows).astype(np.int32, copy=False),
                             meta["arrays"]["beta_trace"]["shape"], n_known)
    snapshots = json.loads((directory / meta["atoms"]).read_text()) if "atoms" in meta else None
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
