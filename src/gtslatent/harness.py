"""Experiment driver: reconstruction and prediction benchmarks.

A JSON config describes a dataset (generator parameters or file
paths), the representations to compare, the latent dimensions to
sweep, and the training schedules.  The driver fits every codec on the
training split only, evaluates on the held-out split, and produces a
:class:`Report`, which :func:`emit_report` writes as a run directory:
a JSON report, a CSV table, the prediction dump and an SVG curve plot.

Determinism: everything stochastic is seeded from the config seed
through fixed stream tags, so a rerun with the same config produces
byte-identical CSV output.

Codec cache: with ``codec_cache_dir`` set, each trained AE matrix, the
one result that takes hours to recompute at full scale, is stored as a
float64 ``.npy`` entry and read back bit for bit.  An entry is keyed
on the sha256 of the training frames' bytes, the seed and the AE
schedule, so a regenerated data file at the same path never reads an
AE trained on other frames.  So a run with a cold cache, a warm cache
or none reports exactly the same numbers.  Spectral bases are always
recomputed.

Where the work runs: this process builds and splits the dataset,
eigendecomposes each spectral method's Laplacian once, and does all
codec-cache reads.  The (method, m) cells - fit or truncate a codec,
score it and, for prediction, train and score an FC-LSTM - then run in
``fork``-ed worker processes, one per CPU this process may use
(``os.sched_getaffinity``), capped at the number of cells.  They are
submitted costliest first: largest m first and, at equal m, the AE
cells that must train their codec first.  With one CPU (e.g. under
``taskset -c 0``) or without ``fork`` they run one after another in
this process.  Each cell draws only from its own seeded streams, so
both paths give bit-identical reports.  A cell writes the AE it trains
to the cache as soon as training ends, so a failing run keeps it.
"""

from __future__ import annotations

import dataclasses
import html
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ae, data, graphs, linalg, lstm, spectral
from .linalg import as_float as _as_float, as_int as _as_int
from .optim import TrainSchedule
from .rng import derive_seed

# CPython's builtin sha256, as its own random module does: hashlib
# would load OpenSSL (several MB of RSS) to hash a few short strings
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

METHODS = ("gft-grid", "gft-geo", "gft-corr", "ae", "raw")

# seed stream tags; every stochastic stage draws from its own stream
_STREAM_DATA = 1
_STREAM_SPLIT = 2
_STREAM_AE_INIT = 3
_STREAM_AE_TRAIN = 4
_STREAM_LSTM_INIT = 5
_STREAM_LSTM_TRAIN = 6


def _stream(seed: int, tag: int, *indices: int) -> int:
    out = derive_seed(seed, tag)
    for ix in indices:
        out = derive_seed(out, ix)
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked config; :func:`config_from_dict` builds it from JSON."""
    dataset: dict    # checked dataset block: type and defaults filled in
    methods: tuple
    latent_dims: tuple
    seed: int
    ae_schedule: TrainSchedule | None
    lstm_schedule: TrainSchedule | None
    train_fraction: float
    warmup: int
    keep_fraction: float
    codec_cache_dir: str | None
    source: dict     # raw config echo

    def __post_init__(self):
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}; expected one "
                                 f"of {METHODS}")
        if not self.methods:
            raise ValueError("config needs at least one method")
        for m in self.latent_dims:
            if not isinstance(m, int) or m < 1:
                raise ValueError(f"latent dimension {m!r} must be a positive int")
        for name in ("methods", "latent_dims"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ValueError(f"duplicate {name} in config")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.warmup < 1:
            raise ValueError("warmup must be at least 1")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")


# ---------------------------------------------------------------------------
# config schema: one key table per block, and no other key is allowed.
# A row maps a key to (check, default); a check takes (value, label) and
# returns the value to use, and the default _REQUIRED marks a key the
# block must give.

_REQUIRED = object()


def _typed(kind, what: str):
    """A check that passes a ``kind`` through and says ``what`` otherwise."""
    def check(value, label):
        if not isinstance(value, kind):
            raise ValueError(f"{label} must be {what}, got {value!r}")
        return value
    return check


def _list_of(check, what: str):
    """A check for a list whose entries each pass ``check``; a tuple."""
    check_list = _typed((list, tuple), what)
    return lambda value, label: tuple(check(v, f"{label} entry")
                                      for v in check_list(value, label))


def _read_block(block, table: dict, label: str, prefix: str | None = None):
    """``block``'s values, checked against ``table``, defaults filled in."""
    block = _object(block, label)
    unknown = [key for key in block if key not in table]
    if unknown:
        raise ValueError(f"{label} has unknown key {unknown[0]!r}; "
                         f"expected one of {sorted(table)}")
    prefix = f"{label} " if prefix is None else prefix
    values = {}
    for key, (check, value) in table.items():
        if key in block:
            value = check(block[key], prefix + key)
        elif value is _REQUIRED:
            raise ValueError(f"{label} is missing key {key!r}")
        values[key] = value
    return values


def _typed_block(tables: dict, default_type=None):
    """A check for a block whose ``type`` key picks its table."""
    def check(block, label):
        kind = _object(block, label).get("type", default_type)
        if not (isinstance(kind, str) and kind in tables):
            raise ValueError(f"unknown {label} type {kind!r}")
        return {**_read_block(block, tables[kind], label), "type": kind}
    return check


def _schedule(block, label: str) -> TrainSchedule:
    values = _read_block(block, _SCHEDULE_KEYS, label)
    try:
        return TrainSchedule(**values)
    except ValueError as exc:  # from TrainSchedule: name the schedule
        raise ValueError(f"{label} {exc}") from exc


def _unchecked(value, label):
    return value


def _auto(value, label):
    """``latent_scale``'s only value, so configs that spell it out load."""
    if value != "auto":
        raise ValueError(f'{label} must be "auto", got {value!r}')
    return value


def _non_empty(check):
    """``check``, and no empty path string (it would name the cwd)."""
    def checked(value, label):
        if check(value, label) == "":
            raise ValueError(f"{label} must be a non-empty path, got ''")
        return value
    return checked


_object = _typed(dict, "an object")
_string = _typed(str, "a string")
_path = _non_empty(_string)
_path_or_null = _non_empty(_typed((str, type(None)), "a path or null"))
_TYPE = {"type": (_string, None)}  # checked by _typed_block

# a schedule's keys are TrainSchedule's fields, which it checks itself
_SCHEDULE_KEYS = {
    f.name: (_unchecked,
             _REQUIRED if f.default is dataclasses.MISSING else f.default)
    for f in dataclasses.fields(TrainSchedule)}

_SOURCE_KEYS = {
    "textured": {**_TYPE, "count": (_as_int, None),  # None: the sequences
                 "height": (_as_int, 96), "width": (_as_int, 96)},
    "stl10": {**_TYPE, "path": (_path, _REQUIRED)},
}
_source = _typed_block(_SOURCE_KEYS, default_type="textured")

_DATASET_KEYS = {
    "moving_crop": {**_TYPE, "source": (_source, _source({}, "source")),
                    "crop": (_as_int, 45), "frames": (_as_int, 20),
                    "sequences": (_as_int, None)},  # None: one per image
    "moving_sprite": {**_TYPE, "canvas": (_as_int, 64),
                      "sprite": (_as_int, 12), "frames": (_as_int, 20),
                      "sequences": (_as_int, 100)},
    "file": {**_TYPE, "path": (_path, _REQUIRED)},
    "csv": {**_TYPE, "path": (_path, _REQUIRED), "frames": (_as_int, 20)},
}

_CONFIG_KEYS = {
    "dataset": (_typed_block(_DATASET_KEYS), _REQUIRED),
    "methods": (_list_of(_string, "a list"), _REQUIRED),
    "latent_dims": (_list_of(_as_int, "a list of integers"), _REQUIRED),
    "seed": (_as_int, _REQUIRED),
    "ae_schedule": (_schedule, None),
    "lstm_schedule": (_schedule, None),
    "train_fraction": (_as_float, 0.7),
    "warmup": (_as_int, 10),
    "keep_fraction": (_as_float, graphs.DEFAULT_KEEP_FRACTION),
    "latent_scale": (_auto, "auto"),  # latents are always scaled
    "codec_cache_dir": (_path_or_null, None),
}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON config and build an ExperimentConfig."""
    values = _read_block(raw, _CONFIG_KEYS, "config", prefix="")
    del values["latent_scale"]
    return ExperimentConfig(**values, source=dict(raw))


def config_hash(config: ExperimentConfig) -> str:
    """Stable hash of the config contents (not of the file formatting)."""
    blob = json.dumps(config.source, sort_keys=True, separators=(",", ":"))
    return _sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# datasets


def build_dataset(config: ExperimentConfig) -> data.SequenceDataset:
    """Generate or load the dataset described by the config."""
    block, kind = config.dataset, config.dataset["type"]
    seed = _stream(config.seed, _STREAM_DATA)
    if kind == "moving_crop":
        source, count = block["source"], block["sequences"]
        if source["type"] == "stl10":
            images = data.load_stl10(source["path"])
        else:  # by default one image per sequence (100 if neither is set)
            num_images = count if source["count"] is None else source["count"]
            images = data.generate_textured_images(
                100 if num_images is None else num_images, source["height"],
                source["width"], seed=derive_seed(seed, 0))
        return data.generate_moving_crop_dataset(
            images, crop=block["crop"], frames_per_sequence=block["frames"],
            count=len(images) if count is None else count, seed=seed)
    if kind == "moving_sprite":
        return data.generate_moving_sprite_dataset(
            canvas=block["canvas"], sprite=block["sprite"],
            frames_per_sequence=block["frames"], count=block["sequences"],
            seed=seed)
    if kind == "file":
        return data.load_dataset(block["path"])
    return data.sequences_from_series(data.load_csv_series(block["path"]),
                                      block["frames"])


# ---------------------------------------------------------------------------
# codecs


def _cache_files(config, train_frames: np.ndarray) -> dict:
    """m -> the codec-cache entry of the AE trained at m; empty without one.

    The key holds only what determines the trained matrix: the bytes of
    the training frames (so a regenerated file, or another split, gets
    new entries), the seed and the AE schedule.
    """
    if config.codec_cache_dir is None or "ae" not in config.methods:
        return {}
    relevant = {"frames": _sha256(train_frames).hexdigest(),
                "seed": config.seed,
                "ae_schedule": dataclasses.asdict(config.ae_schedule)}
    blob = json.dumps(relevant, sort_keys=True, separators=(",", ":"))
    digest = _sha256(blob.encode()).hexdigest()[:16]
    out = Path(config.codec_cache_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = train_frames.shape[-1]
    return {m: out / f"ae_n{n}_m{m}_{digest}.npy" for m in config.latent_dims}


def _read_cache(path: Path, shape: tuple) -> np.ndarray | None:
    """A cached AE matrix, or None on a miss.

    An entry that :func:`data.load_array` rejects (e.g. a file truncated
    by an interrupted run) or that is not a finite array of ``shape``
    counts as a miss: it is reported on stderr and the caller
    recomputes and overwrites it.
    """
    if not path.exists():
        return None
    try:
        values = data.load_array(path)
    except (OSError, ValueError) as exc:
        problem = str(exc)  # a ValueError names the path
    else:
        if values.shape != shape:
            problem = f"{path}: shape {values.shape}, expected {shape}"
        elif not np.isfinite(values).all():
            problem = f"{path}: non-finite entries"
        else:
            return values
    print(f"warning: ignoring codec cache entry {problem}; recomputing",
          file=sys.stderr)
    return None


def _eig_diagnostics(eigenvalues: np.ndarray, m: int) -> tuple:
    """(gap, multiplicity) of the cut after the m lowest eigenvalues.

    The gap is lambda_{m+1} - lambda_m (None when m = n); the
    multiplicity counts eigenvalues within ``1e-9 * max(1, lambda_max)``
    of lambda_m.  A gap within that tolerance (so a multiplicity above
    1) means the cut splits a degenerate eigenspace: the retained span,
    and every number computed from it, depends on which vectors of that
    eigenspace the solver returned.
    """
    lam = eigenvalues[m - 1]
    gap = float(eigenvalues[m] - lam) if m < len(eigenvalues) else None
    tol = 1e-9 * max(1.0, float(eigenvalues[-1]))
    return gap, int(np.sum(np.abs(eigenvalues - lam) <= tol))


def _laplacian(config, method: str, train_frames: np.ndarray,
               frame_shape) -> np.ndarray:
    """A spectral method's graph Laplacian.

    The graph is freed on return, and the Laplacian once the eigensolve
    that takes it returns, so neither n x n matrix outlives its use.
    """
    if method == "gft-grid":
        graph = graphs.grid_graph(*frame_shape)
    elif method == "gft-geo":
        graph = graphs.semi_geometric_graph(train_frames, *frame_shape)
    elif method == "gft-corr":
        graph = graphs.correlation_graph(train_frames, config.keep_fraction)
    else:
        raise ValueError(f"not a spectral method: {method}")
    return graphs.laplacian(graph)


@dataclass(frozen=True)
class _CellInputs:
    """What every cell of one experiment reads, built once by the parent.

    Worker processes inherit it through ``fork`` and never modify it.
    """
    config: ExperimentConfig
    predict: bool
    train_set: data.SequenceDataset
    test_set: data.SequenceDataset
    bases: dict      # spectral method -> (eigenvalues, full LinearCodec)
    ae_cached: dict  # m -> the cached AE matrix, or None on a miss
    cache_files: dict  # m -> the AE's codec-cache entry; empty without one


def _fit_codec(inputs: _CellInputs,
               cell: ReportCell) -> spectral.LinearCodec | None:
    """The codec of one cell; None for ``raw``, whose latents are the frames.

    An AE trained here goes to its codec-cache entry, if the config has
    one, as soon as training ends, so no later failure discards it.  Its
    loss history or the cut's eig diagnostics go straight into ``cell``.
    """
    config = inputs.config
    method, m = cell.method, cell.m
    if method == "raw":
        return None
    if method == "ae":
        a = inputs.ae_cached.get(m)
        if a is not None:
            return spectral.LinearCodec(a)
        n = inputs.train_set.frame_dim
        codec0 = ae.init_codec(n, m, _stream(config.seed, _STREAM_AE_INIT, m))
        codec, history = ae.train(codec0, inputs.train_set.frames(),
                                  config.ae_schedule,
                                  _stream(config.seed, _STREAM_AE_TRAIN, m))
        if m in inputs.cache_files:
            data.save_array(inputs.cache_files[m], codec.a)
        cell.ae_loss_history = [float(v) for v in history]
        return codec
    eigenvalues, full = inputs.bases[method]
    cell.eig_gap, cell.eig_multiplicity = _eig_diagnostics(eigenvalues, m)
    return spectral.truncate(full, m)


def _validate_compatibility(config: ExperimentConfig,
                            dataset: data.SequenceDataset,
                            need_lstm: bool) -> None:
    """Fail fast, before any eigendecomposition or training."""
    n = dataset.frame_dim
    grid_methods = {"gft-grid", "gft-geo"} & set(config.methods)
    if grid_methods and dataset.frame_shape is None:
        raise ValueError(
            f"methods {sorted(grid_methods)} need grid-shaped frames, but "
            f"the dataset does not carry a frame shape"
        )
    for m in config.latent_dims:
        if m > n:
            raise ValueError(f"latent dimension {m} exceeds frame dimension {n}")
    if need_lstm:
        if dataset.num_frames < 2:
            raise ValueError("prediction needs sequences of at least 2 frames")
        if config.warmup > dataset.num_frames - 1:
            raise ValueError(
                f"warmup {config.warmup} too large for sequences of "
                f"{dataset.num_frames} frames"
            )


# ---------------------------------------------------------------------------
# reports


@dataclass
class ReportCell:
    method: str
    m: int
    recon_mse: float
    pred_mse: float | None = None
    ae_loss_history: list | None = None
    lstm_loss_history: list | None = None
    sample_prediction: np.ndarray | None = None  # (frames, n), not serialised
    eig_gap: float | None = None          # spectral cells only
    eig_multiplicity: int | None = None   # spectral cells only


@dataclass
class Report:
    kind: str
    seed: int
    config: dict
    config_hash: str
    wall_time_s: float
    cells: list


#: the report JSON keys of a cell: every field but the array
_CELL_KEYS = tuple(f.name for f in dataclasses.fields(ReportCell)
                   if f.name != "sample_prediction")


def report_to_dict(report: Report) -> dict:
    d = {f.name: getattr(report, f.name) for f in dataclasses.fields(Report)}
    d["cells"] = [{key: getattr(cell, key) for key in _CELL_KEYS}
                  for cell in report.cells]
    return d


def _dims_for(config: ExperimentConfig, method: str, n: int) -> list:
    # raw is the uncompressed baseline: always a single cell at m = n
    return [n] if method == "raw" else list(config.latent_dims)


def run_reconstruction_experiment(config: ExperimentConfig) -> Report:
    """Fit codecs on the training split, report held-out round-trip MSE."""
    return _run_experiment(config, predict=False)


def run_prediction_experiment(config: ExperimentConfig) -> Report:
    """Train one sequence predictor per (method, m) and score free-run MSE.

    Latent training targets are the encoded frames; the reported
    prediction MSE is computed in the signal domain after decoding, and
    each cell also reports the codec's standalone reconstruction MSE.
    """
    return _run_experiment(config, predict=True)


def _run_experiment(config: ExperimentConfig, predict: bool) -> Report:
    start = time.perf_counter()
    # the checks that need no data; gen-data accepts these configs
    if not config.latent_dims and set(config.methods) != {"raw"}:
        raise ValueError("latent_dims must be non-empty")
    if "ae" in config.methods and config.ae_schedule is None:
        raise ValueError("method 'ae' needs an ae_schedule")
    if predict and config.lstm_schedule is None:
        raise ValueError("prediction experiments need an lstm_schedule")
    dataset = build_dataset(config)
    _validate_compatibility(config, dataset, need_lstm=predict)
    train_set, test_set = data.split(dataset, config.train_fraction,
                                     _stream(config.seed, _STREAM_SPLIT))
    n, frame_shape = dataset.frame_dim, dataset.frame_shape
    del dataset  # the splits hold copies; free the unsplit frames now
    # shared work and all codec-cache reads happen here, in cell order,
    # so cache warnings reach this process's stderr in that order; the
    # cache holds only trained AE matrices, bit for bit, so a cached run
    # reports exactly what an uncached one does
    cache_files = _cache_files(config, train_set.sequences)
    ae_cached = {m: _read_cache(path, (n, m))
                 for m, path in cache_files.items()}
    bases = {}
    for method in config.methods:
        if method not in ("ae", "raw"):
            eigenvalues, eigenvectors = linalg.sym_eig(
                _laplacian(config, method, train_set.frames(), frame_shape))
            bases[method] = (eigenvalues, spectral.LinearCodec(eigenvectors))
    inputs = _CellInputs(config, predict, train_set, test_set, bases,
                         ae_cached, cache_files)
    cells = _run_cells(inputs, [(method, m) for method in config.methods
                                for m in _dims_for(config, method, n)])
    return Report("prediction" if predict else "reconstruction",
                  config.seed, config.source, config_hash(config),
                  time.perf_counter() - start, cells)


def _run_cell(inputs: _CellInputs, method: str, m: int) -> ReportCell:
    """Fit and score one (method, m) cell.

    The codec and its held-out round-trip MSE, then, for prediction, an
    FC-LSTM trained on the codec's latents.  Every draw comes from the
    cell's own seeded streams, so the result does not depend on where
    or in which order the cells run.
    """
    cell = ReportCell(method=method, m=m, recon_mse=0.0)  # raw is exact
    codec = _fit_codec(inputs, cell)
    if codec is not None:
        cell.recon_mse = spectral.reconstruction_mse(codec,
                                                     inputs.test_set.frames())
    if inputs.predict:
        _predict(inputs, codec, cell)
    return cell


def _predict(inputs: _CellInputs, codec: spectral.LinearCodec | None,
             cell: ReportCell) -> None:
    """Set ``cell``'s pred MSE, LSTM loss history and decoded sample.

    A ``None`` codec (``raw``) feeds the frames to the LSTM as they are.
    """
    config = inputs.config
    method, m = cell.method, cell.m
    num_train, t_len, _ = inputs.train_set.sequences.shape
    z_train_flat = inputs.train_set.frames()
    z_test_flat = inputs.test_set.frames()
    if codec is not None:
        z_train_flat = spectral.encode_frames(codec, z_train_flat)
        z_test_flat = spectral.encode_frames(codec, z_test_flat)
    # the LSTM predicts o*tanh(c), which lies in (-1, 1): each
    # representation is divided by its own peak training magnitude, or
    # every latent beyond +-1 would be a target the model cannot reach
    scale = max(float(np.max(np.abs(z_train_flat))), 1e-12)
    z_train = (z_train_flat / scale).reshape(num_train, t_len, m)
    z_test = (z_test_flat / scale).reshape(inputs.test_set.count, t_len, m)

    def decode_fn(zp):  # (k, m) latents -> (k, n) frames
        zp = zp * scale
        return zp if codec is None else spectral.decode_frames(codec, zp)

    method_ix = METHODS.index(method)
    cell0 = lstm.init_cell(m, _stream(config.seed, _STREAM_LSTM_INIT,
                                      method_ix, m))
    trained, history = lstm.train(
        cell0, z_train, config.lstm_schedule, config.warmup,
        _stream(config.seed, _STREAM_LSTM_TRAIN, method_ix, m))
    cell.pred_mse, decoded = lstm.evaluate_prediction(
        trained, z_test, inputs.test_set.sequences, config.warmup, decode_fn)
    cell.lstm_loss_history = [float(v) for v in history]
    # the first test sequence's scored predictions, not a view that
    # would keep every decoded prediction alive
    cell.sample_prediction = decoded[0].copy()


# ---------------------------------------------------------------------------
# running the cells

#: the experiment a worker process serves; set only inside workers
_worker_inputs: _CellInputs | None = None


def _init_worker(inputs: _CellInputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _worker_cell(method: str, m: int) -> ReportCell:
    return _run_cell(_worker_inputs, method, m)


def _fork_pool(inputs: _CellInputs, cells: int):
    """A pool of forked workers for the cells, or None to run them here.

    One worker per CPU this process may run on, capped at the number of
    cells; None when that is one or the platform cannot fork.  Forked
    workers inherit ``inputs`` (config, frames, bases) without pickling;
    only a cell's (method, m) and its result cross between processes.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, cells)
    if workers <= 1:
        return None
    # imported here: set-up processes and gen-data never start a pool
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_init_worker, initargs=(inputs,))


def _submission_order(inputs: _CellInputs, cells: list) -> list:
    """Cell indices, costliest first (Graham's LPT rule).

    Largest m first; at equal m, the AE cells that must train their
    codec (no cached matrix) go before the rest, which only truncate a
    basis or read one.  Ties keep cell order.
    """
    def cost_rank(i):
        method, m = cells[i]
        trains = method == "ae" and inputs.ae_cached.get(m) is None
        return -m, not trains
    return sorted(range(len(cells)), key=cost_rank)


def _run_cells(inputs: _CellInputs, cells: list) -> list:
    """Run every (method, m) cell; return the ReportCells in cell order.

    Cells run in forked workers when this process may use more than one
    CPU, else one after another here; the numbers are the same either
    way.  Each cell caches the AE it trains (see :func:`_fit_codec`).
    The first cell in cell order that raises re-raises here, after
    pending cells are cancelled and the workers have exited.
    """
    pool = _fork_pool(inputs, len(cells))
    try:
        if pool is None:
            return [_run_cell(inputs, method, m) for method, m in cells]
        futures = {i: pool.submit(_worker_cell, *cells[i])
                   for i in _submission_order(inputs, cells)}
        return [futures[i].result() for i in range(len(cells))]
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def emit_report(report: Report, out_dir) -> dict:
    """Write ``report`` as a run directory; return the paths written.

    Each call first removes all five names of a run directory, then
    writes its own files, ``report.json`` last, and touches no other
    file.  So a failed write of any other file leaves no file of an
    earlier run and no ``report.json``.  The names:

    * ``report.json``: the whole report (:func:`report_to_dict`);
    * ``report.csv``: one ``method,m,recon_mse,pred_mse`` row per cell,
      in cell order with repr-formatted floats, so identical
      experiments give byte-identical files;
    * ``predictions.npy``, for a prediction report only: row i, of
      shape (T - warmup, n), is cell i's scored first test sequence;
    * ``recon_mse.svg`` or ``pred_mse.svg``: the report kind's MSE
      against m, one curve per method with two or more m, if any.

    The dict maps ``json``, ``csv``, ``predictions`` and ``plot``, in
    that order, to the files written.
    """
    predict = report.kind == "prediction"
    samples = [cell.sample_prediction for cell in report.cells]
    if predict and any(sample is None for sample in samples):
        # e.g. one built from a report.json, which holds no samples; the
        # check comes first, so a rejected report touches nothing
        raise ValueError("a prediction report needs every cell's "
                         "sample_prediction")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("report.json", "report.csv", "predictions.npy",
                 "recon_mse.svg", "pred_mse.svg"):
        (out / name).unlink(missing_ok=True)
    paths = {"json": out / "report.json", "csv": out / "report.csv"}
    lines = ["method,m,recon_mse,pred_mse"]
    for cell in report.cells:
        pred = "" if cell.pred_mse is None else repr(float(cell.pred_mse))
        lines.append(f"{cell.method},{cell.m},"
                     f"{repr(float(cell.recon_mse))},{pred}")
    paths["csv"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    if predict:
        paths["predictions"] = out / "predictions.npy"
        data.save_array(paths["predictions"], np.stack(samples))
    value = "pred_mse" if predict else "recon_mse"
    curves = _plot_curves(report, value)
    if curves:
        paths["plot"] = out / f"{value}.svg"
        emit_plot(curves, paths["plot"], ylabel=value.replace("_", " "))
    paths["json"].write_text(
        json.dumps(report_to_dict(report), indent=2) + "\n", encoding="utf-8")
    return {label: str(path) for label, path in paths.items()}


# ---------------------------------------------------------------------------
# plotting

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _escape(text: str) -> str:
    # `&`, `<` and `>` only, as SVG text content needs; html is a far
    # cheaper import than xml.sax.saxutils, which loads urllib.request
    return html.escape(text, quote=False)


def emit_plot(curves: dict, path, ylabel: str = "MSE") -> None:
    """Render per-method (m, y) series as a standalone SVG line chart.

    One ``<polyline>`` per series; the plot area rectangle spans the
    min/max of the data on both axes.  Raises ``ValueError`` when no
    series is given or a series has fewer than two points.
    """
    if not curves:
        raise ValueError("emit_plot needs at least one series")
    for name, points in curves.items():
        if len(points) < 2:
            raise ValueError(f"series {name!r} needs at least 2 points")

    width, height = 640, 440
    left, right, top, bottom = 70, 160, 30, 60
    plot_w = width - left - right
    plot_h = height - top - bottom

    xs = [float(p[0]) for pts in curves.values() for p in pts]
    ys = [float(p[1]) for pts in curves.values() for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + (abs(y_lo) if y_lo else 1.0)

    def sx(v):
        return left + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return top + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect id="plot-area" x="{left}" y="{top}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black"/>',
    ]
    # axis labels and end-point tick labels
    parts.append(f'<text x="{left + plot_w / 2}" y="{height - 15}" '
                 'text-anchor="middle" font-size="13">'
                 'latent dimension m</text>')
    parts.append(f'<text x="18" y="{top + plot_h / 2}" text-anchor="middle" '
                 f'font-size="13" transform="rotate(-90 18 {top + plot_h / 2})">'
                 f'{_escape(ylabel)}</text>')
    for value, xpos in ((x_lo, left), (x_hi, left + plot_w)):
        parts.append(f'<text x="{xpos}" y="{top + plot_h + 18}" '
                     f'text-anchor="middle" font-size="11">{value:.6g}</text>')
    for value, ypos in ((y_lo, top + plot_h), (y_hi, top)):
        parts.append(f'<text x="{left - 6}" y="{ypos + 4}" text-anchor="end" '
                     f'font-size="11">{value:.6g}</text>')

    for idx, (name, points) in enumerate(curves.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
                          for x, y in points)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = top + 16 + 18 * idx
        lx = left + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-size="12">'
                     f'{_escape(str(name))}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def _plot_curves(report: Report, value: str) -> dict:
    """Per-method (m, value) series of the methods with two or more."""
    curves: dict = {}
    for cell in report.cells:
        curves.setdefault(cell.method, []).append(
            (cell.m, getattr(cell, value)))
    return {name: sorted(pts) for name, pts in curves.items()
            if len(pts) >= 2}
