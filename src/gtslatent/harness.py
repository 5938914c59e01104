"""Experiment driver: reconstruction and prediction benchmarks.

A JSON config describes a dataset (generator parameters or file
paths), the representations to compare, the latent dimensions to
sweep, and the training schedules.  The driver fits every codec on the
training split only, evaluates on the held-out split, and produces a
:class:`Report` that can be written as a machine-readable JSON file, a
CSV table, and an SVG curve plot.

Determinism: everything stochastic is seeded from the config seed
through fixed stream tags, so a rerun with the same config produces
byte-identical CSV output.

Where the work runs: this process builds and splits the dataset,
computes each spectral method's full basis once, and does all
codec-cache reads and writes.  The (method, m) cells - fit or truncate
a codec, score it and, for prediction, train and score an FC-LSTM -
then run in ``fork``-ed worker processes, one per CPU this process may
use (``os.sched_getaffinity``), capped at the number of cells.  They
are submitted costliest first: largest m first and, at equal m, the AE
cells that must train their codec first.  With one CPU (e.g. under
``taskset -c 0``) or without ``fork`` they run one after another in
this process.  Each cell draws only from its own seeded streams, so
both paths give bit-identical reports.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import operator
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from . import ae, data, graphs, lstm, spectral
from .optim import TrainSchedule
from .rng import derive_seed

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
    dataset: dict
    methods: tuple
    latent_dims: tuple
    seed: int
    ae_schedule: TrainSchedule | None = None
    lstm_schedule: TrainSchedule | None = None
    train_fraction: float = 0.7
    warmup: int = 10
    keep_fraction: float = graphs.DEFAULT_KEEP_FRACTION
    grad_clip: float | None = None
    latent_scale: float | str | None = None
    codec_cache_dir: str | None = None
    dump_predictions: bool = False
    source: dict = field(default_factory=dict)  # raw config echo

    def __post_init__(self):
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(
                    f"unknown method {method!r}; expected one of {METHODS}"
                )
        if len(set(self.methods)) != len(self.methods):
            raise ValueError("duplicate methods in config")
        if not self.methods:
            raise ValueError("config needs at least one method")
        for m in self.latent_dims:
            if not isinstance(m, int) or m < 1:
                raise ValueError(f"latent dimension {m!r} must be a positive int")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.warmup < 1:
            raise ValueError("warmup must be at least 1")
        if isinstance(self.latent_scale, str):
            if self.latent_scale != "auto":
                raise ValueError('latent_scale must be a number, "auto" or null')
        elif self.latent_scale is not None and self.latent_scale <= 0:
            raise ValueError("latent_scale must be positive")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be positive, got "
                             f"{self.grad_clip!r}")


def _schedule_from_dict(d, label: str) -> TrainSchedule:
    d = _expect(d, dict, label, "an object")
    try:
        return TrainSchedule(
            epochs=_as_int(d["epochs"], f"{label} epochs"),
            batch_size=_as_int(d["batch_size"], f"{label} batch_size"),
            lr0=_as_float(d["lr0"], f"{label} lr0"),
            lr_milestones=_milestones(d.get("lr_milestones", []),
                                      f"{label} lr_milestones"),
            wd0=_as_float(d.get("wd0", 0.0), f"{label} wd0"),
            wd_milestones=_milestones(d.get("wd_milestones", []),
                                      f"{label} wd_milestones"),
        )
    except KeyError as exc:
        raise ValueError(f"{label} is missing key {exc}") from exc


def _milestones(pairs, label: str) -> tuple:
    if not (isinstance(pairs, (list, tuple)) and all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs)):
        raise ValueError(f"{label} must be a list of [epoch, divisor] "
                         f"pairs, got {pairs!r}")
    return tuple((_as_int(e, f"{label} epoch"),
                  _as_float(v, f"{label} divisor")) for e, v in pairs)


def _schedule_to_dict(s: TrainSchedule) -> dict:
    return {
        "epochs": s.epochs,
        "batch_size": s.batch_size,
        "lr0": s.lr0,
        "lr_milestones": [list(ms) for ms in s.lr_milestones],
        "wd0": s.wd0,
        "wd_milestones": [list(ms) for ms in s.wd_milestones],
    }


def _as_int(value, label: str) -> int:
    """``value`` if it is an integer; bools, floats and the rest raise."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{label} must be an integer, got {value!r}")


def _as_float(value, label: str) -> float:
    """``value`` as a float if it is a real number; bools and the rest raise."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{label} must be a number, got {value!r}")


def _expect(value, kind, label: str, what: str):
    """``value`` if it is a ``kind``, else a ValueError saying ``what``."""
    if not isinstance(value, kind):
        raise ValueError(f"{label} must be {what}, got {value!r}")
    return value


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON config and build an ExperimentConfig."""
    for key in ("dataset", "methods", "latent_dims", "seed"):
        if key not in raw:
            raise ValueError(f"config is missing required key {key!r}")
    latent_dims = _expect(raw["latent_dims"], (list, tuple), "latent_dims",
                          "a list of integers")
    methods = [_expect(m, str, "methods entry", "a string") for m in
               _expect(raw["methods"], (list, tuple), "methods", "a list")]
    ae_sched = (_schedule_from_dict(raw["ae_schedule"], "ae_schedule")
                if "ae_schedule" in raw else None)
    lstm_sched = (_schedule_from_dict(raw["lstm_schedule"], "lstm_schedule")
                  if "lstm_schedule" in raw else None)
    return ExperimentConfig(
        dataset=dict(_expect(raw["dataset"], dict, "dataset", "an object")),
        methods=tuple(methods),
        latent_dims=tuple(_as_int(m, "latent_dims entry")
                          for m in latent_dims),
        seed=_as_int(raw["seed"], "seed"),
        ae_schedule=ae_sched,
        lstm_schedule=lstm_sched,
        train_fraction=_as_float(raw.get("train_fraction", 0.7),
                                 "train_fraction"),
        warmup=_as_int(raw.get("warmup", 10), "warmup"),
        keep_fraction=_as_float(raw.get("keep_fraction",
                                        graphs.DEFAULT_KEEP_FRACTION),
                                "keep_fraction"),
        grad_clip=(_as_float(raw["grad_clip"], "grad_clip")
                   if raw.get("grad_clip") is not None else None),
        latent_scale=(raw["latent_scale"]
                      if isinstance(raw.get("latent_scale"), str)
                      else _as_float(raw["latent_scale"], "latent_scale")
                      if raw.get("latent_scale") is not None else None),
        codec_cache_dir=_expect(raw.get("codec_cache_dir"), (str, type(None)),
                                "codec_cache_dir", "a path or null"),
        dump_predictions=_expect(raw.get("dump_predictions", False), bool,
                                 "dump_predictions", "true or false"),
        source=dict(raw),
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def config_hash(config: ExperimentConfig) -> str:
    """Stable hash of the config contents (not of the file formatting)."""
    blob = json.dumps(config.source, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# datasets


def build_dataset(config: ExperimentConfig) -> data.SequenceDataset:
    """Generate or load the dataset described by the config."""
    block = config.dataset
    kind = block.get("type")
    seed = _stream(config.seed, _STREAM_DATA)
    if kind == "moving_crop":
        images = _build_images(block.get("source", {}), block, seed)
        return data.generate_moving_crop_dataset(
            images,
            crop=_as_int(block.get("crop", 45), "dataset crop"),
            frames_per_sequence=_as_int(block.get("frames", 20),
                                        "dataset frames"),
            count=_as_int(block.get("sequences", images.count),
                          "dataset sequences"),
            seed=seed,
        )
    if kind == "moving_sprite":
        return data.generate_moving_sprite_dataset(
            canvas=_as_int(block.get("canvas", 64), "dataset canvas"),
            sprite=_as_int(block.get("sprite", 12), "dataset sprite"),
            frames_per_sequence=_as_int(block.get("frames", 20),
                                        "dataset frames"),
            count=_as_int(block.get("sequences", 100), "dataset sequences"),
            seed=seed,
        )
    if kind == "file":
        return load_dataset(block["path"], block.get("meta"))
    if kind == "csv":
        series = data.load_csv_series(block["path"])
        return data.sequences_from_series(
            series, _as_int(block.get("frames", 20), "dataset frames"))
    raise ValueError(f"unknown dataset type {kind!r}")


def _build_images(source: dict, block: dict, seed: int) -> data.ImageSet:
    kind = source.get("type", "textured")
    if kind == "stl10":
        return data.load_stl10(source["path"])
    if kind == "textured":
        return data.generate_textured_images(
            count=_as_int(source.get("count", block.get("sequences", 100)),
                          "dataset source count" if "count" in source
                          else "dataset sequences"),
            height=_as_int(source.get("height", 96), "dataset source height"),
            width=_as_int(source.get("width", 96), "dataset source width"),
            seed=derive_seed(seed, 0),
            waves=_as_int(source.get("waves", 6), "dataset source waves"),
            min_cycles=_as_float(source.get("min_cycles", 1.5),
                                 "dataset source min_cycles"),
            max_cycles=_as_float(source.get("max_cycles", 4.0),
                                 "dataset source max_cycles"),
        )
    raise ValueError(f"unknown image source type {kind!r}")


def save_dataset(dataset: data.SequenceDataset, out_dir) -> dict:
    """Write a dataset as a GTS1 tensor plus a JSON meta sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tensor_path = out / "dataset.gts"
    meta_path = out / "dataset.json"
    data.save_tensor(tensor_path, dataset.sequences.shape, dataset.sequences)
    meta = {
        "count": dataset.count,
        "frames_per_sequence": dataset.num_frames,
        "frame_dim": dataset.frame_dim,
        "frame_shape": (list(dataset.frame_shape)
                        if dataset.frame_shape else None),
        "split": dataset.split,
    }
    meta_path.write_text(json.dumps(meta, indent=2) + "\n")
    return {"tensor": str(tensor_path), "meta": str(meta_path)}


def load_dataset(path, meta_path=None) -> data.SequenceDataset:
    """Load a dataset written by :func:`save_dataset`."""
    dims, values = data.load_tensor(path)
    if len(dims) != 3:
        raise ValueError(f"{path}: dataset tensor must be rank 3, got {dims}")
    if meta_path is None:
        candidate = Path(path).with_suffix(".json")
        meta_path = candidate if candidate.exists() else None
    frame_shape = None
    if meta_path is not None:
        meta = json.loads(Path(meta_path).read_text())
        if meta.get("frame_shape"):
            frame_shape = tuple(meta["frame_shape"])
    return data.SequenceDataset(values, frame_shape=frame_shape)


# ---------------------------------------------------------------------------
# codecs


def _quantize(arr: np.ndarray) -> np.ndarray:
    # cached artifacts are float32 on disk; rounding up front keeps a
    # cache-writing run identical to every cache-reading rerun
    return arr.astype(np.float32).astype(np.float64)


#: version of the cached spectral basis layout and conventions; bump it
#: whenever the bases :func:`linalg.sym_eig` returns change (2: LAPACK
#: with fixed eigenvector signs), so older cache entries are not reused
_BASIS_FORMAT = 2


def _cache_file(config, kind: str, n: int, m: int) -> Path | None:
    if config.codec_cache_dir is None:
        return None
    # key each kind only on what determines it
    relevant = {
        "dataset": config.dataset,
        "seed": config.seed,
        "train_fraction": config.train_fraction,
        "kind": kind,
    }
    if kind == "ae":
        relevant["ae_schedule"] = (_schedule_to_dict(config.ae_schedule)
                                   if config.ae_schedule else None)
    else:
        relevant["basis_format"] = _BASIS_FORMAT
    if kind == "gft-corr":
        relevant["keep_fraction"] = config.keep_fraction
    blob = json.dumps(relevant, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    out = Path(config.codec_cache_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{kind}_n{n}_m{m}_{digest}.gts"


def _read_cache(path: Path | None, shape: tuple) -> np.ndarray | None:
    """A cached array, or None on a miss.

    An entry that cannot be read or has the wrong shape (e.g. a file
    truncated by an interrupted run) counts as a miss: it is reported
    on stderr and the caller recomputes and overwrites it.
    """
    if path is None or not path.exists():
        return None
    try:
        dims, values = data.load_tensor(path)
    except (OSError, ValueError) as exc:
        problem = str(exc)
    else:
        if dims == shape:
            return values
        problem = f"dims {dims}, expected {shape}"
    print(f"warning: ignoring codec cache entry {path}: {problem}; "
          f"recomputing", file=sys.stderr)
    return None


def _write_cache(path: Path, values: np.ndarray) -> None:
    """Write a cache entry atomically: a temp file, then a rename."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        data.save_tensor(tmp, values.shape, values)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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


def _full_basis(config, method: str, train_frames: np.ndarray,
                frame_shape) -> spectral.LinearCodec:
    n = train_frames.shape[1]
    cache = _cache_file(config, method, n, n)
    packed = _read_cache(cache, (n + 1, n))
    if packed is not None:
        return spectral.LinearCodec(packed[1:], packed[0])
    if method == "gft-grid":
        graph = graphs.grid_graph(*frame_shape)
    elif method == "gft-geo":
        graph = graphs.semi_geometric_graph(train_frames, *frame_shape)
    elif method == "gft-corr":
        graph = graphs.correlation_graph(train_frames, config.keep_fraction)
    else:
        raise ValueError(f"not a spectral method: {method}")
    basis = spectral.compute_basis(graphs.laplacian(graph), n)
    if cache is not None:
        _write_cache(cache, np.vstack([basis.eigenvalues[None, :], basis.a]))
        basis = spectral.LinearCodec(_quantize(basis.a),
                                     _quantize(basis.eigenvalues))
    return basis


@dataclass(frozen=True)
class _CellInputs:
    """What every cell of one experiment reads, built once by the parent.

    Worker processes inherit it through ``fork`` and never modify it.
    """
    config: ExperimentConfig
    predict: bool
    train_set: data.SequenceDataset
    test_set: data.SequenceDataset
    train_frames: np.ndarray
    test_frames: np.ndarray
    bases: dict      # spectral method -> its full basis (a LinearCodec)
    ae_cached: dict  # m -> the cached AE matrix, or None on a miss


def _fit_codec(inputs: _CellInputs, cell: ReportCell) -> tuple:
    """(codec, matrix to cache) of one cell.

    The codec is None for ``raw``, whose latents are the frames
    themselves.  The matrix is the freshly trained AE when the config
    has a codec cache, else None.  The AE loss history or the eig
    diagnostics of the cut go straight into ``cell``.
    """
    config = inputs.config
    method, m = cell.method, cell.m
    if method == "raw":
        return None, None
    if method == "ae":
        a = inputs.ae_cached.get(m)
        if a is not None:
            return spectral.LinearCodec(a), None
        n = inputs.train_frames.shape[1]
        codec0 = ae.init_codec(n, m, _stream(config.seed, _STREAM_AE_INIT, m))
        codec, history = ae.train(codec0, inputs.train_frames,
                                  config.ae_schedule,
                                  _stream(config.seed, _STREAM_AE_TRAIN, m))
        cell.ae_loss_history = [float(v) for v in history]
        if config.codec_cache_dir is None:
            return codec, None
        return spectral.LinearCodec(_quantize(codec.a)), codec.a
    full = inputs.bases[method]
    cell.eig_gap, cell.eig_multiplicity = _eig_diagnostics(full.eigenvalues, m)
    return spectral.truncate(full, m), None


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
    if not config.latent_dims and set(config.methods) != {"raw"}:
        raise ValueError("latent_dims must be non-empty")
    if "ae" in config.methods and config.ae_schedule is None:
        raise ValueError("method 'ae' needs an ae_schedule")
    if need_lstm:
        if config.lstm_schedule is None:
            raise ValueError("prediction experiments need an lstm_schedule")
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


def report_to_dict(report: Report) -> dict:
    return {
        "kind": report.kind,
        "seed": report.seed,
        "config": report.config,
        "config_hash": report.config_hash,
        "wall_time_s": report.wall_time_s,
        "cells": [
            {
                "method": cell.method,
                "m": cell.m,
                "recon_mse": cell.recon_mse,
                "pred_mse": cell.pred_mse,
                "ae_loss_history": cell.ae_loss_history,
                "lstm_loss_history": cell.lstm_loss_history,
                "eig_gap": cell.eig_gap,
                "eig_multiplicity": cell.eig_multiplicity,
            }
            for cell in report.cells
        ],
    }


def report_from_dict(d: dict) -> Report:
    return Report(
        kind=d["kind"],
        seed=d["seed"],
        config=d["config"],
        config_hash=d["config_hash"],
        wall_time_s=d["wall_time_s"],
        cells=[ReportCell(method=c["method"], m=c["m"],
                          recon_mse=c["recon_mse"], pred_mse=c["pred_mse"],
                          ae_loss_history=c["ae_loss_history"],
                          lstm_loss_history=c["lstm_loss_history"],
                          eig_gap=c.get("eig_gap"),
                          eig_multiplicity=c.get("eig_multiplicity"))
               for c in d["cells"]],
    )


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
    dataset = build_dataset(config)
    _validate_compatibility(config, dataset, need_lstm=predict)
    train_set, test_set = data.split(dataset, config.train_fraction,
                                     _stream(config.seed, _STREAM_SPLIT))
    train_frames = train_set.frames()
    n = dataset.frame_dim
    # shared work and all codec-cache reads happen here, in cell order,
    # so cache warnings reach this process's stderr in that order
    bases, ae_cached = {}, {}
    for method in config.methods:
        if method == "ae":
            for m in config.latent_dims:
                ae_cached[m] = _read_cache(_cache_file(config, "ae", n, m),
                                           (n, m))
        elif method != "raw":
            bases[method] = _full_basis(config, method, train_frames,
                                        dataset.frame_shape)
    inputs = _CellInputs(config, predict, train_set, test_set, train_frames,
                         test_set.frames(), bases, ae_cached)
    cells = _run_cells(inputs, [(method, m) for method in config.methods
                                for m in _dims_for(config, method, n)])
    return Report("prediction" if predict else "reconstruction",
                  config.seed, config.source, config_hash(config),
                  time.perf_counter() - start, cells)


def _run_cell(inputs: _CellInputs, method: str, m: int) -> tuple:
    """Fit and score one (method, m) cell: (ReportCell, matrix to cache).

    The codec and its held-out round-trip MSE, then, for prediction, an
    FC-LSTM trained on the codec's latents.  Every draw comes from the
    cell's own seeded streams, so the result does not depend on where
    or in which order the cells run.
    """
    cell = ReportCell(method=method, m=m, recon_mse=0.0)  # raw is exact
    codec, trained = _fit_codec(inputs, cell)
    if codec is not None:
        cell.recon_mse = spectral.reconstruction_mse(codec, inputs.test_frames)
    if inputs.predict:
        (cell.pred_mse, cell.lstm_loss_history,
         cell.sample_prediction) = _predict(inputs, codec, method, m)
    return cell, trained


def _predict(inputs: _CellInputs, codec: spectral.LinearCodec | None,
             method: str, m: int) -> tuple:
    """(pred MSE, LSTM loss history, decoded sample or None) of one cell.

    A ``None`` codec (``raw``) feeds the frames to the LSTM as they are.
    """
    config = inputs.config
    num_train, t_len, _ = inputs.train_set.sequences.shape
    if codec is None:
        z_train_flat, z_test_flat = inputs.train_frames, inputs.test_frames
    else:
        z_train_flat = spectral.encode_frames(codec, inputs.train_frames)
        z_test_flat = spectral.encode_frames(codec, inputs.test_frames)
    if config.latent_scale == "auto":
        # normalise each representation into the predictor's
        # output range by its own peak training magnitude
        scale = max(float(np.max(np.abs(z_train_flat))), 1e-12)
    else:
        scale = config.latent_scale if config.latent_scale else 1.0
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
        _stream(config.seed, _STREAM_LSTM_TRAIN, method_ix, m),
        grad_clip=config.grad_clip,
    )
    pred_mse = lstm.evaluate_prediction(
        trained, z_test, inputs.test_set.sequences, config.warmup, decode_fn)
    sample = None
    if config.dump_predictions:
        preds = lstm.rollout(trained, z_test[:1], config.warmup)
        sample = decode_fn(preds[0, config.warmup - 1:, :])
    return pred_mse, [float(v) for v in history], sample


# ---------------------------------------------------------------------------
# running the cells

#: the experiment a worker process serves; set only inside workers
_worker_inputs: _CellInputs | None = None


def _init_worker(inputs: _CellInputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _worker_cell(method: str, m: int) -> tuple:
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
    way.  The first cell in cell order that raises re-raises here, after
    pending cells are cancelled and the workers have exited.
    """
    pool = _fork_pool(inputs, len(cells))
    try:
        if pool is None:
            results = (_run_cell(inputs, method, m) for method, m in cells)
        else:
            futures = {i: pool.submit(_worker_cell, *cells[i])
                       for i in _submission_order(inputs, cells)}
            results = (futures[i].result() for i in range(len(cells)))
        n = inputs.train_frames.shape[1]
        report_cells = []
        for (method, m), (cell, trained) in zip(cells, results):
            if trained is not None:  # only this process writes the cache
                _write_cache(_cache_file(inputs.config, "ae", n, m), trained)
            report_cells.append(cell)
        return report_cells
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def emit_report(report: Report, out_dir) -> dict:
    """Write report.json, report.csv and any prediction dumps.

    The CSV carries one row per (method, m) cell with stable ordering
    and repr-formatted floats, so identical experiments produce
    byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    json_path = out / "report.json"
    json_path.write_text(json.dumps(report_to_dict(report), indent=2) + "\n")
    paths["json"] = str(json_path)

    csv_path = out / "report.csv"
    lines = ["method,m,recon_mse,pred_mse"]
    for cell in report.cells:
        pred = "" if cell.pred_mse is None else repr(float(cell.pred_mse))
        lines.append(f"{cell.method},{cell.m},"
                     f"{repr(float(cell.recon_mse))},{pred}")
    csv_path.write_text("\n".join(lines) + "\n")
    paths["csv"] = str(csv_path)

    for cell in report.cells:
        if cell.sample_prediction is not None:
            dump = out / f"pred_{cell.method}_m{cell.m}.gts"
            data.save_tensor(dump, cell.sample_prediction.shape,
                             cell.sample_prediction)
            paths[f"pred_{cell.method}_m{cell.m}"] = str(dump)
    return paths


# ---------------------------------------------------------------------------
# plotting

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_plot(curves: dict, path, xlabel: str = "latent dimension m",
              ylabel: str = "MSE", title: str | None = None) -> None:
    """Render per-method (x, y) series as a standalone SVG line chart.

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
    if title:
        parts.append(f'<text x="{left + plot_w / 2}" y="{top - 10}" '
                     f'text-anchor="middle" font-size="14">{escape(title)}</text>')
    # axis labels and end-point tick labels
    parts.append(f'<text x="{left + plot_w / 2}" y="{height - 15}" '
                 f'text-anchor="middle" font-size="13">{escape(xlabel)}</text>')
    parts.append(f'<text x="18" y="{top + plot_h / 2}" text-anchor="middle" '
                 f'font-size="13" transform="rotate(-90 18 {top + plot_h / 2})">'
                 f'{escape(ylabel)}</text>')
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
                     f'{escape(str(name))}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def plot_curves_from_report(report: Report, value: str = "recon_mse") -> dict:
    """Group report cells into per-method (m, value) series for plotting."""
    curves: dict = {}
    for cell in report.cells:
        val = getattr(cell, value)
        if val is None:
            continue
        curves.setdefault(cell.method, []).append((cell.m, val))
    return {name: sorted(pts) for name, pts in curves.items()
            if len(pts) >= 2}
