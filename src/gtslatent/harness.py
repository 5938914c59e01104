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
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from . import ae, data, graphs, linalg, lstm, spectral
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


def _schedule_from_dict(d: dict, label: str) -> TrainSchedule:
    try:
        return TrainSchedule(
            epochs=int(d["epochs"]),
            batch_size=int(d["batch_size"]),
            lr0=float(d["lr0"]),
            lr_milestones=tuple((int(e), float(v))
                                for e, v in d.get("lr_milestones", [])),
            wd0=float(d.get("wd0", 0.0)),
            wd_milestones=tuple((int(e), float(v))
                                for e, v in d.get("wd_milestones", [])),
        )
    except KeyError as exc:
        raise ValueError(f"{label} schedule is missing key {exc}") from exc


def _schedule_to_dict(s: TrainSchedule) -> dict:
    return {
        "epochs": s.epochs,
        "batch_size": s.batch_size,
        "lr0": s.lr0,
        "lr_milestones": [list(ms) for ms in s.lr_milestones],
        "wd0": s.wd0,
        "wd_milestones": [list(ms) for ms in s.wd_milestones],
    }


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON config and build an ExperimentConfig."""
    for key in ("dataset", "methods", "latent_dims", "seed"):
        if key not in raw:
            raise ValueError(f"config is missing required key {key!r}")
    ae_sched = (_schedule_from_dict(raw["ae_schedule"], "ae")
                if "ae_schedule" in raw else None)
    lstm_sched = (_schedule_from_dict(raw["lstm_schedule"], "lstm")
                  if "lstm_schedule" in raw else None)
    return ExperimentConfig(
        dataset=dict(raw["dataset"]),
        methods=tuple(raw["methods"]),
        latent_dims=tuple(int(m) for m in raw["latent_dims"]),
        seed=int(raw["seed"]),
        ae_schedule=ae_sched,
        lstm_schedule=lstm_sched,
        train_fraction=float(raw.get("train_fraction", 0.7)),
        warmup=int(raw.get("warmup", 10)),
        keep_fraction=float(raw.get("keep_fraction",
                                    graphs.DEFAULT_KEEP_FRACTION)),
        grad_clip=(float(raw["grad_clip"])
                   if raw.get("grad_clip") is not None else None),
        latent_scale=(raw["latent_scale"]
                      if isinstance(raw.get("latent_scale"), str)
                      else float(raw["latent_scale"])
                      if raw.get("latent_scale") is not None else None),
        codec_cache_dir=raw.get("codec_cache_dir"),
        dump_predictions=bool(raw.get("dump_predictions", False)),
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
            crop=int(block.get("crop", 45)),
            frames_per_sequence=int(block.get("frames", 20)),
            count=int(block.get("sequences", images.count)),
            seed=seed,
        )
    if kind == "moving_sprite":
        return data.generate_moving_sprite_dataset(
            canvas=int(block.get("canvas", 64)),
            sprite=int(block.get("sprite", 12)),
            frames_per_sequence=int(block.get("frames", 20)),
            count=int(block.get("sequences", 100)),
            seed=seed,
        )
    if kind == "file":
        return load_dataset(block["path"], block.get("meta"))
    if kind == "csv":
        series = data.load_csv_series(block["path"])
        return data.sequences_from_series(series, int(block.get("frames", 20)))
    raise ValueError(f"unknown dataset type {kind!r}")


def _build_images(source: dict, block: dict, seed: int) -> data.ImageSet:
    kind = source.get("type", "textured")
    if kind == "stl10":
        return data.load_stl10(source["path"])
    if kind == "textured":
        return data.generate_textured_images(
            count=int(source.get("count", block.get("sequences", 100))),
            height=int(source.get("height", 96)),
            width=int(source.get("width", 96)),
            seed=derive_seed(seed, 0),
            waves=int(source.get("waves", 6)),
            min_cycles=float(source.get("min_cycles", 1.5)),
            max_cycles=float(source.get("max_cycles", 4.0)),
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


@dataclass
class _Codec:
    method: str
    m: int
    enc: object  # (K, n) -> (K, m)
    dec: object  # (K, m) -> (K, n)
    loss_history: np.ndarray | None = None
    eig_gap: float | None = None
    eig_multiplicity: int | None = None

    def reconstruction_mse(self, frames) -> float:
        return linalg.mse(frames, self.dec(self.enc(frames)))


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
                frame_shape) -> spectral.SpectralBasis:
    n = train_frames.shape[1]
    cache = _cache_file(config, method, n, n)
    packed = _read_cache(cache, (n + 1, n))
    if packed is not None:
        return spectral.SpectralBasis(n, n, packed[1:], packed[0])
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
        _write_cache(cache, np.vstack([basis.eigenvalues[None, :],
                                       basis.basis]))
        basis = spectral.SpectralBasis(n, n, _quantize(basis.basis),
                                       _quantize(basis.eigenvalues))
    return basis


def _fit_codec(config, method: str, m: int, train_frames: np.ndarray,
               frame_shape, full_bases: dict) -> _Codec:
    n = train_frames.shape[1]
    if method == "raw":
        identity = lambda x: np.asarray(x, dtype=np.float64)
        return _Codec("raw", n, identity, identity)
    if method == "ae":
        cache = _cache_file(config, "ae", n, m)
        a = _read_cache(cache, (n, m))
        if a is not None:
            codec = ae.LinearCodec(n, m, a)
            history = None
        else:
            codec0 = ae.init_codec(n, m, _stream(config.seed,
                                                 _STREAM_AE_INIT, m))
            codec, history = ae.train(codec0, train_frames,
                                      config.ae_schedule,
                                      _stream(config.seed,
                                              _STREAM_AE_TRAIN, m))
            if cache is not None:
                _write_cache(cache, codec.a)
                codec = ae.LinearCodec(n, m, _quantize(codec.a))
        return _Codec("ae", m,
                      lambda x, c=codec: ae.encode_frames(c, x),
                      lambda z, c=codec: ae.decode_frames(c, z),
                      loss_history=history)
    # spectral methods share one full eigendecomposition per graph
    if method not in full_bases:
        full_bases[method] = _full_basis(config, method, train_frames,
                                         frame_shape)
    full = full_bases[method]
    basis = spectral.truncate(full, m)
    gap, multiplicity = _eig_diagnostics(full.eigenvalues, m)
    return _Codec(method, m,
                  lambda x, b=basis: spectral.encode_frames(b, x),
                  lambda z, b=basis: spectral.decode_frames(b, z),
                  eig_gap=gap, eig_multiplicity=multiplicity)


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
    start = time.perf_counter()
    dataset = build_dataset(config)
    _validate_compatibility(config, dataset, need_lstm=False)
    train_set, test_set = data.split(dataset, config.train_fraction,
                                     _stream(config.seed, _STREAM_SPLIT))
    train_frames = train_set.frames()
    test_frames = test_set.frames()

    cells = []
    full_bases: dict = {}
    for method in config.methods:
        for m in _dims_for(config, method, dataset.frame_dim):
            codec = _fit_codec(config, method, m, train_frames,
                               dataset.frame_shape, full_bases)
            cells.append(ReportCell(
                method=method, m=m,
                recon_mse=codec.reconstruction_mse(test_frames),
                ae_loss_history=(None if codec.loss_history is None
                                 else [float(v) for v in codec.loss_history]),
                eig_gap=codec.eig_gap,
                eig_multiplicity=codec.eig_multiplicity,
            ))
    return Report("reconstruction", config.seed, config.source,
                  config_hash(config), time.perf_counter() - start, cells)


def run_prediction_experiment(config: ExperimentConfig) -> Report:
    """Train one sequence predictor per (method, m) and score free-run MSE.

    Latent training targets are the encoded frames; the reported
    prediction MSE is computed in the signal domain after decoding, and
    each cell also reports the codec's standalone reconstruction MSE.
    """
    start = time.perf_counter()
    dataset = build_dataset(config)
    _validate_compatibility(config, dataset, need_lstm=True)
    train_set, test_set = data.split(dataset, config.train_fraction,
                                     _stream(config.seed, _STREAM_SPLIT))
    train_frames = train_set.frames()
    test_frames = test_set.frames()
    num_train, t_len, n = train_set.sequences.shape
    num_test = test_set.count

    cells = []
    full_bases: dict = {}
    for method in config.methods:
        method_ix = METHODS.index(method)
        for m in _dims_for(config, method, n):
            codec = _fit_codec(config, method, m, train_frames,
                               dataset.frame_shape, full_bases)
            z_train_flat = codec.enc(train_frames)
            if config.latent_scale == "auto":
                # normalise each representation into the predictor's
                # output range by its own peak training magnitude
                scale = max(float(np.max(np.abs(z_train_flat))), 1e-12)
            else:
                scale = config.latent_scale if config.latent_scale else 1.0
            z_train = (z_train_flat / scale).reshape(num_train, t_len, m)
            z_test = (codec.enc(test_frames) / scale).reshape(num_test,
                                                              t_len, m)
            decode_fn = (lambda zp, c=codec, s=scale: c.dec(zp * s))

            cell0 = lstm.init_cell(m, _stream(config.seed, _STREAM_LSTM_INIT,
                                              method_ix, m))
            trained, history = lstm.train(
                cell0, z_train, config.lstm_schedule, config.warmup,
                _stream(config.seed, _STREAM_LSTM_TRAIN, method_ix, m),
                grad_clip=config.grad_clip,
            )
            pred_mse = lstm.evaluate_prediction(
                trained, z_test, test_set.sequences, config.warmup, decode_fn)

            sample = None
            if config.dump_predictions:
                preds, _ = lstm._forward(trained, z_test[:1], config.warmup,
                                         keep_cache=False)
                sample = decode_fn(preds[0, config.warmup - 1:, :])
            cells.append(ReportCell(
                method=method, m=m,
                recon_mse=codec.reconstruction_mse(test_frames),
                pred_mse=pred_mse,
                ae_loss_history=(None if codec.loss_history is None
                                 else [float(v) for v in codec.loss_history]),
                lstm_loss_history=[float(v) for v in history],
                sample_prediction=sample,
                eig_gap=codec.eig_gap,
                eig_multiplicity=codec.eig_multiplicity,
            ))
    return Report("prediction", config.seed, config.source,
                  config_hash(config), time.perf_counter() - start, cells)


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
