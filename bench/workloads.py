"""Benchmark workloads, their generated inputs, and output checks.

Every workload is a harness config built from the workload seed.  The
image workloads follow the desk recipes in ``configs/desk_recon.json``
and ``configs/desk_predict.json`` at a smaller size (see ``SIZES``);
``series`` is a multivariate non-grid series written to a CSV file, so
the program ingests it exactly as it would a user's ROI recording.

Checks return a list of ``(method, m, reason)`` failures; the runner
counts each failing (method, m) cell once per experiment call.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from gtslatent import data, harness
from gtslatent.rng import Rng, derive_seed

WORKLOADS = ("recon", "predict", "series")

# The desk recipes take ~10 s (recon) and ~35 s (predict) per call on a
# 2-core box.  The box's speed drifts by up to ~30% within tens of
# seconds, so a run needs several short calls for a steady median.
# ``recon`` halves the sequence count (its two n=256 Jacobi solves stay
# and set its ~8 s call); ``predict`` keeps the desk data but trains
# the LSTMs for 5 of the 40 epochs, and reuses its codecs through the
# harness codec cache (see ``warm_up``).  Values not listed here are the
# desk values.
SIZES = {
    "recon": {"crop": 16, "sequences": 100, "ae_epochs": 100},
    "predict": {"crop": 16, "sequences": 200, "ae_epochs": 100,
                "lstm_epochs": 5},
    "series": {"nodes": 160, "timepoints": 1600, "frames": 20,
               "ae_epochs": 20, "lstm_epochs": 8},
}

# The same workloads at toy size, for bench/selftest.py (n=64 frames,
# so every latent dimension above still fits).
TOY_SIZES = {
    "recon": {"crop": 8, "sequences": 12, "ae_epochs": 3},
    "predict": {"crop": 8, "sequences": 12, "ae_epochs": 3, "lstm_epochs": 2},
    "series": {"nodes": 40, "timepoints": 200, "frames": 20,
               "ae_epochs": 3, "lstm_epochs": 2},
}

_DESK_AE = {"epochs": 100, "batch_size": 25, "lr0": 0.003, "wd0": 1e-05,
            "wd_milestones": [[4, 10], [120, 10]]}

# seed stream tag for the series generator, clear of the harness tags
_STREAM_SERIES = 101


def _moving_crop(size: dict) -> dict:
    # desk source images are twice the crop on each side
    return {"type": "moving_crop",
            "source": {"type": "textured", "count": size["sequences"],
                       "height": 2 * size["crop"], "width": 2 * size["crop"]},
            "crop": size["crop"], "frames": 10,
            "sequences": size["sequences"]}


def kind(workload: str) -> str:
    """``"reconstruct"`` or ``"predict"``: which harness run the workload uses."""
    return "reconstruct" if workload == "recon" else "predict"


def series_path(run_dir: Path) -> Path:
    return Path(run_dir) / "inputs" / "series.csv"


def cache_dir(run_dir: Path) -> Path:
    return Path(run_dir) / "codec-cache"


def build_config(workload: str, seed: int, run_dir: Path,
                 sizes: dict = SIZES) -> dict:
    """The harness config (as parsed JSON) for one workload and seed."""
    size = sizes[workload]
    ae_schedule = dict(_DESK_AE, epochs=size["ae_epochs"])
    if workload == "recon":
        return {"dataset": _moving_crop(size),
                "methods": ["gft-grid", "gft-geo", "ae"],
                "latent_dims": [16, 32, 64], "train_fraction": 0.715,
                "warmup": 5, "seed": seed, "ae_schedule": ae_schedule}
    if workload == "predict":
        return {"dataset": _moving_crop(size),
                "methods": ["gft-grid", "gft-geo", "ae", "raw"],
                "latent_dims": [64], "train_fraction": 0.715, "warmup": 5,
                "seed": seed, "latent_scale": "auto",
                "codec_cache_dir": str(cache_dir(run_dir)),
                "ae_schedule": ae_schedule,
                "lstm_schedule": {"epochs": size["lstm_epochs"],
                                  "batch_size": 6, "lr0": 0.001}}
    if workload == "series":
        return {"dataset": {"type": "csv",
                            "path": str(series_path(run_dir)),
                            "frames": size["frames"]},
                "methods": ["gft-corr", "ae"], "latent_dims": [8, 16, 32],
                "train_fraction": 0.715, "warmup": 10, "keep_fraction": 0.05,
                "seed": seed, "latent_scale": "auto",
                "ae_schedule": ae_schedule,
                "lstm_schedule": {"epochs": size["lstm_epochs"],
                                  "batch_size": 6, "lr0": 0.001}}
    raise ValueError(f"unknown workload {workload!r}; expected one of "
                     f"{WORKLOADS}")


def warm_up(workload: str, config) -> None:
    """Untimed work done before measuring, after set-up.

    ``predict`` runs the way the full-scale config does, with a codec
    cache.  One reconstruction run of the same config computes and
    stores its bases and autoencoder (the cache key ignores the LSTM
    settings), so the timed prediction calls load them and measure the
    prediction stage.  The eigensolver and autoencoder training are
    timed by ``recon`` and ``series``.
    """
    if workload == "predict":
        harness.run_reconstruction_experiment(config)


def generate_series(seed: int, nodes: int, timepoints: int) -> np.ndarray:
    """A (timepoints, nodes) series of ROI-like community signals.

    Eight damped oscillators (AR(2) processes with random period and
    damping) are the community signals.  Each node loads on two
    communities with random weights and adds its own uniform noise, so
    node correlations are strong within communities and weak across
    them, and the nodes carry no grid layout.  Every draw comes from
    ``gtslatent.rng`` streams derived from the seed.
    """
    rng = Rng(derive_seed(seed, _STREAM_SERIES))
    communities = 8
    drive = rng.uniform_matrix(timepoints, communities, -1.0, 1.0)
    signals = np.zeros((timepoints, communities))
    for k in range(communities):
        radius = rng.uniform_in(0.9, 0.98)
        omega = 2.0 * math.pi / rng.uniform_in(8.0, 40.0)
        a1, a2 = 2.0 * radius * math.cos(omega), -radius * radius
        x1 = x2 = 0.0
        for t in range(timepoints):
            x1, x2 = a1 * x1 + a2 * x2 + drive[t, k], x1
            signals[t, k] = x1
    signals /= np.std(signals, axis=0)
    loads = np.zeros((communities, nodes))
    for node in range(nodes):
        loads[rng.randint(communities), node] += rng.uniform_in(0.6, 1.0)
        loads[rng.randint(communities), node] += rng.uniform_in(0.0, 0.5)
    noise = rng.uniform_matrix(timepoints, nodes, -1.0, 1.0)
    series = signals @ loads + noise
    return series / np.max(np.abs(series))


def setup(workload: str, seed: int, run_dir: Path, sizes: dict = SIZES):
    """Write the workload's generated inputs and validate its config.

    Returns the validated :class:`harness.ExperimentConfig`.
    """
    raw = build_config(workload, seed, run_dir, sizes)
    if workload == "series":
        size = sizes["series"]
        series_path(run_dir).parent.mkdir(parents=True, exist_ok=True)
        data.save_csv_series(series_path(run_dir),
                             generate_series(seed, size["nodes"],
                                             size["timepoints"]))
    return harness.config_from_dict(raw)


def expected_cells(config) -> list[tuple[str, int]]:
    """Every (method, m) cell a report of this config must have."""
    cells = []
    for method in config.methods:
        # raw is one uncompressed cell at m = n (moving-crop data only)
        dims = ([int(config.dataset["crop"]) ** 2] if method == "raw"
                else config.latent_dims)
        cells.extend((method, m) for m in dims)
    return cells


def check_report(report, config) -> list[tuple[str, int, str]]:
    """Output checks that must hold on every call of every workload.

    Every expected cell is present; every MSE and training loss is
    finite; ``raw`` reconstructs exactly; and each GFT method's
    reconstruction MSE does not increase with m (the retained spans
    are nested, so the projection error cannot grow).
    """
    failures = []
    cells = {(c.method, c.m): c for c in report.cells}
    for key in expected_cells(config):
        if key not in cells:
            failures.append((*key, "cell missing from report"))
    for (method, m), cell in cells.items():
        values = [cell.recon_mse]
        if report.kind == "prediction":
            values.append(cell.pred_mse)
        values += list(cell.ae_loss_history or [])
        values += list(cell.lstm_loss_history or [])
        if not all(v is not None and math.isfinite(v) for v in values):
            failures.append((method, m, "non-finite MSE or training loss"))
        if method == "raw" and cell.recon_mse != 0.0:
            failures.append((method, m, f"raw recon MSE {cell.recon_mse!r} "
                                        f"is not 0"))
    for method in {c.method for c in report.cells if c.method.startswith("gft")}:
        curve = sorted((c.m, c.recon_mse) for c in report.cells
                       if c.method == method)
        for (m0, e0), (m1, e1) in zip(curve, curve[1:]):
            # tolerance: float rounding of the projection residual
            if e1 > e0 * (1.0 + 1e-9) + 1e-15:
                failures.append((method, m1, f"recon MSE rises from m={m0} "
                                             f"({e0:.6g}) to m={m1} "
                                             f"({e1:.6g})"))
    return failures


def csv_row_failures(csv_bytes: bytes, reference: bytes):
    """Cells whose report.csv row differs from the first call's."""
    rows = csv_bytes.decode().splitlines()[1:]
    ref = reference.decode().splitlines()[1:]
    failures = []
    for k in range(max(len(rows), len(ref))):
        row = rows[k] if k < len(rows) else ""
        if k >= len(ref) or row != ref[k]:
            method, m = (row.split(",") + ["?", "0"])[:2]
            failures.append((method, int(m) if m.isdigit() else 0,
                             "report.csv differs from the first call"))
    return failures


def verdicts(report) -> list[str]:
    """The paper's orderings, where the workload has the methods.

    These are seed-dependent empirical claims, printed for information;
    they never count as failures.
    """
    recon = {(c.method, c.m): c.recon_mse for c in report.cells}
    dims = sorted(m for method, m in recon if method == "ae")
    out = []
    if dims and ("gft-grid", dims[0]) in recon:
        ok = all(recon[("ae", m)] < recon[("gft-grid", m)] for m in dims)
        out.append(f"recon ae<grid at every m: {ok}")
        if ("gft-geo", dims[0]) in recon:
            ok = all(recon[("gft-geo", m)] <= recon[("gft-grid", m)]
                     for m in dims)
            out.append(f"recon geo<=grid at every m: {ok}")
    if report.kind == "prediction":
        pred = {(c.method, c.m): c.pred_mse for c in report.cells}
        raw = [v for (method, _), v in pred.items() if method == "raw"]
        for m in dims:
            compressed = [v for (method, mm), v in pred.items()
                          if mm == m and method != "raw"]
            if raw:
                out.append(f"pred compressed<raw at m={m}: "
                           f"{all(v < raw[0] for v in compressed)}")
            if len(compressed) > 1:
                spread = (max(compressed) - min(compressed)) / min(compressed)
                out.append(f"pred spread at m={m}: {spread:.1%} "
                           f"(<=15%: {spread <= 0.15})")
    return out
