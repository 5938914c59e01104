"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``[criterion N] name: PASS/FAIL`` line with
the measured numbers, then asserts.  Criteria 5 and 6 are evaluated on
three fixed seeds with a majority rule, since they involve stochastic
training; everything is deterministic per seed, so reruns reproduce
the same verdicts bit for bit.
"""

import os
import time

import numpy as np
import pytest

from gtslatent import ae, data, graphs, harness, linalg, lstm, spectral
from gtslatent.optim import TrainSchedule
from gtslatent.rng import Rng

SEEDS = (1, 2, 3)


def _verdict(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {tag}{suffix}")
    return ok


def _path_laplacian(n):
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return np.diag(w.sum(axis=1)) - w


def _basis(lap, m):
    """The harness's graph basis: sym_eig, LinearCodec, then truncate."""
    return spectral.truncate(spectral.LinearCodec(linalg.sym_eig(lap)[1]), m)


def _desk_config(seed, kind):
    """Criterion 5/6 setup: 70 moving-crop sequences of 10 frames from
    32x32 textured sources with 16x16 crops -> 500 train / 200 test
    frames at n=256."""
    cfg = {
        "dataset": {"type": "moving_crop",
                    "source": {"type": "textured", "count": 70,
                               "height": 32, "width": 32},
                    "crop": 16, "frames": 10, "sequences": 70},
        "methods": (["gft-grid", "gft-geo", "ae"]
                    + (["raw"] if kind == "predict" else [])),
        "latent_dims": [16, 32, 64] if kind == "recon" else [64],
        "train_fraction": 0.715,
        "warmup": 5,
        "seed": seed,
        "ae_schedule": {"epochs": 100, "batch_size": 25, "lr0": 3e-3,
                        "wd0": 1e-5, "wd_milestones": [[4, 10], [120, 10]]},
        "lstm_schedule": {"epochs": 40, "batch_size": 6, "lr0": 1e-3},
        "latent_scale": "auto",
    }
    return harness.config_from_dict(cfg)


def test_criterion_1_exact_basis_reconstruction():
    start = time.perf_counter()
    lap = graphs.laplacian(graphs.grid_graph(8, 8))
    basis = _basis(lap, 64)
    signals = Rng(101).uniform_matrix(100, 64, -1.0, 1.0)
    err = spectral.reconstruction_mse(basis, signals)
    elapsed = time.perf_counter() - start
    ok = err < 1e-10 and elapsed < 1.0
    assert _verdict(1, "exact full-basis reconstruction", ok,
                    f"mse={err:.3e}, {elapsed:.2f}s")


def test_criterion_2_eigensolver_correctness():
    start = time.perf_counter()
    worst_ev = 0.0
    for n in range(2, 33):
        vals, _ = linalg.sym_eig(_path_laplacian(n))
        closed = np.sort([2.0 - 2.0 * np.cos(k * np.pi / n) for k in range(n)])
        worst_ev = max(worst_ev, float(np.max(np.abs(vals - closed))))
    worst_ortho = 0.0
    for n in (64, 128, 256):
        _, vecs = linalg.sym_eig(_path_laplacian(n))
        gram_err = float(np.max(np.abs(vecs.T @ vecs - np.eye(n))))
        worst_ortho = max(worst_ortho, gram_err)
    elapsed = time.perf_counter() - start
    ok = worst_ev < 1e-8 and worst_ortho < 1e-8 and elapsed < 10.0
    assert _verdict(2, "eigensolver eigenvalues and orthonormality", ok,
                    f"ev_err={worst_ev:.2e}, ortho={worst_ortho:.2e}, "
                    f"{elapsed:.1f}s")


def _max_rel_error(analytic, numeric):
    denom = max(float(np.max(np.abs(numeric))),
                float(np.max(np.abs(analytic))), 1e-6)
    return float(np.max(np.abs(analytic - numeric))) / denom


def _fd_ae(codec, batch, h=1e-6):
    grad = np.zeros_like(codec.a)
    it = np.nditer(codec.a, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        plus = codec.a.copy()
        plus[idx] += h
        minus = codec.a.copy()
        minus[idx] -= h
        lp, _ = ae.loss_and_grad(spectral.LinearCodec(plus), batch)
        lm, _ = ae.loss_and_grad(spectral.LinearCodec(minus), batch)
        grad[idx] = (lp - lm) / (2.0 * h)
    return grad


def _gate_slices(blocks):
    """The 16 per-gate gradients in a ``w_x``/``w_h``/``b_x``/``b_h``
    mapping: each stack's i, f, g, o slice, weights then biases."""
    return [block[k] for block in blocks.values() for k in range(4)]


def _fd_lstm(cell, frames, warmup, h=1e-6):
    """Central differences in every entry of ``cell.flat``, per gate."""
    grad = np.zeros_like(cell.flat)
    for k in range(grad.size):
        plus = cell.flat.copy()
        plus[k] += h
        lp, _ = lstm.loss_and_grad(lstm.LstmCell(cell.m, plus), frames, warmup)
        minus = cell.flat.copy()
        minus[k] -= h
        lm, _ = lstm.loss_and_grad(lstm.LstmCell(cell.m, minus), frames,
                                   warmup)
        grad[k] = (lp - lm) / (2.0 * h)
    return _gate_slices(lstm.LstmCell(cell.m, grad).params())


def test_criterion_3_gradient_fidelity():
    start = time.perf_counter()
    rng = Rng(301)
    worst_ae = 0.0
    for _ in range(100):
        n = rng.randint(9) + 2
        m = rng.randint(min(n, 5)) + 1
        bsz = rng.randint(8) + 1
        codec = ae.init_codec(n, m, seed=rng.next_u64())
        batch = rng.uniform_matrix(bsz, n, -1.5, 1.5)
        _, grad = ae.loss_and_grad(codec, batch)
        worst_ae = max(worst_ae, _max_rel_error(grad, _fd_ae(codec, batch)))

    worst_lstm = 0.0
    for _ in range(100):
        m = rng.randint(3) + 1
        t_len = rng.randint(4) + 2
        warmup = rng.randint(t_len - 1) + 1
        flat = lstm.init_cell(m, seed=rng.next_u64()).flat
        flat[8 * m * m:] = rng.uniform_matrix(8, m, -0.5, 0.5).ravel()
        cell = lstm.LstmCell(m, flat)
        frames = rng.uniform_matrix(t_len, m, -1.5, 1.5)
        _, grads = lstm.loss_and_grad(cell, frames, warmup)
        fd = _fd_lstm(cell, frames, warmup)
        for got, want in zip(_gate_slices(grads), fd, strict=True):
            worst_lstm = max(worst_lstm, _max_rel_error(got, want))
    elapsed = time.perf_counter() - start
    ok = worst_ae < 1e-4 and worst_lstm < 1e-4 and elapsed < 30.0
    assert _verdict(3, "analytic gradients vs central differences", ok,
                    f"ae={worst_ae:.2e}, lstm={worst_lstm:.2e}, "
                    f"{elapsed:.1f}s over 100+100 instances")


def test_criterion_4_monotone_reconstruction_in_m():
    violations = []

    def check(label, basis_full, frames, sweep):
        errors = [spectral.reconstruction_mse(spectral.truncate(basis_full, m),
                                              frames) for m in sweep]
        for (m0, e0), (m1, e1) in zip(zip(sweep, errors),
                                      zip(sweep[1:], errors[1:])):
            if e1 > e0:
                violations.append((label, m0, m1, e0, e1))

    # moving-crop frames on a 10x10 grid, grid and covariance graphs
    images = data.generate_textured_images(30, 20, 20, seed=401)
    crops = data.generate_moving_crop_dataset(images, 10, 8, 30, seed=402)
    frames = crops.frames()
    n = 100
    grid_lap = graphs.laplacian(graphs.grid_graph(10, 10))
    check("crop/gft-grid", _basis(grid_lap, n), frames,
          [5, 12, 25, 50, 75, 100])
    geo_lap = graphs.laplacian(graphs.semi_geometric_graph(frames, 10, 10))
    check("crop/gft-geo", _basis(geo_lap, n), frames,
          [5, 12, 25, 50, 75, 100])

    # bouncing-sprite frames, grid graph
    sprites = data.generate_moving_sprite_dataset(10, 4, 8, 25, seed=403)
    sprite_frames = sprites.frames()
    sprite_lap = graphs.laplacian(graphs.grid_graph(10, 10))
    check("sprite/gft-grid", _basis(sprite_lap, 100),
          sprite_frames, [4, 10, 40, 70, 100])

    # plain multivariate series, correlation graph
    series = Rng(404).uniform_matrix(80, 40, -1.0, 1.0)
    corr_lap = graphs.laplacian(graphs.correlation_graph(series, 0.2))
    check("series/gft-corr", _basis(corr_lap, 40), series,
          [4, 10, 20, 30, 40])

    ok = not violations
    assert _verdict(4, "reconstruction MSE non-increasing in m", ok,
                    "4 dataset/graph pairs, sweeps of >=5 dims"
                    if ok else f"violations: {violations}")


def test_criterion_5_desk_scale_reconstruction_ordering():
    start = time.perf_counter()
    details = []
    ae_ok_all = True
    geo_votes = 0
    for seed in SEEDS:
        report = harness.run_reconstruction_experiment(_desk_config(seed,
                                                                    "recon"))
        vals = {(c.method, c.m): c.recon_mse for c in report.cells}
        ae_ok = all(vals[("ae", m)] < vals[("gft-grid", m)]
                    for m in (16, 32, 64))
        geo_ok = all(vals[("gft-geo", m)] <= vals[("gft-grid", m)]
                     for m in (16, 32, 64))
        ae_ok_all &= ae_ok
        geo_votes += geo_ok
        details.append(f"seed{seed}: ae<grid={ae_ok} geo<=grid={geo_ok}")
    elapsed = time.perf_counter() - start
    ok = ae_ok_all and geo_votes >= 2 and elapsed < 600.0
    assert _verdict(5, "desk-scale reconstruction ordering (AE < grid, "
                       "GEO <= grid, majority)", ok,
                    "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_6_desk_scale_prediction_ordering():
    start = time.perf_counter()
    details = []
    votes = 0
    for seed in SEEDS:
        report = harness.run_prediction_experiment(_desk_config(seed,
                                                                "predict"))
        pred = {c.method: c.pred_mse for c in report.cells}
        compressed = [pred["gft-grid"], pred["gft-geo"], pred["ae"]]
        beats_raw = all(p < pred["raw"] for p in compressed)
        spread = (max(compressed) - min(compressed)) / min(compressed)
        seed_ok = beats_raw and spread <= 0.15
        votes += seed_ok
        details.append(f"seed{seed}: compressed<raw={beats_raw} "
                       f"spread={spread * 100:.0f}%")
    elapsed = time.perf_counter() - start
    ok = votes >= 2 and elapsed < 1800.0
    assert _verdict(6, "desk-scale prediction ordering (compressed < raw, "
                       "spread <= 15%, majority)", ok,
                    "; ".join(details) + f"; {elapsed:.0f}s")


FULL_SCALE_ENV = "GTS_STL10_BIN"


@pytest.mark.skipif(FULL_SCALE_ENV not in os.environ,
                    reason="full-scale run needs the external STL-10 binary "
                           f"(set {FULL_SCALE_ENV}=/path/to/train_X.bin); "
                           "not part of the default suite")
def test_criterion_7_full_scale_reference():
    """Optional: reproduce the published full-scale prediction table.

    Reference reconstruction MSEs at 45x45 crops: m=1000 -> GFT 0.007,
    GEO 0.003, AE 0.003; m=500 -> GFT 0.014, GEO 0.008, AE 0.008.
    Must match within +-30% relative and preserve the orderings
    (AE/GEO <= GFT recon; all compressed pred < 0.106 raw pred).
    """
    reference = {("gft-grid", 1000): 0.007, ("gft-geo", 1000): 0.003,
                 ("ae", 1000): 0.003, ("gft-grid", 500): 0.014,
                 ("gft-geo", 500): 0.008, ("ae", 500): 0.008}
    cfg = {
        "dataset": {"type": "moving_crop",
                    "source": {"type": "stl10",
                               "path": os.environ[FULL_SCALE_ENV]},
                    "crop": 45, "frames": 20, "sequences": 5000},
        "methods": ["gft-grid", "gft-geo", "ae", "raw"],
        "latent_dims": [500, 1000],
        "train_fraction": 0.7,
        "warmup": 10,
        "seed": 1,
        "ae_schedule": {"epochs": 400, "batch_size": 100, "lr0": 1e-5,
                        "wd0": 1e-5, "wd_milestones": [[4, 10], [120, 10]]},
        "lstm_schedule": {"epochs": 600, "batch_size": 6, "lr0": 1e-3,
                          "lr_milestones": [[200, 2], [400, 2]]},
    }
    report = harness.run_prediction_experiment(harness.config_from_dict(cfg))
    recon = {(c.method, c.m): c.recon_mse for c in report.cells}
    pred = {(c.method, c.m): c.pred_mse for c in report.cells}
    ok = True
    for key, expect in reference.items():
        ok &= abs(recon[key] - expect) <= 0.30 * expect
    for m in (500, 1000):
        ok &= recon[("ae", m)] <= recon[("gft-grid", m)]
        ok &= recon[("gft-geo", m)] <= recon[("gft-grid", m)]
        for method in ("gft-grid", "gft-geo", "ae"):
            ok &= pred[(method, m)] < 0.106
    assert _verdict(7, "full-scale reference reproduction", ok,
                    str({k: round(v, 4) for k, v in recon.items()}))


def test_criterion_8_deterministic_reports(tmp_path):
    cfg = {
        "dataset": {"type": "moving_crop",
                    "source": {"type": "textured", "count": 12,
                               "height": 12, "width": 12},
                    "crop": 6, "frames": 6, "sequences": 12},
        "methods": ["gft-grid", "gft-geo", "ae", "raw"],
        "latent_dims": [4, 12],
        "train_fraction": 0.7,
        "warmup": 2,
        "seed": 9,
        "ae_schedule": {"epochs": 8, "batch_size": 6, "lr0": 0.01,
                        "wd0": 1e-5, "wd_milestones": [[4, 10]]},
        "lstm_schedule": {"epochs": 4, "batch_size": 3, "lr0": 1e-3},
        "latent_scale": "auto",
    }
    config = harness.config_from_dict(cfg)
    outputs = []
    for run in ("a", "b"):
        recon = harness.run_reconstruction_experiment(config)
        predict = harness.run_prediction_experiment(config)
        out = tmp_path / run
        harness.emit_report(recon, out / "recon")
        harness.emit_report(predict, out / "predict")
        outputs.append(((out / "recon" / "report.csv").read_bytes(),
                        (out / "predict" / "report.csv").read_bytes()))
    ok = outputs[0] == outputs[1]
    assert _verdict(8, "byte-identical CSV reports on rerun", ok,
                    f"{len(outputs[0][0]) + len(outputs[0][1])} bytes compared")
