"""Per-layer metrics: trace targets, span aggregation, microbenchmarks.

Layers are the package's modules.  ``install`` wraps the public
functions the harness calls; ``layer_metrics`` turns the recorded spans
and the experiment reports into the per-layer metrics listed in
``PER_LAYER``; ``microbenchmarks`` times the eigensolver on grid
Laplacians and one LSTM training step, outside any experiment.

Only API the roadmap keeps is used: the harness ``run_*`` functions, the
data generators, ``graphs.*_graph`` / ``laplacian``,
``spectral.compute_basis``, ``linalg.sym_eig``, ``ae.init_codec`` /
``train``, ``lstm.init_cell`` / ``train`` / ``evaluate_prediction`` /
``loss_and_grad`` and ``optim.adam_step``.  Any other target is
optional: if it is missing the tracer records it and the metrics that
depend on it read 0 and are listed as not measured.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from gtslatent import ae, data, graphs, harness, linalg, lstm, optim, spectral

METHODS = ("gft-grid", "gft-geo", "gft-corr", "ae", "raw")
# every latent dimension any workload trains an LSTM at
LSTM_DIMS = (8, 16, 32, 64, 256)
# LSTM step microbenchmark shapes (roadmap aim 1)
STEP_DIMS = (64, 256)
STEP_BATCH, STEP_FRAMES, STEP_WARMUP = 6, 10, 5
# grid Laplacian sizes for the eigensolver microbenchmark; a size runs
# only if its cubic-scaled estimate fits in EIG_BUDGET_S
EIG_SIZES = (256, 576, 1024, 2025)
EIG_BUDGET_S = 60.0


def _per_layer_names() -> list[tuple[str, str]]:
    out = [("linalg.eig_s", "s"), ("linalg.eig_calls", "count")]
    out += [(f"linalg.eig_s.n{n}", "s") for n in EIG_SIZES]
    out += [("linalg.eig_residual", "ratio"), ("linalg.eig_orth_err", "ratio"),
            ("spectral.self_s", "s"),
            ("graphs.build_s", "s"), ("graphs.edges", "count"),
            ("data.gen_s", "s"), ("data.frames", "count"),
            ("ae.init_s", "s"), ("ae.train_s", "s"),
            ("ae.frames_per_s", "1/s"), ("ae.gflop", "GFLOP"),
            ("ae.final_loss", "mse"),
            ("lstm.init_s", "s")]
    for m in LSTM_DIMS:
        out += [(f"lstm.train_s.m{m}", "s"), (f"lstm.seq_per_s.m{m}", "1/s"),
                (f"lstm.step_ms.m{m}", "ms")]
    for m in STEP_DIMS:
        out += [(f"lstm.fwd_ms.m{m}", "ms"), (f"lstm.fwd_bwd_ms_b1.m{m}", "ms"),
                (f"optim.adam_ms.m{m}", "ms")]
    out += [("optim.adam_s", "s"), ("optim.adam_calls", "count"),
            ("lstm.eval_s", "s")]
    out += [(f"lstm.final_loss.{method}", "mse") for method in METHODS]
    out += [("lstm.nonfinite", "count"),
            ("harness.self_s", "s"), ("harness.report_s", "s")]
    out += [(f"recon_mse.{method}", "mse") for method in METHODS[:4]]
    out += [(f"pred_mse.{method}", "mse") for method in METHODS]
    out += [("trace.wall_s", "s"), ("trace.overhead_s", "s"),
            ("trace.hook_s", "s"), ("trace.unaccounted_s", "s")]
    return out


#: (name, unit) of every per-layer metric, in output order
PER_LAYER = _per_layer_names()


# ---------------------------------------------------------------------------
# trace targets


def _eig_check(args, kwargs, result):
    lap = np.asarray(args[0], dtype=np.float64)
    values, vectors = result
    norm = float(np.linalg.norm(lap)) or 1.0
    residual = float(np.linalg.norm(lap @ vectors - vectors * values)) / norm
    orth = float(np.linalg.norm(vectors.T @ vectors
                                - np.eye(vectors.shape[1])))
    return {"n": lap.shape[0], "residual": residual, "orth_err": orth}


def _edges(args, kwargs, result):
    return {"edges": args[0].edge_count()}


def _frames(args, kwargs, result):
    return {"frames": result.count * result.num_frames}


def _ae_train(args, kwargs, result):
    codec, frames, schedule = args[0], args[1], args[2]
    count = np.asarray(frames).shape[0]
    return {"m": codec.m, "n": codec.n, "frames": count * schedule.epochs,
            # z = xA, r = zA^T - x, grad = r^T z + x^T (r A): five
            # (B x n) by (n x m)-sized products per batch, 2 flop each
            "flop": 10.0 * count * codec.n * codec.m * schedule.epochs}


def _lstm_train(args, kwargs, result):
    sequences, schedule = np.asarray(args[1]), args[2]
    count = sequences.shape[0]
    return {"m": sequences.shape[2], "sequences": count * schedule.epochs,
            "steps": schedule.epochs * math.ceil(count / schedule.batch_size)}


def install(tracer) -> None:
    """Wrap every layer entry point the harness calls."""
    w = tracer.wrap
    w(harness, "run_reconstruction_experiment", "harness.run")
    w(harness, "run_prediction_experiment", "harness.run")
    w(harness, "emit_report", "harness.report")
    for fn in ("generate_textured_images", "split", "load_csv_series"):
        w(data, fn, f"data.{fn}")
    for fn in ("generate_moving_crop_dataset", "generate_moving_sprite_dataset",
               "sequences_from_series"):
        w(data, fn, f"data.{fn}", hook=_frames)
    for fn in ("grid_graph", "semi_geometric_graph", "correlation_graph"):
        w(graphs, fn, f"graphs.{fn}")
    w(graphs, "laplacian", "graphs.laplacian", hook=_edges)
    for fn in ("compute_basis", "truncate", "encode_frames", "decode_frames"):
        w(spectral, fn, f"spectral.{fn}")
    w(linalg, "sym_eig", "linalg.sym_eig", hook=_eig_check)
    w(ae, "init_codec", "ae.init_codec")
    w(ae, "train", "ae.train", hook=_ae_train)
    for fn in ("encode_frames", "decode_frames"):
        w(ae, fn, f"ae.{fn}")
    w(lstm, "init_cell", "lstm.init_cell")
    w(lstm, "train", "lstm.train", hook=_lstm_train)
    w(lstm, "evaluate_prediction", "lstm.evaluate_prediction")
    # the trainers import adam_step by name, so wrap it where they call it
    w(ae, "adam_step", "optim.adam_step")
    w(lstm, "adam_step", "optim.adam_step")


# ---------------------------------------------------------------------------
# metrics from spans and reports


def _dur(spans) -> float:
    return sum(end - start for _, start, end, _, _ in spans)


def _info_sum(spans, key) -> float:
    return sum((info or {}).get(key, 0) for *_, info in spans)


def layer_metrics(tracer, reports, traced_walls, untraced_walls) -> dict:
    """Per-layer metric values, normalised per traced experiment call.

    ``reports`` are the reports of the traced calls; ``traced_walls``
    and ``untraced_walls`` the per-call wall times of the traced and
    untraced calls made in the same run.
    """
    calls = len(traced_walls)
    by = tracer.by_name
    selfs = tracer.self_times()
    out: dict[str, float] = {}

    eig = by("linalg.sym_eig")
    out["linalg.eig_s"] = _dur(eig) / calls
    out["linalg.eig_calls"] = len(eig) / calls
    _merge_eig_checks(out, [s[4] or {} for s in eig])
    out["spectral.self_s"] = sum(v for k, v in selfs.items()
                                 if k.startswith("spectral.")) / calls

    graph_spans = [s for s in tracer.spans
                   if s[0].startswith("graphs.") and _is_root_of(tracer, s,
                                                                 "graphs.")]
    out["graphs.build_s"] = _dur(graph_spans) / calls
    out["graphs.edges"] = _info_sum(by("graphs.laplacian"), "edges") / calls

    data_spans = [s for s in tracer.spans
                  if s[0].startswith("data.") and _is_root_of(tracer, s,
                                                              "data.")]
    out["data.gen_s"] = _dur(data_spans) / calls
    out["data.frames"] = _info_sum(data_spans, "frames") / calls

    cells = [c for r in reports for c in r.cells]
    ae_train = by("ae.train")
    out["ae.init_s"] = _dur(by("ae.init_codec")) / calls
    out["ae.train_s"] = _dur(ae_train) / calls
    train_time = _dur(ae_train)
    out["ae.frames_per_s"] = (_info_sum(ae_train, "frames") / train_time
                              if train_time else 0.0)
    out["ae.gflop"] = _info_sum(ae_train, "flop") / 1e9 / calls
    ae_losses = [c.ae_loss_history[-1] for c in cells if c.ae_loss_history]
    out["ae.final_loss"] = statistics.fmean(ae_losses) if ae_losses else 0.0

    out["lstm.init_s"] = _dur(by("lstm.init_cell")) / calls
    for m in LSTM_DIMS:
        spans = [s for s in by("lstm.train") if (s[4] or {}).get("m") == m]
        total = _dur(spans)
        steps = _info_sum(spans, "steps")
        out[f"lstm.train_s.m{m}"] = total / calls
        out[f"lstm.seq_per_s.m{m}"] = (_info_sum(spans, "sequences") / total
                                       if total else 0.0)
        out[f"lstm.step_ms.m{m}"] = 1e3 * total / steps if steps else 0.0
    adam = by("optim.adam_step")
    out["optim.adam_s"] = _dur(adam) / calls
    out["optim.adam_calls"] = len(adam) / calls
    out["lstm.eval_s"] = _dur(by("lstm.evaluate_prediction")) / calls

    for method in METHODS:
        losses = [c.lstm_loss_history[-1] for c in cells
                  if c.method == method and c.lstm_loss_history]
        out[f"lstm.final_loss.{method}"] = (statistics.fmean(losses)
                                            if losses else 0.0)
    out["lstm.nonfinite"] = sum(
        1 for c in cells if c.lstm_loss_history
        and not all(math.isfinite(v) for v in c.lstm_loss_history)) / calls

    out["harness.self_s"] = selfs.get("harness.run", 0.0) / calls
    out["harness.report_s"] = _dur(by("harness.report")) / calls
    out.update(quality_metrics(reports[0]))

    traced = statistics.median(traced_walls)
    out["trace.wall_s"] = traced
    out["trace.overhead_s"] = traced - statistics.median(untraced_walls)
    out["trace.hook_s"] = selfs.get("trace.hook", 0.0) / calls
    # self times of all spans sum to the roots' durations; what is left
    # of the measured wall is the benchmark's own glue between calls
    out["trace.unaccounted_s"] = (sum(traced_walls) - sum(selfs.values())) / calls
    return out


def _merge_eig_checks(out: dict, checks: list) -> None:
    """Fold eig residual/orthogonality checks into their running maxima."""
    for key, field in (("linalg.eig_residual", "residual"),
                       ("linalg.eig_orth_err", "orth_err")):
        out[key] = max([out.get(key, 0.0)]
                       + [c[field] for c in checks if field in c])


def _is_root_of(tracer, span, prefix) -> bool:
    """True unless the span's parent is in the same layer (no double count)."""
    parent = span[3]
    return parent < 0 or not tracer.spans[parent][0].startswith(prefix)


def quality_metrics(report) -> dict:
    """recon_mse.<method> and pred_mse.<method>, mean over the workload's m.

    Only methods (and, for pred_mse, experiments) the report has appear.
    """
    out = {}
    for key in ("recon_mse", "pred_mse"):
        for method in METHODS:
            if key == "recon_mse" and method == "raw":
                continue
            values = [getattr(c, key) for c in report.cells
                      if c.method == method and getattr(c, key) is not None]
            if values:
                out[f"{key}.{method}"] = statistics.fmean(values)
    return out


def layer_self_shares(tracer) -> dict[str, float]:
    """Self time per layer (module name before the first dot)."""
    out: dict[str, float] = {}
    for name, value in tracer.self_times().items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + value
    return out


# ---------------------------------------------------------------------------
# microbenchmarks


def microbenchmarks(out: dict, seed: int, eig_budget_s: float,
                    missing: list) -> None:
    """Add the microbenchmark metrics to ``out``.

    The eigen-residual maxima also cover the microbenchmark solves.  A
    microbenchmark whose API is gone is appended to ``missing`` and its
    metrics stay unset.
    """
    checks: list = []
    for name, bench in (("eig", lambda: eig_microbench(checks, eig_budget_s)),
                        ("lstm step", lambda: step_microbench(seed))):
        try:
            out.update(bench())
        except (AttributeError, TypeError, KeyError) as exc:
            missing.append(f"{name} microbenchmark: {type(exc).__name__}: "
                           f"{exc}")
    _merge_eig_checks(out, checks)


def _median_time(fn, min_total: float = 0.3, max_reps: int = 50) -> float:
    fn()  # warm-up: first-call allocation and BLAS thread start
    times = []
    while len(times) < max_reps and (len(times) < 3 or sum(times) < min_total):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def eig_microbench(residuals: list, budget_s: float = EIG_BUDGET_S) -> dict:
    """``linalg.sym_eig`` on grid Laplacians at each size that fits.

    The first size always runs; a later size runs when the previous
    size's time, scaled by n^3, fits in what is left of ``budget_s``.
    Sizes that do not fit read 0.  Each result's residual and
    orthogonality error are appended to ``residuals``.
    """
    out = {f"linalg.eig_s.n{n}": 0.0 for n in EIG_SIZES}
    spent, last = 0.0, None
    for n in EIG_SIZES:
        if last is not None:
            estimate = last[1] * (n / last[0]) ** 3
            if spent + estimate > budget_s:
                break
        side = math.isqrt(n)
        lap = graphs.laplacian(graphs.grid_graph(side, side))
        start = time.perf_counter()
        result = linalg.sym_eig(lap)
        elapsed = time.perf_counter() - start
        residuals.append(_eig_check((lap,), {}, result))
        out[f"linalg.eig_s.n{n}"] = elapsed
        spent += elapsed
        last = (n, elapsed)
    return out


def step_microbench(seed: int) -> dict:
    """One LSTM training step at each m in STEP_DIMS, split in three.

    ``fwd`` is ``lstm.evaluate_prediction`` on a (B, T, m) batch with an
    identity decode; ``fwd_bwd_b1`` is ``lstm.loss_and_grad`` on one
    sequence (its only public form); ``adam`` is one ``optim.adam_step``
    per tensor of ``cell.params()``.
    """
    out = {}
    rng = np.random.default_rng(seed)
    for m in STEP_DIMS:
        cell = lstm.init_cell(m, seed)
        batch = rng.uniform(-0.5, 0.5, (STEP_BATCH, STEP_FRAMES, m))
        out[f"lstm.fwd_ms.m{m}"] = 1e3 * _median_time(
            lambda: lstm.evaluate_prediction(cell, batch, batch, STEP_WARMUP,
                                             lambda z: z))
        out[f"lstm.fwd_bwd_ms_b1.m{m}"] = 1e3 * _median_time(
            lambda: lstm.loss_and_grad(cell, batch[0], STEP_WARMUP))
        _, grads = lstm.loss_and_grad(cell, batch[0], STEP_WARMUP)
        params = cell.params()
        states = {k: optim.adam_init(v.shape) for k, v in params.items()}

        def adam_pass():
            for k, value in params.items():
                optim.adam_step(states[k], value, grads[k], 1e-3)

        out[f"optim.adam_ms.m{m}"] = 1e3 * _median_time(adam_pass)
    return out
