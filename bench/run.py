#!/usr/bin/env python3
"""gtslatent benchmark: end-to-end and per-layer cost of the experiments.

Usage (from the repository root)::

    python3 bench/run.py --workload recon --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

One run sets the workload up, then calls the harness experiment
(``run_reconstruction_experiment`` or ``run_prediction_experiment``)
and ``emit_report`` repeatedly until ``--seconds`` of calls have been
measured, and checks every report.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced calls, adds the eigensolver and LSTM-step microbenchmarks, and
prints the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Full
results and spans, each with an environment fingerprint, are written
under ``bench/out/``.  See ``bench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# setup is timed in fresh processes, one after another, until there are
# at least SETUP_MIN_REPEATS samples and SETUP_MIN_TOTAL_S spent
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 15
SETUP_MIN_TOTAL_S = 2.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy loads.

    The workloads' matrices are at most 256 wide.  On a 2-core box a
    second BLAS thread made those calls both slower and noisier, because
    it waits on a core that other processes also use.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def _import_package():
    """Import gtslatent from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "gtslatent" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'gtslatent'} not found; run the "
                         f"benchmark from a full checkout")
    sys.path.insert(0, str(SRC))
    import gtslatent
    if Path(gtslatent.__file__).resolve().parent != SRC / "gtslatent":
        raise SystemExit(f"error: imported gtslatent from "
                         f"{gtslatent.__file__}, not from {SRC}")


def fingerprint() -> dict:
    import numpy as np
    import gtslatent
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "gtslatent": gtslatent.__version__, "git_commit": commit}


def _run_dir(args) -> Path:
    return Path(args.out) / f"{args.workload}-seed{args.seed}"


def _time_setup_child(args) -> float:
    """Wall time of a fresh process doing this run's set-up and exiting."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(args.out)] + (["--toy"] if args.toy else [])
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed: "
                           f"{done.stderr.decode(errors='replace')}")
    return elapsed


def measure(args) -> dict:
    from gtslatent import harness
    import layers
    import workloads
    from spans import Tracer

    run_dir = _run_dir(args)
    report_dir = run_dir / "report"
    # a cache left by an earlier run would skip the warm-up's work
    shutil.rmtree(workloads.cache_dir(run_dir), ignore_errors=True)
    sizes = workloads.TOY_SIZES if args.toy else workloads.SIZES
    config = workloads.setup(args.workload, args.seed, run_dir, sizes)
    setup_times: list[float] = []
    while len(setup_times) < SETUP_MIN_REPEATS or (
            sum(setup_times) < SETUP_MIN_TOTAL_S
            and len(setup_times) < SETUP_MAX_REPEATS):
        setup_times.append(_time_setup_child(args))
    runner = ("run_reconstruction_experiment"
              if workloads.kind(args.workload) == "reconstruct"
              else "run_prediction_experiment")
    expected = workloads.expected_cells(config)

    tracer = Tracer()
    untraced, traced, traced_reports, cpu = [], [], [], []
    reference_csv, report = None, None
    attempted = failed = 0
    problems: list[str] = []

    def one_call(use_trace: bool) -> float:
        """One checked experiment call; returns its wall time."""
        nonlocal reference_csv, report, attempted, failed
        if use_trace:
            layers.install(tracer)
        t0, cpu0 = time.perf_counter(), time.process_time()
        try:
            # looked up per call so the trace wrappers are used when installed
            report = getattr(harness, runner)(config)
            harness.emit_report(report, report_dir)
            error = None
        except Exception as exc:  # a failed call is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - t0
            cpu.append(time.process_time() - cpu0)
            if use_trace:
                tracer.uninstall()
        call = len(untraced) + len(traced)
        attempted += len(expected)
        if error is not None:
            failed += len(expected)
            problems.append(f"call {call}: {error}")
            report = None
            return elapsed
        csv_bytes = (report_dir / "report.csv").read_bytes()
        reference_csv = reference_csv or csv_bytes
        bad = (workloads.check_report(report, config)
               + workloads.csv_row_failures(csv_bytes, reference_csv))
        failed += len({(method, m) for method, m, _ in bad})
        problems.extend(f"call {call}: {method} m={m}: {why}"
                        for method, m, why in bad)
        if use_trace:
            traced_reports.append(report)
        return elapsed

    t0 = time.perf_counter()
    workloads.warm_up(args.workload, config)
    warm_up_s = time.perf_counter() - t0
    start = time.perf_counter()
    while True:
        # traced runs alternate untraced and traced calls
        use_trace = args.trace == 1 and len(untraced) > len(traced)
        elapsed = one_call(use_trace)
        (traced if use_trace else untraced).append(elapsed)
        have_all = args.trace == 0 or bool(traced)
        # stop before a call that would overrun --seconds
        if have_all and time.perf_counter() - start + elapsed > args.seconds:
            break
    calls = len(untraced) + len(traced)

    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "config": config.source,
              "calls": calls, "attempted": attempted, "failed": failed,
              "call_wall_s": {"untraced": untraced, "traced": traced},
              "call_cpu_s": cpu,
              "setup_process_s": setup_times,
              "problems": problems[:50],
              "verdicts": workloads.verdicts(report) if report else []}
    if args.trace == 0:
        quality = layers.quality_metrics(report) if report else {}
        result["metrics"] = {
            "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
            "wall_s": (statistics.median(untraced), "s", len(untraced)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB", 1),
        }
        result["info"] = {
            "failed_frac": (failed / attempted, "fraction", attempted),
            "warm_up_s": (warm_up_s, "s", 1),
            **{k: (v, "mse", 1) for k, v in quality.items()},
        }
    else:
        per_layer = {}
        if traced_reports:
            per_layer = layers.layer_metrics(tracer, traced_reports, traced,
                                             untraced)
        layers.microbenchmarks(per_layer, args.seed,
                               0.0 if args.toy else layers.EIG_BUDGET_S,
                               tracer.missing)
        units = dict(layers.PER_LAYER)
        samples = len(traced)
        result["metrics"] = {name: (per_layer.get(name, 0.0), unit, samples)
                             for name, unit in units.items()}
        # a layer the workload does not exercise, a trace target that is
        # missing, or an eigensolver size over budget all read 0
        result["zero"] = sorted(k for k, (v, _, _) in result["metrics"].items()
                                if v == 0)
        result["missing_trace_targets"] = tracer.missing
        result["layer_self_s"] = {
            k: v / max(samples, 1)
            for k, v in layers.layer_self_shares(tracer).items()}
        result["spans"] = tracer.to_json()
    return result


def _print_table(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}: {result['calls']} calls, "
          f"{result['failed']}/{result['attempted']} cells failed")
    rows = list(result["metrics"].items()) + list(result.get("info", {}).items())
    for name, (value, unit, samples) in rows:
        print(f"  {name:28s} {value:14.6g} {unit:9s} n={samples}")
    if "layer_self_s" in result:
        wall = result["metrics"]["trace.wall_s"][0]
        print("  self time per traced call, by layer:")
        for layer, value in sorted(result["layer_self_s"].items(),
                                   key=lambda kv: -kv[1]):
            share = value / wall if wall else 0.0
            print(f"    {layer:10s} {value:9.4f} s {share:7.1%}")
    for line in result["verdicts"]:
        print(f"  paper ordering (informational): {line}")
    for line in result["problems"]:
        print(f"  FAILED {line}")
    if result.get("zero"):
        print(f"  read 0 (not exercised or not measured): "
              f"{', '.join(result['zero'])}")
    if result.get("missing_trace_targets"):
        print(f"  missing trace targets: "
              f"{', '.join(result['missing_trace_targets'])}")


def _write_outputs(result: dict, out_dir: Path, env: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    spans = result.pop("spans", None)
    body = {"fingerprint": env, **result,
            "metrics": {k: {"value": v, "unit": u, "samples": n}
                        for k, (v, u, n) in result["metrics"].items()},
            "info": {k: {"value": v, "unit": u, "samples": n}
                     for k, (v, u, n) in result.get("info", {}).items()}}
    (out_dir / f"{stem}.json").write_text(json.dumps(body, indent=2) + "\n")
    if spans is not None:
        (out_dir / f"{stem}-spans.json").write_text(
            json.dumps({"fingerprint": env, "spans": spans}) + "\n")


def _summary_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in result["metrics"].items()},
    })


def _run_all(args) -> int:
    """Run each workload in its own process, one after another."""
    import workloads
    summaries = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(args.out)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited {done.returncode}",
                  file=sys.stderr)
            return 1
        summaries[name] = json.loads(lines[-1])
    print(json.dumps(summaries))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("recon", "predict", "series", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BENCH_DIR / "out"),
                        help="directory for inputs, reports and results")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes, for bench/selftest.py")
    args = parser.parse_args(argv)

    _pin_blas_threads()
    _import_package()
    args.out = Path(args.out).resolve()
    if args.workload == "all":
        return _run_all(args)
    if args.setup_only:
        import workloads
        workloads.setup(args.workload, args.seed, _run_dir(args),
                        workloads.TOY_SIZES if args.toy else workloads.SIZES)
        return 0

    env = fingerprint()
    result = measure(args)
    _print_table(result)
    _write_outputs(result, args.out, env)
    print(_summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
