#!/usr/bin/env python3
"""Fast self-test of the benchmark at toy sizes.

Usage (from the repository root)::

    python3 bench/selftest.py

For every workload (``predict`` too, which ``BENCHMARK.json`` does not
list) it runs ``bench/run.py --toy`` untraced and traced and checks that

* the last output line names exactly the metrics in ``BENCHMARK.json``
  (end-to-end untraced, per-layer traced), each with its unit, and
  every report passed the benchmark's checks;
* the quality numbers the benchmark reports equal those computed from
  the ``report.csv`` that the shipped CLI (``gtslatent reconstruct`` /
  ``gtslatent predict``) writes for the same config and seed, so the
  benchmark measures the program users run;
* a directory holding only ``BENCHMARK.json`` and ``bench/`` makes the
  benchmark exit non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out" / "selftest"
SEED = 3
WORKLOADS = ("recon", "predict", "series")


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
           "--toy", "--out", str(OUT)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def _cli_means(kind: str, config: dict, out: Path) -> dict:
    """Per-method mean MSEs from the report.csv the CLI writes."""
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "gtslatent.cli", kind, "--config",
                    str(cfg_path), "--seed", str(SEED), "--out", str(out)],
                   cwd=ROOT, env=env, check=True, capture_output=True,
                   timeout=600)
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    means = {}
    for key in ("recon_mse", "pred_mse"):
        for method in dict.fromkeys(r["method"] for r in rows):
            values = [float(r[key]) for r in rows
                      if r["method"] == method and r[key]]
            if values and not (key == "recon_mse" and method == "raw"):
                means[f"{key}.{method}"] = statistics.fmean(values)
    return means


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    shutil.rmtree(OUT, ignore_errors=True)
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = _bench(workload, trace)
            if done.returncode != 0:
                errors.append(f"{workload} trace {trace}: exit "
                              f"{done.returncode}\n{done.stderr}")
                continue
            last = json.loads(done.stdout.splitlines()[-1])
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{workload}: result keys {sorted(last)}")
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if got != wanted[trace]:
                errors.append(f"{workload} trace {trace}: metrics differ from "
                              f"BENCHMARK.json: {sorted(set(got) ^ set(wanted[trace]))}")
            if not last["correct"] or last["failed"] or last["attempted"] < 1:
                errors.append(f"{workload} trace {trace}: checks failed\n"
                              f"{done.stdout}")
        result = json.loads((OUT / f"{workload}-seed{SEED}-trace0.json")
                            .read_text())
        bench_quality = {k: v["value"] for k, v in result["info"].items()
                         if k.startswith(("recon_mse.", "pred_mse."))}
        kind = "reconstruct" if workload == "recon" else "predict"
        cli_quality = _cli_means(kind, result["config"], OUT / f"cli-{workload}")
        if bench_quality != cli_quality:
            errors.append(f"{workload}: benchmark quality {bench_quality} != "
                          f"CLI report.csv {cli_quality}")

    bare = OUT / "bare"
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _bench("recon", 0, cwd=bare)
    if done.returncode == 0 or done.stdout.strip():
        errors.append(f"bare directory: exit {done.returncode}, "
                      f"stdout {done.stdout!r}")

    for line in errors:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
