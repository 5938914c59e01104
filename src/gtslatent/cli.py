"""Command-line entry point.

Three subcommands, each driven by a JSON config file:

* ``reconstruct`` - compare codec round-trip MSE across latent dims;
* ``predict``     - train sequence predictors on the encoded data and
                    score decoded free-run prediction MSE;
* ``gen-data``    - generate a dataset and write it to disk as
                    ``dataset.npy``.

``--seed`` overrides the config seed, ``--out`` picks the output
directory, which is created before any work (and removed again if a
configuration or I/O error stops the run while it is empty).
``reconstruct`` and ``predict`` write it as a run directory with
:func:`harness.emit_report`, whose docstring names its files.  The
config is read as UTF-8 (RFC 8259); a key it repeats is an error.
Exit code is 0 on success, 1 with a diagnostic on stderr for any
configuration or I/O error (a ``ValueError`` or ``OSError``); any
other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import data, harness


def _add_common(parser):
    parser.add_argument("--config", required=True,
                        help="path to the JSON experiment config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default="gtslatent-out",
                        help="output directory (default: ./gtslatent-out)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gtslatent",
        description="Latent-representation benchmarks for graph-supported "
                    "time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("reconstruct", "run the reconstruction-MSE experiment"),
        ("predict", "run the sequence-prediction experiment"),
        ("gen-data", "generate a dataset and write it to disk"),
    ):
        _add_common(sub.add_parser(name, help=text))
    return parser


def _print_report(report):
    print(f"{report.kind} experiment (seed {report.seed}, "
          f"{report.wall_time_s:.1f}s)")
    for cell in report.cells:
        line = f"  {cell.method:10s} m={cell.m:<5d} recon={cell.recon_mse:.6g}"
        if cell.pred_mse is not None:
            line += f" pred={cell.pred_mse:.6g}"
        print(line)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; ``json.load`` alone keeps a repeated key's
    last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"config has duplicate key {key!r}")
        obj[key] = value
    return obj


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    made_dir = None  # the output directory, once this run has created it
    try:
        if args.out == "":  # names no directory
            raise ValueError("--out must be a non-empty path, got ''")
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
        if not isinstance(raw, dict):
            raise ValueError(f"config must be an object, got {raw!r}")
        if args.seed is not None:
            raw["seed"] = args.seed
        config = harness.config_from_dict(raw)
        if not os.path.isdir(args.out):
            os.makedirs(args.out)
            made_dir = args.out

        if args.command == "gen-data":
            dataset = harness.build_dataset(config)
            path = os.path.join(args.out, "dataset.npy")
            data.save_dataset(path, dataset)
            print(f"wrote {dataset.count} sequences of "
                  f"{dataset.num_frames}x{dataset.frame_dim} frames")
            print(f"  dataset: {path}")
            return 0

        if args.command == "reconstruct":
            report = harness.run_reconstruction_experiment(config)
        else:
            report = harness.run_prediction_experiment(config)
        paths = harness.emit_report(report, args.out)
        _print_report(report)
        for label, path in paths.items():
            print(f"  {label}: {path}")
        return 0
    except (ValueError, OSError) as exc:  # a JSONDecodeError is a ValueError
        if made_dir is not None:
            with contextlib.suppress(OSError):  # not empty: keep it
                os.rmdir(made_dir)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
