"""Every file the package writes lands whole or not at all.

Each case runs one writer in a child interpreter whose file-size limit
(``RLIMIT_FSIZE``, set in the child only) is below the size of a file it
writes, so that write fails part way.  The writer must raise
``OSError`` and leave no temp file.  A file it was replacing keeps
its earlier bytes; ``emit_report``, which removes its files first, leaves
no ``report.json`` and only files that a whole run writes too.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gtslatent import data, harness

LIMIT = 1024  # bytes
EARLIER = b"an earlier version\n"

# the child runs CASES[argv[2]] on directory argv[3] under the limit
_CHILD = f"""
import resource, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import test_writes
resource.setrlimit(resource.RLIMIT_FSIZE, ({LIMIT}, {LIMIT}))
try:
    test_writes.CASES[sys.argv[2]][1](Path(sys.argv[3]))
except OSError:  # EFBIG, or numpy's own short-write error
    print("OSError")
"""


def _report(dims):
    cells = [harness.ReportCell("gft-grid", m, 0.5 / m) for m in dims]
    cells += [harness.ReportCell("ae", m, 0.25 / m,
                                 ae_loss_history=[0.125] * 100)
              for m in dims]
    return harness.Report("reconstruction", 1, {}, "ab" * 32, 1.5, cells)


def _save_array(out):
    data.save_array(out / "predictions.npy", np.arange(1000.0))


def _save_csv_series(out):
    # its first 1024 bytes load without error, as an (18, 3) series
    # whose last value is 0.0, not 0.889
    data.save_csv_series(out / "series.csv",
                         np.random.RandomState(24).rand(60, 3))


def _emit_plot(out):
    harness.emit_plot({"gft-grid": [(4, 0.5), (8, 0.25)],
                       "ae": [(4, 0.25), (8, 0.125)]}, out / "recon_mse.svg")


def _emit_report(out):
    # one m per method: no SVG, and report.json is the file that fails
    harness.emit_report(_report([4]), out)


def _emit_plotted_report(out):
    # the SVG fails before report.json is reached
    harness.emit_report(_report([4, 8]), out)


#: case -> (the name that holds earlier bytes, the write)
CASES = {
    "save_array": ("predictions.npy", _save_array),
    "save_csv_series": ("series.csv", _save_csv_series),
    "emit_plot": ("recon_mse.svg", _emit_plot),
    "emit_report": ("report.json", _emit_report),
    "emit_report-plot": ("report.json", _emit_plotted_report),
}


@pytest.mark.parametrize("case", list(CASES))
def test_failed_write_leaves_earlier_bytes_or_nothing(tmp_path, case):
    target, write = CASES[case]
    whole, failed = tmp_path / "whole", tmp_path / "failed"
    whole.mkdir()
    failed.mkdir()
    write(whole)  # the same write with no limit
    assert max(p.stat().st_size for p in whole.iterdir()) > LIMIT
    (failed / target).write_bytes(EARLIER)
    src = os.path.dirname(os.path.dirname(data.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(Path(__file__).parent), case,
         str(failed)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "OSError\n"
    left = {p.name: p.read_bytes() for p in failed.iterdir()}
    if case.startswith("emit_report"):
        assert "report.json" not in left
        assert {name: (whole / name).read_bytes() for name in left} == left
    else:
        assert left == {target: EARLIER}
