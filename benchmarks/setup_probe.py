"""Time a fresh process's set-up: import dsm (numpy, scipy) and run one tiny cell.

Run by ``run.py`` in a child process with one BLAS thread already set in the
environment.  Prints the seconds from the first line of this script to the
end of the cell; exits 1 if the cell does not stop by discrepancy.
"""

import time

start = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from dsm.harness import PRESETS, run_cells  # noqa: E402

cells = list(run_cells(PRESETS["exp2-const"].override(delta_rel=(0.05,))))
elapsed = time.perf_counter() - start
if not all(cell.record.stopped_by_discrepancy for cell in cells):
    sys.exit("warm-up cell did not stop by discrepancy")
print(repr(elapsed))
