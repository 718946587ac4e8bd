"""One SHA-256 over the records of the benchmark's solver workloads and the
lemma suite's reports: a bit-equality check between two commits.

    python3 tools/record_hash.py

Run it from a checkout of the repository at each commit, on one machine, and
compare the two lines: a change that keeps every result bit for bit prints
the same digest.  The digest depends on the machine's floating-point
libraries, so it is a comparison, not a value to pin.

It covers every cell of the ``presets``, ``mesh`` and ``stiff`` workloads of
``benchmarks/workloads.py`` at seeds 0 and 3 (n_stop, the stop state, the
final values, residuals, a_values and step_lengths) and the reports of
``run_lemma_suite()`` and ``run_lemma_suite(("linear",))`` (name, passed,
worst_margin, samples and details).  It only imports the workloads.
"""

import hashlib
import os
import struct
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOLVER_WORKLOADS = ("presets", "mesh", "stiff")
SEEDS = (0, 3)


def _floats(digest, values):
    values = np.ascontiguousarray(values, dtype=np.float64)
    digest.update(struct.pack("<q", values.size) + values.tobytes())


def record_hash():
    """The hex SHA-256 over the workloads' records and the lemma reports."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]
    from dsm.checks import run_lemma_suite
    from dsm.harness import run_cells
    from workloads import WORKLOADS

    digest = hashlib.sha256()
    for name in SOLVER_WORKLOADS:
        for seed in SEEDS:
            for config in WORKLOADS[name].inputs(seed):
                for cell in run_cells(config):
                    record = cell.record
                    if record.stopped_by_discrepancy:
                        state = b"stopped"
                    elif record.n_stop == config.max_iter:
                        state = b"capped"
                    else:
                        state = b"stalled"
                    digest.update(struct.pack("<q", record.n_stop) + state)
                    for values in (record.final.values, record.residuals,
                                   record.a_values, record.step_lengths):
                        _floats(digest, values)
    for report in run_lemma_suite() + run_lemma_suite(("linear",)):
        digest.update(report.name.encode() + struct.pack(
            "<?dq", report.passed, report.worst_margin, report.samples
        ))
        _floats(digest, report.details)
    return digest.hexdigest()


def main():
    print(record_hash())


if __name__ == "__main__":
    main()
