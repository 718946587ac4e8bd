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

Three more records reach paths that no workload does:

- ``solve_regularized`` on ``cubic``, n = 100, data 1e6*(1 + x), a = 1e-2,
  whose last line search passes no step length: it stalls unconverged after
  12 iterations and keeps the iterate it came in with;
- the ``linear`` model on the same data at a = 1e-6, capped at 100
  iterations;
- the ``exp1-const`` cell at n = 1000, c0 = 3e-306, delta_rel 1%, seed 1,
  which stops in 186 steps and whose shifted solves take the tiny-shift
  rescale (``operators._RESCALE_DIAG``) in a way that changes its final bits.

For each regularized solve it hashes the iterations, the converged flag,
the residual norm and the solution's values.
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


def _record(digest, record, max_iter):
    if record.stopped_by_discrepancy:
        state = b"stopped"
    elif record.n_stop == max_iter:
        state = b"capped"
    else:
        state = b"stalled"
    digest.update(struct.pack("<q", record.n_stop) + state)
    for values in (record.final.values, record.residuals,
                   record.a_values, record.step_lengths):
        _floats(digest, values)


def record_hash():
    """The hex SHA-256 over the workloads' records, the lemma reports and
    the three records that reach a stall, a cap and the tiny-shift rescale."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]
    from dsm.checks import run_lemma_suite
    from dsm.harness import PRESETS, run_cells
    from dsm.hilbert import GridFunction, QuadratureGrid
    from dsm.operators import OperatorModel
    from dsm.regsolve import solve_regularized
    from workloads import WORKLOADS

    digest = hashlib.sha256()
    for name in SOLVER_WORKLOADS:
        for seed in SEEDS:
            for config in WORKLOADS[name].inputs(seed):
                for cell in run_cells(config):
                    _record(digest, cell.record, config.max_iter)
    for report in run_lemma_suite() + run_lemma_suite(("linear",)):
        digest.update(report.name.encode() + struct.pack(
            "<?dq", report.passed, report.worst_margin, report.samples
        ))
        _floats(digest, report.details)
    grid = QuadratureGrid(100)
    data = GridFunction(grid, 1e6 * (1.0 + grid.nodes))
    for kind, a in (("cubic", 1e-2), ("linear", 1e-6)):
        solved = solve_regularized(OperatorModel(kind, grid), data, a)
        digest.update(struct.pack("<q?d", solved.iterations, solved.converged,
                                  solved.residual_norm))
        _floats(digest, solved.solution.values)
    rescaled = PRESETS["exp1-const"].override(
        n_points=1000, c0=3e-306, delta_rel=(0.01,), seeds=(1,)
    )
    for cell in run_cells(rescaled):
        _record(digest, cell.record, rescaled.max_iter)
    return digest.hexdigest()


def main():
    print(record_hash())


if __name__ == "__main__":
    main()
