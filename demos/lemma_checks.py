"""Numerically certify the structural facts the solver relies on.

For each operator model this sweeps the regularized problems and checks:
residual decreases / solution norm increases as the regularization
parameter drops, noisy and exact solutions stay within delta/a, the
large-parameter limit collapses the solution, and the discrepancy
threshold is crossed at a finite time.  Two scalar integral inequalities
and a Gronwall-type majorant are certified on top.  Every line should
end with a positive worst margin.
"""

import sys

from dsm.checks import format_reports, run_lemma_suite

reports = run_lemma_suite()
print(format_reports(reports))

failed = [r.name for r in reports if not r.passed]
if failed:
    print(f"FAILED: {', '.join(failed)}")
    sys.exit(1)
print(f"all {len(reports)} checks passed")
