"""Outside-in span tracer for the benchmark's traced run.

The tracer replaces public dsm names with wrappers that record one span per
call: ``(name, start, end, parent_index, note)``.  Spans stay in memory with a
link to the span that was open when they started; a layer's self time is its
span minus its direct children.  ``note`` carries a per-call quantity read from
the call's result (Newton steps of a run, Newton iterations of a regularized
solve, computed flops of an LU).

Every wrapper is installed by :func:`patched` and removed when it exits, so an
untraced pass runs the package exactly as shipped.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from dsm import checks, driver, harness, regsolve
from dsm.hilbert import GridFunction
from dsm.operators import OperatorModel


def _lu_flops(args, result):
    # dense LU of an n x n matrix: 2/3 n^3 flops, computed, not counted
    return 2.0 * result.grid.n ** 3 / 3.0


# (owner, attribute, span name, note).  solve_shifted_linear is wrapped at both
# places it is looked up: dsm.driver imports the name, dsm.regsolve defines it.
TARGETS = (
    (OperatorModel, "__init__", "operators.build", None),
    (OperatorModel, "apply", "operators.apply", None),
    (OperatorModel, "jacobian", "operators.jacobian", None),
    (GridFunction, "__init__", "hilbert.wrap", None),
    (harness, "make_noise", "harness.noise", None),
    (harness, "calibrate_noise", "harness.calibrate", None),
    (harness, "run_iteration", "driver.run", lambda args, rec: rec.n_stop),
    (harness, "run_euler", "driver.run", lambda args, rec: rec.n_stop),
    (driver, "solve_shifted_linear", "regsolve.linear_solve", _lu_flops),
    (regsolve, "solve_shifted_linear", "regsolve.linear_solve", _lu_flops),
    (checks, "solve_regularized", "regsolve.regularized_solve",
     lambda args, report: report.iterations),
    (checks, "build_trajectory", "checks.trajectory", None),
    (checks, "find_crossing_time", "checks.crossing", None),
)

_CHECKS_SPANS = ("checks.suite", "checks.trajectory", "checks.crossing")


class Tracer:
    """In-memory span recorder for one thread.

    A span's slot is reserved when it opens, so its children can name it as
    their parent; the finished span is stored as a tuple of atoms, which the
    garbage collector stops tracking.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, 0.0)

    def wrap(self, name, fn, note=None):
        # the body of span() inlined: this runs once per traced call, tens of
        # thousands of times a pass, and its cost is the tracing overhead
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, 0.0)
            if note is not None:
                spans[index] = (name, start, end, parent, note(args, result))
            return result

        return traced


@contextmanager
def patched(tracer):
    """Install a traced wrapper on every name in TARGETS; restore on exit."""
    saved = []
    try:
        for owner, attr, name, note in TARGETS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, note))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(spans):
    """Per-layer counts and seconds for the spans of one pass.

    ``_s`` metrics are inclusive span time; ``self_s`` metrics subtract the
    direct child spans.  ``driver.linesearch_applies`` is the ``apply`` calls
    made inside driver runs minus the one residual evaluation per iterate,
    sum(n_stop + 1); ``driver.applies_per_step`` counts every ``apply`` inside
    the runs, and ``driver.accept_ratio`` is steps per line-search ``apply``.
    """
    count = Counter()
    total = defaultdict(float)
    own = defaultdict(float)
    note = defaultdict(float)
    child = [0.0] * len(spans)
    in_run = [False] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            in_run[i] = in_run[parent] or spans[parent][0] == "driver.run"
    applies_in_runs = 0
    for i, (name, start, end, parent, value) in enumerate(spans):
        count[name] += 1
        total[name] += end - start
        own[name] += end - start - child[i]
        note[name] += value
        applies_in_runs += name == "operators.apply" and in_run[i]
    steps = int(note["driver.run"])
    runs = count["driver.run"]
    linesearch = applies_in_runs - steps - runs
    return {
        "hilbert.wrap_calls": count["hilbert.wrap"],
        "hilbert.wrap_s": total["hilbert.wrap"],
        "operators.build_s": total["operators.build"],
        "operators.apply_calls": count["operators.apply"],
        "operators.apply_s": total["operators.apply"],
        "operators.jacobian_calls": count["operators.jacobian"],
        "operators.jacobian_s": total["operators.jacobian"],
        "regsolve.linear_solve_calls": count["regsolve.linear_solve"],
        "regsolve.linear_solve_s": total["regsolve.linear_solve"],
        "regsolve.linear_solve_gflop": note["regsolve.linear_solve"] / 1e9,
        "regsolve.regularized_solve_calls": count["regsolve.regularized_solve"],
        "regsolve.regularized_solve_s": total["regsolve.regularized_solve"],
        "regsolve.newton_iters": int(note["regsolve.regularized_solve"]),
        "driver.runs": runs,
        "driver.steps": steps,
        "driver.run_s": total["driver.run"],
        "driver.self_s": own["driver.run"],
        "driver.linesearch_applies": linesearch,
        "driver.applies_per_step": applies_in_runs / steps if steps else 0.0,
        "driver.accept_ratio": steps / linesearch if linesearch else 0.0,
        "harness.noise_s": total["harness.noise"],
        "harness.calibrate_s": total["harness.calibrate"],
        "harness.cell_s": total["harness.cell"],
        "checks.trajectory_calls": count["checks.trajectory"],
        "checks.trajectory_s": total["checks.trajectory"],
        "checks.crossing_s": total["checks.crossing"],
        "checks.self_s": sum(own[name] for name in _CHECKS_SPANS),
    }
