"""The benchmark's workloads and its outside-in correctness gate.

A workload is built from the benchmark's seed and then run as identical
passes.  Solver workloads feed generated ``ExperimentConfig`` objects to
``dsm.harness.run_cells`` (what ``dsm run`` executes); the ``lemmas`` workload
calls ``dsm.checks.run_lemma_suite`` (what ``dsm verify-lemmas`` executes).
Why each workload exists is recorded in ``BENCHMARK.json`` and in a comment
next to each definition below.
"""

from __future__ import annotations

import math
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from dsm.checks import find_crossing_time, run_lemma_suite
from dsm.driver import ContinuousSchedule
from dsm.harness import PRESETS, calibrate_noise, exact_solution, run_cells, sine_noise
from dsm.hilbert import QuadratureGrid, rel_error
from dsm.operators import OperatorModel
from dsm.regsolve import solve_regularized


def no_span(name):
    return nullcontext()


def noise_seeds(seed):
    """Eleven Gaussian-noise seeds; seed 0 gives the acceptance seeds 1..11."""
    base = 11 * (seed % 2 ** 40)
    return tuple(range(base + 1, base + 12))


def certificate_violations(record, threshold):
    """Reasons a driver record is not a valid discrepancy-stop certificate."""
    bad = []
    if not record.stopped_by_discrepancy:
        bad.append("did not stop by discrepancy")
    residuals = np.asarray(record.residuals)
    if len(residuals) != record.n_stop + 1:
        bad.append(f"{len(residuals)} residuals for n_stop={record.n_stop}")
    elif not (np.all(residuals[:-1] >= threshold) and residuals[-1] < threshold):
        bad.append(f"residuals do not cross C*delta^gamma={threshold:g} exactly at the stop")
    if not np.all(np.isfinite(record.final.values)):
        bad.append("final iterate is not finite")
    return bad


@dataclass
class Outcome:
    """Checked result of one pass: units attempted and failed, why they failed,
    and the median relative error of the solutions (None where there are none)."""

    attempted: int
    failed: int = 0
    failures: list = field(default_factory=list)
    rel_error_median: float | None = None


class SolverWorkload:
    """Cells of one or more experiment configs, run through ``run_cells``."""

    def __init__(self, name, make_configs):
        self.name = name
        self.inputs = make_configs  # seed -> list of ExperimentConfig

    def run_pass(self, configs, span=no_span):
        out = []
        for config in configs:
            cells, error = [], None
            stream = run_cells(config)
            try:
                while True:
                    with span("harness.cell"):
                        cell = next(stream, None)
                    if cell is None:
                        break
                    cells.append(cell)
            except Exception as exc:  # a raising cell is a failed unit, not a crash
                error = exc
            out.append((config, cells, error))
        return out

    def evaluate(self, raw):
        outcome, errors = Outcome(0), []
        for config, cells, error in raw:
            expected = len(config.delta_rel) * len(config.seeds)
            outcome.attempted += expected
            for cell in cells:
                bad = certificate_violations(cell.record, cell.rule.threshold(cell.delta_run))
                if bad:
                    outcome.failed += 1
                    outcome.failures.append(
                        f"{config.model} n={config.n_points} c0={config.c0:g} "
                        f"delta_rel={cell.row.delta_rel:g} seed={cell.row.seed}: " + "; ".join(bad)
                    )
                errors.append(rel_error(cell.record.final, cell.u_exact))
            if error is not None:
                outcome.failed += expected - len(cells)
                outcome.failures.append(f"{config.model} n={config.n_points}: raised {error!r}")
        outcome.rel_error_median = statistics.median(errors) if errors else math.nan
        return outcome

    def quality(self, outcome):
        return outcome.rel_error_median


class LemmaWorkload:
    """``run_lemma_suite()`` at its defaults: identity, arctan3, cubic at n=100."""

    name = "lemmas"

    def inputs(self, seed):
        return None  # the suite's data is fixed: sine noise and its own rng

    def run_pass(self, _inputs, span=no_span):
        try:
            with span("checks.suite"):
                return run_lemma_suite()
        except Exception as exc:  # a raising suite is a failed unit, not a crash
            return exc

    def evaluate(self, raw):
        if isinstance(raw, Exception):
            return Outcome(1, 1, [f"run_lemma_suite raised {raw!r}"])
        failures = [f"{r.name}: worst margin {r.worst_margin:g}" for r in raw if not r.passed]
        return Outcome(len(raw), len(failures), failures)

    def quality(self, outcome):
        """Median over the suite's models of the relative error of the
        regularized solution at the discrepancy crossing the suite locates.

        The suite reports margins only, so this repeats its crossing setup
        once, outside the timed passes.
        """
        errors = []
        for kind in ("identity", "arctan3", "cubic"):
            grid = QuadratureGrid(100)
            model = OperatorModel(kind, grid)
            u_exact = exact_solution("step", grid)
            f_delta, delta = calibrate_noise(model.apply(u_exact), sine_noise(grid), 0.01)
            schedule = ContinuousSchedule(d=1.0, c=7.0, b=1.0)
            t1 = find_crossing_time(model, f_delta, delta, 1.01, schedule)
            solution = solve_regularized(model, f_delta, float(schedule.a(t1))).solution
            errors.append(rel_error(solution, u_exact))
        return statistics.median(errors)


def _presets(seed):
    seeds = noise_seeds(seed)
    return [PRESETS["exp1"].override(seeds=seeds), PRESETS["exp2"],
            PRESETS["exp1-const"], PRESETS["exp2-const"]]


def _mesh(seed):
    first = noise_seeds(seed)[:1]
    return [PRESETS["exp1"].override(n_points=n, delta_rel=(0.01,), seeds=first)
            for n in (250, 500, 1000)]


def _stiff(seed):
    seeds = noise_seeds(seed)
    exp1, exp2 = PRESETS["exp1"], PRESETS["exp2"]
    return (
        [exp1.override(c0=c0, seeds=seeds) for c0 in (0.05, 0.01)]
        + [exp2.override(c0=c0) for c0 in (0.05, 0.01)]
        + [exp1.override(c0=0.01, mode="euler", h=0.5, seeds=seeds)]
    )


WORKLOADS = {
    w.name: w
    for w in (
        # What users run: the acceptance configuration, 72 cells and 3403 Newton
        # steps at n = 30..100.  Per-step Python overhead (about 24k GridFunction
        # wraps, two applies per step) and 100x100 LUs share the time.
        SolverWorkload("presets", _presets),
        # exp1 at delta_rel = 1% on growing grids: 3 cells, 396 steps.  Dense
        # O(n^3) LU, O(n^2) kernel and Jacobian dominate time and memory; this is
        # where a structured O(n) solve and mesh-independent stopping show.
        SolverWorkload("mesh", _mesh),
        # Small-a0 starts: 175 cells, 2846 steps, about 4.5 line-search applies
        # per step against 2 in presets, so a line-search or F-reuse change that
        # costs stiff starts shows.  The only pass through the Euler driver (h != 1).
        SolverWorkload("stiff", _stiff),
        # The only pass through regsolve.solve_regularized and checks (511
        # regularized solves, 1114 linear solves), which a Newton-loop merge rewrites.
        LemmaWorkload(),
    )
}
