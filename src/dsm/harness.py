"""Experiment harness: exact solutions, calibrated noise, presets, CSV.

A run cell is one (delta_rel, seed) pair: build f from the exact solution,
add calibrated noise, drive the iteration to the discrepancy stop, and
record iteration count, relative error, and wall time.  All cells of a
config share one grid and one model, and run as one batch
(:func:`dsm.driver.run_batch`); a cell's wall time is the time from the
start of the batch to its stop.

Noise calibration fixes ||f_delta - f|| = delta_rel * ||f|| in the
quadrature-weighted norm.  The drivers' discrepancy stop is in the plain
Euclidean vector norm, so each cell hands them the Euclidean size of the
injected noise as its delta.  Both conventions are exposed in the result
rows (``delta_abs`` is the weighted one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple

import numpy as np

from .driver import (
    ContinuousSchedule,
    DiscreteSchedule,
    RunRecord,
    StoppingRule,
    run_batch,
)
# unused here; imported only because benchmarks/spans.py patches these names
from .driver import run_euler, run_iteration  # noqa: F401
from .hilbert import GridFunction, QuadratureGrid, norm, rel_error
from .operators import MODEL_KINDS, OperatorModel

__all__ = [
    "EXACT_KINDS",
    "NOISE_KINDS",
    "CSV_HEADER",
    "Calibrated",
    "ExperimentConfig",
    "PRESETS",
    "ResultRow",
    "RunCell",
    "exact_solution",
    "gaussian_noise",
    "sine_noise",
    "make_noise",
    "calibrate_noise",
    "run_cells",
    "run_experiment",
    "emit_csv",
    "format_table",
    "run_solution_dump",
    "load_config_file",
]

EXACT_KINDS = ("step", "const_one")
NOISE_KINDS = ("gaussian", "sine")


def exact_solution(kind: str, grid: QuadratureGrid) -> GridFunction:
    """Reference solutions the experiments try to recover.

    ``step`` vanishes on the closed middle third [1/3, 2/3] and is 1
    elsewhere; ``const_one`` is identically 1.
    """
    if kind == "step":
        x = grid.nodes
        values = np.where((x >= 1.0 / 3.0) & (x <= 2.0 / 3.0), 0.0, 1.0)
        return GridFunction(grid, values)
    if kind == "const_one":
        return GridFunction(grid, np.ones(grid.n))
    raise ValueError(f"unknown exact solution {kind!r}; expected one of {EXACT_KINDS}")


_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(seed: int, counters: np.ndarray) -> np.ndarray:
    # SplitMix64 output function on seed + (counter+1)*golden: a counter-based
    # stream, identical across platforms and numpy versions.  uint64 array
    # arithmetic wraps mod 2^64, as the generator's does.
    z = np.uint64(seed & _MASK) + (counters + np.uint64(1)) * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def gaussian_noise(grid: QuadratureGrid, seed: int) -> GridFunction:
    """One standard normal draw per node, in node order.

    Box-Muller on two 53-bit uniforms per node; u1 is shifted into (0, 1]
    so the log never sees zero.  The stream depends only on (seed, node
    index), never on numpy's generator internals; the integer mixing runs
    on whole arrays, the log and cosine per node in ``math``, whose results
    do not depend on numpy's vectorized kernels.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    bits = _mix(seed, np.arange(2 * grid.n, dtype=np.uint64)) >> np.uint64(11)
    u1 = ((bits[0::2] + np.uint64(1)) * 2.0 ** -53).tolist()
    u2 = (bits[1::2] * 2.0 ** -53).tolist()
    values = [
        math.sqrt(-2.0 * math.log(x1)) * math.cos(2.0 * math.pi * x2)
        for x1, x2 in zip(u1, u2)
    ]
    return GridFunction(grid, values)


def sine_noise(grid: QuadratureGrid) -> GridFunction:
    """Deterministic oscillatory perturbation sin(3 pi x)."""
    return GridFunction(grid, np.sin(3.0 * np.pi * grid.nodes))


def make_noise(kind: str, grid: QuadratureGrid, seed: int) -> GridFunction:
    if kind == "gaussian":
        return gaussian_noise(grid, seed)
    if kind == "sine":
        return sine_noise(grid)
    raise ValueError(f"unknown noise kind {kind!r}; expected one of {NOISE_KINDS}")


class Calibrated(NamedTuple):
    f_delta: GridFunction
    delta: float


def calibrate_noise(f: GridFunction, noise: GridFunction, delta_rel: float) -> Calibrated:
    """Scale ``noise`` so that ||f_delta - f|| = delta_rel * ||f|| exactly
    (weighted norm), and return the perturbed data with that absolute delta."""
    if not 0.0 < delta_rel < 1.0:
        raise ValueError(f"delta_rel must lie in (0, 1), got {delta_rel}")
    noise_norm = norm(noise)
    if noise_norm == 0.0:
        raise ValueError("noise must be nonzero")
    f_norm = norm(f)
    if f_norm == 0.0:
        raise ValueError("data must be nonzero")
    kappa = delta_rel * f_norm / noise_norm
    f_delta = GridFunction(f.grid, f.values + kappa * noise.values)
    return Calibrated(f_delta=f_delta, delta=kappa * noise_norm)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; presets below fill in the defaults."""

    model: str
    exact: str
    n_points: int
    c0: float
    p: float
    shift: int
    delta_rel: tuple = (0.02, 0.01, 0.005, 0.003, 0.001)
    seeds: tuple = (1,)
    noise: str = "gaussian"
    mode: str = "iterate"
    h: float = 1.0
    stop_c: float = 1.01
    gamma: float = 0.99
    max_iter: int = 500

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.exact not in EXACT_KINDS:
            raise ValueError(f"unknown exact solution {self.exact!r}")
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise!r}")
        if self.mode not in ("iterate", "euler"):
            raise ValueError(f"mode must be 'iterate' or 'euler', got {self.mode!r}")
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")
        object.__setattr__(self, "delta_rel", tuple(float(d) for d in self.delta_rel))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.delta_rel:
            raise ValueError("delta_rel must be nonempty")
        for d in self.delta_rel:
            if not 0.0 < d < 1.0:
                raise ValueError(f"delta_rel entries must lie in (0, 1), got {d}")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if not self.c0 > 0:
            raise ValueError(f"c0 must be positive, got {self.c0}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        if self.shift < 1:
            raise ValueError(f"shift must be >= 1, got {self.shift}")
        if not self.h > 0:
            raise ValueError(f"h must be positive, got {self.h}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        # stop_c / gamma bounds are enforced by StoppingRule at run time,
        # but fail fast here too
        StoppingRule(self.stop_c, self.gamma)

    def override(self, **changes) -> "ExperimentConfig":
        return replace(self, **changes)


PRESETS = {
    "exp1": ExperimentConfig(
        model="arctan3", exact="step", n_points=100,
        c0=7.0, p=0.99, shift=1, noise="gaussian",
    ),
    "exp2": ExperimentConfig(
        model="cubic", exact="step", n_points=100,
        c0=2.0, p=0.9, shift=6, noise="sine",
    ),
    "exp1-const": ExperimentConfig(
        model="arctan3", exact="const_one", n_points=50,
        c0=4.0, p=0.99, shift=1, noise="sine",
        delta_rel=(0.05, 0.03, 0.02, 0.01, 0.003, 0.001),
    ),
    "exp2-const": ExperimentConfig(
        model="cubic", exact="const_one", n_points=30,
        c0=1.0, p=0.9, shift=6, noise="sine",
        delta_rel=(0.05, 0.03, 0.02, 0.01, 0.003, 0.001),
    ),
}

CSV_HEADER = (
    "delta_rel,delta_abs,n_iterations,rel_error,c0,n_points,seed,"
    "model,exact,stopped,wall_time_s"
)


@dataclass
class ResultRow:
    delta_rel: float
    delta_abs: float
    n_iterations: int
    rel_error: float
    c0: float
    n_points: int
    seed: int
    model: str
    exact: str
    stopped: bool
    wall_time_s: float


@dataclass
class RunCell:
    """One cell's full state, for callers that need more than the row."""

    row: ResultRow
    record: RunRecord
    u_exact: GridFunction
    f: GridFunction
    f_delta: GridFunction
    delta_run: float
    rule: StoppingRule
    model: OperatorModel


def run_cells(config: ExperimentConfig) -> Iterable[RunCell]:
    """Yield cells ordered by delta_rel descending, then seed ascending.

    All cells of the config run as one batch (:func:`dsm.driver.run_batch`),
    so the first cell comes out once every cell has stopped, and a cell's
    ``wall_time_s`` is the time from the start of the batch to its stop.
    """
    grid = QuadratureGrid(config.n_points)
    model = OperatorModel(config.model, grid)
    u_exact = exact_solution(config.exact, grid)
    f = model.apply(u_exact)
    rule = StoppingRule(config.stop_c, config.gamma)
    # one draw per seed, reused at every noise level
    noises = {seed: make_noise(config.noise, grid, seed) for seed in config.seeds}
    cells, f_deltas, deltas, schedules = [], [], [], []
    for delta_rel in sorted(config.delta_rel, reverse=True):
        for seed in sorted(config.seeds):
            f_delta, delta_abs = calibrate_noise(f, noises[seed], delta_rel)
            # the drivers' discrepancy stop is in the Euclidean vector
            # norm, so hand them the noise level on the same scale
            delta_run = float(np.linalg.norm(f_delta.values - f.values))
            cells.append((delta_rel, seed, delta_abs))
            f_deltas.append(f_delta)
            deltas.append(delta_run)
            if config.mode == "iterate":
                schedules.append(DiscreteSchedule(config.c0, delta_run, config.p, config.shift))
            else:
                schedules.append(ContinuousSchedule(
                    d=config.c0 * delta_run ** config.p, c=float(config.shift), b=1.0,
                ))
    h = 1.0 if config.mode == "iterate" else config.h
    records = run_batch(
        model, f_deltas, deltas, schedules, rule=rule, h=h, max_steps=config.max_iter
    )
    for (delta_rel, seed, delta_abs), f_delta, delta_run, record in zip(
        cells, f_deltas, deltas, records
    ):
        row = ResultRow(
            delta_rel=delta_rel,
            delta_abs=delta_abs,
            n_iterations=record.n_stop,
            rel_error=rel_error(record.final, u_exact),
            c0=config.c0,
            n_points=config.n_points,
            seed=seed,
            model=config.model,
            exact=config.exact,
            stopped=record.stopped_by_discrepancy,
            wall_time_s=record.wall_time,
        )
        yield RunCell(
            row=row, record=record, u_exact=u_exact, f=f,
            f_delta=f_delta, delta_run=delta_run, rule=rule, model=model,
        )


def run_experiment(config: ExperimentConfig) -> list:
    """All result rows for a config, in CSV order."""
    return [cell.row for cell in run_cells(config)]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _row_fields(row: ResultRow):
    return (
        row.delta_rel, row.delta_abs, row.n_iterations, row.rel_error,
        row.c0, row.n_points, row.seed, row.model, row.exact,
        row.stopped, row.wall_time_s,
    )


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in _row_fields(row)))
    return "\n".join(lines) + "\n"


def emit_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write(rows_to_csv(rows))


def format_table(rows) -> str:
    """Fixed-width table of the same fields, for terminal output."""
    header = CSV_HEADER.split(",")
    body = [[_fmt(v) for v in _row_fields(row)] for row in rows]
    widths = [
        max(len(header[i]), max((len(r[i]) for r in body), default=0))
        for i in range(len(header))
    ]
    lines = [
        "  ".join(h.rjust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    for r in body:
        lines.append("  ".join(r[i].rjust(widths[i]) for i in range(len(header))))
    return "\n".join(lines)


def run_solution_dump(config: ExperimentConfig, delta_rel: float, seed=None, out=None):
    """Run the single cell (delta_rel, seed) and return (cell, csv_text) with
    columns x, u_exact, u_dsm at full float precision; write it when ``out``
    is given."""
    if seed is None:
        seed = config.seeds[0]
    single = config.override(delta_rel=(float(delta_rel),), seeds=(int(seed),))
    cell = next(iter(run_cells(single)))
    lines = ["x,u_exact,u_dsm"]
    for x, ue, ud in zip(
        cell.model.grid.nodes, cell.u_exact.values, cell.record.final.values
    ):
        # repr of Python floats round-trips exactly
        lines.append(f"{float(x)!r},{float(ue)!r},{float(ud)!r}")
    text = "\n".join(lines) + "\n"
    if out is not None:
        with open(out, "w") as fh:
            fh.write(text)
    return cell, text


def load_config_file(path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines skip.

    Values stay strings; the CLI coerces them per key.
    """
    options = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise ValueError(f"{path}:{lineno}: empty key or value")
            options[key] = value
    return options
