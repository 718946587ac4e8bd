"""Experiment harness: exact solutions, calibrated noise, presets, CSV.

A run cell is one (delta_rel, seed) pair: build f from the exact solution,
add calibrated noise, drive the iteration to the discrepancy stop, and
record iteration count, relative error, and wall time.  All cells of a
config share one grid and one model, and run as one batch
(:func:`dsm.driver.run_batch`); a cell's wall time is the time from the
start of the batch to its stop.

Noise calibration fixes ||f_delta - f|| = delta_rel * ||f|| in the
quadrature-weighted norm, the norm of the drivers' discrepancy stop, and
each cell hands the drivers that absolute level ``delta_abs`` as its delta.
"""

from __future__ import annotations

import math
import operator
from dataclasses import astuple, dataclass, fields, replace
from typing import Iterable

import numpy as np

from .driver import DiscreteSchedule, RunRecord, StoppingRule, run_batch
# unused here; imported only because benchmarks/spans.py patches these names
from .driver import run_euler, run_iteration  # noqa: F401
from .hilbert import GridFunction, QuadratureGrid, _check_same_grid, norm, rel_error
from .operators import MODEL_KINDS, OperatorModel

__all__ = [
    "EXACT_KINDS",
    "NOISE_KINDS",
    "CSV_HEADER",
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


_GOLDEN = 0x9E3779B97F4A7C15


def _mix(seed: int, counters: np.ndarray) -> np.ndarray:
    # SplitMix64 output function on seed + (counter+1)*golden: a counter-based
    # stream, identical across platforms and numpy versions.  uint64 array
    # arithmetic wraps mod 2^64, as the generator's does.
    z = np.uint64(seed) + (counters + np.uint64(1)) * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uniforms(seed, counters: np.ndarray) -> np.ndarray:
    # The package's one random stream: the draws of seed at the given uint64
    # counters, as 53-bit uniforms on [0, 1).  Integer scaling by a power of
    # two, so every draw is exact and the same on every platform.  The seed
    # is any integer in [0, 2^64); anything else raises ValueError.
    try:
        value = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= value < 2 ** 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {value}")
    return (_mix(value, counters) >> np.uint64(11)) * 2.0 ** -53


def gaussian_noise(grid: QuadratureGrid, seed: int) -> GridFunction:
    """One standard normal draw per node, in node order.

    Box-Muller on two 53-bit uniforms per node, counters 2i and 2i + 1 of
    the package's one SplitMix64 stream; u1 is shifted into (0, 1] so the
    log never sees zero.  The stream depends only on (seed, node index),
    never on numpy's generator internals; the log and cosine run per node
    in ``math``, whose results do not depend on numpy's vectorized kernels.
    The square root and the products run in numpy, where IEEE 754 rounds
    them exactly as ``math`` and Python's floats do.  ``seed`` is any
    integer in [0, 2**64); anything else raises ``ValueError``.
    """
    u = _uniforms(seed, np.arange(2 * grid.n, dtype=np.uint64))
    log_u1 = np.fromiter(map(math.log, (u[0::2] + 2.0 ** -53).tolist()), float, grid.n)
    cos_u2 = np.fromiter(map(math.cos, (2.0 * math.pi * u[1::2]).tolist()), float, grid.n)
    return GridFunction(grid, np.sqrt(-2.0 * log_u1) * cos_u2)


def sine_noise(grid: QuadratureGrid) -> GridFunction:
    """Deterministic oscillatory perturbation sin(3 pi x)."""
    return GridFunction(grid, np.sin(3.0 * np.pi * grid.nodes))


def make_noise(kind: str, grid: QuadratureGrid, seed: int) -> GridFunction:
    if kind == "gaussian":
        return gaussian_noise(grid, seed)
    if kind == "sine":
        return sine_noise(grid)
    raise ValueError(f"unknown noise kind {kind!r}; expected one of {NOISE_KINDS}")


def calibrate_noise(f: GridFunction, noise: GridFunction, delta_rel: float) -> tuple:
    """Scale ``noise`` so that ||f_delta - f|| = delta_rel * ||f|| exactly
    (weighted norm), and return the pair ``(f_delta, delta)``: the perturbed
    data and that absolute delta.  Both must live on one grid."""
    _check_same_grid(f, noise)
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
    return f_delta, kappa * noise_norm


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
        if not (self.n_points >= 2 and float(self.n_points).is_integer()):
            raise ValueError(f"n_points must be an integer >= 2, got {self.n_points}")
        object.__setattr__(self, "n_points", int(self.n_points))
        for s in self.seeds:
            if not float(s).is_integer():
                raise ValueError(f"seeds must be integers, got {s}")
            if not 0 <= s < 2 ** 64:
                raise ValueError(f"seed must lie in [0, 2**64), got {int(s)}")
        object.__setattr__(self, "delta_rel", tuple(float(d) for d in self.delta_rel))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        for key in ("delta_rel", "seeds"):
            values = getattr(self, key)
            if not values:
                raise ValueError(f"{key} must be nonempty")
            if len(set(values)) < len(values):
                raise ValueError(f"{key} repeats the value {max(values, key=values.count)}")
        for d in self.delta_rel:
            if not 0.0 < d < 1.0:
                raise ValueError(f"delta_rel entries must lie in (0, 1), got {d}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"h must be positive and finite, got {self.h}")
        # the iteration steps with h = 1; another h needs mode = euler
        if self.mode == "iterate" and self.h != 1.0:
            raise ValueError(f"h must be 1 in mode 'iterate' (use mode 'euler'), got {self.h}")
        if not (self.max_iter >= 1 and float(self.max_iter).is_integer()):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter}")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        # DiscreteSchedule checks c0, p and shift, and StoppingRule stop_c and
        # gamma: build both, so a bad value fails before any cell runs
        DiscreteSchedule(self.c0, 1.0, self.p, self.shift)
        object.__setattr__(self, "shift", int(self.shift))
        StoppingRule(self.stop_c, self.gamma)

    def override(self, **changes) -> "ExperimentConfig":
        return replace(self, **changes)


PRESETS = {
    "exp1": ExperimentConfig(
        model="arctan3", exact="step", n_points=100,
        c0=68.1, p=0.99, shift=1, noise="gaussian",
    ),
    "exp2": ExperimentConfig(
        model="cubic", exact="step", n_points=100,
        c0=15.8, p=0.9, shift=6, noise="sine",
    ),
    "exp1-const": ExperimentConfig(
        model="arctan3", exact="const_one", n_points=50,
        c0=27.5, p=0.99, shift=1, noise="sine",
        delta_rel=(0.05, 0.03, 0.02, 0.01, 0.003, 0.001),
    ),
    "exp2-const": ExperimentConfig(
        model="cubic", exact="const_one", n_points=30,
        c0=4.55, p=0.9, shift=6, noise="sine",
        delta_rel=(0.05, 0.03, 0.02, 0.01, 0.003, 0.001),
    ),
}


@dataclass
class ResultRow:
    """One cell's result; the fields are the CSV columns, in order."""

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


CSV_HEADER = ",".join(field.name for field in fields(ResultRow))


@dataclass
class RunCell:
    """One cell's row and run record, with what it ran from: the exact
    solution, the noisy data ``f_delta``, the stopping rule and the model.

    ``delta_run`` is the noise level the driver ran with, ``row.delta_abs``.
    """

    row: ResultRow
    record: RunRecord
    u_exact: GridFunction
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
    cells, f_deltas, schedules = [], [], []
    for delta_rel in sorted(config.delta_rel, reverse=True):
        for seed in sorted(config.seeds):
            f_delta, delta_abs = calibrate_noise(f, noises[seed], delta_rel)
            cells.append((delta_rel, seed, delta_abs))
            f_deltas.append(f_delta)
            schedules.append(DiscreteSchedule(config.c0, delta_abs, config.p, config.shift))
    records = run_batch(
        model, f_deltas, [delta_abs for _, _, delta_abs in cells], schedules,
        rule=rule, h=config.h, max_steps=config.max_iter,
    )
    for (delta_rel, seed, delta_abs), f_delta, record in zip(cells, f_deltas, records):
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
            row=row, record=record, u_exact=u_exact, f_delta=f_delta,
            delta_run=delta_abs, rule=rule, model=model,
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


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in astuple(row)))
    return "\n".join(lines) + "\n"


def emit_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write(rows_to_csv(rows))


def format_table(rows) -> str:
    """Fixed-width table of the same fields, for terminal output."""
    header = CSV_HEADER.split(",")
    body = [[_fmt(v) for v in astuple(row)] for row in rows]
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


def run_solution_dump(config: ExperimentConfig, out=None):
    """Run the config's one cell and return (cell, csv_text) with columns
    x, u_exact, u_dsm at full float precision; write it when ``out`` is
    given.  A config with more than one ``delta_rel`` or ``seeds`` value
    raises ``ValueError`` naming the key, before anything runs."""
    for key in ("delta_rel", "seeds"):
        if len(getattr(config, key)) != 1:
            raise ValueError(f"a solution dump runs one cell; got {key} {getattr(config, key)}")
    cell = next(iter(run_cells(config)))
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
