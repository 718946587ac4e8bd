"""Experiment harness: solutions, noise, calibration, presets, CSV."""

import math
from dataclasses import replace

import numpy as np
import pytest

import dsm.harness as harness
from dsm.harness import (
    CSV_HEADER,
    PRESETS,
    ExperimentConfig,
    calibrate_noise,
    emit_csv,
    exact_solution,
    format_table,
    gaussian_noise,
    make_noise,
    rows_to_csv,
    run_cells,
    run_experiment,
    run_solution_dump,
    sine_noise,
)
from dsm.checks import CheckReport, format_reports
from dsm.hilbert import GridFunction, QuadratureGrid, norm, rel_error


def test_step_solution_vanishes_on_middle_third():
    grid = QuadratureGrid(100)
    u = exact_solution("step", grid)
    x = grid.nodes
    inside = (x >= 1.0 / 3.0) & (x <= 2.0 / 3.0)
    np.testing.assert_array_equal(u.values[inside], 0.0)
    np.testing.assert_array_equal(u.values[~inside], 1.0)
    # the boundary nodes x_33 = 1/3 and x_66 = 2/3 belong to the closed part
    assert u.values[33] == 0.0
    assert u.values[66] == 0.0
    assert u.values[32] == 1.0


def test_const_solution():
    grid = QuadratureGrid(17)
    np.testing.assert_array_equal(exact_solution("const_one", grid).values, 1.0)
    with pytest.raises(ValueError):
        exact_solution("ramp", grid)


def _splitmix_reference(seed, counter):
    # independent restatement of the counter-based generator for oracle use
    mask = (1 << 64) - 1
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def test_gaussian_noise_matches_box_muller_oracle():
    grid = QuadratureGrid(8)
    values = gaussian_noise(grid, seed=42).values
    for i in range(8):
        u1 = ((_splitmix_reference(42, 2 * i) >> 11) + 1) * 2.0 ** -53
        u2 = (_splitmix_reference(42, 2 * i + 1) >> 11) * 2.0 ** -53
        expected = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        assert values[i] == expected


@pytest.mark.parametrize("seed", [0, 12, 2 ** 40, 2 ** 64 - 1])
def test_gaussian_noise_matches_scalar_reference_at_scale(seed):
    # the array mixing reproduces the scalar generator draw for draw; at
    # seed 2^64 - 1 the counter sum wraps past 2^64 from the first draw on
    n = 1000
    expected = []
    for i in range(n):
        u1 = ((_splitmix_reference(seed, 2 * i) >> 11) + 1) * 2.0 ** -53
        u2 = (_splitmix_reference(seed, 2 * i + 1) >> 11) * 2.0 ** -53
        expected.append(math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2))
    np.testing.assert_array_equal(gaussian_noise(QuadratureGrid(n), seed).values, expected)


def test_gaussian_noise_reproducible_and_seed_sensitive():
    grid = QuadratureGrid(64)
    a = gaussian_noise(grid, 7).values
    b = gaussian_noise(grid, 7).values
    c = gaussian_noise(grid, 8).values
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_gaussian_noise_is_counter_based_per_node():
    # draw i depends only on (seed, i), so a prefix of a bigger grid matches
    small = gaussian_noise(QuadratureGrid(50), 3).values
    big = gaussian_noise(QuadratureGrid(200), 3).values
    np.testing.assert_array_equal(big[:50], small)


def test_gaussian_noise_statistics():
    values = gaussian_noise(QuadratureGrid(4000), 0).values
    assert abs(values.mean()) < 0.05
    assert abs(values.std() - 1.0) < 0.05


def test_gaussian_noise_rejects_negative_seed():
    with pytest.raises(ValueError):
        gaussian_noise(QuadratureGrid(4), -1)


@pytest.mark.parametrize("seed", [2 ** 64, 2 ** 64 + 3, 2 ** 70 + 5, 1.5, 3.0, "3", None])
def test_gaussian_noise_rejects_a_seed_outside_the_stream(seed):
    # seeds are integers in [0, 2^64): a wider one is not reduced mod 2^64,
    # where it would silently equal a small seed
    with pytest.raises(ValueError, match="seed"):
        gaussian_noise(QuadratureGrid(4), seed)


def test_gaussian_noise_takes_any_integer_seed():
    grid = QuadratureGrid(16)
    expected = gaussian_noise(grid, 3).values
    for seed in (np.int64(3), np.uint64(3), np.int8(3)):
        np.testing.assert_array_equal(gaussian_noise(grid, seed).values, expected)


def test_sine_noise_shape():
    grid = QuadratureGrid(101)
    np.testing.assert_allclose(
        sine_noise(grid).values, np.sin(3.0 * np.pi * grid.nodes), rtol=1e-15
    )
    assert make_noise("sine", grid, 99).values[1] == sine_noise(grid).values[1]
    with pytest.raises(ValueError):
        make_noise("pink", grid, 0)


def test_calibration_hits_relative_level_exactly():
    grid = QuadratureGrid(80)
    f = GridFunction(grid, 2.0 - grid.nodes)
    for kind, seed in (("gaussian", 5), ("sine", 0)):
        noise = make_noise(kind, grid, seed)
        for delta_rel in (0.05, 0.01, 0.001):
            f_delta, delta = calibrate_noise(f, noise, delta_rel)
            achieved = norm(f_delta - f) / norm(f)
            assert achieved == pytest.approx(delta_rel, rel=1e-12)
            assert delta == pytest.approx(delta_rel * norm(f), rel=1e-12)


def test_calibration_validation():
    grid = QuadratureGrid(10)
    f = GridFunction(grid, grid.nodes + 1.0)
    noise = sine_noise(grid)
    with pytest.raises(ValueError):
        calibrate_noise(f, noise, 0.0)
    with pytest.raises(ValueError):
        calibrate_noise(f, noise, 1.0)
    with pytest.raises(ValueError):
        calibrate_noise(f, GridFunction(grid, np.zeros(grid.n)), 0.01)
    with pytest.raises(ValueError):
        calibrate_noise(GridFunction(grid, np.zeros(grid.n)), noise, 0.01)


def test_config_validation():
    base = PRESETS["exp2-const"]
    with pytest.raises(ValueError):
        base.override(model="weird")
    with pytest.raises(ValueError):
        base.override(delta_rel=())
    with pytest.raises(ValueError):
        base.override(delta_rel=(1.5,))
    with pytest.raises(ValueError):
        base.override(seeds=())
    with pytest.raises(ValueError):
        base.override(mode="rk4")
    with pytest.raises(ValueError):
        base.override(stop_c=1.0)
    with pytest.raises(ValueError):
        base.override(n_points=1)
    with pytest.raises(ValueError):
        base.override(max_iter=2.5)
    with pytest.raises(ValueError):
        base.override(n_points=30.5)
    with pytest.raises(ValueError):
        base.override(seeds=(1.5,))


@pytest.mark.parametrize("changes, message", [
    ({"delta_rel": (0.03, 0.01, 0.03)}, "delta_rel repeats the value 0.03"),
    ({"seeds": (2, 1, 2)}, "seeds repeats the value 2"),
    ({"seeds": (1, 1.0)}, "seeds repeats the value 1"),
], ids=["delta_rel", "seeds", "integral-float-seed"])
def test_config_rejects_a_repeated_entry(changes, message):
    # a repeated entry would run the same cell twice
    with pytest.raises(ValueError, match=message):
        PRESETS["exp2-const"].override(**changes)


def test_config_stores_an_integral_float_cap_as_an_int():
    # as it stores seeds: the driver sizes its trace by the cap
    config = PRESETS["exp2-const"].override(max_iter=600.0)
    assert config.max_iter == 600 and type(config.max_iter) is int


def test_config_stores_an_integral_float_grid_size_and_shift_as_ints():
    # as it stores max_iter: a float grid size reached the CSV through %.6g,
    # as 1e+06 at 10^6 nodes
    config = PRESETS["exp2-const"].override(n_points=30.0, shift=6.0, delta_rel=(0.03,))
    assert (config.n_points, config.shift) == (30, 6)
    assert type(config.n_points) is int and type(config.shift) is int
    cell, _ = run_solution_dump(config)
    assert type(cell.row.n_points) is int
    large = PRESETS["exp2-const"].override(n_points=1e6)
    row = replace(cell.row, n_points=large.n_points)
    assert rows_to_csv([row]).splitlines()[1].split(",")[5] == "1000000"


@pytest.mark.parametrize("mode", ["iterate", "euler"])
@pytest.mark.parametrize(
    "change", [{"c0": 0.0}, {"p": 2.0}, {"shift": 0.5}, {"h": 0.0}, {"shift": 1.5}]
)
def test_config_rejects_schedule_parameters_when_built(mode, change):
    # before any cell runs, in either mode.  The message names the key, as
    # the CLI prints it.
    (key,) = change
    with pytest.raises(ValueError, match=f"^{key} must"):
        PRESETS["exp2-const"].override(mode=mode, **change)


@pytest.mark.parametrize("h", [0.5, 2.0])
def test_config_rejects_a_step_size_in_iterate_mode(h):
    # the iteration steps with h = 1, so another h would be ignored; in Euler
    # mode it is the step size
    with pytest.raises(ValueError, match="^h must be 1 in mode 'iterate'"):
        PRESETS["exp2-const"].override(h=h)
    assert PRESETS["exp2-const"].override(mode="euler", h=h).h == h


@pytest.mark.parametrize("preset", ["exp1", "exp2-const"])
@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_config_rejects_a_seed_outside_the_stream(preset, seed):
    # when built, with the noise stream's own message: exp2-const's sine
    # noise never draws a seed, and exp1 would fail only at its first draw
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        PRESETS[preset].override(seeds=(seed,))


def test_presets_pin_experiment_parameters():
    exp1 = PRESETS["exp1"]
    assert (exp1.model, exp1.exact, exp1.n_points) == ("arctan3", "step", 100)
    assert (exp1.c0, exp1.p, exp1.shift, exp1.noise) == (68.1, 0.99, 1, "gaussian")
    assert exp1.delta_rel == (0.02, 0.01, 0.005, 0.003, 0.001)
    exp2 = PRESETS["exp2"]
    assert (exp2.model, exp2.c0, exp2.p, exp2.shift, exp2.noise) == (
        "cubic", 15.8, 0.9, 6, "sine",
    )
    c1 = PRESETS["exp1-const"]
    assert (c1.exact, c1.n_points, c1.c0) == ("const_one", 50, 27.5)
    c2 = PRESETS["exp2-const"]
    assert (c2.exact, c2.n_points, c2.c0) == ("const_one", 30, 4.55)
    assert c2.delta_rel == (0.05, 0.03, 0.02, 0.01, 0.003, 0.001)


FAST = PRESETS["exp2-const"].override(delta_rel=(0.03, 0.01), seeds=(2, 1))


def test_rows_ordered_and_consistent():
    from dsm.operators import OperatorModel

    grid = QuadratureGrid(FAST.n_points)
    f = OperatorModel(FAST.model, grid).apply(exact_solution(FAST.exact, grid))
    rows = run_experiment(FAST)
    assert [(r.delta_rel, r.seed) for r in rows] == [
        (0.03, 1), (0.03, 2), (0.01, 1), (0.01, 2)]
    for row in rows:
        assert row.stopped
        assert 0 < row.rel_error < 0.05
        assert row.n_iterations >= 1
        assert row.model == "cubic" and row.exact == "const_one"
        assert row.delta_abs == pytest.approx(row.delta_rel * norm(f), rel=1e-12)


def test_cell_rel_error_recomputes():
    cell = next(iter(run_cells(FAST)))
    assert cell.row.rel_error == rel_error(cell.record.final, cell.u_exact)
    assert cell.delta_run == cell.row.delta_abs


def test_noise_drawn_once_per_seed(monkeypatch):
    drawn = []

    def counting_make_noise(kind, grid, seed):
        drawn.append(seed)
        return make_noise(kind, grid, seed)

    monkeypatch.setattr(harness, "make_noise", counting_make_noise)
    config = FAST.override(noise="gaussian", delta_rel=(0.05, 0.03, 0.01))
    cells = list(run_cells(config))
    assert len(cells) == 3 * len(config.seeds)
    assert sorted(drawn) == sorted(config.seeds)


@pytest.mark.parametrize("mode", ["iterate", "euler"])
def test_batched_cells_match_cells_run_alone(mode):
    """run_cells runs a config's cells as one batch; every cell, in the
    same order, is the one its (delta_rel, seed) config gives alone."""
    config = PRESETS["exp1"].override(
        n_points=40, delta_rel=(0.01, 0.05, 0.02), seeds=(3, 1, 2), mode=mode,
        h=0.5 if mode == "euler" else 1.0,
    )
    batch = list(run_cells(config))
    assert [(c.row.delta_rel, c.row.seed) for c in batch] == [
        (d, s) for d in (0.05, 0.02, 0.01) for s in (1, 2, 3)
    ]
    for cell in batch:
        alone = next(iter(run_cells(
            config.override(delta_rel=(cell.row.delta_rel,), seeds=(cell.row.seed,))
        )))
        assert replace(cell.row, wall_time_s=0.0) == replace(alone.row, wall_time_s=0.0)
        assert cell.record.n_stop == alone.record.n_stop
        np.testing.assert_array_equal(cell.record.residuals, alone.record.residuals)
        np.testing.assert_array_equal(cell.record.a_values, alone.record.a_values)
        np.testing.assert_array_equal(cell.record.final.values, alone.record.final.values)
        np.testing.assert_array_equal(cell.f_delta.values, alone.f_delta.values)
        assert cell.delta_run == alone.delta_run
        assert cell.row.wall_time_s == cell.record.wall_time > 0.0


def test_stop_does_not_depend_on_the_mesh():
    """The discrepancy and delta share the weighted L2 norm, so exp1 stops
    at the same step with the same error on coarse and fine grids."""
    n_stops = set()
    for n_points in (100, 1000, 10_000):
        config = PRESETS["exp1"].override(n_points=n_points, delta_rel=(0.01,), seeds=(1,))
        (row,) = run_experiment(config)
        assert row.stopped, n_points
        assert 0.11 <= row.rel_error <= 0.13, n_points
        n_stops.add(row.n_iterations)
    assert len(n_stops) == 1


def test_csv_header_and_formatting():
    assert CSV_HEADER == (
        "delta_rel,delta_abs,n_iterations,rel_error,c0,n_points,seed,"
        "model,exact,stopped,wall_time_s"
    )
    rows = run_experiment(FAST)
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(rows) + 1
    first = lines[1].split(",")
    assert first[0] == "0.03"
    assert first[9] == "true"
    # six significant digits on floats
    assert first[3] == f"{rows[0].rel_error:.6g}"


def test_csv_deterministic_modulo_wall_time():
    a = [line.rsplit(",", 1)[0] for line in rows_to_csv(run_experiment(FAST)).splitlines()]
    b = [line.rsplit(",", 1)[0] for line in rows_to_csv(run_experiment(FAST)).splitlines()]
    assert a == b


def test_emit_csv_roundtrip(tmp_path):
    rows = run_experiment(FAST)
    path = tmp_path / "rows.csv"
    emit_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    parsed = lines[1].split(",")
    assert float(parsed[1]) == pytest.approx(rows[0].delta_abs, rel=1e-5)
    assert int(parsed[2]) == rows[0].n_iterations


def test_format_table_has_two_header_lines():
    rows = run_experiment(FAST)
    lines = format_table(rows).splitlines()
    assert "delta_rel" in lines[0] and "wall_time_s" in lines[0]
    # the lemma reports print in the same layout: a header, a dash rule, one
    # line per row, every column right-justified, so every line is as wide
    reports = [
        CheckReport("cubic:monotonicity", True, 3.8e-05, 38, 1e-9),
        CheckReport("gronwall_majorant", False, -0.25, 10001, 0.0),
    ]
    report_lines = format_reports(reports).splitlines()
    assert report_lines[0].split() == ["name", "passed", "worst_margin", "samples"]
    assert report_lines[2].split() == ["cubic:monotonicity", "true", "3.8e-05", "38"]
    for lines, n_rows in ((lines, len(rows)), (report_lines, len(reports))):
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == n_rows + 2
        assert len({len(line) for line in lines}) == 1
        assert [len(dashes) for dashes in lines[1].split()] == [
            max(len(line.split()[i]) for line in lines) for i in range(len(lines[0].split()))
        ]


def test_solution_dump(tmp_path):
    path = tmp_path / "sol.csv"
    cell, text = run_solution_dump(FAST.override(delta_rel=(0.01,), seeds=(1,)), out=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,u_exact,u_dsm"
    assert len(lines) == FAST.n_points + 1
    x, ue, ud = (float(part) for part in lines[1].split(","))
    assert x == 0.0 and ue == 1.0
    # full-precision repr round-trips the solver output exactly
    assert ud == cell.record.final.values[0]
    assert cell.row.seed == 1 and cell.row.delta_rel == 0.01


def test_solution_dump_rejects_several_cells(tmp_path):
    # a dump runs the config's one cell, not a pick among several
    path = tmp_path / "sol.csv"
    for key, single in [("seeds", {"delta_rel": (0.03,)}), ("delta_rel", {"seeds": (1,)})]:
        with pytest.raises(ValueError, match=f"one cell; got {key}"):
            run_solution_dump(FAST.override(**single), out=path)
    assert not path.exists()


def test_solution_dump_rejects_a_fractional_seed(tmp_path):
    # the dump's seed is the config's, so the config rejects it before a run
    path = tmp_path / "sol.csv"
    with pytest.raises(ValueError, match="seeds must be integers"):
        run_solution_dump(FAST.override(delta_rel=(0.03,), seeds=(1.5,)), out=path)
    assert not path.exists()


def test_euler_mode_cell_runs():
    cfg = FAST.override(mode="euler", h=1.0, shift=1)
    rows = run_experiment(cfg)
    assert all(r.stopped for r in rows)
