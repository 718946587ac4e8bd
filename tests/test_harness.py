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
    load_config_file,
    make_noise,
    rows_to_csv,
    run_cells,
    run_experiment,
    run_solution_dump,
    sine_noise,
)
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


@pytest.mark.parametrize("seed", [0, 12, 2 ** 40, 2 ** 64 - 1, 2 ** 70 + 5])
def test_gaussian_noise_matches_scalar_reference_at_scale(seed):
    # the array mixing reproduces the scalar generator draw for draw; at
    # seed 2^64 - 1 the counter sum wraps past 2^64 from the first draw on,
    # and 2^70 + 5 is wider than the generator's 64-bit state
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
    f = grid.sample(lambda x: 2.0 - x)
    for kind, seed in (("gaussian", 5), ("sine", 0)):
        noise = make_noise(kind, grid, seed)
        for delta_rel in (0.05, 0.01, 0.001):
            f_delta, delta = calibrate_noise(f, noise, delta_rel)
            achieved = norm(f_delta - f) / norm(f)
            assert achieved == pytest.approx(delta_rel, rel=1e-12)
            assert delta == pytest.approx(delta_rel * norm(f), rel=1e-12)


def test_calibration_validation():
    grid = QuadratureGrid(10)
    f = grid.sample(lambda x: x + 1.0)
    noise = sine_noise(grid)
    with pytest.raises(ValueError):
        calibrate_noise(f, noise, 0.0)
    with pytest.raises(ValueError):
        calibrate_noise(f, noise, 1.0)
    with pytest.raises(ValueError):
        calibrate_noise(f, grid.zero(), 0.01)
    with pytest.raises(ValueError):
        calibrate_noise(grid.zero(), noise, 0.01)


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


def test_presets_pin_experiment_parameters():
    exp1 = PRESETS["exp1"]
    assert (exp1.model, exp1.exact, exp1.n_points) == ("arctan3", "step", 100)
    assert (exp1.c0, exp1.p, exp1.shift, exp1.noise) == (7.0, 0.99, 1, "gaussian")
    assert exp1.delta_rel == (0.02, 0.01, 0.005, 0.003, 0.001)
    exp2 = PRESETS["exp2"]
    assert (exp2.model, exp2.c0, exp2.p, exp2.shift, exp2.noise) == (
        "cubic", 2.0, 0.9, 6, "sine",
    )
    c1 = PRESETS["exp1-const"]
    assert (c1.exact, c1.n_points, c1.c0) == ("const_one", 50, 4.0)
    c2 = PRESETS["exp2-const"]
    assert (c2.exact, c2.n_points, c2.c0) == ("const_one", 30, 1.0)
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
    assert cell.delta_run == pytest.approx(
        float(np.linalg.norm(cell.f_delta.values - cell.f.values)), rel=1e-15
    )


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
        n_points=40, delta_rel=(0.01, 0.05, 0.02), seeds=(3, 1, 2), mode=mode, h=0.5,
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
    assert set(lines[1]) <= {"-", " "}
    assert len(lines) == len(rows) + 2


def test_solution_dump(tmp_path):
    path = tmp_path / "sol.csv"
    cell, text = run_solution_dump(FAST, 0.01, seed=1, out=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,u_exact,u_dsm"
    assert len(lines) == FAST.n_points + 1
    x, ue, ud = (float(part) for part in lines[1].split(","))
    assert x == 0.0 and ue == 1.0
    # full-precision repr round-trips the solver output exactly
    assert ud == cell.record.final.values[0]
    assert cell.row.seed == 1 and cell.row.delta_rel == 0.01


def test_solution_dump_defaults_to_first_seed():
    cell, _ = run_solution_dump(FAST, 0.03)
    assert cell.row.seed == FAST.seeds[0]


def test_euler_mode_cell_runs():
    cfg = FAST.override(mode="euler", h=1.0, shift=1)
    rows = run_experiment(cfg)
    assert all(r.stopped for r in rows)


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "preset = exp2-const\n"
        "delta_rel = 0.03,0.01   # inline comment\n"
        "c0 = 2.5\n"
        "\n"
        "seeds = 4\n"
    )
    options = load_config_file(path)
    assert options == {
        "preset": "exp2-const", "delta_rel": "0.03,0.01", "c0": "2.5", "seeds": "4",
    }


def test_load_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just some words\n")
    with pytest.raises(ValueError):
        load_config_file(bad)
    empty_value = tmp_path / "empty.cfg"
    empty_value.write_text("c0 =\n")
    with pytest.raises(ValueError):
        load_config_file(empty_value)
