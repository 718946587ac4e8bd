"""Command line behavior: subcommands, config precedence, exit codes."""

import itertools
import re

import pytest

from dsm import operators
from dsm.cli import _CONFIG_KEYS, _build_parser, _resolve, load_config_file, main
from dsm.harness import PRESETS

# exp2-const is the fastest preset, so CLI runs stay in the millisecond range
FAST_ARGS = ["run", "--preset", "exp2-const", "--delta-rel", "0.03,0.01", "--seeds", "1"]


def test_run_prints_table_and_succeeds(capsys):
    assert main(FAST_ARGS) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert "delta_rel" in lines[0] and "wall_time_s" in lines[0]
    assert len(lines) == 2 + 2  # header, rule, two rows
    assert "cubic" in lines[2]


def test_run_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    assert main(FAST_ARGS + ["--out", str(out_file)]) == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("delta_rel,delta_abs,n_iterations")
    assert len(lines) == 3


def test_run_exit_1_when_not_stopped(tmp_path, capsys):
    # one iteration cannot reach the discrepancy stop here
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("max_iter = 1\n")
    code = main(FAST_ARGS + ["--config", str(cfg)])
    assert code == 1


def test_invalid_noise_level_exit_2(capsys):
    assert main(["run", "--preset", "exp2-const", "--delta-rel", "1.5", "--seeds", "1"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("extra, line", [
    (["--c0", "inf"], "c0 = inf"),
    (["--mode", "euler", "--h", "inf"], "mode = euler\nh = inf"),
])
def test_infinite_schedule_parameter_exit_2(tmp_path, capsys, extra, line):
    # an infinite c0 or h is an invalid configuration, not a divergent run
    assert main(FAST_ARGS + extra) == 2
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(line + "\n")
    assert main(FAST_ARGS + ["--config", str(cfg)]) == 2
    assert "finite" in capsys.readouterr().err


# c0 = 1e-320 is subnormal as given: it printed "numerically singular pivot"
# and exited 1.  c0 = 1e-307 passes the config's check and gives the
# subnormal d = c0 * delta_abs**p = 7e-309 at the cell's delta: it ran on
# subnormal shifts
@pytest.mark.parametrize("c0", ["1e-320", "1e-307"])
def test_subnormal_schedule_d_exit_2(capsys, c0):
    args = ["run", "--preset", "exp2-const", "--c0", c0, "--delta-rel", "0.03", "--seeds", "1"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "d, c must be positive and finite" in err and "smallest normal double" in err


def test_infinite_stop_c_exit_2(capsys):
    # C = inf printed n_iterations 0, rel_error 1, stopped true and exited 0
    assert main(FAST_ARGS + ["--stop-c", "inf"]) == 2
    assert "finite" in capsys.readouterr().err


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 11\n")
    assert main(["run", "--config", str(cfg)]) == 2


def test_run_rejects_config_seed_exit_2(tmp_path, capsys):
    # seed is no config key (a dump's seed comes from seeds, as a run's
    # does), so it is an unknown key, not one that run drops
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seeds = 1\nseed = 7\n")
    assert main(FAST_ARGS + ["--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert "'seed'" in err and "n_iterations" not in out
    cfg.write_text("seeds = 1\n")
    assert main(FAST_ARGS + ["--config", str(cfg)]) == 0


def test_missing_config_file_exit_3(capsys):
    assert main(["run", "--config", "/nonexistent/run.cfg"]) == 3


def test_unwritable_out_exit_3(capsys):
    assert main(FAST_ARGS + ["--out", "/nonexistent/dir/rows.csv"]) == 3


@pytest.mark.parametrize("key, value", [
    ("preset", "unknown"), ("noise", "white"), ("mode", "newton"),
])
def test_bad_flag_value_is_configuration_error(tmp_path, capsys, key, value):
    # a flag value goes through the checks of the same config-file line
    assert main(["run", f"--{key}", value]) == 2
    flag_err = capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == flag_err
    assert repr(value) in flag_err


@pytest.mark.parametrize("flag, value", [("--delta-rel", "0.03,x"), ("--seeds", "1,y")])
def test_malformed_list_flag_is_usage_error(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "exp2-const", flag, value])
    assert exc.value.code == 2
    assert "comma-separated" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["delta_rel = 0.03, x", "seeds = 1, 2.5"])
def test_malformed_list_in_config_exit_2(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("preset = exp2-const\n" + line + "\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert line.split()[0] in capsys.readouterr().err


def test_config_file_sets_preset_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "preset = exp2-const\n"
        "delta_rel = 0.03\n"
        "seeds = 9\n"
        "c0 = 0.5\n"
    )
    out_file = tmp_path / "rows.csv"
    assert main(["run", "--config", str(cfg), "--c0", "1.0",
                 "--out", str(out_file)]) == 0
    header, row = out_file.read_text().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["c0"] == "1"          # flag beat the config file
    assert fields["seed"] == "9"        # config file beat the preset
    assert fields["model"] == "cubic"   # preset supplied the rest
    assert fields["n_points"] == "30"


def test_euler_mode_flags(capsys):
    args = FAST_ARGS + ["--mode", "euler", "--h", "1.0"]
    assert main(args) == 0


def test_step_size_without_euler_mode_exit_2(tmp_path, capsys):
    # the iteration steps with h = 1: --h 0.5 alone is an invalid configuration,
    # not a run at h = 1
    assert main(FAST_ARGS + ["--h", "0.5"]) == 2
    assert "mode 'euler'" in capsys.readouterr().err
    cfg = tmp_path / "h.cfg"
    cfg.write_text("h = 0.5\n")
    assert main(FAST_ARGS + ["--config", str(cfg)]) == 2
    assert main(FAST_ARGS + ["--config", str(cfg), "--mode", "euler"]) == 0


def test_dump_solution(tmp_path, capsys):
    out_file = tmp_path / "solution.csv"
    code = main(["dump-solution", "--preset", "exp2-const",
                 "--delta-rel", "0.01", "--seeds", "3", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "x,u_exact,u_dsm"
    assert len(lines) == 31
    x0, ue0, ud0 = lines[1].split(",")
    assert float(x0) == 0.0
    assert float(ue0) == 1.0
    assert abs(float(ud0) - 1.0) < 0.1


def test_dump_requires_out(tmp_path, capsys):
    # from --out or from the config file's out, which works as the flag does
    assert main(["dump-solution", "--preset", "exp2-const", "--delta-rel", "0.01"]) == 2
    assert "'out'" in capsys.readouterr().err
    out_file = tmp_path / "solution.csv"
    cfg = tmp_path / "out.cfg"
    cfg.write_text(f"out = {out_file}\n")
    assert main(["dump-solution", "--preset", "exp2-const", "--delta-rel", "0.01",
                 "--config", str(cfg)]) == 0
    assert len(out_file.read_text().splitlines()) == 1 + 30


def test_dump_solution_takes_the_grid_size_flag(tmp_path, capsys):
    out_file = tmp_path / "solution.csv"
    assert main(["dump-solution", "--preset", "exp2-const", "--n-points", "40",
                 "--delta-rel", "0.03", "--out", str(out_file)]) == 0
    assert len(out_file.read_text().splitlines()) == 41


def test_dump_of_two_seeds_exit_2_writes_no_file(tmp_path, capsys):
    # a dump runs the config's one cell, so seeds follow the rule of delta_rel
    out_file = tmp_path / "solution.csv"
    assert main(["dump-solution", "--preset", "exp2-const", "--delta-rel", "0.03",
                 "--seeds", "1,2", "--out", str(out_file)]) == 2
    assert "seeds" in capsys.readouterr().err
    assert not out_file.exists()


def test_verify_lemmas_identity(tmp_path, capsys):
    out_file = tmp_path / "reports.csv"
    assert main(["verify-lemmas", "--model", "identity", "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "identity:monotonicity" in out
    assert "gronwall_majorant" in out
    lines = out_file.read_text().splitlines()
    assert lines[0] == "name,passed,worst_margin,samples"
    assert all(",true," in line for line in lines[1:])


def test_verify_lemmas_takes_every_model_kind(capsys):
    # --model offers every kind an OperatorModel has, linear among them
    assert main(["verify-lemmas", "--model", "linear"]) == 0
    out = capsys.readouterr().out
    assert "linear:monotonicity" in out
    assert "identity:" not in out


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


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


def _csv_fields(path):
    header, row = path.read_text().splitlines()
    return dict(zip(header.split(","), row.split(",")))


def test_run_preset_flag_beats_file_preset(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("preset = exp1\n")
    out_file = tmp_path / "rows.csv"
    assert main(["run", "--preset", "exp2-const", "--config", str(cfg),
                 "--delta-rel", "0.03", "--seeds", "1", "--out", str(out_file)]) == 0
    fields = _csv_fields(out_file)
    assert (fields["model"], fields["n_points"]) == ("cubic", "30")


def test_dump_seed_flag_beats_file_seed(tmp_path, capsys):
    # exp1 has gaussian noise, so the seed shows in the dump; the dump's one
    # seed is the config key seeds, as a run's are
    cfg = tmp_path / "s.cfg"
    cfg.write_text("seeds = 3\n")
    dumps = {}
    for name, extra in [("file", ["--config", str(cfg), "--seeds", "4"]),
                        ("flag", ["--seeds", "4"]), ("seed 3", ["--seeds", "3"])]:
        out_file = tmp_path / f"{name}.csv"
        assert main(["dump-solution", "--preset", "exp1", "--delta-rel", "0.01",
                     "--out", str(out_file)] + extra) == 0
        dumps[name] = out_file.read_text()
    assert dumps["file"] == dumps["flag"]
    assert dumps["file"] != dumps["seed 3"]


def test_dump_preset_flag_beats_file_preset(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("preset = exp2-const\n")
    out_file = tmp_path / "solution.csv"
    assert main(["dump-solution", "--preset", "exp1", "--config", str(cfg),
                 "--delta-rel", "0.01", "--out", str(out_file)]) == 0
    assert len(out_file.read_text().splitlines()) == 1 + 100  # exp1's grid


def test_dump_one_cell_only(tmp_path, capsys):
    out_file = tmp_path / "solution.csv"
    assert main(["dump-solution", "--preset", "exp2-const", "--delta-rel", "0.03,0.01",
                 "--out", str(out_file)]) == 2
    assert not out_file.exists()


@pytest.mark.parametrize("command", ["run", "dump-solution"])
@pytest.mark.parametrize(
    "flag_preset, file_preset, flag_seed, file_seed, file_out, file_delta",
    list(itertools.product((False, True), repeat=6)),
)
def test_flag_and_file_combinations_never_raise(
    tmp_path, capsys, command, flag_preset, file_preset, flag_seed, file_seed,
    file_out, file_delta,
):
    lines = []
    if file_preset:
        lines.append("preset = exp2-const")
    if file_seed:
        lines.append("seeds = 3")
    if file_out:
        lines.append(f"out = {tmp_path / 'file.csv'}")
    if file_delta:
        lines.append("delta_rel = 0.03")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(line + "\n" for line in lines))
    argv = [command, "--config", str(cfg), "--delta-rel", "0.03"]
    if flag_preset:
        argv += ["--preset", "exp2-const"]
    if flag_seed:
        argv += ["--seeds", "4"]
    if command == "dump-solution":
        argv += ["--out", str(tmp_path / "flag.csv")]
    assert main(argv) in (0, 1, 2, 3)


# a value for each config key that differs from the default preset's
_KEY_SAMPLES = {
    "preset": "exp2-const", "model": "cubic", "exact": "const_one", "n_points": "40",
    "c0": "2.5", "p": "0.8", "shift": "3", "delta_rel": "0.03, 0.01", "seeds": "4, 5",
    "noise": "sine", "mode": "euler", "h": "0.5", "stop_c": "1.5", "gamma": "0.9",
    "max_iter": "7", "out": "rows.csv",
}


def _resolved(argv):
    return _resolve(_build_parser().parse_args(argv))


@pytest.mark.parametrize("command", ["run", "dump-solution"])
@pytest.mark.parametrize("key", sorted(_CONFIG_KEYS))
def test_config_key_flag_equals_its_file_line(tmp_path, command, key):
    value = _KEY_SAMPLES[key]
    # h other than 1 needs the Euler driver
    context = ["--mode", "euler"] if key == "h" else []
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key} = {value}\n")
    flag = _resolved([command, "--" + key.replace("_", "-"), value] + context)
    assert flag == _resolved([command, "--config", str(cfg)] + context)
    assert flag != (PRESETS["exp1"], None)


def test_run_and_dump_take_one_flag_per_config_key(capsys):
    expected = {"--help", "--config"} | {"--" + k.replace("_", "-") for k in _CONFIG_KEYS}
    for command in ("run", "dump-solution"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out)) == expected


@pytest.mark.parametrize("key, flags", [
    ("delta_rel", ["--delta-rel", "0.03,0.03"]),
    ("seeds", ["--delta-rel", "0.03", "--seeds", "1,2,1"]),
], ids=["delta_rel", "seeds"])
def test_run_of_a_repeated_entry_exit_2(capsys, key, flags):
    # a repeated entry would run the same cell twice
    assert main(["run", "--preset", "exp2-const", "--seeds", "1"] + flags) == 2
    out, err = capsys.readouterr()
    assert f"{key} repeats" in err and "n_iterations" not in out


def test_config_file_key_set_twice_exit_2(tmp_path, capsys):
    # which of two values is meant is unknowable, so neither wins
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("preset = exp2-const\nc0 = 4.55\n# a comment\nc0 = 1e-9\n")
    with pytest.raises(ValueError, match=r":4: key 'c0' already set on line 2"):
        load_config_file(cfg)
    assert main(["run", "--config", str(cfg), "--delta-rel", "0.03", "--seeds", "1"]) == 2
    out, err = capsys.readouterr()
    assert "line 2" in err and "n_iterations" not in out



def _rows_without_wall_time(path):
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


def test_integral_float_grid_size_runs_the_integer_grid(tmp_path, capsys):
    # n_points = 1e2, as a flag or as a file line, is n_points = 100: the
    # same rows, wall time aside
    cfg = tmp_path / "n.cfg"
    cfg.write_text("n_points = 1e2\n")
    rows = []
    for extra in (["--n-points", "100"], ["--n-points", "1e2"], ["--config", str(cfg)]):
        out = tmp_path / "rows.csv"
        assert main(FAST_ARGS + extra + ["--out", str(out)]) == 0
        rows.append(_rows_without_wall_time(out))
    assert rows[0] == rows[1] == rows[2]
    assert len(rows[0]) == 3 and all(",100," in row for row in rows[0][1:])


@pytest.mark.parametrize("key, value", [
    ("n_points", "40.5"), ("shift", "2.5"), ("max_iter", "3.5"), ("max_iter", "inf"),
])
def test_non_integral_count_is_configuration_error(tmp_path, capsys, key, value):
    # the count keys take any number literal, and the config rejects one
    # that is not integral, naming the key, from a flag as from a file line
    assert main(FAST_ARGS + ["--" + key.replace("_", "-"), value]) == 2
    assert f"{key} must be an integer" in capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main(FAST_ARGS + ["--config", str(cfg)]) == 2
    assert f"{key} must be an integer" in capsys.readouterr().err


def test_tiny_schedule_runs_through_the_rescaled_solve(tmp_path, monkeypatch):
    # c0 = 1e-25 gives shifts so small (a_0 = 8.6e-28) that the shifted
    # solve takes the operators' _RESCALE_DIAG branch, which scales a row's
    # right-hand side by a power of 2; the run still stops, in 16 steps.
    # Its record has the same bits without the branch; exp1-const at
    # n = 1000 and c0 = 3e-306 is a config whose final iterate's bits the
    # branch changes (tools/record_hash.py hashes it)
    rescaled = []
    solve = operators.OperatorModel._solve_factored

    def spy(self, d, e, shift, rhs, top):
        rescaled.append(top is not None and bool((top > operators._RESCALE_DIAG).any()))
        return solve(self, d, e, shift, rhs, top)

    monkeypatch.setattr(operators.OperatorModel, "_solve_factored", spy)
    out = tmp_path / "rows.csv"
    argv = ["run", "--preset", "exp1", "--c0", "1e-25", "--delta-rel", "0.01", "--seeds", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    row = dict(zip(*(line.split(",") for line in out.read_text().splitlines())))
    assert (row["n_iterations"], row["stopped"]) == ("16", "true")
    assert any(rescaled)
