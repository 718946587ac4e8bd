"""Command line behavior: subcommands, config precedence, exit codes."""

import itertools

import pytest

from dsm.cli import load_config_file, main

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


def test_infinite_stop_c_exit_2(capsys):
    # C = inf printed n_iterations 0, rel_error 1, stopped true and exited 0
    assert main(FAST_ARGS + ["--stop-c", "inf"]) == 2
    assert "finite" in capsys.readouterr().err


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 11\n")
    assert main(["run", "--config", str(cfg)]) == 2


def test_run_rejects_config_seed_exit_2(tmp_path, capsys):
    # seed is dump-solution's key: run used to drop it and run seeds = 1
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


def test_bad_flag_value_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "unknown"])
    assert exc.value.code == 2


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
                 "--delta-rel", "0.01", "--seed", "3", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "x,u_exact,u_dsm"
    assert len(lines) == 31
    x0, ue0, ud0 = lines[1].split(",")
    assert float(x0) == 0.0
    assert float(ue0) == 1.0
    assert abs(float(ud0) - 1.0) < 0.1


def test_dump_requires_out():
    with pytest.raises(SystemExit) as exc:
        main(["dump-solution", "--preset", "exp1", "--delta-rel", "0.01"])
    assert exc.value.code == 2


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
    # exp1 has gaussian noise, so the seed shows in the dump
    cfg = tmp_path / "s.cfg"
    cfg.write_text("seed = 3\n")
    dumps = {}
    for name, extra in [("file", ["--config", str(cfg), "--seed", "4"]),
                        ("flag", ["--seed", "4"]), ("seed 3", ["--seed", "3"])]:
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
        lines.append("seed = 3")
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
        argv += ["--seed", "4"] if command == "dump-solution" else ["--seeds", "4"]
    if command == "dump-solution":
        argv += ["--out", str(tmp_path / "flag.csv")]
    assert main(argv) in (0, 1, 2, 3)
