"""Command line behavior: subcommands, config precedence, exit codes."""

import pytest

from dsm.cli import main

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


def test_unknown_config_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("volume = 11\n")
    assert main(["run", "--config", str(cfg)]) == 2


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


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
