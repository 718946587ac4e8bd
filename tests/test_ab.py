"""Smoke test of tools/ab.py, the alternating A/B measurement against a base
revision: it runs HEAD against this checkout and leaves no worktree behind."""

import json
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab.py"


def _worktrees():
    return subprocess.run(
        ["git", "-C", str(ROOT), "worktree", "list", "--porcelain"],
        capture_output=True, text=True, check=True,
    ).stdout


@pytest.fixture
def worktrees():
    try:
        inside = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--is-inside-work-tree"],
            capture_output=True, text=True,
        ).stdout.strip() == "true"
    except FileNotFoundError:
        inside = False
    if not inside:
        pytest.skip("tools/ab.py exports the base with git worktree: not a git work tree")
    before = _worktrees()
    yield
    assert _worktrees() == before


@pytest.mark.parametrize("what", [
    ["--workload", "lemmas", "--seconds", "0"],
    ["--cmd", f"{sys.executable} -c 'import dsm'"],
], ids=["workload", "cmd"])
def test_ab_prints_every_pair_and_both_medians(worktrees, what, tmp_path):
    out = subprocess.run(
        [sys.executable, str(TOOL), "--base", "HEAD", "--pairs", "1", *what,
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600, cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    label = "lemmas" if what[0] == "--workload" else "cmd"
    assert re.fullmatch(
        rf"pair 0 {label}, base first: base / change: wall_s \S+ / \S+.*", lines[0]
    )
    # every run exited 0, so the pair line names no exit codes
    assert "exit" not in lines[0]
    summary = [line for line in lines if line.startswith(f"{label} wall_s [s]: ")]
    assert len(summary) == 1
    assert re.search(r"base median \S+ .*; change median \S+ .*change won [01] of 1 pairs",
                     summary[0])
    if label == "lemmas":
        assert any(line.startswith("lemmas setup_s [s]: base median") for line in lines)
    written = json.loads((tmp_path / f"BENCH_{label}.json").read_text())
    assert list(written) == [
        "workload", "command", "seconds", "parent_rev", "change", "protocol", "pairs", "summary"
    ]
    assert written["workload"] == label and len(written["pairs"]) == 1
