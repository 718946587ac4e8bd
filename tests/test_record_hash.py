"""Smoke test of tools/record_hash.py, the bit-equality check between commits."""

import importlib.util
import pathlib
import re
import sys

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "record_hash.py"


def test_record_hash_prints_one_sha256(capsys, monkeypatch):
    # the digest is compared across commits on one machine, so no value is pinned
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("record_hash", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.main()
    assert re.fullmatch(r"[0-9a-f]{64}\n", capsys.readouterr().out)
