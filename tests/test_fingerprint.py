"""Smoke test of the equality fingerprint script (tools/fingerprint.py)."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "fingerprint.py"
sys.path.insert(0, str(SCRIPT.parent))
import fingerprint  # noqa: E402


def fingerprint_lines(*args):
    done = subprocess.run([sys.executable, SCRIPT, ROOT / "src", *args],
                          capture_output=True, text=True, timeout=300)
    return done.returncode, [json.loads(line) for line in done.stdout.splitlines()]


def test_every_output_is_hashed_and_refusals_are_named():
    code, lines = fingerprint_lines()
    assert code == 0
    hashes = {line["path"]: line["sha256"] for line in lines if "path" in line}
    for path in ("report_est_run_pred/per_song.csv", "report_est_run_pred/report.json",
                 "report_est_run_26/report.json", "run/model.npz", "run_hidden/model.npz",
                 "data/song_0000.cqtf", "aug/song_0000_shift+2.tsv",
                 "run_beat0.25/song_0000/posteriors.npz", "run_mm/song_0000/labels.tsv",
                 "log/000_--help.out", "log/008_check-align.out"):
        assert path in hashes, path
    assert all(len(digest) == 64 for digest in hashes.values())
    evals = [p for p in hashes if p.startswith("log/") and p.endswith("_eval.out")]
    assert len(evals) == 1 + 12  # eval --help, then six comparators on two estimate sets
    refused = [line for line in lines if "command" in line]
    assert [(r["command"][0], r["exit"], r["error"]) for r in refused] == \
        [("train", 1, "ChordkitError"), ("predict", 1, "ChordkitError")]
    assert not any(p.startswith("refused") for p in hashes)


def test_a_tree_against_itself_lists_nothing():
    assert fingerprint_lines("--against", ROOT / "src") == (0, [])


@pytest.mark.parametrize("other,expected", [
    ({"a": [1.0, 2.0, -4.0], "b": [0, 3]}, 0.0),
    ({"a": [1.0, 2.002, -4.0], "b": [0, 3]}, 0.002 / 2.002),
    ({"a": [1.0, 2.0], "b": [0, 3]}, float("inf")),
    ({"a": [1.0, 2.0, -4.0]}, float("inf")),
], ids=["equal", "relative", "shape", "names"])
def test_max_relative_difference(tmp_path, other, expected):
    np.savez(tmp_path / "x.npz", a=[1.0, 2.0, -4.0], b=[0, 3])
    np.savez(tmp_path / "y.npz", **other)
    got = fingerprint.max_relative_difference(tmp_path / "x.npz", tmp_path / "y.npz",
                                              ROOT / "src")
    assert got == pytest.approx(expected)
