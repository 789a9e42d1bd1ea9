"""Golden bytes of ``sweep`` and ``point`` outputs.

The figure files are pinned in ``test_golden.py``; the same writers serve a
one-``--vary`` sweep (CSV and JSON, corrected and verbatim) and a point, so
those bytes are pinned here by sha256 too. A change that moves any of them
must say why and update the table.
"""

import hashlib

import pytest

from sqbattery.cli import main

SWEEP_ARGS = ["--xi1", "1.5", "--xic", "0.3", "--temp", "0.2",
              "--vary", "xi2=0.1,0.5,2", "--tau-count", "57"]
POINT_ARGS = ["--xi1", "1.5", "--xi2", "0.5", "--xic", "0.3", "--temp", "0.1", "--tau", "0.7"]

GOLDEN_SHA256 = {
    ("sweep", "verbatim", "csv"):
        "8d12e6d63669b2a5661e6159fc2a036ff22a2ddd1d3495e816e47e881aa3465f",
    ("sweep", "verbatim", "json"):
        "88a31f244cb713215f7746c6fc118cc11930a369fe15516ac2887e8781e80bec",
    ("sweep", "corrected", "csv"):
        "5f37a182ae832c18d64ce36acf8f623c95b055089b050206bd51832cf1ce0b9b",
    ("sweep", "corrected", "json"):
        "d6d643d1b043ed0fb554a37631398db0f2cedbbd3d776c5368d55b8970c769a2",
    ("point", "corrected", "csv"):
        "c8898b435a075105bdf89379e9f00f13404fa53d201dea95d593c99da9b1bfeb",
}


@pytest.mark.parametrize("command, mode, fmt", sorted(GOLDEN_SHA256))
def test_output_matches_golden_digest(tmp_path, command, mode, fmt):
    out = tmp_path / "out"
    args = SWEEP_ARGS if command == "sweep" else POINT_ARGS
    assert main([command, *args, "--mode", mode, "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[command, mode, fmt]
