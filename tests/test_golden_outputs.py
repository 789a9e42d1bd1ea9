"""Golden bytes of ``sweep``, ``point`` and ``verify`` outputs.

The figure files are pinned in ``test_golden.py``; the same writers serve a
one-``--vary`` sweep (CSV and JSON, corrected and verbatim) and a point, so
those bytes are pinned here by sha256 too, as is the text ``verify quick``
and ``verify full`` print. A change that moves any of them must say why and
update the table.
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


# ``figure fig1 --oracle`` (CSV): the numeric columns next to the closed ones,
# and in oracle-only mode the numeric route behind the main columns too
ORACLE_FIGURE_SHA256 = {
    ("corrected", "fig1_a_ergotropy.csv"):
        "1722cedb6abd4d573ae2babe6fbb936fe3045c2cc6bd870e78b53282dd5ad1fc",
    ("corrected", "fig1_b_power.csv"):
        "7a2ff894d31982b9e0e378eb5c09a7592c48f584ec46d9f1b2a9883942c771ed",
    ("corrected", "fig1_c_capacity.csv"):
        "22b70e897a24c1a7f5893d657fca2034b1adac4a6fbb6e68d01777228f74832c",
    ("corrected", "fig1_d_coherence_l1.csv"):
        "e5b8d078865193716ffbbfe5dabb5e0154b543cf0d70338e595120ae59657ab5",
    ("corrected", "fig1_manifest.json"):
        "12ddb3876d4dbd39d219da5c1aaf49046917a236f86bfbc391f5793dc64acbcb",
    ("oracle-only", "fig1_a_ergotropy.csv"):
        "5971c8e4f10910a951120ef57408dddd03749b4b9bf7cafcc5fe239288aa33a9",
    ("oracle-only", "fig1_b_power.csv"):
        "e3a81f21d1608720366b8c5a6c3c3446984106942fed4d81a0b0698517a2701e",
    ("oracle-only", "fig1_c_capacity.csv"):
        "917ba8a45f33aead50fb4c3d5c2bab39507140256d7b595d278a9b50c40bb9ba",
    ("oracle-only", "fig1_d_coherence_l1.csv"):
        "4c28f42ecea16bd4c01ab5d0dc77cdec79d48ea70743bee41832c2bbf1cca80b",
    ("oracle-only", "fig1_manifest.json"):
        "1ee953331263865ec4decd2a2934a8f464d190633728cd7c14b4c4d089cf9096",
}


@pytest.mark.parametrize("mode", ["corrected", "oracle-only"])
def test_oracle_figure_matches_golden_digest(tmp_path, mode, capsys):
    assert main(["figure", "fig1", "--mode", mode, "--oracle", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {(mode, f.name): hashlib.sha256(f.read_bytes()).hexdigest()
               for f in tmp_path.iterdir()}
    assert digests == {k: v for k, v in ORACLE_FIGURE_SHA256.items() if k[0] == mode}


# ``verify quick|full`` stdout: the cloud's parameter sets and every residual
# the suites report, to the printed digits
VERIFY_SHA256 = {
    "quick": "1538d2ae0c20043916f655f7af998a0552f8d56855b3be1045aad2280abee870",
    "full": "3ee0a1964cdf7b45e38ee320d0eb4cbf44e1d1e0ed8e81e74abc6ada3eab226f",
}


@pytest.mark.parametrize("level", sorted(VERIFY_SHA256))
def test_verify_text_matches_golden_digest(level, capsys):
    assert main(["verify", level]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[level]
