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
        "ced4c767a206b37510da02ffb1a348550226c91f8ddbd3ff7598f970af78a31c",
    ("sweep", "corrected", "csv"):
        "02023f74f1aa93a5ad03c3d6864eaae772cf544714c5a33bbfc710e9f71572e5",
    ("sweep", "corrected", "json"):
        "b84f74de63537ab5a0bfaac9eae0b5795a12e92379a97f8e3080044fa720e92e",
    ("point", "corrected", "csv"):
        "3a85bfd6260afbbc6cbbc775dc3c999393ce43075e4f7f17d8879a856a0cd398",
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
        "d70f20b53b27420a480385bf70603c2a2cccc17b3fb7c36bd1000b7b2782c29e",
    ("corrected", "fig1_b_power.csv"):
        "9dfd15aaaee5ed1a6626440cdd062fd584a3a5bf1a3a416b81a543b4781d9802",
    ("corrected", "fig1_c_capacity.csv"):
        "22b70e897a24c1a7f5893d657fca2034b1adac4a6fbb6e68d01777228f74832c",
    ("corrected", "fig1_d_coherence_l1.csv"):
        "6b35350686b918fb683145825f475612b9e2f96c6c9869cf2650f08e0b5d4bbc",
    ("corrected", "fig1_manifest.json"):
        "749670137cd84c214406772bfb1c276da0500c5ca88e4419436aed9badd9b886",
    ("oracle-only", "fig1_a_ergotropy.csv"):
        "4ba9e2c00ac19cc08eea3c23f79646c5c71bb4bba7ae1e1101b89f6644b2eb4f",
    ("oracle-only", "fig1_b_power.csv"):
        "aba90f8a6ba1a550698a5022af44eb5dce6ee2fae7bbc2e46f2892dd7c98097f",
    ("oracle-only", "fig1_c_capacity.csv"):
        "917ba8a45f33aead50fb4c3d5c2bab39507140256d7b595d278a9b50c40bb9ba",
    ("oracle-only", "fig1_d_coherence_l1.csv"):
        "9125b1974fa0f0f14c85c3316e7040aeadd90b224a492d4bdc54b0a520f4ad9a",
    ("oracle-only", "fig1_manifest.json"):
        "007f6224277a7f94744c655c55646cee5628c2b2889062679dfba255380378df",
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
    "quick": "dca5d2d6b9f00ba48108799fa3378a9e80c277f43c0fab66d7a81176a74b514d",
    "full": "0c59d62d701ec99d06bca6813e31053e53b468bd72329bc3fc7f22b02b2f3a2e",
}


@pytest.mark.parametrize("level", sorted(VERIFY_SHA256))
def test_verify_text_matches_golden_digest(level, capsys):
    assert main(["verify", level]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[level]
