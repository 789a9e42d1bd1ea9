"""Golden bytes of the reproduced figure files.

Every file written by ``sqbattery figure figN --mode M`` (CSV, no oracle
columns) is pinned by its sha256, so a byte-identical reproduction means
matching these references, not only agreeing with a rerun of the same code.
A change that moves any of these bytes must say why and update the table.
"""

import hashlib

import pytest

from sqbattery.cli import main
from sqbattery.sweep import PRESET_NAMES

GOLDEN_SHA256 = {
    ("verbatim", "fig1_a_ergotropy.csv"):
        "5b7c5c5c8b04d131debfc07ed2769996223aac7fbe09b139c95d4a24953b3a7d",
    ("verbatim", "fig1_b_power.csv"):
        "631ad79b881086a236be6a1332650e3dce2fb51e62de255f79e35ea782a2ac00",
    ("verbatim", "fig1_c_capacity.csv"):
        "9624c26c97bdab897b34d33689c5320de38ff5d7ab1f866b6b85e23f9629c17c",
    ("verbatim", "fig1_d_coherence_l1.csv"):
        "b965a2c8ac18772307555577dac230c19554f197a439661e6168533591261541",
    ("verbatim", "fig1_manifest.json"):
        "ac194ccc5e3ddce37a3f2ba7951d90c32674b7175c95c79ebe8c1e2e90287a5d",
    ("verbatim", "fig2_a_ergotropy.csv"):
        "c42a84771880b089bf32efc9c6fb71eda99ca6cdb3b64581a0cf623979ba0576",
    ("verbatim", "fig2_b_power.csv"):
        "6749794a0cbd89ef7facbd46d7d83219efd13a7895d1d2db1451d1fbd1d1584d",
    ("verbatim", "fig2_c_capacity.csv"):
        "db41e0fec6df72ed48fa5764a6c49c5bf54eeac2b3ea5b59d7154d16faebb098",
    ("verbatim", "fig2_d_coherence_l1.csv"):
        "3597f2ca22c728b3b5bd5864ca068b6219db39427dcf2c7ca01063bf7226084f",
    ("verbatim", "fig2_manifest.json"):
        "110b3b56e0157910f37a151fd59e886f74bde60ea20d2592a7f1b9527aa2c053",
    ("verbatim", "fig3_a_ergotropy.csv"):
        "c6618a8c9996510fe9acfef7d977b15484a4dc3930108baafa4129450b5447bb",
    ("verbatim", "fig3_b_power.csv"):
        "e6bae5a7546b48e36f2be47c3cbea1bf7b65b91dffded4193fd4e2bbdab6ff87",
    ("verbatim", "fig3_c_capacity.csv"):
        "53188fc1f631b3da7eeedd2bd890595a99191cfcde45993690063ad948b25511",
    ("verbatim", "fig3_d_coherence_l1.csv"):
        "a781b6d41e2b5d097250fd710daa03c0938976faa289d409931850c99179a9f2",
    ("verbatim", "fig3_manifest.json"):
        "d44376fe60a5e3420ac98cf2659cd9e4c5c16896b6c5d286fc6976d68696d9b0",
    ("verbatim", "fig4_a_ergotropy.csv"):
        "fe417fc37e006973128179a6aadf8d07b03895ffa73df0ab67fd81595c9712cd",
    ("verbatim", "fig4_b_power.csv"):
        "a28998d5b7bba46fe2c0af191570f96798e7438c5e9a406730c8505eb5146a42",
    ("verbatim", "fig4_c_capacity.csv"):
        "0fcc293ca5905c4f0feffe0a5cf73711fe186b4de021f18965dadf1c39c8256b",
    ("verbatim", "fig4_d_coherence_l1.csv"):
        "b7cf3efa27069bc3a31db79276376fa52dbbaf7282038c384283027a86f5b283",
    ("verbatim", "fig4_manifest.json"):
        "f88d9bb7db9a88c6d8a2adb8c80b92c8c7d5bfa794ee9f1484e82bc27cd4fb57",
    ("corrected", "fig1_a_ergotropy.csv"):
        "eafdf95ba1793ee93add3530fc007312ec5c5f5eeeb2811197e5e13b26994a2e",
    ("corrected", "fig1_b_power.csv"):
        "604c41bc127a1f5b2fc6efe3ea7953edd383b5413f8bb068719b6b122b3c3f98",
    ("corrected", "fig1_c_capacity.csv"):
        "9624c26c97bdab897b34d33689c5320de38ff5d7ab1f866b6b85e23f9629c17c",
    ("corrected", "fig1_d_coherence_l1.csv"):
        "6b35350686b918fb683145825f475612b9e2f96c6c9869cf2650f08e0b5d4bbc",
    ("corrected", "fig1_manifest.json"):
        "67eb1a1363dd7c550e9154fe7939abe9c50c5e85d24f3dcebfdb78369b8b74e5",
    ("corrected", "fig2_a_ergotropy.csv"):
        "481a3a31c619ba17dfc5e95d4004568c342e27893a25926486a6bbbcf34c0399",
    ("corrected", "fig2_b_power.csv"):
        "afb6d0ab2e4a68a18600805ead0af5556efd45d8bc10ea57c70b34858d62d8a9",
    ("corrected", "fig2_c_capacity.csv"):
        "db41e0fec6df72ed48fa5764a6c49c5bf54eeac2b3ea5b59d7154d16faebb098",
    ("corrected", "fig2_d_coherence_l1.csv"):
        "045d0ea0d9c7759048d6c000521d2f4f3e8df9931c9f30a3335dd48a85a75178",
    ("corrected", "fig2_manifest.json"):
        "498253b838ce861a2ae56823077306021b34f643e61009b38adc434a58523a45",
    ("corrected", "fig3_a_ergotropy.csv"):
        "9571a58c618db7f08b768bb835036bf31e2963dee6cc80b0b77227cf97b85f7f",
    ("corrected", "fig3_b_power.csv"):
        "632b019539257d9941cb0b68023ececc3d519f87ac92b40cb1d85fa762df1162",
    ("corrected", "fig3_c_capacity.csv"):
        "53188fc1f631b3da7eeedd2bd890595a99191cfcde45993690063ad948b25511",
    ("corrected", "fig3_d_coherence_l1.csv"):
        "af9297a5f8ff3e5d233343f8f5830c19de23c21f92108a47701d8994e97ad858",
    ("corrected", "fig3_manifest.json"):
        "5b6477c702e4bf09bcd3b575853b31fac0e4b9cdba8b458d3b1281aee2e38825",
    ("corrected", "fig4_a_ergotropy.csv"):
        "d1f3f260b5b86a720db066ef1b54e6d154b4bc534b58b8dfc0cf7357d370bade",
    ("corrected", "fig4_b_power.csv"):
        "dad35d3eb84610f61c94e90839de02c28e9cfe801091af08279340f752736da6",
    ("corrected", "fig4_c_capacity.csv"):
        "0fcc293ca5905c4f0feffe0a5cf73711fe186b4de021f18965dadf1c39c8256b",
    ("corrected", "fig4_d_coherence_l1.csv"):
        "57b0c9a547930790b00f22f6edf7a80faffa84d0e3762e4285ba6748606ba9c9",
    ("corrected", "fig4_manifest.json"):
        "2631ba6973f223f8ca179ecfcd5ec411fa729710c1d5bb2e1e95a41f19a94b3d",
}


@pytest.mark.parametrize("mode", ["verbatim", "corrected"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_figure_files_match_golden_digests(tmp_path, name, mode):
    assert main(["figure", name, "--mode", mode, "--out", str(tmp_path)]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    expected = {
        fname: digest for (m, fname), digest in GOLDEN_SHA256.items()
        if m == mode and fname.startswith(f"{name}_")
    }
    assert digests == expected
