"""sha256 pins of the fast CLI artifacts at ``base.cfg``.

A refactor that changes any byte of these outputs fails here.  A change
that is meant to move a number updates its pin and says why in
CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from cyclefield.cli import run

CONFIG = str(Path(__file__).resolve().parent.parent / "base.cfg")

PINS = {
    "phases": (["phases"], "4af6c24b2cb8a14f55b6ec56f382b0489639536bf0b6a49a4b843faabeb68728"),
    "phases-k1-approx": (
        ["phases", "--paper-k1-approx"],
        "f4097e1e1b9eecba8e4097d0ad48f95c9d4cf655b5f811c7643a85557a465f52",
    ),
    "scan-A0": (
        ["phase-scan", "--key", "A0", "--range", "4,12,200"],
        "f06764ccc2d005941b824c84e9bdc44ef581a9bc2b517f8a133a6a5f0c524d07",
    ),
    "scan-gamma": (
        ["phase-scan", "--key", "gamma", "--values", "0,0.05,0.1"],
        "bfa70a52ded52cf27ebe94585fd6aca6271ea20f82219123308fe7e32d5b05f0",
    ),
    "scan-C0": (
        ["phase-scan", "--key", "C0", "--values", "0.1,0.5"],
        "a2d3e30e19dd9e40bfa5c1d715a35780218c44b1e80e46efa4b822cedc2aae69",
    ),
    "scan-kappa": (
        ["phase-scan", "--key", "kappa", "--range", "0,0.7,50"],
        "7a64df2b1ce85bf0df8ce5033140cb57483fc2df89368dbbe7a8a50847a3fc91",
    ),
    "transit": (
        ["transit", "--from", "1.1,10.2,10.0", "--to", "1.12,10.3,10.01", "--t", "0.01", "--phase", "1"],
        "9cc7904ce3ab002a82c89710740d4e0f32c591b0d5152deeaf5e73efb42f6aed",
    ),
    "deviations": (
        ["deviations", "--x0", "1.1,10.5,9.8", "--v0", "0.05,-0.1,0.02", "--t", "0.2"],
        "2374614ec5c27d6161554ce1a6318b1c3b99ab9e8e920ec5731e1e518233b269",
    ),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv,digest", PINS.values(), ids=list(PINS))
def test_artifact_bytes_pinned(tmp_path, argv, digest):
    out = tmp_path / "out"
    assert run(["--config", CONFIG, *argv, "--output", str(out)]) == 0
    assert sha256(out) == digest


def test_mc_validate_export_pinned(tmp_path):
    export, report = tmp_path / "endpoints.csv", tmp_path / "report.json"
    argv = ["mc-validate", "--t", "10", "--n", "512", "--phase", "1", "--export", str(export)]
    assert run(["--config", CONFIG, *argv, "--output", str(report)]) == 0
    assert sha256(export) == "4cb4daa61357fd51805a37230611494c0cc702bcb21026c870eab3c308e5d7a7"
    assert sha256(report) == "2e5536cb71a92d1b25346d130096168290ada4fcd6a56e2324af55528ee325fc"
