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
    "phases": (["phases"], "feeb1d1c18df56885af3e8b797b42b1aaa92d6937237b1a154df50a2a6bf3ad1"),
    "phases-k1-approx": (
        ["phases", "--paper-k1-approx"],
        "b3f1a3ce9573b60de8627ce72bf6e7ac203cfb6d2f6a36a8e51f3fe2b3efbee3",
    ),
    "scan-A0": (
        ["phase-scan", "--key", "A0", "--range", "4,12,200"],
        "265848ad6f17404603033351c833eaccaf18c82f88cf97fa8030a675d1657471",
    ),
    "scan-gamma": (
        ["phase-scan", "--key", "gamma", "--values", "0,0.05,0.1"],
        "d02f23a0eee257bdd50f058ae472b34ef8556dd801f0d9e7de1333273c13dbdf",
    ),
    "scan-C0": (
        ["phase-scan", "--key", "C0", "--values", "0.1,0.5"],
        "2f6257ed3eab554cf424ce229932de843e610bffc1b0a99d936cff04ed587ea1",
    ),
    "scan-kappa": (
        ["phase-scan", "--key", "kappa", "--range", "0,0.7,50"],
        "2785a73e880de6471b112e935a43e116b11aa2c81ad4cefccf7ab358e96741da",
    ),
    "transit": (
        ["transit", "--from", "1.1,10.2,10.0", "--to", "1.12,10.3,10.01", "--t", "0.01", "--phase", "1"],
        "ee8a7b109d0bc805680fc2927caedbcb68d3276270cc5227567cfc7780348e19",
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
    assert sha256(export) == "a10acf034f1bc9c692060c5f1cde7335a478f00e98f97805d74ad4227b077d00"
    assert sha256(report) == "9e00e626c0a55d381ab6798be537434f233ed8c27213d6f3f475e00a8d861f81"
