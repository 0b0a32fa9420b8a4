"""sha256 pins of the fast CLI artifacts at ``base.cfg``.

A refactor that changes any byte of these outputs fails here.  A change
that is meant to move a number updates its pin and says why in
CHANGES.md.
"""

import hashlib
import math
from collections import Counter
from pathlib import Path

import pytest

from cyclefield import grid, phases
from cyclefield.cli import run

CONFIG = str(Path(__file__).resolve().parent.parent / "base.cfg")

PINS = {
    "phases": (["phases"], "d2da279d91ae212c0633e702b5513eb0fd65916a8bec62ee23341b4255d12bf6"),
    "phases-k1-approx": (
        ["phases", "--paper-k1-approx"],
        "fa6be22e941692c872450bbe4c271a6e7b436b7c2513d308dee45655ec79e61a",
    ),
    "scan-A0": (
        ["phase-scan", "--key", "A0", "--range", "4,12,200"],
        "d7e8f56b71942185f34e3ba0a3bbc21ac4ee9e35f71b1791fec4bf1ff05a2c2e",
    ),
    "scan-gamma": (
        ["phase-scan", "--key", "gamma", "--values", "0,0.05,0.1"],
        "160d699b905e42c6838ee208b0dc021d75662fe5dbb5409d37540caf266e0a60",
    ),
    "scan-C0": (
        ["phase-scan", "--key", "C0", "--values", "0.1,0.5"],
        "ee67fd4aa7a2d8eb880a8d651a1b1bb867df2df595fab012793b46d7e8bf9e8e",
    ),
    "scan-kappa": (
        ["phase-scan", "--key", "kappa", "--range", "0,0.7,50"],
        "460bf6ca81679aa45002fbb3fac7ee3cc30c3db94f87273b861483c77ba92114",
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


def test_scan_with_every_row_status_pinned(tmp_path):
    # a singular row (a Gamma3 pole), an ok row and an infeasible row: the
    # failed row keeps its parameter cells, and the scan exits 4 after writing
    out = tmp_path / "out"
    argv = ["phase-scan", "--key", "A0", "--values", "3.691903901261551,8,2"]
    assert run(["--config", CONFIG, *argv, "--output", str(out)]) == 4
    assert [row.rsplit(",", 1)[1] for row in out.read_text().splitlines()[1:]] == ["singular", "ok", "infeasible"]
    assert sha256(out) == "0ee2f99c5547830be2de3df9bbb2743d55a3ca990d0577805e0077030749ac2c"


def test_mc_validate_export_pinned(tmp_path):
    export, report = tmp_path / "endpoints.csv", tmp_path / "report.json"
    argv = ["mc-validate", "--t", "10", "--n", "512", "--phase", "1", "--export", str(export)]
    assert run(["--config", CONFIG, *argv, "--output", str(report)]) == 0
    assert sha256(export) == "a10acf034f1bc9c692060c5f1cde7335a478f00e98f97805d74ad4227b077d00"
    assert sha256(report) == "9e00e626c0a55d381ab6798be537434f233ed8c27213d6f3f475e00a8d861f81"


# Scans that reach the phase solver's less common branches, pinned so that a
# refactor of the solver keeps their bytes too: (argv, digest, statuses).
BRANCH_PINS = {
    # the surrogate capital shift (--paper-k1-approx) on 200 solved rows
    "scan-A0-k1-approx": (
        ["phase-scan", "--paper-k1-approx", "--key", "A0", "--range", "4,12,200"],
        "1916f3bc5fbabe97f799e9c14aaf5013744de790e1d03fd1131e4272ab2262b0",
        {"ok": 200},
    ),
    # small A0: u >= 0 in the exact capital shift, and every row falls back to phase 0
    "scan-A0-small": (
        ["phase-scan", "--key", "A0", "--range", "0.05,1,20"],
        "c7b64af37ded288bc82f54348feefa864d2533c5b9efdb037abc8318c9891d29",
        {"infeasible": 20},
    ),
}


@pytest.mark.parametrize("argv,digest,statuses", BRANCH_PINS.values(), ids=list(BRANCH_PINS))
def test_solver_branch_scans_pinned(tmp_path, monkeypatch, argv, digest, statuses):
    calls = Counter()

    def counted(real, key):
        def wrapper(*args, **kwargs):
            calls[key(*args, **kwargs)] += 1
            return real(*args, **kwargs)
        return wrapper

    # math.erfc at a negative argument is the u >= 0 branch of the exact K1p
    # (_erfcx only passes x >= 0); math.log is called only by the exact form.
    # A grid's rows reach them per element through grid.ARRAY_OPS.
    erfc = counted(math.erfc, lambda x: "erfc<0" if x < 0.0 else "erfc>=0")
    monkeypatch.setattr(grid.ARRAY_OPS, "erfc", grid._per_row(erfc))
    monkeypatch.setattr(grid.ARRAY_OPS, "log", grid._per_row(counted(math.log, lambda x: "log")))
    # the grid solve's rows per phase, and the rows left to the one-row solve
    grid_rows, solve_rows = Counter(), grid._solve_rows

    def counted_rows(p, phase, paper_k1_approx, *rest):
        grid_rows[(phase, paper_k1_approx)] += len(p)
        return solve_rows(p, phase, paper_k1_approx, *rest)

    monkeypatch.setattr(grid, "_solve_rows", counted_rows)
    monkeypatch.setattr(
        phases, "solve_phase",
        counted(phases.solve_phase, lambda p, ph, paper_k1_approx: (ph, paper_k1_approx)),
    )
    out = tmp_path / "out"
    assert run(["--config", CONFIG, *argv, "--output", str(out)]) == 0
    assert Counter(row.rsplit(",", 1)[1] for row in out.read_text().splitlines()[1:]) == statuses
    assert sha256(out) == digest
    approx = "--paper-k1-approx" in argv
    rows = sum(statuses.values())
    assert grid_rows[(1, approx)] == rows  # every row tries phase 1 first
    assert grid_rows[(0, approx)] == statuses.get("infeasible", 0)  # the phase-0 fallback
    assert calls[(1, approx)] == calls[(0, approx)] == 0  # no row needed the one-row solve
    if approx:
        assert calls["log"] == 0  # the exact form never ran
    else:
        assert calls["erfc<0"] > 0  # the u >= 0 branch ran
