"""The grid solve behind ``phase-scan`` against a per-row scan.

``phase-scan`` solves its whole grid in one array pass
(:func:`cyclefield.grid.solve_grid`) and re-solves only the rows that pass
leaves unsettled.  The oracle here is the per-row loop it replaced: each
value through ``cli._scan_point`` and the row format, so CSV bytes, exit
code and stderr must match to the byte.
"""

import math
from dataclasses import fields

import numpy as np
import pytest

from cyclefield import cli, grid, phases
from cyclefield.errors import ConvergenceError, CycleFieldError, SingularityError
from cyclefield.params import ModelParams

KEYS = tuple(f.name for f in fields(ModelParams))
BASE = ModelParams()


def domain(key: str) -> tuple[float, float]:
    """A span across the key's validated domain."""
    if key in ("varsigma", "r_c", "C0"):
        return 0.0, 5.0
    if key == "kappa":
        return 0.0, 0.999
    if key == "epsilon":
        return 0.01, 0.99
    if key in ("alpha_laplace", "g"):
        return -20.0, 20.0
    default = getattr(BASE, key)
    return default / 100.0, default * 100.0


def per_row_scan(base: ModelParams, key: str, values, paper_k1_approx: bool):
    """``(CSV text, exit code, stderr)`` of the scan, one ``_scan_point`` per row."""
    header = KEYS + tuple(h for h, _ in cli._SCAN_COLUMNS) + ("status",)
    lines, failures = [",".join(header)], []
    for value in values:
        p, cell = base.replace(**{key: value}), f"{value:.17g}"
        try:
            sol, status = cli._scan_point(p, paper_k1_approx)
            feasible = sol.feasible and status == "ok"
            result = cli._SCAN_FLOATS % cli._scan_floats(sol) + f",{str(feasible).lower()},{str(sol.stable).lower()}"
        except (ConvergenceError, SingularityError) as exc:
            status = "no_convergence" if isinstance(exc, ConvergenceError) else "singular"
            failures.append(f"{key}={cell}: {exc}")
            result = "," * (len(cli._SCAN_COLUMNS) - 1)
        cells = [cli._fmt(getattr(base, k)) for k in KEYS]
        cells[KEYS.index(key)] = cell
        lines.append(",".join(cells) + f",{result},{status}")
    text = "\n".join(lines) + "\n"
    if not failures:
        return text, 0, ""
    error = CycleFieldError(f"numerical failure in {len(failures)} of {len(values)} rows; first: {failures[0]}")
    return text, 4, f"error: {error}\n"


def write_config(path, params: ModelParams) -> str:
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in params.to_dict().items()))
    return str(path)


def grid_scan(tmp_path, capsys, base, key, values, paper_k1_approx):
    out = tmp_path / "scan.csv"
    argv = ["--config", write_config(tmp_path / "base.cfg", base), "phase-scan", "--key", key,
            "--values", ",".join(map(repr, values)), "--output", str(out)]
    code = cli.run(argv + (["--paper-k1-approx"] if paper_k1_approx else []))
    return out.read_text(), code, capsys.readouterr().err


@pytest.mark.parametrize("paper_k1_approx", [False, True], ids=["exact", "k1-approx"])
def test_every_key_across_its_domain(tmp_path, capsys, paper_k1_approx):
    for key in KEYS:
        lo, hi = domain(key)
        values = [float(v) for v in np.linspace(lo, hi, 200)]
        got = grid_scan(tmp_path, capsys, BASE, key, values, paper_k1_approx)
        assert got == per_row_scan(BASE, key, values, paper_k1_approx), key


@pytest.mark.parametrize(
    "key,value,status",
    [
        ("A0", 3.691903901261551, "singular"),  # a Gamma3 pole
        ("kappa", 0.996, "singular"),
        ("nu", 2.3, "ok"),  # the regula falsi point rounds onto an end, and the step bisects
        ("lambda_sq", 1e-300, "singular"),  # closed forms overflow
        ("nu", 1e200, "singular"),
        ("A0", 1e308, "singular"),
    ],
)
@pytest.mark.parametrize("paper_k1_approx", [False, True], ids=["exact", "k1-approx"])
def test_hard_rows(tmp_path, capsys, key, value, status, paper_k1_approx):
    values = [getattr(BASE, key), value, domain(key)[1]]
    got = grid_scan(tmp_path, capsys, BASE, key, values, paper_k1_approx)
    assert got == per_row_scan(BASE, key, values, paper_k1_approx)
    if not paper_k1_approx:
        assert got[0].splitlines()[2].rsplit(",", 1)[1] == status


def random_bases(n: int, seed: int = 7):
    """Each positive field scaled by e^U(-3, 3) around ModelParams(), with eps ~ U(0.01, 0.99), kappa ~ U(0, 0.99)."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        values = {}
        for key in KEYS:
            default = getattr(BASE, key)
            if key == "epsilon":
                values[key] = float(rng.uniform(0.01, 0.99))
            elif key == "kappa":
                values[key] = float(rng.uniform(0.0, 0.99))
            elif default > 0.0:
                values[key] = default * math.exp(rng.uniform(-3.0, 3.0))
        key = KEYS[rng.integers(len(KEYS))]
        lo, hi = domain(key)
        yield BASE.replace(**values), key, [float(v) for v in rng.uniform(lo, hi, 50)]


def test_random_bases(tmp_path, capsys):
    statuses = set()
    for i, (base, key, values) in enumerate(random_bases(80)):
        paper_k1_approx = i % 4 == 3
        got = grid_scan(tmp_path, capsys, base, key, values, paper_k1_approx)
        assert got == per_row_scan(base, key, values, paper_k1_approx), (base, key)
        statuses |= {row.rsplit(",", 1)[1] for row in got[0].splitlines()[1:]}
    assert statuses >= {"ok", "infeasible", "singular"}  # the draws reach every common status


def test_unsettled_rows_are_left_to_the_one_row_solve():
    # a Gamma3 pole and a closed form that overflows: the array pass leaves
    # both rows unsettled, with NaN fields, and solves the others
    columns, status = grid.solve_grid(BASE, "A0", [8.0, 3.691903901261551, 1e308, 2.0])
    assert status.tolist() == [grid.ROW_OK, grid.ROW_UNSETTLED, grid.ROW_UNSETTLED, grid.ROW_INFEASIBLE]
    assert np.isnan(columns["Gamma3"][1:3]).all()
    assert columns["Gamma3"][0] == phases.solve_phase(BASE, 1).Gamma3
    assert columns["avg_K"][3] == phases.solve_phase(BASE.replace(A0=2.0), 0).avg_K


@pytest.mark.parametrize(
    "key,values,message",
    [
        ("kappa", "0.2,1.5,-1", "kappa must lie in [0, 1), got 1.5"),  # not the extreme -1
        ("A0", "8,nan,-1", "A0 must be finite, got nan"),
        ("A0", "8,-1,inf", "A0 must be > 0, got -1.0"),
        ("epsilon", "0.5,0,1", "epsilon must be > 0, got 0.0"),
    ],
)
def test_first_bad_value_is_a_usage_error(tmp_path, capsys, key, values, message):
    # every value is checked before the grid is solved, with the constructor's message
    code = cli.run(["phase-scan", "--key", key, "--values", values, "--output", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


# parameter sets whose one-row solve raises at a chosen step (test_phases.ERROR_ORDER),
# each scanned over one of its keys so the grid meets the fault
FAULTS = [
    {"C0": 1e9},
    {"K_bar": 1e-310, "epsilon": 0.001},
    {"K_bar": 1.0, "epsilon": 0.5, "kappa": 0.0, "A0": 0.1, "delta": 0.05},  # Y = 0 at Gamma3 = A0
    {"A0": 100.0, "nu": 1.0, "kappa": 0.0},  # K1p overflows
    {"K_bar": 1.0, "epsilon": 0.5, "kappa": 0.0, "A0": 0.1, "delta": 0.05, "nu": 1e200},
    {"C_bar": 1e308, "varpi": 1e-300, "K_bar": 1e-310, "epsilon": 0.001},
    {"A0": 100.0, "nu": 1.0, "kappa": 0.0, "varsigma": 1e200},
    {"C0": 1e9, "varpi": 1e-310},
]


@pytest.mark.parametrize("change", FAULTS, ids=[",".join(c) for c in FAULTS])
@pytest.mark.parametrize("paper_k1_approx", [False, True], ids=["exact", "k1-approx"])
def test_rows_where_the_one_row_solve_raises(tmp_path, capsys, change, paper_k1_approx):
    base = BASE.replace(**change)
    for key, value in change.items():
        values = [value, getattr(BASE, key), value]
        got = grid_scan(tmp_path, capsys, base, key, values, paper_k1_approx)
        assert got == per_row_scan(base, key, values, paper_k1_approx), key


@pytest.mark.parametrize("max_iter", [1, 2, 3, 5, 8, 13, 1000])
@pytest.mark.parametrize("key,lo,hi", [("A0", 3.0, 12.0), ("nu", 0.5, 3.0), ("kappa", 0.0, 0.999)])
def test_lockstep_gamma3_visits_the_scalar_iterates(key, lo, hi, max_iter):
    # each row's root, or NaN where the scalar root-find raises (the cap among them)
    values = np.linspace(lo, hi, 60)
    gamma_eta = np.linspace(0.0, 0.02, 60)
    roots = grid.gamma3_rows(phases._Shifts(grid._Rows(BASE, key, values), False), gamma_eta, max_iter=max_iter)
    for value, ge, got in zip(values.tolist(), gamma_eta.tolist(), roots.tolist()):
        try:
            want = phases.gamma3_fixed_point(BASE.replace(**{key: value}), ge, max_iter=max_iter)
        except (ConvergenceError, SingularityError):
            want = math.nan
        assert got == want or math.isnan(got) and math.isnan(want), (key, value, ge)
