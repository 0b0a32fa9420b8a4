"""The grid solve behind ``phase-scan`` against a per-row scan.

``phase-scan`` solves its whole grid in one array pass
(:func:`cyclefield.grid.solve_grid`), which re-solves only the rows that
pass leaves unsettled.  The oracle here is the per-row loop it replaced:
each value through ``solve_phase`` (phase 1, else phase 0, else the
error) and the row format, so CSV bytes, exit code and stderr must match
to the byte.
"""

import math
from dataclasses import fields

import numpy as np
import pytest

from cyclefield import cli, grid, phases
from cyclefield.errors import ConvergenceError, CycleFieldError, InfeasiblePhaseError, ParameterError, SingularityError
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


def one_row(base: ModelParams, key: str, value: float, paper_k1_approx: bool = False):
    """``(status, solution or error)`` of one scan value: phase 1, else phase 0, else the solve's error."""
    p = base.replace(**{key: value})
    try:
        try:
            return "ok", phases.solve_phase(p, 1, paper_k1_approx=paper_k1_approx)
        except InfeasiblePhaseError:
            return "infeasible", phases.solve_phase(p, 0, paper_k1_approx=paper_k1_approx)
    except ConvergenceError as exc:
        return "no_convergence", exc
    except SingularityError as exc:
        return "singular", exc


def per_row_scan(base: ModelParams, key: str, values, paper_k1_approx: bool):
    """``(CSV text, exit code, stderr)`` of the scan, one :func:`one_row` per row."""
    header = KEYS + tuple(h for h, _ in cli._SCAN_COLUMNS) + ("status",)
    lines, failures = [",".join(header)], []
    for value in values:
        cell = f"{value:.17g}"
        status, sol = one_row(base, key, value, paper_k1_approx)
        if isinstance(sol, CycleFieldError):
            failures.append(f"{key}={cell}: {sol}")
            result = "," * (len(cli._SCAN_COLUMNS) - 1)
        else:
            feasible = sol.feasible and status == "ok"
            floats = tuple(getattr(sol, f) for f in cli._SCAN_FLOAT_FIELDS)
            result = cli._SCAN_FLOATS % floats + f",{str(feasible).lower()},{str(sol.stable).lower()}"
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


def assert_rows_match_one_row_solve(base, key, values, got):
    """Each row of ``solve_grid``'s result has :func:`one_row`'s status and, bit for bit, its fields or error."""
    columns, status, errors = got
    for j, value in enumerate(values):
        want_status, want = one_row(base, key, value)
        assert grid.STATUSES[status[j]] == want_status, (key, value)
        if isinstance(want, CycleFieldError):
            assert (type(errors[j]), str(errors[j])) == (type(want), str(want))
            assert all(math.isnan(columns[f][j]) for f in phases._FLOAT_FIELDS)
            assert not columns["feasible"][j] and not columns["stable"][j]
            continue
        assert j not in errors
        for name, column in columns.items():
            expected = getattr(want, name)
            if name == "feasible":  # a phase-0 row is flagged infeasible
                expected = expected and want_status == "ok"
            assert repr(column[j].item()) == repr(expected), (key, value, name)


def test_unsettled_rows_are_left_to_the_one_row_solve():
    # a Gamma3 pole and a closed form that overflows: the array pass leaves
    # both rows to solve_phase, which raises, and solves the others
    values = [8.0, 3.691903901261551, 1e308, 2.0]
    got = grid.solve_grid(BASE, "A0", values)
    assert [grid.STATUSES[s] for s in got[1].tolist()] == ["ok", "singular", "singular", "infeasible"]
    assert sorted(got[2]) == [1, 2]
    assert_rows_match_one_row_solve(BASE, "A0", values, got)


@pytest.mark.parametrize("key", ["A0", "nu", "kappa", "C0"])
def test_every_row_the_one_row_solve_settles(monkeypatch, key):
    # with an array pass that settles no row, solve_phase settles each one
    # as the array pass does: the same bits, statuses and errors
    lo, hi = domain(key)
    values = [float(v) for v in np.linspace(lo, hi, 30)] + [3.691903901261551] * (key == "A0")
    want = grid.solve_grid(BASE, key, values)
    monkeypatch.setattr(grid, "_solve_rows", lambda p, phase, approx, columns, where: (where[:0], where[:0]))
    got = grid.solve_grid(BASE, key, values)
    for name, column in want[0].items():
        assert column.tobytes() == got[0][name].tobytes(), name
    assert want[1].tolist() == got[1].tolist()
    assert [(j, type(e), str(e)) for j, e in want[2].items()] == [(j, type(e), str(e)) for j, e in got[2].items()]
    assert_rows_match_one_row_solve(BASE, key, values, got)


@pytest.mark.parametrize(
    "key,values,message",
    [
        ("bogus", [1.0, 2.0], "unknown scan key 'bogus'"),
        ("bogus", [math.nan], "unknown scan key 'bogus'"),  # the key before the values
        ("A0", [8.0, -1.0], "A0 must be > 0, got -1.0"),
        ("A0", [8.0, math.nan, -1.0], "A0 must be finite, got nan"),
        ("A0", [8.0, 10 ** 400], f"A0 must be finite, got {10 ** 400!r}"),
        ("A0", [8.0, "9"], "A0 must be a real number, got '9'"),
        ("A0", [8.0, True], "A0 must be a real number, got True"),
        ("kappa", [0.2, 1.5, -1.0], "kappa must lie in [0, 1), got 1.5"),  # not the extreme -1
        ("epsilon", [1.5], "epsilon must lie in (0, 1), got 1.5"),
        ("epsilon", [0.5, 0.0, 1.0], "epsilon must be > 0, got 0.0"),
    ],
)
def test_library_grid_refuses_what_the_scan_refuses(key, values, message):
    # solve_grid checks its own input, with the constructor's messages
    with pytest.raises(ParameterError) as refused:
        grid.solve_grid(BASE, key, values)
    assert str(refused.value) == message


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


def test_bad_value_in_a_later_block_writes_no_file(tmp_path, capsys, monkeypatch):
    # the first blocks are good, and the file would be written block by block
    monkeypatch.setattr(cli, "_SCAN_ROWS", 2)
    out = tmp_path / "o"
    code = cli.run(["phase-scan", "--key", "A0", "--values", "8,9,10,11,-1", "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: A0 must be > 0, got -1.0\n"
    assert not out.exists()


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


# arguments for each op of the two namespaces: a list is a column over five rows
OP_ARGS = {
    "exp": [([-1000.0, 0.0, 1.5, 709.0, 800.0],), (0.5,), (800.0,)],
    "log": [([0.0, -1.0, 1e-300, 2.0, math.inf],), (2.0,), (0.0,)],
    "erf": [([-30.0, -0.5, 0.0, 0.5, 30.0],), (0.5,)],
    "erfc": [([-30.0, -0.5, 0.0, 0.5, 30.0],), (-0.5,)],
    "pow": [
        ([-1.0, 2.0, 1e200, 0.0, 10.0], [0.5, 3.0, 2.0, -1.0, 0.3]),
        (10.0, [0.5, 3.0, 400.0, -1.0, 0.3]),
        ([-1.0, 2.0, 1e200, 0.0, 10.0], 2),
        (2.0, 0.5),
        (1e200, 2),
    ],
    "sqrt": [([-1.0, 0.0, 2.0, 1e-310, math.inf],), (2.0,), (-1.0,)],
    "where": [
        ([True, False, True, False, True], [1.0, -0.0, 3.0, 4.0, -5.0], [0.0, 0.0, -1.0, 2.0, 7.0]),
        (False, 1.0, 2.0),
    ],
    "branch": [
        ([True, False, True, False, True], lambda v: 2.0 * v, lambda v: v - 1.0, [1.0, -0.0, 3.0, 4.0, -5.0]),
        (True, lambda v: 2.0 * v, lambda v: v - 1.0, 1.5),
    ],
    "fail_where": [
        ([True, False, False, True, False], lambda: SingularityError("row"), [1.0, -0.0, 3.0, 4.0, -5.0]),
        (False, lambda: SingularityError("row"), 2.0),
        (True, lambda: SingularityError("row"), 2.0),
    ],
}


def _float_row(f, args):
    """``repr`` of ``f`` on one row's floats, or ``'nan'`` where it raises or gives no float."""
    try:
        got = f(*args)
    except (ArithmeticError, ValueError, CycleFieldError):
        return "nan"
    return repr(got) if isinstance(got, float) else "nan"


def test_the_namespaces_have_the_same_ops():
    def names(ops):
        return sorted(k for k in vars(ops) if not k.startswith("__"))

    assert names(grid.ARRAY_OPS) == names(phases.FLOAT_OPS)
    assert set(names(phases.FLOAT_OPS)) == set(OP_ARGS) | {"nonzero", "memo"}


@pytest.mark.parametrize("name", sorted(OP_ARGS))
def test_each_array_op_is_the_float_op_row_by_row(name):
    # NaN where the float op raises, for the one-row solve to settle; on
    # floats alone (a step that every row shares) it is the float op
    float_op, array_op = getattr(phases.FLOAT_OPS, name), getattr(grid.ARRAY_OPS, name)
    for args in OP_ARGS[name]:
        columns = [np.array(a) if isinstance(a, list) else a for a in args]
        if not any(isinstance(a, np.ndarray) for a in columns):
            assert _float_row(array_op, args) == _float_row(float_op, args), (name, args)
            continue
        with np.errstate(all="ignore"):
            got = array_op(*columns)
        rows = [[a[i] if isinstance(a, list) else a for a in args] for i in range(5)]
        assert [repr(v) for v in got.tolist()] == [_float_row(float_op, row) for row in rows], (name, args)


def test_array_nonzero_is_nan_where_a_float_division_by_it_raises():
    d = [0.0, -0.0, 2.0, 1e-310, -3.0]
    with np.errstate(all="ignore"):
        got = 1.0 / grid.ARRAY_OPS.nonzero(np.array(d))
    want = [_float_row(lambda x: 1.0 / phases.FLOAT_OPS.nonzero(x), [x]) for x in d]
    assert [repr(v) for v in got.tolist()] == want == ["nan", "nan", "0.5", repr(1.0 / 1e-310), repr(-1 / 3.0)]
