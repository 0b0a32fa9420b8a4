"""A scan's whole grid in one array pass, bit for bit with the one-row solve.

``phase-scan`` asks for one :class:`~cyclefield.params.ModelParams` field
at many values.  :func:`solve_grid` solves all those rows together: the
parameters become :class:`_Rows` (the swept field an array, every other
field one float), and :mod:`cyclefield.phases`' formulas run on them with
their arithmetic, :data:`ARRAY_OPS`.  The compatibility gates become masks
(:class:`_Gates`), and the Gamma_3 root-find runs its rows in lockstep
(:func:`gamma3_rows`).  Each solved row gets the bits of
:func:`~cyclefield.phases.solve_phase`, which solves alone each row where
it would raise, or where the array pass cannot tell that it would not.

:data:`ARRAY_OPS` has :data:`~cyclefield.phases.FLOAT_OPS`' ops.  On arrays,
``sqrt`` and ``where`` are NumPy's, which round as Python's do; ``exp``,
``log``, ``erf``, ``erfc`` and ``pow`` are the float ops per element, since
NumPy's differ in the last bit.  A row is NaN where the float op raises.
On floats alone (a step that every row shares) an op is the float op.
This module loads NumPy, and only ``phase-scan`` imports it.
"""

from __future__ import annotations

import math
from dataclasses import fields
from types import ModuleType

import numpy as np

from cyclefield import phases
from cyclefield.errors import ConvergenceError, CycleFieldError, InfeasiblePhaseError, ParameterError, SingularityError
from cyclefield.params import _FIELD_NAMES, ModelParams, _checked
from cyclefield.phases import (
    _FIELDS,
    _FLOAT_FIELDS,
    FLOAT_OPS,
    PhaseSolution,
    _false_position,
    _midpoint,
    _phase0,
    _phase1,
    _Shifts,
    compatibility_root,
)


# a row's status: its code indexes its name, the scan's status column
STATUSES = ("infeasible", "ok", "no_convergence", "singular")
ROW_INFEASIBLE, ROW_OK, ROW_NO_CONVERGENCE, ROW_SINGULAR = range(len(STATUSES))
_UNSETTLED = -1  # a row the array pass leaves to the one-row solve


def check_grid(key: str, values) -> None:
    """Raise the :class:`ParameterError` of an unknown ``key``, or of the first value :class:`ModelParams` refuses."""
    if key not in _FIELD_NAMES:
        raise ParameterError(f"unknown scan key {key!r}")
    try:  # the range checks are bounds, so finite values pass them all if both ends pass
        if not all(map(math.isfinite, values)):
            raise ParameterError("a scan value is not finite")
        for end in (min(values), max(values)):
            _checked({key: end})
    except (ParameterError, OverflowError, TypeError, ValueError):  # or a value not a number, or no values
        for value in values:  # the first bad value raises the constructor's message
            _checked({key: value})


def solve_grid(base: ModelParams, key: str, values, paper_k1_approx: bool = False):
    """Solve ``base`` with field ``key`` at each of ``values``, as a scan defines its rows.

    A row is phase 1 where :func:`~cyclefield.phases.compatibility_root`
    admits it (``ROW_OK``), phase 0 where it finds phase 1 infeasible
    (``ROW_INFEASIBLE``), and otherwise the failure its solve raised
    (``ROW_NO_CONVERGENCE``, ``ROW_SINGULAR``), with NaN fields.  Returns
    ``(columns, status, errors)``: each :class:`PhaseSolution` field but
    ``phase`` as an array over the rows, each row's status (an index into
    ``STATUSES``), and each failed row's error, in row order.  Each solved
    row has the bits of ``solve_phase`` at ``base.replace(key=value)``, and
    is ``feasible`` only if ``ROW_OK``.  Raises :func:`check_grid`'s error.
    """
    check_grid(key, values)
    rows = _Rows(base, key, np.array(values, dtype=float))
    n = len(rows)
    columns = {
        f.name: np.zeros(n, bool) if f.type == "bool" else np.full(n, math.nan)
        for f in fields(PhaseSolution)[1:]
    }
    status = np.full(n, _UNSETTLED, np.int8)
    with np.errstate(all="ignore"):
        solved, infeasible = _solve_rows(rows, 1, paper_k1_approx, columns, np.arange(n))
        status[solved] = ROW_OK
        solved, _ = _solve_rows(_take(rows, infeasible), 0, paper_k1_approx, columns, infeasible)
        status[solved] = ROW_INFEASIBLE
    errors = {}
    for j in (status == _UNSETTLED).nonzero()[0].tolist():  # the rows only the one-row solve settles
        p = base.replace(**{key: getattr(rows, key)[j].item()})
        try:  # through phases, so a trace of solve_phase counts these calls
            try:
                sol, status[j] = phases.solve_phase(p, 1, paper_k1_approx=paper_k1_approx), ROW_OK
            except InfeasiblePhaseError:
                sol, status[j] = phases.solve_phase(p, 0, paper_k1_approx=paper_k1_approx), ROW_INFEASIBLE
        except (ConvergenceError, SingularityError) as exc:
            status[j], errors[j] = ROW_NO_CONVERGENCE if isinstance(exc, ConvergenceError) else ROW_SINGULAR, exc
            continue
        for name, column in columns.items():
            column[j] = getattr(sol, name)
    columns["feasible"] &= status == ROW_OK  # a phase-0 row is flagged infeasible
    return columns, status, errors


def _solve_rows(p, phase: int, paper_k1_approx: bool, columns: dict, where):
    """Solve ``phase`` on a grid's rows ``p`` and store the solved rows' fields in ``columns``.

    ``where`` holds the rows of ``columns`` that those of ``p`` are.  Returns
    the solved rows and, for phase 1, the infeasible ones, as rows of
    ``columns``.  A float-valued step that raises (one that every row
    shares) leaves every row unsettled.
    """
    none = where[:0]
    if not len(p):
        return none, none
    try:
        shifts, live, comp, ge, infeasible = _Shifts(p, paper_k1_approx), where, None, 0.0, none
        if phase == 1:
            gates = _Gates(len(p))
            comp = compatibility_root(p, shifts=shifts, gate=gates)
            infeasible, live = where[gates.infeasible], where[gates.alive]
            shifts, comp = _take(shifts, gates.alive), _take(comp, gates.alive)
            ge = comp["gamma_eta"]
        g3 = gamma3_rows(shifts, ge)
        done = np.isfinite(g3)
        shifts, g3, live = _take(shifts, done), g3[done], live[done]
        if phase == 1:
            sol, checked = _phase1(shifts.params, shifts, _take(comp, done), g3)
        else:
            sol, checked = _phase0(shifts.params, shifts, g3), ()
    except (ArithmeticError, ValueError, CycleFieldError):
        return none, none
    # solve_phase's own check: every float field finite; and the values the flags compare
    ok = np.ones(len(live), bool)
    for v in (*(v for k, v in zip(_FIELDS, sol) if k in _FLOAT_FIELDS), *checked):
        ok &= np.isfinite(v)
    for name, v in zip(_FIELDS[1:], sol[1:]):
        columns[name][live[ok]] = _take(v, ok)
    return live[ok], infeasible


def gamma3_rows(shifts: _Shifts, gamma_eta, tol: float = 1e-12, max_iter: int = 1000):
    """:func:`~cyclefield.phases.gamma3_fixed_point` on each of a grid's rows, in lockstep.

    Each pass takes one step of the scalar root-find on every active row (a
    bracket-search step or an Illinois step, by the row's own state), with
    one evaluation of ``rhs`` for all of them and the scalar solve's update
    formulas; so every row visits the scalar solve's iterates, and all
    active rows share the evaluation count.  A row leaves the active set
    once it converges.  A row where the scalar solve raises (a residual that
    is not finite, a bracket with no float inside, the ``max_iter`` cap)
    leaves it with NaN, for that solve to settle.
    """
    n = len(shifts.params)
    g3 = np.full(n, math.nan)
    rows = np.arange(n)  # the active rows, as indices into the grid
    sh, ge = shifts, gamma_eta
    x = a = shifts.g0 if isinstance(shifts.g0, np.ndarray) else np.full(n, shifts.g0)
    fx = fa = sh.rhs(ge)(x) - x
    count = 1
    step, b, fb = fa.copy(), np.zeros(n), np.zeros(n)
    falsi = np.zeros(n, bool)  # the rows past their bracket search, in the Illinois steps
    stuck = np.zeros(n, bool)  # the rows whose bracket has no float left inside it
    while True:
        done = (np.abs(fx) < tol) & ~stuck
        g3[rows[done]] = x[done]
        if count > 1:  # the scalar solve's updates of the bracket and the step
            grow = ~falsi & ((fx < 0.0) == (fa < 0.0))
            flip = falsi & ((fx < 0.0) != (fb < 0.0))
            q = fx[grow] / fa[grow]
            step[grow] *= np.where(q <= 2.0 / 3.0, q / (1.0 - q), 2.0)
            a = np.where(grow, x, np.where(flip, b, a))
            fa = np.where(grow, fx, np.where(flip, fb, np.where(falsi, fa * 0.5, fa)))
            falsi = ~grow
            b, fb = np.where(falsi, x, b), np.where(falsi, fx, fb)
        keep = ~done & ~stuck & np.isfinite(fx)
        if not keep.all():
            rows, a, fa, b, fb, step, falsi = (v[keep] for v in (rows, a, fa, b, fb, step, falsi))
            sh, ge = _take(sh, keep), _take(ge, keep)
        if not rows.size or count >= max_iter:
            return g3
        x = a + step
        stuck = np.zeros(rows.size, bool)
        if falsi.any():
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            c = _false_position(a, fa, b, fb)
            c = np.where((lo < c) & (c < hi), c, _midpoint(a, b))
            stuck = falsi & ~((lo < c) & (c < hi))
            x = np.where(falsi, c, x)
        fx = sh.rhs(ge)(x) - x
        count += 1


# the arithmetic of a grid's rows


def _per_row(f):
    """``f`` per row, NaN where it raises: the rows of each array argument go to ``f`` one float at a time."""

    def op(*args):
        if (n := next((len(a) for a in args if type(a) is np.ndarray), None)) is None:
            return f(*args)
        cols = [a.tolist() if type(a) is np.ndarray else [a] * n for a in args]
        try:
            return np.fromiter(map(f, *cols), float, n)
        except (ArithmeticError, ValueError, TypeError):
            out = np.full(n, math.nan)
            for i, row in enumerate(zip(*cols)):
                try:
                    out[i] = f(*row)
                except (ArithmeticError, ValueError, TypeError):
                    pass  # the one-row solve raises here
            return out

    return op


def _on_array(on_array, on_float):
    """``on_array`` where the first argument is an array, else the float op ``on_float``."""
    return lambda first, *rest: (on_array if type(first) is np.ndarray else on_float)(first, *rest)


def _branch(cond, if_true, if_false, *args):
    """``if_true(*args)`` on the rows where ``cond`` holds, ``if_false(*args)`` on the others."""
    out = np.empty(len(cond))
    for rows, f in ((cond, if_true), (~cond, if_false)):
        if rows.any():
            out[rows] = f(*(a[rows] if type(a) is np.ndarray else a for a in args))
    return out


class _NoMemo:
    """A grid's shifts memo: it keeps nothing, since each Gamma_3 iterate is a new array."""

    get = __setitem__ = lambda self, *_: None


ARRAY_OPS = ModuleType("ARRAY_OPS")  # a module object, as FLOAT_OPS
vars(ARRAY_OPS).update(
    {name: _per_row(getattr(FLOAT_OPS, name)) for name in ("exp", "log", "erf", "erfc", "pow")},
    sqrt=_on_array(np.sqrt, FLOAT_OPS.sqrt),
    where=_on_array(np.where, FLOAT_OPS.where),
    branch=_on_array(_branch, FLOAT_OPS.branch),
    fail_where=_on_array(lambda fails, error, x: np.where(fails, math.nan, x), FLOAT_OPS.fail_where),
    nonzero=_on_array(lambda d: np.where(d == 0.0, math.nan, d), FLOAT_OPS.nonzero),
    memo=_NoMemo,
)


class _Rows:
    """A grid's parameters: field ``key`` an array over the rows, every other one ``base``'s float."""

    ops = ARRAY_OPS

    def __init__(self, base: ModelParams, key: str, values):
        vars(self).update(base.to_dict())
        setattr(self, key, values)
        self.key = key
        self.lam = self.ops.sqrt(self.lambda_sq)  # ModelParams.lam and A_bar0, per row
        self.A_bar0 = self.A0 / (1.0 - self.kappa)

    def __len__(self) -> int:
        return len(getattr(self, self.key))


class _Gates:
    """A grid's compatibility gates, applied as ``compatibility_root`` reaches them.

    A row still ``alive`` whose gate values are not all finite leaves it
    unsettled (the scalar solve may raise there); one failing the gate
    becomes ``infeasible``.
    """

    def __init__(self, n: int):
        self.alive, self.infeasible = np.ones(n, bool), np.zeros(n, bool)

    def __call__(self, fails, message, *values) -> None:
        settled = self.alive.copy()
        for v in values:
            settled &= np.isfinite(v)
        fails = settled & fails
        self.infeasible |= fails
        self.alive = settled & ~fails


def _take(x, rows):
    """``x`` on some of a grid's ``rows``: arrays indexed, containers and solve state item by item."""
    if isinstance(x, (_Rows, _Shifts)):
        new = object.__new__(type(x))
        vars(new).update((k, _take(v, rows)) for k, v in vars(x).items())
        return new
    if isinstance(x, dict):
        return {k: _take(v, rows) for k, v in x.items()}
    if isinstance(x, tuple):
        return tuple(_take(v, rows) for v in x)
    return x[rows] if isinstance(x, np.ndarray) else x
