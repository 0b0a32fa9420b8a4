"""A scan's whole grid in one array pass, bit for bit with the one-row solve.

``phase-scan`` asks for one :class:`~cyclefield.params.ModelParams` field
at many values.  :func:`solve_grid` solves all those rows together: the
parameters become :class:`_Rows` (the swept field an array, every other
field one float), and :mod:`cyclefield.phases`' formulas run on them as they
are, since each takes floats or arrays.  The compatibility gates become
masks (:class:`_Gates`), and the Gamma_3 root-find runs its rows in
lockstep (:func:`gamma3_rows`), dropping each row from the active set as it
converges.  Each solved row gets the bits of
:func:`~cyclefield.phases.solve_phase`.  A row where that solve would
raise, or where the array pass cannot tell that it would not, is left
unsettled for it to solve.

It also holds the array forms of :mod:`cyclefield.phases`' float-or-array
helpers (:func:`each`, :func:`branch`), which those import on their first
array.  This module loads NumPy, and only ``phase-scan`` imports it, so a
cold start that does not scan neither compiles nor imports it.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from cyclefield.errors import CycleFieldError
from cyclefield.params import ModelParams
from cyclefield.phases import (
    _FIELDS,
    _FLOAT_FIELDS,
    PhaseSolution,
    _false_position,
    _is_grid,
    _midpoint,
    _phase0,
    _phase1,
    _Shifts,
    _sqrt,
    _step_growth,
    compatibility_root,
)


ROW_UNSETTLED, ROW_INFEASIBLE, ROW_OK = -1, 0, 1


def solve_grid(base: ModelParams, key: str, values, paper_k1_approx: bool = False):
    """Solve ``base`` with field ``key`` at each of ``values``, as a scan defines its rows.

    A row is phase 1 where :func:`~cyclefield.phases.compatibility_root`
    admits it (status ``ROW_OK``), and phase 0 where it finds phase 1
    infeasible (``ROW_INFEASIBLE``).  Returns ``(columns, status)``:
    ``columns`` maps each :class:`PhaseSolution` field but ``phase`` to an
    array over the rows, and ``status`` holds each row's status.  Each
    solved row has the bits of ``solve_phase`` at ``base.replace(key=value)``.
    A row where that solve would raise, or where the array pass cannot tell
    that it would not (a non-finite intermediate, a zero denominator, an
    exception in a per-element ``math`` call, the Gamma_3 iteration cap), is
    ``ROW_UNSETTLED``, with NaN fields, for the caller to solve one at a
    time.  ``values`` must pass the checks of :class:`ModelParams`.
    """
    rows = _Rows(base, key, np.array(values, dtype=float))
    n = len(rows)
    columns = {
        f.name: np.zeros(n, bool) if f.type == "bool" else np.full(n, math.nan)
        for f in fields(PhaseSolution)[1:]
    }
    status = np.full(n, ROW_UNSETTLED, np.int8)
    every = np.arange(n)
    with np.errstate(all="ignore"):
        solved, infeasible = _solve_rows(rows, 1, paper_k1_approx, columns, every)
        status[solved] = ROW_OK
        solved, _ = _solve_rows(_take(rows, infeasible), 0, paper_k1_approx, columns, infeasible)
        status[solved] = ROW_INFEASIBLE
    return columns, status


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
    x = a = shifts.g0 if _is_grid(shifts.g0) else np.full(n, shifts.g0)
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
            step[grow] *= _step_growth(fx[grow] / fa[grow])
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


class _Rows:
    """A grid's parameters: field ``key`` an array over the rows, every other one ``base``'s float."""

    def __init__(self, base: ModelParams, key: str, values):
        vars(self).update(base.to_dict())
        setattr(self, key, values)
        self.key = key
        self.lam = _sqrt(self.lambda_sq)  # ModelParams.lam and A_bar0, per row
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
        if isinstance(x, _Shifts):
            new.memo = {}  # its values are the old rows'
        return new
    if isinstance(x, dict):
        return {k: _take(v, rows) for k, v in x.items()}
    if isinstance(x, tuple):
        return tuple(_take(v, rows) for v in x)
    return x[rows] if _is_grid(x) else x


# the array forms of phases' float-or-array helpers (phases._each, phases._branch)


def each(f, *args):
    """``f`` of each row's floats, NaN where it raises.

    The rows of every array among ``args`` go to ``f`` one float at a time,
    so a grid gets Python's ``math`` bits; a float argument is passed as is.
    """
    n = next(len(a) for a in args if _is_grid(a))
    cols = [a.tolist() if _is_grid(a) else [a] * n for a in args]
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


def branch(cond, if_true, if_false, *args):
    """``if_true(*args)`` on the rows where ``cond`` holds, ``if_false(*args)`` on the others."""
    out = np.empty(len(cond))
    for rows, f in ((cond, if_true), (~cond, if_false)):
        if rows.any():
            out[rows] = f(*(a[rows] if _is_grid(a) else a for a in args))
    return out
