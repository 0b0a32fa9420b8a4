"""Saddle-point phase structure.

The collective background admits two phases: a trivial phase (zero
condensate, ``gamma_eta = 0``, zero mass) and a nontrivial phase with a
self-consistent condensate ``gamma_eta > 0``.  This module solves the
self-consistency system: the boundary shifts (C1, K1p, A1), the Gamma_3
fixed point, the compatibility quadratic fixing ``gamma_eta``, phase
averages, the mass gap, and the stability brackets.

Sign convention: ``Y = delta - Gamma_3 * eps * K_bar**(eps-1)`` is kept
signed everywhere it enters algebraically (it is negative in the regime of
interest); magnitudes ``|Y|`` appear exactly where the closed forms demand
them.  The signed capital average is recorded as-is, and its magnitude is
used wherever a positive capital scale is required (production average,
stability product, equilibrium quantities).

Each formula does its arithmetic through the namespace ``ops`` that its
parameters carry.  A :class:`ModelParams` is one row and carries
:data:`FLOAT_OPS`: ``math``'s functions, :func:`operator.pow` and plain
conditionals.  A ``phase-scan``'s rows carry :data:`cyclefield.grid.ARRAY_OPS`,
with which the same formulas solve all rows in one array pass, each with the
one-row solve's bits.  This module imports no NumPy.  Its entry points raise
:class:`SingularityError` where a closed form leaves the double range.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, fields
from operator import attrgetter
from types import ModuleType

from cyclefield.errors import (
    ConvergenceError,
    DomainError,
    InfeasiblePhaseError,
    SingularityError,
)
from cyclefield.params import ModelParams

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_PI = math.sqrt(math.pi)
_SQRT_2 = math.sqrt(2.0)
_LOG_DBL_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class PhaseSolution:
    """Solved background for one phase."""

    phase: int            # 0 (trivial) or 1 (nontrivial)
    gamma_eta: float      # condensate strength gamma * eta
    Gamma1: float         # consumption background shift
    Gamma2: float         # capital background shift
    Gamma3: float         # technology background (fixed point)
    C1: float             # consumption boundary shift
    K1p: float            # capital boundary shift
    A1: float             # technology boundary shift
    A_bar_phase: float    # effective technology anchor of the phase
    C_bar_phase: float    # effective consumption anchor of the phase
    mass: float           # mass gap m of the phase (0 in the trivial phase)
    avg_A: float          # phase average of technology
    avg_C: float          # phase average of consumption
    avg_K: float          # phase average of capital (signed, see module note)
    avg_Y: float          # phase average of production
    feasible: bool        # existence conditions satisfied
    stable: bool          # stability brackets all positive
    Y_coef: float         # Y = delta - Gamma3 * eps * K_bar**(eps-1) (signed)


# ---------------------------------------------------------------------------
# one row's arithmetic, and the entry points' errors
# ---------------------------------------------------------------------------


def _raise_where(fails, error, x):
    """``x``; raises ``error()`` if ``fails``."""
    if fails:
        raise error()
    return x


# a module object, whose attributes the interpreter reads fastest; ``where``
# computes both sides, ``branch`` calls one, and a float division by zero raises itself
FLOAT_OPS = ModuleType("FLOAT_OPS")
vars(FLOAT_OPS).update(
    exp=math.exp, log=math.log, erf=math.erf, erfc=math.erfc, pow=operator.pow, sqrt=math.sqrt,
    where=lambda cond, x, y: x if cond else y,
    branch=lambda cond, if_true, if_false, *args: (if_true if cond else if_false)(*args),
    fail_where=_raise_where,
    nonzero=lambda d: d,
    memo=dict,  # a solve's shifts, by background
)
ModelParams.ops = FLOAT_OPS  # a class attribute, not a field: every ModelParams is one row


def _in_double_range(what: str, solve, *args, **kwargs):
    """``solve(*args, **kwargs)``; a closed form that leaves the double range raises :class:`SingularityError`."""
    try:
        return solve(*args, **kwargs)
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise SingularityError(f"{what} closed forms left the double range ({exc})") from exc


def _public(solve):
    """``solve`` as an entry point named without its underscore, through :func:`_in_double_range`."""
    what = solve.__name__.lstrip("_")
    entry = functools.wraps(solve)(lambda *args, **kwargs: _in_double_range(what, solve, *args, **kwargs))
    entry.__name__ = entry.__qualname__ = what
    return entry


# ---------------------------------------------------------------------------
# boundary shifts
# ---------------------------------------------------------------------------


def _Y_of(params: ModelParams, gamma3: float) -> float:
    return params.delta - gamma3 * params.epsilon * params.ops.pow(params.K_bar, params.epsilon - 1.0)


def _erfcx(x: float, ops=FLOAT_OPS) -> float:
    """Scaled complementary error function ``exp(x**2) erfc(x)`` for x >= 0.

    Below x = 26 it is ``exp(x**2) * math.erfc(x)``, with x split into
    ``hi + lo`` (Dekker) so that ``hi * hi`` is exact and ``exp`` sees no
    rounding of ``x**2``.  Above, where ``erfc`` nears underflow, it is
    Laplace's continued fraction ``1 / (sqrt(pi) (x + (1/2)/(x + 1/(x +
    (3/2)/(x + ...)))))`` cut after 8 terms and evaluated from its tail.
    """
    return ops.branch(x < 26.0, _erfcx_near, _erfcx_far, x, ops)


def _erfcx_near(x, ops):
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return ops.exp(hi * hi) * ops.exp((x - hi) * (x + hi)) * ops.erfc(x)


def _erfcx_far(x, ops):
    f = x
    for k in (4.0, 3.5, 3.0, 2.5, 2.0, 1.5, 1.0, 0.5):
        f = x + k / f
    return 1.0 / (_SQRT_PI * f)


@_public
def boundary_shifts(params: ModelParams, gamma3: float, paper_k1_approx: bool = False):
    """Boundary shifts (C1, K1p, A1) at technology background ``gamma3``.

    C1 is the truncated-Gaussian mean shift, evaluated stably through
    :func:`_erfcx` (``exp(x**2) math.erfc(x)`` below x = 26, an 8-term
    continued fraction above); it depends only on ``C_bar`` and ``varpi``
    (:func:`_consumption_boundary_shift`).  A1 underflows to zero whenever
    ``lam * gamma3**2`` is large.  K1p defaults to the exact erf form
    (stable log-space evaluation through ``math.erfc`` or
    :func:`_erfcx`); the surrogate fit is selected by ``paper_k1_approx``.
    """
    shifts = _Shifts(params, paper_k1_approx)
    return shifts.consumption_boundary_shift(), *shifts(gamma3)[:2]  # C1 first: a failing C1 raises first


def _consumption_boundary_shift(params: ModelParams) -> float:
    """C1 = sqrt(2/pi) varpi exp(-Cbar^2/(2 varpi^2)) / (1 - erf(Cbar/(sqrt2 varpi)))."""
    p = params
    xc = p.C_bar / (_SQRT_2 * p.varpi)
    return _SQRT_2_OVER_PI * p.varpi / _erfcx(xc, p.ops)


def _capital_shift(u, Yv, nu, nu2, ops):
    """Exact K1p = -sqrt(2/pi) sqrt|Y| nu exp(-u^2/(2|Y|nu^2)) / (erf(u/sqrt2) + 1), in log space."""
    log_num = ops.log(_SQRT_2_OVER_PI * ops.sqrt(Yv) * nu) - u * u / ops.nonzero(2.0 * Yv * nu2)
    log_den = ops.branch(u >= 0.0, _log_upper_tail, _log_lower_tail, u, ops)
    expo = log_num - log_den
    expo = ops.fail_where(
        expo > _LOG_DBL_MAX,
        lambda: SingularityError(f"K1p denominator erf(u/sqrt2) + 1 (K1p = -exp({expo:.6g}))"),
        expo,
    )
    return ops.branch(expo < -745.0, _zero, _scaled_exp, expo, -1.0, ops)


def _zero(*_):
    return 0.0


def _scaled_exp(expo, scale, ops):
    return scale * ops.exp(expo)


def _log_upper_tail(u, ops):
    """log(erf(u/sqrt2) + 1) at u >= 0."""
    return ops.log(ops.erfc(-u / _SQRT_2))


def _log_lower_tail(u, ops):
    """log(erf(u/sqrt2) + 1) at u < 0, through :func:`_erfcx`."""
    return ops.log(_erfcx(-u / _SQRT_2, ops)) - u * u / 2.0


def _capital_shift_fit(u, Yv, nu, nu2, ops):
    """The surrogate K1p (``--paper-k1-approx``)."""
    s2 = 2.0 * nu2 * Yv
    expo = -u * u / ops.nonzero(s2)
    num = ops.branch(expo < -745.0, _zero, _scaled_exp, expo, s2, ops)
    den = 2.0 - ops.exp(-1.9 * ops.pow(abs(u) / ops.sqrt(s2), 1.3))
    return -num / den


def _technology_shift(expo, scale, z, ops):
    """A1 = scale exp(expo) / (2 - erf(z / sqrt2)), where ``exp(expo)`` does not underflow."""
    return scale * ops.exp(expo) / (2.0 - ops.erf(z / _SQRT_2))


class _Shifts:
    """The boundary shifts of one solve, at fixed parameters and K1p form.

    ``shifts(g)`` is ``(K1p, A1, Y, AFp)`` at background ``g``, with ``AFp =
    g eps K_bar**(eps-1)`` the product ``Y`` and the consumption denominator
    share; each ``g`` is evaluated once.  Parameter-only factors are
    computed once, and those that can fail only where the closed forms first
    need them, so bad parameters raise as before: C1 and ``K_bar**(eps-1)`` in
    :meth:`consumption_boundary_shift`, ``nu**2`` in the first K1p and
    ``varpi**2`` in :meth:`den`.  The ``memo`` of the parameters' ``ops``
    keeps the shifts by ``g``, a grid's none; those at ``g0`` are also kept by
    identity (``at_g0``).
    """

    def __init__(self, params: ModelParams, paper_k1_approx: bool):
        p = self.params = params
        ops = self.ops = p.ops
        self.paper_k1_approx = paper_k1_approx
        self.g0 = p.A_bar0  # where the Gamma_3 root-find starts
        lam = self.lam = p.lam
        self.lam_expo, self.lam_root = -0.5 * lam, ops.sqrt(lam)
        self.A1_scale = 2.0 / ops.sqrt(math.pi * lam)
        self.Keps = ops.pow(p.K_bar, p.epsilon)
        self.Keps1 = self.Keps * (1.0 - p.epsilon)
        self.avg_C0 = p.C_bar + _SQRT_2_OVER_PI * p.varpi  # the trivial phase's consumption average
        self.C1 = self.Kem1 = self.varpi2 = self.nu2 = self.at_g0 = None
        self.memo = ops.memo()

    def consumption_boundary_shift(self) -> float:
        """C1; on the first call it and ``K_bar**(eps-1)`` are computed, in that order."""
        if self.C1 is None:
            p = self.params
            self.C1 = _consumption_boundary_shift(p)
            self.Kem1 = p.ops.pow(p.K_bar, p.epsilon - 1.0)
        return self.C1

    def __call__(self, g: float):
        got = self.at_g0 if g is self.g0 else self.memo.get(g)
        if got is not None:
            return got
        if self.Kem1 is None:
            self.consumption_boundary_shift()
        p, ops = self.params, self.ops
        # A1 = (2/sqrt(pi lam)) exp(-lam z^2/2) / (2 - erf(sqrt(lam) z / sqrt2)), 0 where exp underflows
        expo = self.lam_expo * g * g
        A1 = ops.branch(expo < -745.0, _zero, _technology_shift, expo, self.A1_scale, self.lam_root * g, ops)
        AFp = g * p.epsilon * self.Kem1
        Y = p.delta - AFp
        Y = ops.fail_where(Y == 0.0, lambda: SingularityError("Y = delta - Gamma3 eps K_bar^(eps-1)"), Y)
        u = self.avg_C0 - g * self.Keps * (1.0 - p.epsilon)
        if self.nu2 is None:
            self.nu2 = ops.pow(p.nu, 2)
        K1p = (_capital_shift_fit if self.paper_k1_approx else _capital_shift)(u, abs(Y), p.nu, self.nu2, ops)
        got = self.memo[g] = K1p, A1, Y, AFp
        if g is self.g0:
            self.at_g0 = got
        return got

    def den(self, Y: float, AFp: float, gamma_eta: float) -> float:
        """The denominator of :meth:`rhs` at one ``g``'s ``(Y, AFp)``; a sign change marks a pole."""
        p, ops = self.params, self.ops
        if self.varpi2 is None:
            self.varpi2 = ops.pow(p.varpi, 2)
        ab = self.varpi2 / ops.nonzero(_consumption_denom(p, AFp)) + self.nu2
        return 4.0 * Y * Y - ab * ops.pow(gamma_eta, 2) * Y + 2.0 * gamma_eta * self.Keps1

    def rhs(self, gamma_eta: float):
        """The Gamma_3 self-consistency ``rhs(g)`` at condensate ``gamma_eta``."""
        p = self.params
        Cq = p.C_bar + self.consumption_boundary_shift()
        A_fixed, A_slope = (1.0 - p.kappa) * p.A0, (2.0 - p.kappa) * p.kappa

        def rhs(g: float) -> float:
            K1p, A1, Y, AFp = self(g)
            num = 2.0 * (2.0 * (A_fixed + A_slope * g + A1) * Y * Y + (Cq - K1p) * gamma_eta * Y)
            den = self.den(Y, AFp, gamma_eta)
            return num / self.ops.fail_where(den == 0.0, _pole, den)

        return rhs


def _pole():
    return SingularityError("Gamma3 self-consistency denominator")


# ---------------------------------------------------------------------------
# Gamma_3 self-consistency
# ---------------------------------------------------------------------------


def _gamma3_fixed_point(
    params: ModelParams,
    gamma_eta: float,
    tol: float = 1e-12,
    max_iter: int = 1000,
    paper_k1_approx: bool = False,
    *,
    shifts: _Shifts | None = None,
) -> float:
    """Solve the Gamma_3 self-consistency equation ``rhs(g) = g``.

    The root is the one continued from ``A0 / (1 - kappa)``.  The first
    step from there is the undamped fixed-point step ``f(A0 / (1 - kappa))``
    with ``f(g) = rhs(g) - g``.  While ``f`` keeps its sign, each next step
    goes to where the secant through the last two points meets zero, or
    doubles the last step where that lies farther or behind.  Once ``f``
    changes sign the bracket is narrowed by regula falsi with the Illinois
    modification (the retained end's value is halved whenever the same
    end is kept twice); where that point rounds onto an end, the step
    bisects.  It returns the first iterate with ``|f| < tol``; ``max_iter``
    caps the evaluations of ``rhs``.  If no iterate reaches ``tol`` it raises
    :class:`SingularityError` when the denominator of ``rhs`` changes sign
    between the bracket's ends (the sign change of ``f`` is a pole), and
    :class:`ConvergenceError`, carrying the last residual and naming the
    bracket, otherwise.  ``shifts`` is the solve's :class:`_Shifts` of
    ``(params, paper_k1_approx)``; without it one is built here.
    """
    if shifts is None:
        shifts = _Shifts(params, paper_k1_approx)
    n = 0
    rhs = shifts.rhs(gamma_eta)

    def residual_at(g: float) -> float:
        nonlocal n
        n += 1
        r = rhs(g) - g
        if not math.isfinite(r):
            raise ConvergenceError(f"Gamma3 residual is not finite at g={g!r}", abs(r), n)
        return r

    a = shifts.g0
    fa = residual_at(a)
    if abs(fa) < tol:
        return a
    # bracket search: a is the last point, b the newest, both with the sign of f(A_bar0)
    step = fa
    while True:
        if n >= max_iter:
            raise ConvergenceError(f"Gamma3 root not bracketed, searched up to g={a!r}", abs(fa), n)
        b = a + step
        fb = residual_at(b)
        if abs(fb) < tol:
            return b
        if (fb < 0.0) != (fa < 0.0):
            break
        step *= q / (1.0 - q) if (q := fb / fa) <= 2.0 / 3.0 else 2.0  # the secant's factor, or 2 past q = 2/3
        a, fa = b, fb
    # Illinois: b is the newest iterate, a the retained end of the bracket
    while n < max_iter:
        c = _false_position(a, fa, b, fb)
        if not min(a, b) < c < max(a, b):
            c = _midpoint(a, b)  # the secant point rounds onto an end: bisect
            if not min(a, b) < c < max(a, b):
                break  # the bracket has no float left inside it
        fc = residual_at(c)
        if abs(fc) < tol:
            return c
        if (fc < 0.0) != (fb < 0.0):
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = c, fc
    den_a, den_b = (shifts.den(*shifts(g)[2:], gamma_eta) for g in (a, b))
    if (den_a < 0.0) != (den_b < 0.0):
        raise SingularityError(
            f"Gamma3 pole: the rhs denominator changes sign in [{min(a, b)!r}, {max(a, b)!r}]"
        )
    raise ConvergenceError(
        f"Gamma3 root not found in the bracket [{min(a, b)!r}, {max(a, b)!r}]", abs(fb), n
    )


def _false_position(a, fa, b, fb):
    """Where the secant through ``(a, fa)`` and ``(b, fb)`` meets zero."""
    return b - fb * (b - a) / (fb - fa)


def _midpoint(a, b):
    return 0.5 * (a + b)


@_public
def gamma3_first_order(params: ModelParams, gamma_eta: float, paper_k1_approx: bool = False) -> float:
    """First-order expansion of Gamma_3 in ``gamma_eta`` around A0/(1-kappa)."""
    shifts = _Shifts(params, paper_k1_approx)
    p, g0, C1 = params, shifts.g0, shifts.consumption_boundary_shift()
    _, slope = _gamma3_slope(p, p.C_bar + C1 - shifts(g0)[0], _Y_of(p, g0))
    return g0 - slope * gamma_eta


def _gamma3_slope(params: ModelParams, x: float, Y0: float):
    """Numerator and value of the first-order slope ``-dGamma3/dgamma_eta``.

    ``0.5 (K_bar^eps A0 (1-eps) - x Y0 (1-kappa)) / (Y0^2 (1-kappa)^3)`` at
    ``A0/(1-kappa)``, with ``x`` the consumption anchor less the capital
    shift (``C_bar + C1 - K1p`` for Gamma_3, ``avg_C0 - K1p0`` for the
    phase averages).
    """
    p = params
    num = p.ops.pow(p.K_bar, p.epsilon) * p.A0 * (1.0 - p.epsilon) - x * Y0 * (1.0 - p.kappa)
    return num, 0.5 * num / (Y0 * Y0 * p.ops.pow(1.0 - p.kappa, 3))


def _consumption_denom(params: ModelParams, AFp: float) -> float:
    """``varsigma^2 varpi^2 + (AFp + r_c)^2``, with ``AFp = g eps K_bar^(eps-1)`` at background ``g``."""
    p, pow_ = params, params.ops.pow
    return pow_(p.varsigma, 2) * pow_(p.varpi, 2) + pow_(AFp + p.r_c, 2)


def _consumption_shift(shifts: _Shifts, gamma_eta: float, Y: float, AFp: float) -> float:
    """First-order consumption shift ``varpi^2 A_bar0 gamma_eta / (2 denom |Y|)`` at one ``(Y, AFp)``."""
    p = shifts.params
    denom = 2.0 * _consumption_denom(p, AFp) * abs(Y)
    return shifts.ops.pow(p.varpi, 2) * shifts.g0 * gamma_eta / denom


# ---------------------------------------------------------------------------
# compatibility condition -> gamma_eta
# ---------------------------------------------------------------------------


def _c0_window(params: ModelParams) -> tuple[float, float]:
    """Admissible window (floor, floor + U) for the offset C0.

    The floor's consumption scale ``sqrt(varsigma^2 varpi^2 + r_c^2)`` is
    the one the ``D`` gate of :func:`compatibility_root` uses.
    """
    p, ops = params, params.ops
    floor = p.alpha_laplace + ops.sqrt(_consumption_denom(p, 0.0)) + 1.0 / p.lam
    eps, Kb = p.epsilon, p.K_bar
    Keps, kd = ops.pow(Kb, eps), p.kappa * p.delta * ops.pow(Kb, 1.0 - eps) / eps
    g0 = p.A_bar0
    Y0 = _Y_of(p, g0)
    t1 = (
        -(1.0 - p.kappa)
        * Kb
        * p.kappa
        * Y0
        * ((2.0 - p.kappa) * p.A0 + (3.0 - p.kappa) * p.kappa * p.delta / (eps * ops.pow(Kb, eps - 1.0)))
        / (eps * Keps)
    )
    S = (1.0 - p.kappa) * (p.A0 + kd) + kd
    t2 = (S * S - 2.0 * p.C_bar * S - ops.pow(p.C_bar, 2)) / ((1.0 - eps) * Keps)
    return floor, t1 + t2


def _raise_infeasible(fails, message, *values) -> None:
    """A one-row solve's compatibility gate: raise where ``fails``."""
    if fails:
        raise InfeasiblePhaseError(message())


def _compatibility_root(
    params: ModelParams, paper_k1_approx: bool = False, *, shifts: _Shifts | None = None, gate=_raise_infeasible
) -> dict:
    """Solve the compatibility quadratic for the condensate ``gamma_eta``.

    Returns a dict with ``gamma_eta``, the auxiliary root ``x``, the gate
    quantity ``D``, the C0 window, the upper admissibility bound, and the
    zeroth-order capital shift ``K1p0`` (``boundary_shifts`` at ``A0/(1-kappa)``).
    Raises :class:`InfeasiblePhaseError` if the window, the ``D > 0``
    gate, or the ``gamma_eta`` bracket is violated.  ``shifts`` is as in
    :func:`gamma3_fixed_point`.  A grid passes its :class:`cyclefield.grid._Gates` as
    ``gate(fails, message, *values)``, which marks the failing rows instead.
    """
    p = params
    if shifts is None:
        shifts = _Shifts(p, paper_k1_approx)
    ops = shifts.ops
    floor, U = _c0_window(p)
    gate(U <= 0.0, lambda: f"C0 window has nonpositive width U={U:.6g}", floor, U)
    gate(
        ((floor < p.C0) & (p.C0 < floor + U)) ^ True,  # not inside, per row
        lambda: f"C0={p.C0:.6g} outside the admissible window ({floor:.6g}, {floor + U:.6g})",
    )
    g0, Keps1 = shifts.g0, shifts.Keps1
    Y0 = _Y_of(p, g0)
    D = Keps1 * (
        p.alpha_laplace - p.C0 + ops.sqrt(_consumption_denom(p, 0.0)) + 1.0 / shifts.lam + abs(Y0)
    )
    gate(D < 0.0, lambda: f"compatibility gate D={D:.6g} is negative", D)
    C1 = shifts.consumption_boundary_shift()
    K1p = shifts(g0)[0]
    Cq = p.C_bar + C1 - K1p  # redefined consumption anchor
    a2 = Cq * Cq + 2.0 * Cq * g0 - g0 * g0 - D
    b1 = 3.0 * Cq * Cq + 8.0 * Cq * g0 - 4.0 * g0 * g0 - 4.0 * D
    linear = a2 == 0.0
    gate(linear & (b1 == 0.0), lambda: "degenerate compatibility equation", a2, b1)
    disc = b1 * b1 + 16.0 * D * a2
    gate((linear ^ True) & (disc < 0.0), lambda: "compatibility quadratic has no real root", disc)
    # each root divides by what is zero where the other applies
    x = ops.branch(linear, _linear_root, _quadratic_root, D, a2, b1, disc, ops)
    gamma_eta = x * Y0 / Keps1
    bound = 8.0 * abs(Y0) * U / Keps1
    gate(
        (gamma_eta < 0.0) | (gamma_eta >= bound),
        lambda: f"gamma_eta={gamma_eta:.6g} outside the admissible bracket (0, {bound:.6g})",
        gamma_eta,
        bound,
    )
    return {
        "gamma_eta": gamma_eta,
        "x": x,
        "D": D,
        "window_floor": floor,
        "window_width": U,
        "gamma_eta_bound": bound,
        "K1p0": K1p,
    }


def _linear_root(D, a2, b1, disc, ops):
    return 4.0 * D / b1


def _quadratic_root(D, a2, b1, disc, ops):
    return (-b1 - ops.sqrt(disc)) / (2.0 * a2)


# ---------------------------------------------------------------------------
# existence report
# ---------------------------------------------------------------------------

LAMBDA_LARGE_THRESHOLD = 10.0


@_public
def phase_existence(params: ModelParams) -> dict:
    """Report the nontrivial-phase existence conditions.

    ``feasible`` conjoins the hard conditions; the stiffness-largeness
    check and the refined technology bound are reported as flags only.
    """
    try:
        window = c0_window(params)
    except (DomainError, SingularityError):
        window = (math.nan, math.nan)  # NaN fails the window check
    return _existence(params, *window)


def _existence(params: ModelParams, floor: float, U: float) -> dict:
    """:func:`phase_existence` given the C0 window ``(floor, floor + U)``."""
    p = params
    gamma_positive = p.gamma > 0.0
    a0_bound = (1.0 + _SQRT_2) * p.C_bar
    A0_large = p.A0 > a0_bound
    K_1_eps = p.ops.pow(p.K_bar, 1.0 - p.epsilon)
    refined_bound = (a0_bound - (2.0 - p.kappa) * p.kappa * p.delta * K_1_eps / p.epsilon) / (1.0 - p.kappa)
    A0_large_refined = p.A0 > refined_bound
    lam_large = p.lam >= LAMBDA_LARGE_THRESHOLD
    spread = p.A0 * p.epsilon / ((1.0 - p.kappa) * K_1_eps) - p.delta
    spread_ok = (0.0 < spread) & (spread < 1.0)
    window_ok = (U > 0.0) & (floor < p.C0) & (p.C0 < floor + U)
    feasible = gamma_positive & A0_large & spread_ok & window_ok
    return {
        "feasible": feasible,
        "gamma_positive": gamma_positive,
        "A0_large": A0_large,
        "A0_large_refined": A0_large_refined,
        "lambda_large": lam_large,
        "spread": spread,
        "spread_ok": spread_ok,
        "window_floor": floor,
        "window_width": U,
        "window_ok": window_ok,
    }


# ---------------------------------------------------------------------------
# averages, mass, stability
# ---------------------------------------------------------------------------


def _trivial_averages(shifts: _Shifts, K1p: float):
    """Trivial-phase averages of C, K (signed) and Y, and ``x = avg_C - K1p``, from a solve's shifts."""
    p = shifts.params
    g0 = shifts.g0
    avg_C = shifts.avg_C0
    x = avg_C - K1p
    avg_K = (g0 * shifts.Keps1 - x) / shifts(g0)[2]
    base = abs(avg_K)  # magnitude is the capital scale (see module sign note)
    base = shifts.ops.fail_where(base <= 0.0, lambda: DomainError("trivial-phase capital scale is nonpositive"), base)
    return avg_C, avg_K, g0 * shifts.ops.pow(base, p.epsilon), x


def _stability_check(
    params: ModelParams, gamma_eta: float, gamma3: float, avg_K: float, avg_A: float
) -> dict:
    """Evaluate the three stability brackets and the condensate product.

    The capital scale enters through its magnitude (see the module sign
    note).  Returns a dict with each bracket and the overall verdict.
    """
    p, ops = params, params.ops
    Y = _Y_of(p, gamma3)
    lam = p.lam
    Kmag = ops.where(avg_K != 0.0, abs(avg_K), p.K_bar)
    r_hat = p.epsilon * gamma3 * ops.pow(Kmag, p.epsilon - 1.0)
    s_ = ops.sqrt(_consumption_denom(p, r_hat))
    Yv, root_Y, root_lam, root_lam_s = abs(Y), ops.sqrt(abs(Y)), ops.sqrt(lam), ops.sqrt(lam * s_)
    b1 = 2.0 * s_ - gamma_eta * p.varpi / root_lam_s
    b2 = 2.0 * Yv - gamma_eta * root_Y * p.nu / root_lam
    b3 = 1.0 / lam - gamma_eta * (
        root_Y * p.nu / (2.0 * root_lam)
        + p.varpi / (2.0 * root_lam_s)
        + 2.0 * ops.pow(p.K_bar, p.epsilon) * (1.0 - p.epsilon) / (lam * Yv)
    )
    product = p.gamma * abs(avg_K) * avg_A
    stable = (b1 > 0.0) & (b2 > 0.0) & (b3 > 0.0) & (product > 0.0)
    return {
        "stable": stable,
        "bracket_consumption": b1,
        "bracket_capital": b2,
        "bracket_technology": b3,
        "condensate_product": product,
    }


def solve_phase(params: ModelParams, phase: int, paper_k1_approx: bool = False) -> PhaseSolution:
    """Solve the full background for one phase.

    ``phase=0`` is the trivial phase (always exists; zero condensate and
    mass).  ``phase=1`` solves the compatibility condition for
    ``gamma_eta``, the Gamma_3 fixed point, the first-order shifts and
    averages, the mass gap, and the stability brackets.

    Parameters far enough out that a closed form leaves the double range
    (a power that overflows, a division by an underflowed factor, the log
    of an underflowed tail mass, a field that comes out infinite or NaN)
    raise :class:`SingularityError`.
    """
    sol = _in_double_range(f"phase-{phase}", _solve_phase, params, phase, paper_k1_approx)
    values = _float_fields(sol)
    if not math.isfinite(sum(values)):  # a NaN or an infinity makes the sum non-finite
        bad = [k for k, v in zip(_FLOAT_FIELDS, values) if not math.isfinite(v)]
        if bad:
            raise SingularityError(f"phase-{phase} closed forms left the double range in {', '.join(bad)}")
    return sol


# the float fields, read without vars(): a materialised __dict__ makes every later read slower
_FIELDS = tuple(f.name for f in fields(PhaseSolution))
_FLOAT_FIELDS = tuple(f.name for f in fields(PhaseSolution) if f.type == "float")
_float_fields = attrgetter(*_FLOAT_FIELDS)


def _solve_phase(params: ModelParams, phase: int, paper_k1_approx: bool) -> PhaseSolution:
    p = params
    shifts = _Shifts(p, paper_k1_approx)
    if phase == 0:
        g3 = _gamma3_fixed_point(p, 0.0, shifts=shifts)
        return PhaseSolution(*_phase0(p, shifts, g3))
    if phase != 1:
        raise DomainError(f"phase must be 0 or 1, got {phase!r}")
    comp = _compatibility_root(p, shifts=shifts)
    g3 = _gamma3_fixed_point(p, comp["gamma_eta"], shifts=shifts)
    return PhaseSolution(*_phase1(p, shifts, comp, g3)[0])


def _phase0(p, shifts: _Shifts, g3):
    """The trivial phase's fields at Gamma_3 = ``g3``, in :class:`PhaseSolution` order."""
    C1 = shifts.C1
    K1p, A1, Y, _ = shifts(g3)
    avg_C, avg_K, avg_Y, _ = _trivial_averages(shifts, K1p)
    g0 = shifts.g0
    # the fields in order, passed by position: keywords cost about 1 us a solve
    return (
        0, 0.0, p.C_bar + C1, K1p, g3,  # phase, gamma_eta, Gamma1, Gamma2, Gamma3
        C1, K1p, A1, g0, avg_C, 0.0,  # C1, K1p, A1, A_bar_phase, C_bar_phase, mass
        g0, avg_C, avg_K, avg_Y, True, True, Y,  # avg_A, avg_C, avg_K, avg_Y, feasible, stable, Y_coef
    )


def _phase1(p, shifts: _Shifts, comp: dict, g3):
    """The nontrivial phase's fields at Gamma_3 = ``g3``, in :class:`PhaseSolution` order.

    Also returns the spread and the stability values that its two flags
    compare, for a grid to check that they are finite.
    """
    ge = comp["gamma_eta"]
    K1p, A1, Y, AFp = shifts(g3)
    g0 = shifts.g0
    K1p0, _, Y0, AFp0 = shifts(g0)
    eps, Kb, Keps, Keps1, ops = p.epsilon, p.K_bar, shifts.Keps, shifts.Keps1, shifts.ops

    Gamma1 = p.C_bar + shifts.C1 - _consumption_shift(shifts, ge, Y, AFp)
    Gamma2 = K1p - (ops.pow(p.nu, 2) * g0 * Y + Keps1 * (1.0 - Y) * K1p) * ge / (2.0 * Y * Y)

    # first-order averages, correction coefficients at zeroth order
    avg_C0, avg_K0, avg_Y0, x = _trivial_averages(shifts, K1p0)
    slope_num, slope = _gamma3_slope(p, x, Y0)
    avg_A = g0 - slope * ge
    avg_C = avg_C0 - _consumption_shift(shifts, ge, Y0, AFp0)
    t1 = (
        -0.5
        * Keps
        * slope_num
        * (eps * x - Kb * p.delta * (1.0 - eps))
        / (ops.pow(Y0, 4) * Kb * ops.pow(1.0 - p.kappa, 3))
        * ge
    )
    t2 = -Keps1 * (1.0 - Y0) * K1p0 * ge / (2.0 * ops.pow(Y0, 3))
    t3 = -ops.pow(p.nu, 2) * g0 * ge / (2.0 * Y0 * Y0)
    t4 = -ops.pow(p.varpi, 2) * g0 * ge / (2.0 * _consumption_denom(p, AFp0) * Y0 * Y0)
    avg_K = avg_K0 + t1 + t2 + t3 + t4
    r_bar = eps * Keps * p.A0 / (1.0 - p.kappa)
    coef = slope * (1.0 - eps * (1.0 + p.delta / r_bar))
    avg_Y = avg_Y0 - coef * ops.pow(abs(avg_K0), eps) * ge

    # mass gap
    A_bar1 = p.A0 + p.kappa * g3
    mix = (1.0 - p.kappa) * A_bar1 + p.kappa * g3
    mass = (
        ops.pow(A_bar1, 2)
        - ops.pow(mix, 2)
        + (ops.pow(mix, 2) - 2.0 * p.C_bar * ((1.0 - p.kappa) * A_bar1 + p.kappa * A_bar1) - ops.pow(Gamma1, 2))
        / ((1.0 - eps) * Keps)
    )

    existence = _existence(p, comp["window_floor"], comp["window_width"])
    stab = _stability_check(p, ge, g3, avg_K, avg_A)
    # the existence conditions, a positive mass gap and anchors an AgentState accepts
    feasible = existence["feasible"] & (mass > 0.0) & (Gamma1 >= 0.0) & (A_bar1 >= 0.0)
    fields = (  # by position, as in phase 0
        1, ge, Gamma1, Gamma2, g3,  # phase, gamma_eta, Gamma1, Gamma2, Gamma3
        shifts.C1, K1p, A1, A_bar1, Gamma1, mass,  # C1, K1p, A1, A_bar_phase, C_bar_phase, mass
        avg_A, avg_C, avg_K, avg_Y, feasible, stab["stable"], Y,  # avg_A ... avg_Y, feasible, stable, Y_coef
    )
    checked = (existence["spread"], *(stab[k] for k in _STABILITY_VALUES))
    return fields, checked


_STABILITY_VALUES = ("bracket_consumption", "bracket_capital", "bracket_technology", "condensate_product")


# the entry points that a solve shares; it calls their own forms, and names its errors itself
c0_window, compatibility_root, gamma3_fixed_point, stability_check = map(
    _public, (_c0_window, _compatibility_root, _gamma3_fixed_point, _stability_check)
)
