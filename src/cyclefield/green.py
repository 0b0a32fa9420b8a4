"""Analytic transition kernels per phase.

The small-time transition density with its technology potential factor,
most-likely endpoints, average paths, equilibria, linearized dynamics,
and the Laplace-domain propagator.

Two coefficient conventions coexist:

* *midpoint* coefficients ``alpha = delta - A_m F'(K_m)``,
  ``beta = 2 A_m F'(K_m) + r_c - delta`` with ``A_m, K_m`` the endpoint
  midpoints — used when evaluating the density between two given states;
* *reference* coefficients with ``A_m = A_bar_phase`` and ``K_m = K_bar``
  — used for the drift matrix, equilibria, and average paths, where the
  expansion point is the phase background.

:func:`_drift` is the one linearised kernel drift.  The density's
displacement, the most likely endpoint (through :func:`dmcvr_residuals`)
and the Laplace propagator's drift velocity derive from it;
:func:`_drift_matrix` holds its slopes at the anchor.  The Monte Carlo
oracle checks the Langevin sampler against its own linear-noise
approximation (:func:`montecarlo.lna_moments`), not these kernels, whose
variances (capital rate ``b/2``) are a paper-kernel convention.

The pair formulas are written once, array-generic: :func:`_pair` builds
the record :class:`_Pair` (midpoint coefficients, displacement, drift at
the start state, variance rates, technology potential) and the kernel
formulas read it.  Each holds one float64 for a lone pair and an array
for all consecutive pairs of a path; transcendental functions are
NumPy's, which give the same bits for one value as inside an array.  A
pair's checks are masks, raised in order for a lone pair.

:func:`transition_density`, :func:`gaussian_factor`,
:func:`corrections.corrected_density` and :func:`laplace_propagator` make
one :func:`_lookup` per call.  Two consecutive states of one path (see
:meth:`AgentPath.state`) read the kept :class:`_Batch`: the records of
every consecutive pair of the last path, phase solution, parameters and
``maintext`` read, with each formula's values as a list for the last
horizon read.  Any other pair evaluates the same formulas alone, and so
does a pair that fails a check, which then raises.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import NamedTuple

import numpy as np

from cyclefield.errors import (
    ConvergenceError, DomainError, ParameterError, SingularityError, TrajectoryTerminated,
)
from cyclefield.params import ModelParams
from cyclefield.paths import AgentPath, AgentState, check_horizon
from cyclefield.phases import _LOG_DBL_MAX, PhaseSolution

_TWO_PI = 2.0 * math.pi
_LOG_TWO_PI_CUBED = 3.0 * math.log(_TWO_PI)
_SMALL_S_THRESHOLD = 0.05  # t max(|alpha|, |beta|) above which SmallTimeWarning is issued
_ENDPOINT_TOL = 1e-13  # most-likely-endpoint step size at which the iteration stops
_ENDPOINT_MAX_ITER = 200


class SmallTimeWarning(UserWarning):
    """The requested time lies outside the small-time validity regime."""


class GreenCoefficients(NamedTuple):
    """Coefficients entering the transition kernels of one phase."""

    alpha: float     # alpha = delta - A_m F'(K_m)
    beta: float      # beta = 2 A_m F'(K_m) + r_c - delta  (appendix convention)
    Omega_sq: float  # mixed variance (varpi^2/lambda^2)(nu^2 + ...)
    b_coef: float    # capital variance rate 2(nu^2 + 2K^2eps/(lambda^2 a^2) + 3varpi^2/(2(2a+b)b))
    c_coef: float    # technology variance rate 2/lambda^2
    mass: float      # phase mass gap
    A_bar: float     # phase technology anchor
    C_bar: float     # phase consumption anchor


class _Coords(NamedTuple):
    """The coordinates of one state, or arrays of them."""

    C: object
    K: object
    A: object


class _Pair(NamedTuple):
    """What the kernels read for pairs of states, at their midpoint coefficients.

    Per-pair fields are float64 for a lone pair and arrays for a path's
    consecutive pairs.
    """

    coeffs: GreenCoefficients
    to: tuple         # final state (C', K', A')
    X: tuple          # displacement to - from
    Y: tuple          # kernel drift (dC/dt, dK/dt) at from (:func:`_drift`)
    rates: tuple      # variance rates (varpi^2, b/2, c/2)
    a_gap: float      # (A + A')/2 - A_bar
    potential: float  # technology potential rate a_gap^2 / 2
    scale: float      # max(|alpha|, |beta|), the small-time scale
    checks: tuple     # (failed, error type, message) in the order raised; the last (b > 0) only for kernels


def _raise_failed(checks) -> None:
    """Raise the error of a lone pair's first failed check."""
    for failed, error, message in checks:
        if failed:
            raise error(message)


def _float64(state) -> _Coords:
    """The coordinates of one state as float64, so a division by zero gives inf as in an array."""
    return _Coords(np.float64(state.C), np.float64(state.K), np.float64(state.A))


def coefficients(
    solution: PhaseSolution,
    params: ModelParams,
    from_state: AgentState | None = None,
    to_state: AgentState | None = None,
    maintext: bool = False,
) -> GreenCoefficients:
    """Kernel coefficients, midpoint if both endpoints are given.

    ``maintext=True`` selects the main-text convention
    ``beta = A_m F'(K_m) + r_c - delta``.  Midpoint coefficients are those
    of the pair record the kernels read.
    """
    with np.errstate(all="ignore"):
        if from_state is not None and to_state is not None:
            pair = _pair(solution, params, _float64(from_state), _float64(to_state), maintext)
            coeffs, checks = pair.coeffs, pair.checks[:-1]
        else:
            coeffs, checks = _coefficients(solution, params, solution.A_bar_phase, params.K_bar, maintext)
    _raise_failed(checks)
    return GreenCoefficients._make(map(float, coeffs))


def _coefficients(solution, params, Am, Km, maintext):
    """The coefficient record expanded at technology ``Am`` and capital ``Km``, and its checks."""
    p = params
    alpha, beta = _alpha_beta(Am, Km, p, maintext)
    two_ab = 2.0 * alpha + beta
    lam_sq, varpi_sq = p.lambda_sq, p.varpi ** 2
    alpha_den = lam_sq * (alpha * alpha)
    capital = p.nu ** 2 + 2.0 * p.K_bar ** (2.0 * p.epsilon) / alpha_den
    two_ab_den = 2.0 * two_ab * beta
    b_coef = 2.0 * (capital + 3.0 * varpi_sq / two_ab_den)
    bb_aa = beta * beta - alpha * alpha
    Omega_sq = (varpi_sq / lam_sq) * (capital + 3.0 * varpi_sq / (2.0 * bb_aa))
    coeffs = GreenCoefficients(
        alpha, beta, Omega_sq, b_coef, 2.0 / lam_sq, solution.mass, solution.A_bar_phase, solution.C_bar_phase
    )
    # a denominator that underflows to 0 is singular like its vanishing factor
    return coeffs, (
        (alpha_den == 0.0, SingularityError, "alpha"),
        (beta == 0.0, SingularityError, "beta"),
        (two_ab_den == 0.0, SingularityError, "2*alpha + beta"),
        (bb_aa == 0.0, SingularityError, "beta^2 - alpha^2"),
    )


def _pair(solution, params, from_state, to_state, maintext=False) -> _Pair:
    """The record of the pairs ``(from_state, to_state)``, each a state or coordinate arrays."""
    Am = 0.5 * (from_state.A + to_state.A)
    Km = 0.5 * (from_state.K + to_state.K)
    coeffs, checks = _coefficients(solution, params, Am, Km, maintext)
    a_gap = Am - coeffs.A_bar
    X = (to_state.C - from_state.C, to_state.K - from_state.K, to_state.A - from_state.A)
    rates = (params.varpi ** 2, 0.5 * coeffs.b_coef, 0.5 * coeffs.c_coef)
    return _Pair(
        coeffs, (to_state.C, to_state.K, to_state.A), X, _drift(from_state, coeffs, params), rates,
        a_gap, 0.5 * (a_gap * a_gap), np.maximum(np.abs(coeffs.alpha), np.abs(coeffs.beta)),
        (
            (Km <= 0.0, DomainError, "midpoint capital must be positive"),
            *checks,
            (rates[1] <= 0.0, SingularityError, "capital variance rate b"),
        ),
    )


def _alpha_beta(Am, Km, params: ModelParams, maintext: bool = False):
    """``alpha = delta - A_m F'(K_m)`` and ``beta`` in the chosen convention."""
    AFp = Am * params.epsilon * np.power(Km, params.epsilon - 1.0)
    return params.delta - AFp, (AFp if maintext else 2.0 * AFp) + params.r_c - params.delta


class _Batch:
    """Pair records and the kernel values read from them, per pair.

    A path batch holds every consecutive pair of ``path``; a lone batch
    (``path`` None) holds the one pair ``(from_state, to_state)`` and
    raises the error of any check it fails.  The small-time scales and
    each formula's values, for the last horizon read, are kept as lists
    with None for a path pair that fails a check.
    """

    __slots__ = ("path", "solution", "params", "maintext", "pair", "scale", "values")

    def __init__(self, solution, params, maintext, path=None, from_state=None, to_state=None):
        self.path, self.solution, self.params, self.maintext = path, solution, params, maintext
        if path is None:
            from_state, to_state = _float64(from_state), _float64(to_state)
        else:
            C, K, A = path.C, path.K, path.A
            from_state, to_state = _Coords(C[:-1], K[:-1], A[:-1]), _Coords(C[1:], K[1:], A[1:])
        with np.errstate(all="ignore"):
            self.pair = _pair(solution, params, from_state, to_state, maintext)
        self.scale = self._kept(self.pair.scale, self.pair.checks)
        self.values = {}

    def _kept(self, value, checks):
        """``value`` per pair as a list, None where a path pair fails a check; a lone pair raises."""
        if self.path is None:
            _raise_failed(checks)
            return [float(value)]
        failed = False
        for mask, _, _ in checks:
            failed = failed | mask
        return (np.where(failed, None, value) if np.any(failed) else value).tolist()

    def read(self, formula, i: int, t):
        """``formula(pair, t, params, maintext) -> (values, checks)`` on pair ``i``; a failing pair raises alone."""
        got = self.values.get(formula)
        if got is None or got[0] != t:
            with np.errstate(all="ignore"):
                value, checks = formula(self.pair, t, self.params, self.maintext)
            got = self.values[formula] = (t, self._kept(value, self.pair.checks + checks))
        if got[1][i] is None:
            states = {"from_state": self.path.state(i), "to_state": self.path.state(i + 1)}
            return _Batch(self.solution, self.params, self.maintext, **states).read(formula, 0, t)
        return got[1][i]


# The one path batch kept, for the last path, solution, parameters and maintext.
_last_batch: _Batch | None = None


def _lookup(formula, from_state, to_state, t, solution, params, maintext=False, warn=False):
    """``formula``'s value on a pair at horizon ``t``, and the pair's batch and row.

    Samples ``i`` and ``i + 1`` of one path (:meth:`AgentPath.state`) are
    row ``i`` of the path's batch, built unless it is the one kept, and
    read its list for ``t``, a horizon checked when it was kept.  Any other
    pair, or a linked pair that fails a check, is a lone batch, which
    raises.  ``t`` is checked except for the propagator, which reads no
    horizon.  ``warn`` issues the :class:`SmallTimeWarning` after the
    pair's checks, attributed to the first caller outside cyclefield.
    """
    global _last_batch
    link, to_link, batch, value = from_state._link, to_state._link, _last_batch, None
    linked = link and to_link and to_link[0] is link[0] and to_link[1] == link[1] + 1
    kept = linked and batch and (
        batch.path is link[0] and batch.solution is solution and batch.params is params
        and batch.maintext is maintext
    )
    if kept:
        i, got = link[1], batch.values.get(formula)
        if got is not None and got[0] == t:
            value = got[1][i]
    if value is None:
        if formula is not _propagator_rows:
            check_horizon(t)
        if linked:
            if not kept:
                batch = _last_batch = _Batch(solution, params, maintext, link[0])
            i = link[1]
        if not linked or batch.scale[i] is None:
            batch, i = _Batch(solution, params, maintext, from_state=from_state, to_state=to_state), 0
    if warn and (scale := t * batch.scale[i]) > _SMALL_S_THRESHOLD:
        frame, level = sys._getframe(1), 2  # the caller, and its stacklevel
        while frame is not None and frame.f_globals.get("__name__", "").startswith("cyclefield."):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"t*max(|alpha|,|beta|)={scale:.3g} exceeds the small-time regime "
            f"threshold {_SMALL_S_THRESHOLD:.3g}",
            SmallTimeWarning,
            stacklevel=level,
        )
    return batch.read(formula, i, t) if value is None else value, batch, i


# ---------------------------------------------------------------------------
# transition density
# ---------------------------------------------------------------------------


def _drift(state, coeffs: GreenCoefficients, params: ModelParams):
    """Linearised kernel drift ``(dC/dt, dK/dt)`` at ``state``, the one drift of the kernels.

    ``dC/dt = (alpha+beta)(C - C_bar)`` and
    ``dK/dt = -(alpha (K - K_bar) + delta K_bar + C - A K_bar^eps)``;
    technology has no drift at this order.  Floats or arrays.
    """
    p = params
    Keps = p.K_bar ** p.epsilon
    dK = -(coeffs.alpha * (state.K - p.K_bar) + p.delta * p.K_bar + state.C - state.A * Keps)
    return (coeffs.alpha + coeffs.beta) * (state.C - coeffs.C_bar), dK


def _drift_matrix(solution: PhaseSolution, params: ModelParams) -> np.ndarray:
    """Drift matrix ``F`` at the phase anchor (reference coefficients).

    Its first two rows are the slopes of :func:`_drift`; the third relaxes
    technology at ``1/(2 lambda^2)``.  ``F`` is the Jacobian of the
    Langevin sampler's drift at the anchor.
    """
    p = params
    a0, b0 = _alpha_beta(solution.A_bar_phase, p.K_bar, p)
    return np.array(
        [
            [a0 + b0, 0.0, 0.0],
            [-1.0, -a0, p.K_bar ** p.epsilon],
            [0.0, 0.0, -1.0 / (2.0 * p.lambda_sq)],
        ]
    )


def _log_gaussian_rows(pair: _Pair, t: float, params: ModelParams, maintext: bool):
    """Log of the kernel's Gaussian factor at horizon ``t``, and its check: a variance underflows.

    The exponent is ``-sum X_i^2 / (2 v_i)`` with the drifted displacement
    ``X = (to - from) - t drift(from)`` and the variances ``v = t rates``;
    normalized in the final state, or with the printed main-text
    prefactor if ``maintext``.
    """
    (X1, X2, X3), (Y1, Y2), (w1, w2, w3) = pair.X, pair.Y, pair.rates
    v1, v2, v3 = w1 * t, w2 * t, w3 * t
    X1, X2 = X1 - t * Y1, X2 - t * Y2
    quad = X1 * X1 / (2.0 * v1) + X2 * X2 / (2.0 * v2) + X3 * X3 / (2.0 * v3)
    if maintext:
        log_norm = -math.log(2.0) - 0.5 * (np.log(_TWO_PI * (w1 / params.lambda_sq)) + np.log(v2))
    else:
        # a sum of logs: the product v1 v2 v3 underflows at tiny t
        log_norm = -0.5 * (_LOG_TWO_PI_CUBED + np.log(v1) + np.log(v2) + np.log(v3))
    vanish = (v1 <= 0.0) | (v2 <= 0.0) | (v3 <= 0.0)
    return log_norm - quad, ((vanish, DomainError, f"kernel variances vanish at t = {t!r}"),)


def _log_density_rows(pair: _Pair, t: float, params: ModelParams, maintext: bool):
    """The log transition density: the Gaussian factor damped by the potential and the mass."""
    log_gaussian, checks = _log_gaussian_rows(pair, t, params, maintext)
    return log_gaussian - (pair.potential * t + pair.coeffs.mass * t), checks


def _exp_density(log_density: float) -> float:
    """``exp(log_density)``, 0 below the underflow edge; raises past the largest double."""
    if log_density > _LOG_DBL_MAX:
        raise DomainError(f"density exp({log_density:.17g}) exceeds the largest double")
    return math.exp(log_density) if log_density > -745.0 else 0.0


def transition_density(
    from_state: AgentState,
    to_state: AgentState,
    t: float,
    solution: PhaseSolution,
    params: ModelParams,
    maintext: bool = False,
):
    """Small-time transition density between two states.

    Returns ``(density, log_density)``.  The Gaussian factor is a
    normalized probability density in the final state; the technology
    potential factor ``exp(-((A+A')/2 - A_bar)^2 t/2 - m t)`` multiplies
    it and is excluded from the normalization.  With ``maintext=True``
    the printed (unnormalized) prefactor and the main-text beta
    convention are used instead.  A :class:`SmallTimeWarning` is issued
    on every call with ``t max(|alpha|, |beta|)`` above
    ``_SMALL_S_THRESHOLD``, attributed to the first caller outside
    cyclefield (:func:`_lookup`).
    """
    log_density = _lookup(_log_density_rows, from_state, to_state, t, solution, params, maintext, True)[0]
    return _exp_density(log_density), log_density


def gaussian_factor(
    from_state: AgentState,
    to_state: AgentState,
    t: float,
    solution: PhaseSolution,
    params: ModelParams,
):
    """The normalized Gaussian factor of the transition density alone."""
    return _exp_density(_lookup(_log_gaussian_rows, from_state, to_state, t, solution, params)[0])


def dmcvr_residuals(from_state, to_state, t, solution, params):
    """Residuals of the three zero-exponent (most-likely-endpoint) relations.

    Coefficients are evaluated at the endpoint midpoints; the technology
    relation is the printed linear form
    ``lambda^2 (A - A') + ((A+A')/2 - A_bar) t/2``.
    """
    check_horizon(t)
    pair = _Batch(solution, params, False, from_state=from_state, to_state=to_state).pair
    (X1, X2, X3), (Y1, Y2) = pair.X, pair.Y
    return float(X1 - t * Y1), float(X2 - t * Y2), float(params.lambda_sq * X3 + 0.5 * pair.a_gap * t)


def most_likely_endpoint(
    from_state: AgentState,
    t: float,
    solution: PhaseSolution,
    params: ModelParams,
) -> AgentState:
    """Solve the zero-exponent relations (:func:`dmcvr_residuals`) for the most likely endpoint.

    Each sweep holds the midpoint coefficients fixed and steps the endpoint
    to the zero of every residual, which is linear in the endpoint; the
    coefficients are then re-evaluated at the new midpoint until the step
    falls below ``_ENDPOINT_TOL``.
    """
    check_horizon(t)
    slope_A = params.lambda_sq + 0.25 * t  # d r3 / dA'
    to = from_state
    for _ in range(_ENDPOINT_MAX_ITER):
        r1, r2, r3 = dmcvr_residuals(from_state, to, t, solution, params)
        step_A = r3 / slope_A
        to = AgentState(C=to.C - r1, K=to.K - r2, A=to.A - step_A)
        delta = max(abs(r1), abs(r2), abs(step_A))
        if delta < _ENDPOINT_TOL:
            return to
    raise ConvergenceError("most-likely endpoint iteration did not converge", delta, _ENDPOINT_MAX_ITER)


# ---------------------------------------------------------------------------
# equilibrium, average path, linearized dynamics
# ---------------------------------------------------------------------------


def equilibrium(solution: PhaseSolution, params: ModelParams) -> AgentState:
    """Fixed point of the average dynamics.

    ``K_e = ((1-eps) A_bar K_bar^eps - C_bar_phase) / |delta - K_bar^(eps-1) A_bar eps|``
    (magnitude denominator, so the capital equilibrium is a positive
    stock; see the phase-module sign note), ``C_e = C_bar_phase``,
    ``A_e = A_bar_phase``.
    """
    p = params
    A_bar = solution.A_bar_phase
    denom = abs(p.delta - p.K_bar ** (p.epsilon - 1.0) * A_bar * p.epsilon)
    if denom == 0.0:
        raise SingularityError("delta - K_bar^(eps-1) A_bar eps")
    num = (1.0 - p.epsilon) * A_bar * p.K_bar ** p.epsilon - solution.C_bar_phase
    K_e = num / denom
    if K_e <= 0.0:
        raise DomainError("equilibrium capital is nonpositive")
    return AgentState(C=solution.C_bar_phase, K=K_e, A=A_bar)


def average_path_rhs(state, solution: PhaseSolution, params: ModelParams, K_e: float):
    """Right-hand side of the average-path ODEs with exact F'."""
    C, K, A = state
    if K <= 0.0:
        raise DomainError("capital must stay positive along the average path")
    p = params
    AFp = A * p.epsilon * K ** (p.epsilon - 1.0)
    dC = (C - solution.C_bar_phase) * (AFp + p.r_c - p.delta)
    dK = (AFp - p.delta) * (K - K_e) - (C - solution.C_bar_phase)
    dA = -(A - solution.A_bar_phase) / (2.0 * p.lambda_sq)
    return np.array([dC, dK, dA])


def average_path(
    initial: AgentState,
    t: float,
    solution: PhaseSolution,
    params: ModelParams,
    n_steps: int | None = None,
) -> AgentPath:
    """Integrate the average-path ODEs with fixed-step RK4.

    Terminates with :class:`TrajectoryTerminated` (carrying the partial
    path) if capital leaves the positive domain.
    """
    check_horizon(t)
    if n_steps is None:
        n_steps = max(1, math.ceil(1000.0 * t))
    elif isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
    K_e = equilibrium(solution, params).K
    h = t / n_steps
    states = np.empty((n_steps + 1, 3))
    states[0] = [initial.C, initial.K, initial.A]
    y = states[0].copy()
    for i in range(n_steps):
        try:
            k1 = average_path_rhs(y, solution, params, K_e)
            k2 = average_path_rhs(y + 0.5 * h * k1, solution, params, K_e)
            k3 = average_path_rhs(y + 0.5 * h * k2, solution, params, K_e)
            k4 = average_path_rhs(y + h * k3, solution, params, K_e)
        except DomainError as exc:
            partial = AgentPath(
                states[: i + 1, 0], states[: i + 1, 1], states[: i + 1, 2], dt=h
            ) if i >= 1 else None
            raise TrajectoryTerminated(
                f"average path left the admissible region at step {i}: {exc}", partial
            ) from exc
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i + 1] = y
    return AgentPath(states[:, 0], states[:, 1], states[:, 2], dt=h)


def linearized_eigenvalues(solution: PhaseSolution, params: ModelParams) -> dict:
    """Eigenvalues of the (C, K) block linearized at the equilibrium.

    Returns both the numeric Jacobian eigenvalues (authoritative) and the
    literal printed closed-form pair (kept for reference; it disagrees
    with the Jacobian in general).
    """
    p = params
    eq = equilibrium(solution, params)
    AFp_e = solution.A_bar_phase * p.epsilon * eq.K ** (p.epsilon - 1.0)
    jac = np.array([[AFp_e + p.r_c - p.delta, 0.0], [-1.0, AFp_e - p.delta]])
    eigs = np.linalg.eigvals(jac)
    eigs = np.sort_complex(eigs)
    root = complex(p.r_c ** 2 - 4.0 * solution.A_bar_phase) ** 0.5
    printed = (
        0.5 * p.r_c - p.delta - 0.5 * root + AFp_e,
        0.5 * p.r_c - p.delta + 0.5 * root + AFp_e,
    )
    return {"jacobian": jac, "jacobian_eigenvalues": eigs, "printed_eigenvalues": printed}


# ---------------------------------------------------------------------------
# Laplace-domain propagator
# ---------------------------------------------------------------------------


def laplace_propagator(
    from_state: AgentState,
    to_state: AgentState,
    solution: PhaseSolution,
    params: ModelParams,
) -> float:
    """Propagator over an exponential lifespan with rate ``params.alpha_laplace``.

    The small-time kernel is Gaussian in each coordinate with variance
    rate ``v_i`` and drift velocity ``Y = (drift(from), 0)``
    (:func:`_drift`), damped at the constant rate
    ``m~ = m + ((A+A')/2 - A_bar)^2 / 2``; its Laplace transform over the
    horizon is exact:

    ``exp(CT - sqrt(2(m~+alpha) + P) sqrt(Q)) / (2 pi sqrt(v1 v2 v3 Q))``

    with ``P = sum Y_i^2/v_i``, ``Q = sum X_i^2/v_i``,
    ``CT = sum X_i Y_i/v_i`` and displacement ``X = to - from``.
    Coincident endpoints make the transform diverge (``Q = 0``) and raise
    :class:`DomainError`, as does a value past the largest double.
    """
    return _lookup(_propagator_rows, from_state, to_state, None, solution, params)[0]


def _propagator_rows(pair: _Pair, t, params: ModelParams, maintext: bool):
    """The Laplace propagator of :func:`laplace_propagator` and its checks; ``t`` is unused."""
    (X1, X2, X3), (Y1, Y2), (v1, v2, v3) = pair.X, pair.Y, pair.rates  # Y3 = 0 drops out of P and CT
    P = Y1 * Y1 / v1 + Y2 * Y2 / v2
    Q = X1 * X1 / v1 + X2 * X2 / v2 + X3 * X3 / v3
    CT = X1 * Y1 / v1 + X2 * Y2 / v2
    rate = 2.0 * (pair.coeffs.mass + pair.potential + params.alpha_laplace) + P
    exponent = CT - np.sqrt(rate) * np.sqrt(Q)
    prefactor = _TWO_PI * np.sqrt(v1 * v2 * v3 * Q)
    return np.exp(exponent) / prefactor, (
        (Q == 0.0, DomainError, "Laplace propagator diverges at coincident endpoints"),
        (rate <= 0.0, DomainError, "Laplace propagator decay rate must be positive"),
        (
            (exponent > _LOG_DBL_MAX) | (prefactor == 0.0),
            DomainError, "Laplace propagator exceeds the largest double",
        ),
    )
