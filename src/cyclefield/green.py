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

The kernels evaluated for one pair of states read one private record,
:class:`_Pair`: the midpoint coefficients, the displacement, the drift
at the start state, the variance rates and the technology potential.
It is built once per pair through a one-entry memo keyed on the identity
of the arguments, so :func:`transition_density`,
:func:`corrections.corrected_density` and :func:`laplace_propagator` on
one pair share it.  The same memo entry holds the last
:func:`transition_density` result on its pair and the horizon it was
computed at, so :func:`corrections.corrected_density` right after
:func:`transition_density` on the same arguments reuses the density; the
horizon check and the :class:`SmallTimeWarning` run on every call.
"""

from __future__ import annotations

import math
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


class _Pair(NamedTuple):
    """What the kernels read for one pair of states, at its midpoint coefficients."""

    coeffs: GreenCoefficients
    X: tuple          # displacement to - from
    Y: tuple          # kernel drift (dC/dt, dK/dt) at from (:func:`_drift`)
    rates: tuple      # variance rates (varpi^2, b/2, c/2)
    a_gap: float      # (A + A')/2 - A_bar
    potential: float  # technology potential rate a_gap^2 / 2
    scale: float      # max(|alpha|, |beta|), the small-time scale


# One-entry memo of the last pair record, one tuple ``(*key, record, t,
# density)``: the last :func:`transition_density` result on the record's
# pair and the horizon ``t`` it was computed at (``None`` until one is).
# Every key object is immutable (frozen dataclasses, floats) and the memo
# holds it, so an identity match means equal arguments.
_pair_memo = (None,) * 8


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
    of the pair record the kernels read, so a call with the same five
    argument objects (``is``) as the previous call returns the previous
    record.
    """
    if from_state is not None and to_state is not None:
        return _pair(solution, params, from_state, to_state, maintext, kernel=False).coeffs
    return _coefficients(solution, params, solution.A_bar_phase, params.K_bar, maintext)


def _coefficients(solution, params, Am, Km, maintext):
    """The coefficient record expanded at technology ``Am`` and capital ``Km``."""
    p = params
    alpha, beta = _alpha_beta(Am, Km, p, maintext)
    if alpha == 0.0:
        raise SingularityError("alpha")
    if beta == 0.0:
        raise SingularityError("beta")
    two_ab = 2.0 * alpha + beta
    if two_ab == 0.0:
        raise SingularityError("2*alpha + beta")
    lam_sq, varpi_sq = p.lambda_sq, p.varpi ** 2
    capital = p.nu ** 2 + 2.0 * p.K_bar ** (2.0 * p.epsilon) / (lam_sq * alpha ** 2)
    b_coef = 2.0 * (capital + 3.0 * varpi_sq / (2.0 * two_ab * beta))
    bb_aa = beta ** 2 - alpha ** 2
    if bb_aa == 0.0:
        raise SingularityError("beta^2 - alpha^2")
    Omega_sq = (varpi_sq / lam_sq) * (capital + 3.0 * varpi_sq / (2.0 * bb_aa))
    # tuple.__new__ builds the same record as the NamedTuple constructor,
    # which is a Python-level call; this and _pair run once per panel pair
    return tuple.__new__(GreenCoefficients, (
        alpha, beta, Omega_sq, b_coef, 2.0 / lam_sq, solution.mass, solution.A_bar_phase, solution.C_bar_phase
    ))


def _pair(solution, params, from_state, to_state, maintext=False, kernel=True) -> _Pair:
    """The record of one pair of states; the previous one if all five arguments are the previous ones.

    A kernel (``kernel=True``) divides by the variance rates, so it needs
    a positive capital rate ``b``.
    """
    global _pair_memo
    memo_sol, memo_params, memo_from, memo_to, memo_maintext, pair, _, _ = _pair_memo
    if not (
        memo_sol is solution
        and memo_params is params
        and memo_from is from_state
        and memo_to is to_state
        and memo_maintext is maintext
    ):
        Am = 0.5 * (from_state.A + to_state.A)
        Km = 0.5 * (from_state.K + to_state.K)
        if Km <= 0.0:
            raise DomainError("midpoint capital must be positive")
        coeffs = _coefficients(solution, params, Am, Km, maintext)
        a_gap = Am - coeffs.A_bar
        X = (to_state.C - from_state.C, to_state.K - from_state.K, to_state.A - from_state.A)
        rates = (params.varpi ** 2, 0.5 * coeffs.b_coef, 0.5 * coeffs.c_coef)
        pair = tuple.__new__(_Pair, (
            coeffs, X, _drift(from_state, coeffs, params), rates, a_gap, 0.5 * a_gap ** 2,
            max(abs(coeffs.alpha), abs(coeffs.beta)),
        ))
        _pair_memo = (solution, params, from_state, to_state, maintext, pair, None, None)
    if kernel and pair.rates[1] <= 0.0:
        raise SingularityError("capital variance rate b")
    return pair


def _alpha_beta(Am: float, Km: float, params: ModelParams, maintext: bool = False):
    """``alpha = delta - A_m F'(K_m)`` and ``beta`` in the chosen convention."""
    AFp = Am * params.epsilon * Km ** (params.epsilon - 1.0)
    return params.delta - AFp, (AFp if maintext else 2.0 * AFp) + params.r_c - params.delta


# ---------------------------------------------------------------------------
# transition density
# ---------------------------------------------------------------------------


def _drift(state: AgentState, coeffs: GreenCoefficients, params: ModelParams):
    """Linearised kernel drift ``(dC/dt, dK/dt)`` at ``state``, the one drift of the kernels.

    ``dC/dt = (alpha+beta)(C - C_bar)`` and
    ``dK/dt = -(alpha (K - K_bar) + delta K_bar + C - A K_bar^eps)``;
    technology has no drift at this order.
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


def _log_gaussian(pair: _Pair, t: float, params: ModelParams, maintext: bool = False) -> float:
    """Log of the kernel's Gaussian factor at horizon ``t``.

    The exponent is ``-sum X_i^2 / (2 v_i)`` with the drifted displacement
    ``X = (to - from) - t drift(from)`` and the variances ``v = t rates``;
    normalized in the final state, or with the printed main-text
    prefactor if ``maintext``.
    """
    (X1, X2, X3), (Y1, Y2), (w1, w2, w3) = pair.X, pair.Y, pair.rates
    v1, v2, v3 = w1 * t, w2 * t, w3 * t
    if v1 <= 0.0 or v2 <= 0.0 or v3 <= 0.0:  # t so small that a variance underflows
        raise DomainError(f"kernel variances vanish at t = {t!r}")
    X1, X2 = X1 - t * Y1, X2 - t * Y2
    quad = X1 * X1 / (2.0 * v1) + X2 * X2 / (2.0 * v2) + X3 * X3 / (2.0 * v3)
    if maintext:
        log_norm = -math.log(2.0) - 0.5 * (math.log(_TWO_PI * (w1 / params.lambda_sq)) + math.log(v2))
    else:
        # a sum of logs: the product v1 v2 v3 underflows at tiny t
        log_norm = -0.5 * (_LOG_TWO_PI_CUBED + math.log(v1) + math.log(v2) + math.log(v3))
    return log_norm - quad


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
    ``_SMALL_S_THRESHOLD``.  A call with the same six argument objects
    (``is``) as the previous density call on the memo's pair returns the
    previous result.
    """
    global _pair_memo
    check_horizon(t)
    pair = _pair(solution, params, from_state, to_state, maintext)
    scale = t * pair.scale
    if scale > _SMALL_S_THRESHOLD:
        warnings.warn(
            f"t*max(|alpha|,|beta|)={scale:.3g} exceeds the small-time regime "
            f"threshold {_SMALL_S_THRESHOLD:.3g}",
            SmallTimeWarning,
            stacklevel=2,
        )
    if _pair_memo[6] is t:
        return _pair_memo[7]
    log_density = _log_gaussian(pair, t, params, maintext) - (pair.potential * t + pair.coeffs.mass * t)
    density = (_exp_density(log_density), log_density)
    _pair_memo = (solution, params, from_state, to_state, maintext, pair, t, density)
    return density


def gaussian_factor(
    from_state: AgentState,
    to_state: AgentState,
    t: float,
    solution: PhaseSolution,
    params: ModelParams,
):
    """The normalized Gaussian factor of the transition density alone."""
    check_horizon(t)
    return _exp_density(_log_gaussian(_pair(solution, params, from_state, to_state), t, params))


def dmcvr_residuals(from_state, to_state, t, solution, params):
    """Residuals of the three zero-exponent (most-likely-endpoint) relations.

    Coefficients are evaluated at the endpoint midpoints; the technology
    relation is the printed linear form
    ``lambda^2 (A - A') + ((A+A')/2 - A_bar) t/2``.
    """
    check_horizon(t)
    pair = _pair(solution, params, from_state, to_state)
    (X1, X2, X3), (Y1, Y2) = pair.X, pair.Y
    return X1 - t * Y1, X2 - t * Y2, params.lambda_sq * X3 + 0.5 * pair.a_gap * t


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
    elif n_steps < 1:
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
    :class:`DomainError`.
    """
    pair = _pair(solution, params, from_state, to_state)
    (X1, X2, X3), (Y1, Y2), (v1, v2, v3) = pair.X, pair.Y, pair.rates  # Y3 = 0 drops out of P and CT
    P = Y1 * Y1 / v1 + Y2 * Y2 / v2
    Q = X1 * X1 / v1 + X2 * X2 / v2 + X3 * X3 / v3
    CT = X1 * Y1 / v1 + X2 * Y2 / v2
    if Q == 0.0:
        raise DomainError("Laplace propagator diverges at coincident endpoints")
    rate = 2.0 * (pair.coeffs.mass + pair.potential + params.alpha_laplace) + P
    if rate <= 0.0:
        raise DomainError("Laplace propagator decay rate must be positive")
    prefactor = _TWO_PI * math.sqrt(v1 * v2 * v3 * Q)
    return math.exp(CT - math.sqrt(rate) * math.sqrt(Q)) / prefactor
