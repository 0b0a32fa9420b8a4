"""First-order interaction corrections to the transition kernels.

Everything here is first order in the interaction strength ``gamma``.
The kernel coefficients ``alpha``, ``beta``, ``b``, ``c`` entering the
corrections are evaluated at zeroth order (phase reference values).

The closed-form deviation polynomials reproduce the compact published
display; the appendix-route matrix reconstruction differs from it on
three coefficients (its rescaling ``gamma -> gamma/(A_bar^2 K^eps)`` is
not applied uniformly in the compact display), so the term-by-term
cross-check is restricted to the coefficients both routes share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cyclefield.errors import DomainError
from cyclefield.green import _drift_matrix, _exp_density, _log_density_rows, _lookup, coefficients
from cyclefield.green import transition_density  # noqa: F401  (perfbench traces it under this name)
from cyclefield.params import ModelParams, _finite
from cyclefield.paths import AgentState, _horizon
from cyclefield.phases import _LOG_DBL_MAX, PhaseSolution


def _horizon_overflow(formula: str, t: float, name: str = "t") -> OverflowError:
    """The error for a closed form whose power of the horizon overflows a double."""
    return OverflowError(f"{formula} overflows a double at horizon {name} = {t!r}")


@dataclass(frozen=True)
class DeviationQuery:
    """Initial conditions for a path-deviation evaluation."""

    x0: AgentState          # initial state (C, K, A)
    v0: tuple               # initial velocities (dC, dK, dA)
    t: float                # horizon

    def __post_init__(self):
        if len(self.v0) != 3:
            raise DomainError(f"v0 must have three components, got {len(self.v0)}")
        for v in self.v0:
            try:
                valid = not isinstance(v, (bool, np.bool_)) and _finite(v)
            except TypeError:  # not a real number, such as a string
                valid = False
            if not valid:
                raise DomainError(f"v0 components must be finite, got {self.v0!r}")
        object.__setattr__(self, "t", _horizon(self.t, "t", zero_ok=True))
        object.__setattr__(self, "v0", tuple(float(v) for v in self.v0))


@dataclass(frozen=True)
class TwoAgentQuery:
    """Endpoint pairs for a two-agent interaction evaluation."""

    from1: AgentState  # agent 1 initial state
    to1: AgentState    # agent 1 final state
    from2: AgentState  # agent 2 initial state
    to2: AgentState    # agent 2 final state
    t: float           # shared horizon

    def __post_init__(self):
        object.__setattr__(self, "t", _horizon(self.t, "t", zero_ok=True))


# ---------------------------------------------------------------------------
# single-agent correction potential
# ---------------------------------------------------------------------------


def correction_potential(
    from_state: AgentState,
    to_state: AgentState,
    t: float,
    solution: PhaseSolution,
    params: ModelParams,
) -> float:
    """First-order correction potential V between two states.

    Unprimed variables are the final state, primed the initial one.  The
    corrected kernel is ``G * exp(-gamma V)``.
    """
    t = _horizon(t, "t", zero_ok=True)
    X = (to_state.C - from_state.C, to_state.K - from_state.K, to_state.A - from_state.A)
    return _potential((to_state.C, to_state.K, to_state.A), X, t, params)


def _potential(to, X, t: float, params: ModelParams):
    """V for final states ``to = (C, K, A)`` reached by displacements ``X``; floats or arrays."""
    Keps = params.K_bar ** params.epsilon
    (C, K, A), (dC, dK, dA) = to, X
    try:
        t2, t3 = t * t, t ** 3
    except OverflowError as exc:
        raise _horizon_overflow("correction_potential", t) from exc
    V = (
        2.0 * t2 * A * K
        + (t3 / 12.0) * dA * dC
        + (t3 / 2.0) * dA * dK
        - (t3 / 12.0) * Keps * dA * dA
    )
    V += A * ((t3 / 3.0) * dC + t2 * dK - (t3 / 3.0) * Keps * dA)
    V += params.gamma * t2 * dA * K
    return V


def _potential_rows(pair, t: float, params: ModelParams, maintext: bool):
    """:func:`_potential` on a pair record; it has no checks."""
    return _potential(pair.to, pair.X, t, params), ()


def corrected_density(
    from_state: AgentState,
    to_state: AgentState,
    t: float,
    solution: PhaseSolution,
    params: ModelParams,
    maintext: bool = False,
):
    """Transition density with the first-order correction factor.

    Returns ``(density, log_density)`` for ``G * exp(-gamma V)``, ``G`` and ``V`` read in one
    lookup, with the checks of :func:`transition_density` then :func:`correction_potential`.
    """
    log_g, batch, i = _lookup(_log_density_rows, from_state, to_state, t, solution, params, maintext, True)
    if log_g > _LOG_DBL_MAX:
        _exp_density(log_g)  # raises the uncorrected density's error
    log_density = log_g - params.gamma * batch.read(_potential_rows, i, float(t))  # t passed _lookup's check
    return _exp_density(log_density), log_density


# ---------------------------------------------------------------------------
# average-path deviations
# ---------------------------------------------------------------------------


def path_deviation(
    query: DeviationQuery, solution: PhaseSolution, params: ModelParams
) -> tuple[float, float, float]:
    """Deviations (dC, dK, dA) from the average path due to self-interaction.

    Closed-form polynomials in the horizon, linear in the initial state
    and the initial velocities, and proportional to ``gamma``: the dot
    product of :func:`elasticity_table` with ``(x0, v0)``; ``dC = 0``.
    """
    x0, v0 = query.x0, query.v0
    inputs = {"C0": x0.C, "K0": x0.K, "A0": x0.A, "Cdot0": v0[0], "Kdot0": v0[1], "Adot0": v0[2]}
    dev = {"dC": 0.0, "dK": 0.0, "dA": 0.0}
    for key, coef in elasticity_table(query.t, solution, params).items():
        out, wrt = key.split("_")  # "dK_dCdot0" -> "dK", "dCdot0"
        dev[out] += coef * inputs[wrt[1:]]
    return dev["dC"], dev["dK"], dev["dA"]


def elasticity_table(t: float, solution: PhaseSolution, params: ModelParams) -> dict:
    """All nonzero partials of the path deviations at horizon t.

    These are the coefficients of :func:`path_deviation`, which is linear
    in the initial state and velocities (each carries the overall
    ``gamma``); the signs encode the synergy and eviction effects.
    """
    t = _horizon(t, "t", zero_ok=True)
    coeffs = coefficients(solution, params)
    b, c = coeffs.b_coef, coeffs.c_coef
    A2 = solution.A_bar_phase ** 2
    Keps = params.K_bar ** params.epsilon
    g = params.gamma
    try:
        t3, t4, t5, t6 = t ** 3, t ** 4, t ** 5, t ** 6
    except OverflowError as exc:
        raise _horizon_overflow("elasticity_table", t) from exc
    return {
        "dK_dC0": g * 7.0 * c * t5 / (720.0 * A2),
        "dK_dK0": g * c * t4 / (48.0 * A2),
        "dK_dA0": g * (b * t3 / (6.0 * Keps * A2) + Keps * c * t5 / 90.0),
        "dA_dK0": g * c * t3 / (6.0 * Keps * A2),
        "dK_dCdot0": -g * 7.0 * c * t6 / (1440.0 * A2),
        "dK_dKdot0": g * c * t5 / (60.0 * A2),
        "dK_dAdot0": g * (b * t4 / (24.0 * Keps * A2) + 3.0 * Keps * c * t6 / (160.0 * A2)),
        "dA_dKdot0": g * c * t4 / 24.0,
        "dA_dAdot0": g * t,
    }


# ---------------------------------------------------------------------------
# modified propagation matrices
# ---------------------------------------------------------------------------


def modified_matrices(s: float, solution: PhaseSolution, params: ModelParams) -> dict:
    """First-order modified drift and covariance matrices at horizon s.

    Builds the interaction moment matrices R1, R2, R3 and returns
    ``M_bar = (1 - gamma H R1)(M + gamma H R2)`` (with the unscaled
    H = diag(a, b, c), matching the compact display) and
    ``H_bar = H(s) - gamma H(s) R1 H(s)`` (with the horizon-scaled
    H(s) = diag(as, bs, cs)).  ``H_bar`` is returned as the symmetric
    algebraic product; the compact display zeroes its (3,1) entry while
    keeping (1,3), an asymmetry flagged here and not reproduced.  The
    quadratic source matrix ``gamma (R3 - M^T (2 R2 - R1))`` is included.
    """
    s = _horizon(s, "s", zero_ok=True)
    coeffs = coefficients(solution, params)
    a = 2.0 * params.varpi ** 2
    b = coeffs.b_coef
    c = coeffs.c_coef
    Keps = params.K_bar ** params.epsilon
    g = params.gamma
    try:
        s2, s3 = s * s, s ** 3
    except OverflowError as exc:
        raise _horizon_overflow("modified_matrices", s, "s") from exc

    R1 = np.array(
        [
            [0.0, 0.0, s3 / 24.0],
            [0.0, 0.0, s2 / 4.0],
            [s3 / 24.0, s2 / 4.0, -Keps * s3 / 12.0],
        ]
    )
    R2 = np.array(
        [
            [0.0, 0.0, s3 / 6.0],
            [0.0, 0.0, s2 / 2.0],
            [0.0, s2 / 2.0, -Keps * s3 / 6.0],
        ]
    )
    R3 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, s2], [0.0, s2, 0.0]])
    # the display drift M: the kernel drift matrix with the capital row
    # negated and no technology row
    M = _drift_matrix(solution, params)
    M[1] = -M[1]
    M[2] = 0.0
    H = np.diag([a, b, c])
    Hs = s * H

    with np.errstate(over="ignore", invalid="ignore"):
        M_bar = (np.eye(3) - g * H @ R1) @ (M + g * H @ R2)
        H_bar = Hs - g * Hs @ R1 @ Hs
        source = g * (R3 - M.T @ (2.0 * R2 - R1))
    if not all(np.isfinite(m).all() for m in (M_bar, H_bar, source)):
        raise _horizon_overflow("modified_matrices", s, "s")
    return {"R1": R1, "R2": R2, "R3": R3, "M": M, "H": H, "M_bar": M_bar, "H_bar": H_bar, "source": source}


# ---------------------------------------------------------------------------
# two-agent corrections
# ---------------------------------------------------------------------------


def two_agent_correction(
    query: TwoAgentQuery, solution: PhaseSolution, params: ModelParams
) -> dict:
    """Two-agent interaction potential and mutual trajectory corrections.

    ``V_I`` multiplies the product kernel as ``exp(-V_I)``; the
    deviations ``d21`` (agent 2's path acting on agent 1) and ``d12``
    are linear in path means and variations, symmetric under the swap of
    agent labels.
    """
    coeffs = coefficients(solution, params)
    b, c = coeffs.b_coef, coeffs.c_coef
    Keps = params.K_bar ** params.epsilon
    g = params.gamma
    t = query.t
    try:
        t3 = t ** 3
    except OverflowError as exc:
        raise _horizon_overflow("two_agent_correction", t) from exc

    def moments(start, end):  # (mean A, mean K, change in C, change in A) along one path
        return 0.5 * (start.A + end.A), 0.5 * (start.K + end.K), end.C - start.C, end.A - start.A

    def push(mean_A, mean_K, dC, dA):  # deviation of one path caused by the other's moments
        dA_term = g * (c * dC / 12.0 - c * Keps * dA / 12.0) * t3
        return {"K": g * b * t * mean_A, "A": dA_term + g * c * t * mean_K}

    m1, m2 = moments(query.from1, query.to1), moments(query.from2, query.to2)
    (mean_A1, mean_K1, dC1, dA1), (mean_A2, mean_K2, dC2, dA2) = m1, m2
    V_I = g * t * t * (mean_A1 * mean_K2 + mean_K1 * mean_A2)
    V_I += (g * t3 / 24.0) * (
        mean_A1 * dC2 + dC1 * mean_A2 - Keps * (mean_A1 * dA2 + dA1 * mean_A2)
    )
    return {"V_I": V_I, "d21": push(*m2), "d12": push(*m1)}
