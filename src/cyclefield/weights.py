"""Log statistical weights for agent paths.

Time derivatives use forward differences and time integrals use
left-endpoint Riemann sums, so every weight is a plain sum over the first
n-1 grid points of an n-point path.
"""

from __future__ import annotations

import math

import numpy as np

from cyclefield.errors import DomainError, ParameterError, ShapeError
from cyclefield.params import ModelParams
from cyclefield.paths import AgentPath


def utility_quadratic(c, theta: float, c_hat: float):
    """Quadratic utility -(theta/2)(c - C_tilde)^2 + 1/(2 theta).

    ``C_tilde = c_hat + 1/theta`` is the satiation point implied by the
    anchor ``c_hat``.  ``theta`` must be strictly positive.
    """
    if isinstance(theta, bool) or not (isinstance(theta, (int, float)) and math.isfinite(theta) and theta > 0):
        raise ParameterError(f"theta must be a finite positive number, got {theta!r}")
    c = np.asarray(c, dtype=float)
    c_tilde = c_hat + 1.0 / theta
    out = -(theta / 2.0) * (c - c_tilde) ** 2 + 1.0 / (2.0 * theta)
    return out if out.ndim else float(out)


def production(K, A, params: ModelParams, mode: str = "exact"):
    """Cobb-Douglas production A * K**epsilon.

    ``mode='exact'`` evaluates the power law (requires K > 0);
    ``mode='taylor'`` evaluates the second-order expansion around ``K_bar``:
    ``A K_bar^eps (1 + eps u - eps(1-eps)/2 u^2)`` with ``u=(K-K_bar)/K_bar``.
    """
    K = np.asarray(K, dtype=float)
    A = np.asarray(A, dtype=float)
    if mode == "exact":
        if np.any(K <= 0.0):
            raise DomainError("production in exact mode requires K > 0")
        out = A * K ** params.epsilon
    elif mode == "taylor":
        eps = params.epsilon
        u = (K - params.K_bar) / params.K_bar
        out = A * params.K_bar ** eps * (1.0 + eps * u - 0.5 * eps * (1.0 - eps) * u * u)
    else:
        raise ParameterError(f"unknown production mode {mode!r}")
    return out if out.ndim else float(out)


def production_derivative(K, A, params: ModelParams, mode: str = "exact"):
    """Marginal product A * F'(K) for the chosen production mode."""
    K = np.asarray(K, dtype=float)
    A = np.asarray(A, dtype=float)
    eps = params.epsilon
    if mode == "exact":
        if np.any(K <= 0.0):
            raise DomainError("marginal product in exact mode requires K > 0")
        out = A * eps * K ** (eps - 1.0)
    elif mode == "taylor":
        u = (K - params.K_bar) / params.K_bar
        out = A * params.K_bar ** (eps - 1.0) * (eps - eps * (1.0 - eps) * u)
    else:
        raise ParameterError(f"unknown production mode {mode!r}")
    return out if out.ndim else float(out)


def log_weight_consumption(path: AgentPath, params: ModelParams, mode: str = "exact") -> float:
    """Consumption log weight.

    ``-sum dt (Cdot - r (C - C_bar))^2 / varpi^2 + C0 * T`` with the
    pointwise rate ``r(t) = A(t) F'(K(t)) + r_c`` and ``T`` the path span.
    """
    C, K, A = path.C[:-1], path.K[:-1], path.A[:-1]
    r = production_derivative(K, A, params, mode=mode) + params.r_c
    resid = np.diff(path.C) / path.dt - r * (C - params.C_bar)
    return float(-np.sum(resid ** 2) * path.dt / params.varpi ** 2 + params.C0 * path.duration)


def log_weight_capital(path: AgentPath, params: ModelParams, mode: str = "exact") -> float:
    """Capital log weight ``-sum dt (Kdot - (A F(K) - C - delta K))^2 / nu^2``."""
    C, K, A = path.C[:-1], path.K[:-1], path.A[:-1]
    drift = production(K, A, params, mode=mode) - C - params.delta * K
    return float(-np.sum((np.diff(path.K) / path.dt - drift) ** 2) * path.dt / params.nu ** 2)


def _log_weight_technology_single(path: AgentPath, params: ModelParams, A_bar: float) -> float:
    A = path.A[:-1]
    kinetic = (np.diff(path.A) / path.dt - params.g * A) ** 2 / params.lam ** 2
    potential = (A - A_bar) ** 2
    return float(-np.sum(kinetic + potential) * path.dt)


def _technology_cross_term(paths, params: ModelParams) -> float:
    """Cross term ``-gamma dt^2 sum_{i != j} sum_s sum_s' A_i(s) K_j(s')`` of paths on one grid.

    The sum runs over ordered pairs of distinct paths and the full double
    time grid; with per-path sums ``a_i``, ``k_i`` it is
    ``(sum a)(sum k) - sum a_i k_i``.
    """
    a = np.array([np.sum(p.A[:-1]) for p in paths])
    k = np.array([np.sum(p.K[:-1]) for p in paths])
    return -params.gamma * paths[0].dt ** 2 * float(np.sum(a) * np.sum(k) - a @ k)


def log_weight_technology_pair(
    path_1: AgentPath, path_2: AgentPath, params: ModelParams, A_bar: float
) -> float:
    """Two-agent technology log weight.

    Per-agent terms ``-sum dt [(Adot - g A)^2 / lambda^2 + (A - A_bar)^2]``
    plus the nonlocal cross term (:func:`_technology_cross_term`)
    ``-gamma sum_i sum_j dt^2 [A_1(t_i) K_2(t_j) + A_2(t_i) K_1(t_j)]``.
    """
    if len(path_1) != len(path_2) or path_1.dt != path_2.dt:
        raise ShapeError("paired paths must share a time grid")
    w = _log_weight_technology_single(path_1, params, A_bar)
    w += _log_weight_technology_single(path_2, params, A_bar)
    return float(w + _technology_cross_term((path_1, path_2), params))


def _log_weight_restoring(path: AgentPath, params: ModelParams) -> float:
    """Consumption restoring term ``-sum dt varsigma^2 (C - C_bar)^2``."""
    C = path.C[:-1]
    return float(-params.varsigma ** 2 * np.sum((C - params.C_bar) ** 2) * path.dt)


def log_weight_total(
    paths, params: ModelParams, A_bar: float, mode: str = "exact"
) -> float:
    """Total log weight of a collection of agent paths.

    Sums the consumption, capital, restoring, and per-agent technology
    terms of every path, plus the cross term of every pair
    (:func:`_technology_cross_term`).  The intertemporal budget penalty is
    *not* included; see :func:`log_weight_intertemporal_constraint`.
    """
    paths = list(paths)
    if not paths:
        raise ShapeError("log_weight_total needs at least one path")
    n0, dt0 = len(paths[0]), paths[0].dt
    for p in paths:
        if len(p) != n0 or p.dt != dt0:
            raise ShapeError("all paths must share a time grid")
    total = 0.0
    for p in paths:
        total += log_weight_consumption(p, params, mode=mode)
        total += log_weight_capital(p, params, mode=mode)
        total += _log_weight_restoring(p, params)
        total += _log_weight_technology_single(p, params, A_bar)
    return float(total + _technology_cross_term(paths, params))


def log_weight_intertemporal_constraint(
    path: AgentPath, params: ModelParams, revenue=None, mode: str = "exact"
) -> float:
    """Relaxed intertemporal budget penalty.

    ``-(int Y dt - int C dt)^2 / theta^2`` with ``Y = A F(K)`` by default,
    or an explicit per-sample ``revenue`` array.
    """
    if revenue is None:
        Y = production(path.K[:-1], path.A[:-1], params, mode=mode)
    else:
        Y = np.asarray(revenue, dtype=float)
        if Y.shape != path.C.shape and Y.shape != path.C[:-1].shape:
            raise ShapeError("revenue must match the path grid")
        Y = Y[: len(path) - 1]
    gap = np.sum(Y) * path.dt - np.sum(path.C[:-1]) * path.dt
    return float(-(gap ** 2) / params.theta_sq)
