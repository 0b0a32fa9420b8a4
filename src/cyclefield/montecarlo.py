"""Langevin Monte Carlo oracle for the analytic transition kernels.

Convention: a path weight ``exp(-int (xdot - mu)^2 / w^2 dt)`` is
simulated as a diffusion with variance rate ``w^2`` per unit time, i.e.
noise amplitudes ``varpi``, ``nu`` and ``1/lambda`` for consumption,
capital and technology.  :func:`compare_to_green` checks the ensemble
against :func:`green.mean_state`, which propagates the same noise through
the sampler's drift linearised at the phase anchor.  The mean of capital
is the linearisation's gap: production is linearised at ``K_bar`` while
the sampler integrates ``A K^eps``.

Determinism: path ``i`` always draws from the counter-based stream
``Philox(key=seed, counter=[0, 0, i, 0])``, which is the stream
``Philox(key=seed).jumped(i)``, so artifacts match those of versions that
built the latter.  Partitioning paths over blocks or workers cannot change
any path's stream, so ensembles are byte-identical for a fixed seed
regardless of scheduling.

Memory: noise is drawn in time chunks under a fixed per-block budget of
``_NOISE_BYTES``, so a simulation's memory grows with the block size, not
with the horizon.  Drawing a stream in chunks yields the same numbers as
drawing it in one go.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import kolmogorov, ndtr

from cyclefield.errors import DomainError, ParameterError
from cyclefield.green import mean_state
from cyclefield.params import ModelParams
from cyclefield.paths import AgentState
from cyclefield.phases import PhaseSolution

_NOISE_BYTES = 16 * 2**20  # noise buffer budget per block of paths


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo sampling configuration."""

    n_paths: int = 10000       # number of independent paths
    dt: float = 1e-3           # Euler step
    seed: int = 0              # Philox key
    antithetic: bool = False   # pair path 2j+1 with the negated noise of 2j

    def __post_init__(self):
        if self.n_paths < 1:
            raise ParameterError(f"n_paths must be >= 1, got {self.n_paths}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ParameterError(f"dt must be a finite positive number, got {self.dt}")


@dataclass
class PathEnsemble:
    """Endpoint ensemble of a Langevin simulation."""

    C: np.ndarray              # endpoint consumption, shape (n_paths,)
    K: np.ndarray              # endpoint capital, shape (n_paths,)
    A: np.ndarray              # endpoint technology, shape (n_paths,)
    t: float                   # horizon
    dt: float                  # Euler step used
    seed: int                  # Philox key used
    n_negative_K: int = 0      # paths that visited K <= 0 (flagged, retained)
    negative_K_mask: np.ndarray = field(default=None, repr=False)

    @property
    def n_paths(self) -> int:
        return self.C.size

    def moments(self) -> dict:
        return {
            "mean": {"C": float(np.mean(self.C)), "K": float(np.mean(self.K)), "A": float(np.mean(self.A))},
            "var": {
                "C": float(np.var(self.C, ddof=1)),
                "K": float(np.var(self.K, ddof=1)),
                "A": float(np.var(self.A, ddof=1)),
            },
        }


def _path_noise(seed: int, start: int, count: int, n_steps: int, antithetic: bool):
    """Noise for paths [start, start+count) in consecutive time chunks.

    Yields views of shape ``(m, count, 3)`` covering steps ``[k, k+m)`` in
    order; each view is overwritten by the next one.  One Philox generator
    is re-pointed at each path's counter, which is far cheaper than
    building one per path, and draws straight into a path-major buffer.
    Between chunks each path keeps only the Philox counter, output buffer,
    buffer position and spare 32-bit word, in arrays of 88 bytes a path.
    """
    chunk = max(1, min(n_steps, _NOISE_BYTES // (24 * count)))
    buf = np.empty((count, chunk, 3))
    rng = np.random.Generator(np.random.Philox(key=seed))
    bitgen = rng.bit_generator
    fresh = bitgen.state  # counter [0, 0, 0, 0], empty output buffer
    if chunk < n_steps:
        counters = np.empty((count, 4), dtype=np.uint64)
        buffers = np.empty((count, 4), dtype=np.uint64)
        positions = np.empty((count, 3), dtype=np.int64)  # buffer_pos, has_uint32, uinteger
    for k in range(0, n_steps, chunk):
        m = min(chunk, n_steps - k)
        for j in range(count):
            i = start + j
            if k == 0:
                fresh["state"]["counter"][2] = i // 2 if antithetic else i
            else:
                fresh["state"]["counter"], fresh["buffer"] = counters[j], buffers[j]
                fresh["buffer_pos"], fresh["has_uint32"], fresh["uinteger"] = positions[j].tolist()
            bitgen.state = fresh
            row = buf[j, :m]
            rng.standard_normal(out=row)
            if k + m < n_steps:
                state = bitgen.state
                counters[j], buffers[j] = state["state"]["counter"], state["buffer"]
                positions[j] = state["buffer_pos"], state["has_uint32"], state["uinteger"]
            if antithetic and i % 2 == 1:
                np.negative(row, out=row)
        yield buf[:, :m].transpose(1, 0, 2)


def _euler_step(solution: PhaseSolution, params: ModelParams, dt: float):
    """One Euler-Maruyama step of the phase Langevin system.

    Drifts: ``dC = (A F'(K) + r_c)(C - C_bar_phase) dt``,
    ``dK = (A F(K) - C - delta K) dt``,
    ``dA = -(A - A_bar_phase)/(2 lambda^2) dt``; noise amplitudes
    ``varpi, nu, 1/lambda``.  ``F(K) = K^eps`` and ``F'(K)`` are clamped to
    zero where ``K <= 0``.  Returns ``step(C, K, A, z)``, which gives the new
    ``(C, K, A)``, the mask of paths with ``K > 0`` before the step and the
    consumption rate ``A F'(K) + r_c``.
    """
    eps, r_c, delta = params.epsilon, params.r_c, params.delta
    C_bar, A_bar = solution.C_bar_phase, solution.A_bar_phase
    relax_A = 1.0 / (2.0 * params.lambda_sq)
    sdt = math.sqrt(dt)
    amp_C, amp_K, amp_A = params.varpi * sdt, params.nu * sdt, 1.0 / params.lam * sdt

    def step(C, K, A, z):
        pos = K > 0.0
        Kp = np.where(pos, K, 1.0)  # placeholder, masked below
        F, Fp = np.where(pos, Kp ** eps, 0.0), np.where(pos, eps * Kp ** (eps - 1.0), 0.0)
        rate = A * Fp + r_c
        C_new = C + rate * (C - C_bar) * dt + amp_C * z[:, 0]
        K_new = K + (A * F - C - delta * K) * dt + amp_K * z[:, 1]
        return C_new, K_new, A - (A - A_bar) * relax_A * dt + amp_A * z[:, 2], pos, rate

    return step


def sample_paths(
    initial: AgentState,
    t: float,
    solution: PhaseSolution,
    params: ModelParams,
    mc: MCConfig,
    block_size: int = 4096,
) -> PathEnsemble:
    """Euler-Maruyama sample of the phase Langevin system (:func:`_euler_step`).

    Negative-capital excursions are flagged and retained, never reflected
    or killed.
    """
    if t <= 0.0:
        raise DomainError(f"t must be > 0, got {t}")
    n_steps_f = t / mc.dt
    n_steps = round(n_steps_f)
    if n_steps < 1 or abs(n_steps_f - n_steps) > 1e-9 * max(1.0, n_steps):
        raise ParameterError(f"horizon t={t} is not an integer multiple of dt={mc.dt}")
    step = _euler_step(solution, params, mc.dt)

    n = mc.n_paths
    out_C = np.empty(n)
    out_K = np.empty(n)
    out_A = np.empty(n)
    neg_mask = np.zeros(n, dtype=bool)
    for start in range(0, n, block_size):
        count = min(block_size, n - start)
        C = np.full(count, initial.C)
        K = np.full(count, initial.K)
        A = np.full(count, initial.A)
        neg = np.zeros(count, dtype=bool)
        for noise in _path_noise(mc.seed, start, count, n_steps, mc.antithetic):
            for z in noise:
                C, K, A, pos, _ = step(C, K, A, z)
                neg |= ~pos
        neg |= K <= 0.0
        sl = slice(start, start + count)
        out_C[sl], out_K[sl], out_A[sl] = C, K, A
        neg_mask[sl] = neg
    return PathEnsemble(
        C=out_C,
        K=out_K,
        A=out_A,
        t=t,
        dt=mc.dt,
        seed=mc.seed,
        n_negative_K=int(np.count_nonzero(neg_mask)),
        negative_K_mask=neg_mask,
    )


def compare_to_green(
    ensemble: PathEnsemble,
    initial: AgentState,
    solution: PhaseSolution,
    params: ModelParams,
) -> dict:
    """Compare an ensemble against the analytic kernel marginals.

    The analytic reference is the linear-Gaussian kernel of
    :func:`green.mean_state`: the sampler's drift linearised at the phase
    anchor, with the sampler's noise, so its mean and covariance come from
    one propagation.  Returns per-coordinate z-scores for mean and
    variance, Kolmogorov-Smirnov p-proxies, and an overall verdict (all
    |z| <= 4 and all p >= 1e-3).
    """
    t = ensemble.t
    mu, cov = mean_state(initial, t, solution, params)
    var_an = np.diag(cov)
    n = ensemble.n_paths
    zscores: dict[str, float] = {}
    ks: dict[str, float] = {}
    samples = {"C": ensemble.C, "K": ensemble.K, "A": ensemble.A}
    for idx, name in enumerate(("C", "K", "A")):
        x = samples[name]
        m_mc = float(np.mean(x))
        v_mc = float(np.var(x, ddof=1))
        se_mean = math.sqrt(v_mc / n)
        zscores[f"mean_{name}"] = (m_mc - float(mu[idx])) / se_mean
        zscores[f"var_{name}"] = (v_mc - var_an[idx]) / (var_an[idx] * math.sqrt(2.0 / (n - 1)))
        # KS against the analytic normal marginal
        sd = math.sqrt(var_an[idx])
        u = np.sort((x - mu[idx]) / sd)
        cdf = ndtr(u)
        grid = np.arange(1, n + 1) / n
        D = float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / n))))
        ks[name] = float(kolmogorov(D * (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))))
    passed = all(abs(z) <= 4.0 for z in zscores.values()) and all(p >= 1e-3 for p in ks.values())
    return {"zscores": zscores, "ks": ks, "pass": passed}


def budget_brownian_check(
    T: int = 10000,
    seed: int = 0,
    sigma_bar_sq: float = 1.0,
    n_reps: int = 1,
) -> dict:
    """Sanity check of the relaxed intertemporal budget construction.

    Consumption follows a unit-variance Gaussian random walk and revenue
    carries an independent unit innovation per period, so the per-period
    budget increments ``C(t) - C(t+1) + Y(t+1)/T`` form a white sequence
    of variance 2.  The aggregate budget gap is forced to a
    ``N(0, sigma_bar_sq)`` slack (distributed uniformly over periods);
    with ``sigma_bar_sq = 0`` the residual is identically zero.
    """
    if T < 2:
        raise ParameterError(f"T must be >= 2, got {T}")
    if sigma_bar_sq < 0.0:
        raise ParameterError(f"sigma_bar_sq must be >= 0, got {sigma_bar_sq}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    steps = rng.standard_normal((n_reps, T))
    xi = rng.standard_normal((n_reps, T))
    slack = (
        rng.normal(0.0, math.sqrt(sigma_bar_sq), size=n_reps)
        if sigma_bar_sq > 0.0
        else np.zeros(n_reps)
    )
    C_levels = np.concatenate([np.zeros((n_reps, 1)), np.cumsum(steps, axis=1)], axis=1)
    Y = float(T) * xi
    gap0 = np.sum(Y, axis=1) - np.sum(C_levels[:, 1:], axis=1)
    Y = Y + ((slack - gap0) / T)[:, None]  # enforce the (relaxed) budget
    residual = np.sum(Y, axis=1) - np.sum(C_levels[:, 1:], axis=1)
    increments = C_levels[:, :-1] - C_levels[:, 1:] + Y / T
    d = increments - np.mean(increments, axis=1, keepdims=True)
    variance = float(np.mean(np.sum(d * d, axis=1) / (T - 1)))
    num = np.sum(d[:, :-1] * d[:, 1:], axis=1) / (T - 1)
    den = np.sum(d * d, axis=1) / (T - 1)
    autocorr = float(np.mean(num / den))
    return {
        "variance": variance,
        "autocorr_lag1": autocorr,
        "residual_max_abs": float(np.max(np.abs(residual))),
        "n_increments": T * n_reps,
    }


def appendix5_negligibility(
    params: ModelParams,
    solution: PhaseSolution,
    r_values,
    T: float = 40.0,
    dt: float = 0.02,
    n_paths: int = 200,
    seed: int = 0,
) -> dict:
    """Size of the discounted-capital constraint term vs the retained weight.

    Simulates the phase Langevin system over a long horizon and compares
    the mean of ``(2 r_bar / nu^2) (int Kdot e^{-r s} ds)^2`` (with
    ``r_bar = 1 / int e^{-r s} ds``) against the mean magnitude of the
    consumption weight.  Returns the ratio per discount rate ``r``.

    Paths start at the anchor consumption/technology and at the capital
    stock where the capital drift vanishes (the relevant neighborhood for
    the negligibility claim), found by bisection.

    The term is small only near the weak-drift point (A0=1, gamma=0,
    kappa=0, r_c=0, varpi=0.05, nu=0.5, phase 0), where the ratios stay
    below 0.1.  At ``base.cfg``, phase 1, T=40, dt=0.02, 1000 paths and
    seed 12345 they are 7.76, 1.92, 0.71 and 0.22 for r = 0, 0.05, 0.1
    and 0.2: there the term is not negligible unless discounting is strong.
    """
    p = params
    eps = p.epsilon
    C_bar, A_bar = solution.C_bar_phase, solution.A_bar_phase
    n_steps = round(T / dt)

    def k_drift(k):
        return A_bar * k ** eps - C_bar - p.delta * k

    # the stable root lies above the drift maximum at (A_bar eps/delta)^(1/(1-eps))
    lo = (A_bar * eps / p.delta) ** (1.0 / (1.0 - eps))
    if k_drift(lo) <= 0.0:
        raise DomainError("capital drift has no stable positive root")
    hi = 2.0 * lo
    while k_drift(hi) > 0.0:
        hi *= 2.0
        if hi > 1e15:
            raise DomainError("capital drift has no stable positive root")
    from scipy.optimize import brentq

    K_eq = brentq(k_drift, lo, hi, xtol=1e-12)

    times = dt * np.arange(n_steps)
    rates = [float(r) for r in r_values]
    disc = np.ones((n_steps, len(rates)))  # e^{-r s} per step and rate; r <= 0 undiscounted
    for c, r in enumerate(rates):
        if r > 0:
            disc[:, c] = np.exp(-r * times)
    I = np.zeros((len(rates), n_paths))  # running sums of Kdot e^{-r s} per rate
    weight_mag = np.zeros(n_paths)
    C = np.full(n_paths, C_bar)
    K = np.full(n_paths, K_eq)
    A = np.full(n_paths, A_bar)
    step = _euler_step(solution, p, dt)
    k = 0
    for noise in _path_noise(seed, 0, n_paths, n_steps, False):
        for z in noise:
            C_new, K_new, A_new, _, r_pt = step(C, K, A, z)
            cdot = (C_new - C) / dt
            weight_mag += (cdot - r_pt * (C - p.C_bar)) ** 2 / p.varpi ** 2 * dt
            I += disc[k][:, None] * ((K_new - K) / dt)
            C, K, A = C_new, K_new, A_new
            k += 1
    mean_weight = float(np.mean(weight_mag))
    ratios = {}
    for r, I_r in zip(rates, I):
        r_bar = r / (1.0 - math.exp(-r * T)) if r > 0 else 1.0 / T
        term = 2.0 * r_bar / p.nu ** 2 * (I_r * dt) ** 2
        ratios[r] = float(np.mean(term) / mean_weight)
    return ratios
