"""Langevin Monte Carlo oracle for the analytic transition kernels.

Convention: a path weight ``exp(-int (xdot - mu)^2 / w^2 dt)`` is
simulated as a diffusion with variance rate ``w^2`` per unit time, i.e.
noise amplitudes ``varpi``, ``nu`` and ``1/lambda`` for consumption,
capital and technology.  :func:`compare_to_green` checks the ensemble
against the sampler's own linear-noise approximation (:func:`lna_moments`):
the mean follows the sampler's nonlinear drift, and the covariance the
Lyapunov equation with the drift's Jacobian along that mean, both stepped
by the sampler's Heun rule.

Determinism: paths come in tiles of ``_TILE``; tile ``j`` draws its
noise step-major from the counter-based stream ``Philox(key=seed,
counter=[0, 0, j, 0])``, which is ``Philox(key=seed).jumped(j)``.  Blocks
are whole tiles and a partial last tile is simulated whole, so ensembles
are byte-identical for a fixed seed whatever the block size or
``n_paths``.

Integration: one Heun engine, :func:`_heun_paths`, serves
:func:`sample_paths` and :func:`appendix5_negligibility`.  It steps a
block's paths as one stacked (3, P) state in preallocated buffers, in
short sub-chunks that run without the clamp at ``K <= 0`` and rerun with
it when a step start or predictor reaches ``K <= 0``, so the numbers are
those of a clamped step-by-step loop.

Memory: noise is drawn in time chunks, and the noise and the engine's
buffers share one per-block budget (:func:`_chunk_steps`), and one block's
buffers are alive at a time, so memory grows with the block size, not the
horizon; a stream drawn in chunks gives the numbers it gives in one go.
The budget is 4 MiB up to 1024 paths (3 and 2 MiB ran 2-3% slower in
benchmark pairs) and 16 MiB at 4096 paths (4 MiB ran 1-5% slower there).

Imports: no SciPy.  The Kolmogorov-Smirnov comparison's module,
:mod:`cyclefield.ks`, is loaded inside :func:`compare_to_green`, so
importing this module does not compile its tables.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from cyclefield.errors import DomainError, InfeasiblePhaseError, ParameterError
from cyclefield.params import ModelParams, _finite
from cyclefield.paths import AgentState, check_horizon
from cyclefield.phases import PhaseSolution

_NOISE_BYTES = 4 * 2**20  # noise and Heun buffer budget of a block of up to 16 tiles
_TILE = 64  # paths per random stream
_SUB_STEPS = 32  # most Heun steps between two checks for K <= 0


def _check_integer(name: str, value, span: str, low: int, high: float = math.inf) -> None:
    """Raise :class:`ParameterError` unless ``value`` is an integer, not a bool, in ``[low, high)`` (``span``)."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and low <= int(value) < high):
        raise ParameterError(f"{name} must be an integer {span}, got {value!r}")


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo sampling configuration."""

    n_paths: int = 10000       # number of independent paths
    dt: float = 1e-2           # Heun step
    seed: int = 0              # Philox key of every tile stream

    def __post_init__(self):
        _check_integer("n_paths", self.n_paths, ">= 1", 1)
        dt = self.dt
        if isinstance(dt, bool) or not (isinstance(dt, numbers.Real) and _finite(dt) and dt > 0):
            raise ParameterError(f"dt must be a finite positive number, got {self.dt!r}")
        _check_integer("seed", self.seed, "in [0, 2**128)", 0, 2**128)


@dataclass
class PathEnsemble:
    """Endpoint ensemble of a Langevin simulation."""

    C: np.ndarray              # endpoint consumption, shape (n_paths,)
    K: np.ndarray              # endpoint capital, shape (n_paths,)
    A: np.ndarray              # endpoint technology, shape (n_paths,)
    t: float                   # horizon
    dt: float                  # Heun step used
    seed: int                  # Philox key used
    n_negative_K: int = 0      # paths that visited K <= 0 (flagged, retained)

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


def _chunk_steps(n_tiles: int, n_steps: int) -> tuple[int, int]:
    """Steps per noise chunk and per Heun sub-chunk of a block: ``(chunk, sub)``.

    The budget is ``_NOISE_BYTES`` up to 16 tiles and grows with the block
    to 4 times that at 64, so blocks of 1024 to 4096 paths get the same
    chunks.  Per path, noise takes 24 bytes a step, and :func:`_heun_paths`'
    buffers 80 per sub-chunk step (states, predictors, noise, rates) and 88
    besides (end state, D, E, predictor's rate, work): at most about half
    of what the noise would take alone, and the noise gets the rest.  1-step
    sub-chunks at <= 16 steps are deliberate: 10-step ones ran ~15% slower.
    """
    budget, n = _NOISE_BYTES * min(max(n_tiles, 16), 64) // 16, n_tiles * _TILE
    alone = min(n_steps, budget // (24 * n))  # noise steps the budget holds without the buffers
    sub = max(1, min(_SUB_STEPS, (24 * alone - 88) // 160))
    return max(1, min(n_steps, (budget - n * (88 + 80 * sub)) // (24 * n))), sub


def _tile_noise(seed: int, tile: int, n_tiles: int, n_steps: int, chunk: int):
    """Noise for tiles [tile, tile+n_tiles) in consecutive time chunks.

    Yields views of shape ``(m, n_tiles, _TILE, 3)``, ``m <= chunk``,
    covering steps ``[k, k+m)`` in order; each view is overwritten by the
    next one.  One Philox generator is re-pointed at each tile's stream and
    fills the tile's chunk in one call.
    """
    buf = np.empty((n_tiles, chunk, _TILE, 3))
    rng = np.random.Generator(np.random.Philox(key=seed))
    bitgen = rng.bit_generator
    start = bitgen.state  # counter [0, 0, 0, 0], empty output buffer
    states = [None] * n_tiles  # each tile's state after its last chunk
    for k in range(0, n_steps, chunk):
        m = min(chunk, n_steps - k)
        for j in range(n_tiles):
            start["state"]["counter"][2] = tile + j  # the tile's first chunk starts from start
            bitgen.state = states[j] or start
            rng.standard_normal(out=buf[j, :m])
            if k + m < n_steps:
                states[j] = bitgen.state
        yield buf[:, :m].swapaxes(0, 1)


def _drift(solution: PhaseSolution, params: ModelParams):
    """Nonlinear drift of the phase Langevin system, on a block of paths.

    ``dC = (A F'(K) + r_c)(C - C_bar_phase)``, ``dK = A F(K) - C - delta K``,
    ``dA = -(A - A_bar_phase)/(2 lambda^2)`` with ``F = K^eps`` and
    ``F' = eps F / K`` clamped to zero where ``K <= 0``.  ``drift(C, K, A,
    dC, dK, dA, rate, work, clamp)`` reads a (3, P) state's rows and writes
    the rates, ``A F' + r_c`` and a temporary into (P,) buffers; it returns
    the mask ``K > 0``, or None with ``clamp=False``, which skips the clamp
    and changes nothing while every ``K > 0``.
    """
    eps, r_c, delta, C_bar, A_bar, relax_A = map(np.array, (  # 0-d arrays: no conversion per call
        params.epsilon, params.r_c, params.delta,
        solution.C_bar_phase, solution.A_bar_phase, 1.0 / (2.0 * params.lambda_sq),
    ))
    add, subtract, multiply, divide, power = np.add, np.subtract, np.multiply, np.divide, np.power

    def drift(C, K, A, dC, dK, dA, rate, work, clamp):
        if clamp:
            pos = K > 0.0
            Kp = np.maximum(K, 5e-324)  # K where K > 0, else the least positive double (masked below)
            F = Kp ** eps * pos
        else:
            pos, Kp = None, K
            F = power(K, eps, work)
        multiply(eps, F, rate)
        divide(rate, Kp, rate)
        multiply(rate, A, rate)
        add(rate, r_c, rate)
        multiply(subtract(C, C_bar, dC), rate, dC)
        subtract(multiply(A, F, dK), C, dK)
        subtract(dK, multiply(delta, K, work), dK)
        multiply(subtract(A_bar, A, dA), relax_A, dA)
        return pos

    return drift


def _drift_and_jacobian(solution: PhaseSolution, params: ModelParams):
    """The rates of :func:`_drift` and its Jacobian at one state, in plain floats.

    ``f(C, K, A)``, for ``K > 0``, gives ``(dC, dK, dA, jCC, jCK, jCA, jKK,
    jKA, jAA)``: the rates by :func:`_drift`'s IEEE operations in its order,
    and the Jacobian ``[[jCC, jCK, jCA], [-1, jKK, jKA], [0, 0, jAA]]``
    (``green._drift_matrix`` at the phase anchor).  Python's ``**`` is
    NumPy's scalar power (its array ``power`` differs in the last bit for
    ~5% of inputs); where ``K**(eps-1)`` overflows, ``F'`` is ``inf`` as
    with NumPy.
    """
    eps, r_c, delta, eps_1 = params.epsilon, params.r_c, params.delta, params.epsilon - 1.0
    C_bar, A_bar, relax_A = solution.C_bar_phase, solution.A_bar_phase, 1.0 / (2.0 * params.lambda_sq)

    def f(C, K, A):
        F = K ** eps
        try:
            Fp = eps * K ** eps_1
        except OverflowError:
            Fp = math.inf
        gap, AFp = C - C_bar, A * Fp
        return (gap * (eps * F / K * A + r_c), A * F - C - delta * K, (A_bar - A) * relax_A,
                AFp + r_c, AFp * eps_1 / K * gap, Fp * gap, AFp - delta, F, -relax_A)

    return f


def check_feasible(solution: PhaseSolution) -> None:
    """Raise :class:`InfeasiblePhaseError`, naming the phase's anchor, unless the phase is feasible."""
    if not solution.feasible:
        anchor = f"C_bar_phase={solution.C_bar_phase:.6g}, A_bar_phase={solution.A_bar_phase:.6g}"
        raise InfeasiblePhaseError(f"phase {solution.phase} is infeasible; its anchor is {anchor}")


def _step_count(t: float, dt: float) -> tuple[float, int]:
    """``t`` as a float, and its number of steps ``dt``; raises unless ``t`` is a positive multiple of ``dt``."""
    x = check_horizon(t)
    n_steps = round(x / dt)
    if n_steps < 1 or abs(x / dt - n_steps) > 1e-9 * n_steps:
        raise ParameterError(f"horizon t={t} is not an integer multiple of dt={dt}")
    return x, n_steps


def _heun_paths(start, solution: PhaseSolution, params: ModelParams, dt: float, seed: int,
                tile: int, n_tiles: int, n_steps: int, ok=None):
    """Stochastic Heun paths of the phase Langevin system (:func:`_drift`).

    An Euler predictor, then the trapezoidal drift, with the same Gaussian
    increment in both: with the constant noise amplitudes ``varpi, nu,
    1/lambda`` this has weak order 2 (Kloeden & Platen 1992, sec. 15.1).

    Steps the ``P = n_tiles * _TILE`` paths of tiles ``[tile, tile+n_tiles)``
    from ``start = (C, K, A)`` as one (3, P) state in buffers allocated
    once, in sub-chunks of at most ``_SUB_STEPS`` steps.  A sub-chunk first
    runs without the clamp at ``K <= 0``; if the least ``K`` over its step
    starts and predictors is not positive (or is NaN), it reruns from its
    start with the clamp, clearing ``ok`` (if given, shape (P,)) on the paths
    with ``K <= 0`` at a step start or predictor.  The buffers and the noise
    share the block's budget (:func:`_chunk_steps`).

    Yields per sub-chunk of ``m`` steps ``X`` (m+1, 3, P), the states at the
    step starts and at the end, ``R`` (m, P), the rates ``A F' + r_c`` at the
    step starts, and ``spare`` (3m, P), the spent noise buffer, free for
    the caller.  All three are overwritten by the next sub-chunk.
    """
    drift = _drift(solution, params)
    sdt = math.sqrt(dt)
    amps = np.array([params.varpi * sdt, params.nu * sdt, sdt / params.lam])[:, None, None]
    dt, half = np.array(dt), np.array(0.5 * dt)  # 0-d: no conversion per call
    n = n_tiles * _TILE
    chunk, sub = _chunk_steps(n_tiles, n_steps)
    X, Xp, W = (np.empty((m, 3, n)) for m in (sub + 1, sub, sub))
    R = np.empty((sub, n))
    (D, E), (r_p, work) = np.empty((2, 3, n)), np.empty((2, n))
    X[0] = np.reshape(start, (3, 1))
    # each step's arrays and drift arguments, made once
    plan = [(x, xp, w, x_new, (*x, *D, r), (*xp, *E, r_p)) for x, xp, w, x_new, r in zip(X, Xp, W, X[1:], R)]
    add, multiply = np.add, np.multiply

    def steps(m, clamp):
        for x, xp, w, x_new, at_x, at_xp in plan[:m]:
            pos = drift(*at_x, work, clamp)
            add(add(multiply(D, dt, xp), x, xp), w, xp)
            pos_p = drift(*at_xp, work, clamp)
            add(add(x, multiply(add(E, D, E), half, E), x_new), w, x_new)
            if clamp and ok is not None:
                np.logical_and(ok, pos & pos_p, out=ok)

    for noise in _tile_noise(seed, tile, n_tiles, n_steps, chunk):
        for j in range(0, len(noise), sub):
            z = noise[j:j + sub]
            m = len(z)
            np.multiply(z.transpose(0, 3, 1, 2), amps, out=W[:m].reshape(m, 3, n_tiles, _TILE))
            clamp = not X[0, 1].min() > 0.0  # a start at K <= 0 fails the check below
            if not clamp:
                with np.errstate(invalid="ignore"):  # K**eps at K < 0; any such step reruns
                    steps(m, False)
                clamp = not min(X[:m, 1].min(), Xp[:m, 1].min()) > 0.0
            if clamp:
                steps(m, True)
            yield X[:m + 1], R[:m], W[:m].reshape(3 * m, n)
            X[0] = X[m]


def sample_paths(
    initial: AgentState,
    t: float,
    solution: PhaseSolution,
    params: ModelParams,
    mc: MCConfig,
    block_size: int = 4096,
) -> PathEnsemble:
    """Stochastic Heun sample of the phase Langevin system (:func:`_heun_paths`).

    Paths run in blocks of whole tiles (``block_size`` is rounded up to a
    multiple of ``_TILE``); a partial last tile is simulated whole and
    truncated, so the first paths of an ensemble do not depend on
    ``n_paths``.  Negative-capital excursions are flagged and retained,
    never reflected or killed.
    """
    _check_integer("block_size", block_size, ">= 1", 1)
    t, n_steps = _step_count(t, mc.dt)

    n = mc.n_paths
    n_tiles, per_block = -(-n // _TILE), -(-block_size // _TILE)
    out = np.empty((3, n_tiles * _TILE))
    ok = np.ones(n_tiles * _TILE, dtype=bool)
    start = (initial.C, initial.K, initial.A)
    for first in range(0, n_tiles, per_block):
        count = min(per_block, n_tiles - first)
        sl = slice(first * _TILE, (first + count) * _TILE)
        for X, _, _ in _heun_paths(start, solution, params, mc.dt, mc.seed, first, count, n_steps, ok[sl]):
            pass
        out[:, sl] = X[-1]  # the last sub-chunk's end
        ok[sl] &= X[-1, 1] > 0.0
        del X, _  # views of the block's buffers: free them before the next block allocates
    C, K, A = out[:, :n]
    n_negative_K = n - int(np.count_nonzero(ok[:n]))
    return PathEnsemble(C=C, K=K, A=A, t=t, dt=mc.dt, seed=mc.seed, n_negative_K=n_negative_K)


def lna_moments(initial: AgentState, t: float, dt: float, solution: PhaseSolution, params: ModelParams):
    """Mean and covariance of the sampler at ``t`` in the linear-noise approximation.

    van Kampen's LNA: the mean follows the sampler's drift (:func:`_drift`)
    without noise, and the covariance solves ``dV/dt = J V + V J^T + Q``
    from ``V(0) = 0``, with ``J`` the Jacobian of the drift along that mean
    (:func:`_drift_and_jacobian`) and ``Q = diag(varpi^2, nu^2, 1/lambda^2)``
    the sampler's noise.  Both are stepped together by the sampler's Heun
    rule at step ``dt``, in plain floats: the mean and the six independent
    entries of ``V``, so ``V`` is symmetric bit for bit.  Each product is
    rounded on its own, so the moments do not depend on the BLAS build (a
    BLAS matrix product may fuse multiply-adds).  Returns ``(mean,
    cov)``; raises :class:`DomainError`, naming the step, if the mean
    reaches ``K <= 0`` or a moment stops being finite, and
    :class:`ParameterError` for a step :class:`MCConfig` refuses.
    """
    MCConfig(dt=dt)
    t, n_steps = _step_count(t, dt)
    f = _drift_and_jacobian(solution, params)
    q_C, q_K, q_A = params.varpi ** 2, params.nu ** 2, 1.0 / params.lambda_sq

    def rates(C, K, A, V, k):
        """The drift, and ``J V + V J^T + Q`` as ``V``'s entries CC, CK, CA, KK, KA, AA."""
        if not K > 0.0:
            raise DomainError(f"the linear-noise mean reached K = {K:.6g} <= 0 at step {k} of {n_steps}")
        dC, dK, dA, a, b, c, d, e, g = f(C, K, A)
        cc, ck, ca, kk, ka, aa = V
        # (J V)_ij, row i of J = [[a, b, c], [-1, d, e], [0, 0, g]] on column j of V, summed left
        # to right; the zeros stay, so a non-finite V gives NaN where the matrix product does
        CC, CK, CA = a * cc + b * ck + c * ca, a * ck + b * kk + c * ka, a * ca + b * ka + c * aa
        KC, KK, KA = -cc + d * ck + e * ca, -ck + d * kk + e * ka, -ca + d * ka + e * aa
        AC, AK, AA = 0.0 * cc + 0.0 * ck + g * ca, 0.0 * ck + 0.0 * kk + g * ka, 0.0 * ca + 0.0 * ka + g * aa
        return dC, dK, dA, (CC + CC + q_C, CK + KC, CA + AC, KK + KK + q_K, KA + AK, AA + AA + q_A)

    C, K, A, V, half = initial.C, initial.K, initial.A, (0.0,) * 6, 0.5 * dt
    for k in range(1, n_steps + 1):
        fC, fK, fA, G = rates(C, K, A, V, k)
        pC, pK, pA, G_p = rates(C + fC * dt, K + fK * dt, A + fA * dt, [v + g * dt for v, g in zip(V, G)], k)
        C, K, A = C + (fC + pC) * half, K + (fK + pK) * half, A + (fA + pA) * half
        V = [v + (g + g_p) * half for v, g, g_p in zip(V, G, G_p)]
        if not all(map(math.isfinite, (C, K, A, *V))):
            cc, ck, ca, kk, ka, aa = V
            moments = (C, K, A, cc, ck, ca, ck, kk, ka, ca, ka, aa)
            names = [*"CKA", *(f"cov({a}, {b})" for a in "CKA" for b in "CKA")]
            bad = ", ".join(f"{name} = {v:.6g}" for name, v in zip(names, moments) if not math.isfinite(v))
            raise DomainError(f"the linear-noise moments are not finite after step {k} of {n_steps}: {bad}")
    rates(C, K, A, V, n_steps)  # the endpoint must keep K > 0 too
    cc, ck, ca, kk, ka, aa = V
    return np.array([C, K, A]), np.array([[cc, ck, ca], [ck, kk, ka], [ca, ka, aa]])


def compare_to_green(
    ensemble: PathEnsemble,
    initial: AgentState,
    solution: PhaseSolution,
    params: ModelParams,
) -> dict:
    """Compare an ensemble against its linear-noise Gaussian marginals.

    The reference is :func:`lna_moments` from ``initial`` over the
    ensemble's horizon at the ensemble's step.  Returns per-coordinate
    z-scores for mean and variance, Kolmogorov-Smirnov p-values of the
    standardised coordinates against N(0, 1) (:func:`cyclefield.ks.normal_ks`,
    with ``scipy.special``'s bits), and an overall verdict (all |z| <= 4 and
    all p >= 1e-3; a NaN p fails).  Raises
    :class:`ParameterError` for fewer than two paths, whose variance is
    undefined.
    """
    n = ensemble.n_paths
    if n < 2:
        raise ParameterError(f"comparing moments needs at least 2 paths, got {n}")
    from cyclefield.ks import normal_ks

    mu, cov = lna_moments(initial, ensemble.t, ensemble.dt, solution, params)
    var_an = np.diag(cov)
    sample = ensemble.moments()
    zscores: dict[str, float] = {}
    ks: dict[str, float] = {}
    for idx, (name, x) in enumerate(zip("CKA", (ensemble.C, ensemble.K, ensemble.A))):
        m_mc, v_mc = sample["mean"][name], sample["var"][name]
        se_mean = math.sqrt(v_mc / n)
        zscores[f"mean_{name}"] = (m_mc - float(mu[idx])) / se_mean
        zscores[f"var_{name}"] = (v_mc - var_an[idx]) / (var_an[idx] * math.sqrt(2.0 / (n - 1)))
        # KS against the analytic normal marginal
        z = np.subtract(x, mu[idx])
        z /= math.sqrt(var_an[idx])
        z.sort()
        ks[name] = normal_ks(z)[1]
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
    MCConfig(seed=seed)
    if isinstance(T, bool) or not isinstance(T, (int, np.integer)) or T < 2:
        raise ParameterError(f"T must be >= 2, got {T}")
    real = isinstance(sigma_bar_sq, numbers.Real) and not isinstance(sigma_bar_sq, bool)
    if not (real and 0.0 <= sigma_bar_sq < math.inf):  # NaN fails
        raise ParameterError(f"sigma_bar_sq must be finite and >= 0, got {sigma_bar_sq}")
    _check_integer("n_reps", n_reps, ">= 1", 1)
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
    consumption weight.  Returns the ratio per discount rate ``r``; a rate
    that is a bool or not a finite real number raises :class:`ParameterError`.

    Paths start at the anchor consumption/technology and at the capital
    stock where the capital drift vanishes (the relevant neighborhood for
    the negligibility claim), found by Newton steps with the slope of
    :func:`_drift_and_jacobian`.  An infeasible phase raises
    :class:`InfeasiblePhaseError`, as ``mc-validate`` does; a drift with no
    positive root, or a drift maximum above 1e300, raises
    :class:`DomainError`.

    The term is small only near the weak-drift point (A0=1, gamma=0,
    kappa=0, r_c=0, varpi=0.05, nu=0.5, phase 0), where the ratios stay
    below 0.1.  At ``base.cfg``, phase 1, T=40, dt=0.02, 1000 paths and
    seed 12345 they are 7.54, 1.91, 0.72 and 0.22 for r = 0, 0.05, 0.1
    and 0.2: there the term is not negligible unless discounting is strong.
    """
    MCConfig(n_paths=n_paths, dt=dt, seed=seed)
    rates = list(r_values)
    for r in rates:
        if isinstance(r, bool) or not (isinstance(r, numbers.Real) and _finite(r)):
            raise ParameterError(f"discount rate must be a finite real number, got {r!r}")
    check_feasible(solution)
    p = params
    C_bar, A_bar, eps = solution.C_bar_phase, solution.A_bar_phase, p.epsilon
    T, n_steps = _step_count(T, dt)

    # the stable root lies right of the drift maximum at lo, where the drift
    # is concave: Newton steps from a doubling of lo fall monotonically onto it
    try:
        lo = (max(A_bar, 0.0) * eps / p.delta) ** (1.0 / (1.0 - eps))
    except OverflowError:
        lo = math.inf
    if lo > 1e300:  # overflowed, or too near the largest double to bracket the root
        raise DomainError(f"the capital drift maximum (A_bar eps/delta)^(1/(1-eps)) exceeds 1e300 at eps={eps}")
    f = _drift_and_jacobian(solution, p)
    if not (lo > 0.0 and f(C_bar, lo, A_bar)[1] > 0.0):  # A_bar <= 0 gives lo = 0
        raise DomainError("capital drift has no stable positive root")
    K_eq = 2.0 * lo
    while f(C_bar, K_eq, A_bar)[1] > 0.0:  # ends below twice the root
        K_eq *= 2.0
    while True:
        _, dK, _, _, _, _, jKK, _, _ = f(C_bar, K_eq, A_bar)
        step = dK / jKK
        if not step > 0.0 or K_eq - step == K_eq:
            break
        K_eq -= step

    rates = [float(r) for r in rates]
    # e^{-r s} per step and rate; r <= 0 undiscounted
    disc = np.exp(-np.outer(dt * np.arange(n_steps), np.maximum(rates, 0.0)))
    n_tiles = -(-n_paths // _TILE)  # whole tiles, truncated to n_paths below
    I = np.zeros((len(rates), n_tiles * _TILE))  # running sums of Kdot e^{-r s} per rate
    weight_mag = np.zeros(n_tiles * _TILE)
    k = 0
    for X, R, spare in _heun_paths((C_bar, K_eq, A_bar), solution, p, dt, seed, 0, n_tiles, n_steps):
        # each step's terms in rows 1..m under the running sum, added row by
        # row in step order by the axis-0 reduction
        m = len(R)
        rows, diff = spare[:m + 1], spare[m + 1:2 * m + 1]
        C, K = X[:, 0], X[:, 1]
        term = np.subtract(C[1:], C[:-1], out=rows[1:])  # (cdot - r (C - C_bar))^2 / varpi^2 dt
        term /= dt
        np.subtract(C[:-1], p.C_bar, out=diff)
        diff *= R
        term -= diff
        term *= term
        term /= p.varpi ** 2
        term *= dt
        rows[0] = weight_mag
        np.add.reduce(rows, axis=0, out=weight_mag)
        kdot = np.subtract(K[1:], K[:-1], out=diff)
        kdot /= dt
        for d, I_r in zip(disc[k:k + m].T, I):  # Kdot e^{-r s}
            np.multiply(d[:, None], kdot, out=rows[1:])
            rows[0] = I_r
            np.add.reduce(rows, axis=0, out=I_r)
        k += m
    mean_weight = float(np.mean(weight_mag[:n_paths]))
    ratios = {}
    for r, I_r in zip(rates, I):
        r_bar = r / (1.0 - math.exp(-r * T)) if r > 0 else 1.0 / T
        term = 2.0 * r_bar / p.nu ** 2 * (I_r[:n_paths] * dt) ** 2
        ratios[r] = float(np.mean(term) / mean_weight)
    return ratios
