import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cyclefield import green, montecarlo as mc
from cyclefield.errors import CycleFieldError, DomainError, InfeasiblePhaseError, ParameterError
from cyclefield.params import ModelParams, load_config
from cyclefield.paths import AgentState
from cyclefield.phases import solve_phase

BASE_CFG = str(Path(__file__).resolve().parent.parent / "base.cfg")


@pytest.fixture(scope="module")
def quiet_setup():
    """A trivial-phase setup without interactions, used throughout."""
    p = ModelParams().replace(A0=1.0, gamma=0.0)
    sol = solve_phase(p, 0)
    x0 = AgentState(C=sol.C_bar_phase, K=p.K_bar, A=sol.A_bar_phase)
    return p, sol, x0


class TestConfig:
    def test_validation(self):
        # n_paths=2.5 and True constructed, and dt="x" raised a TypeError
        for bad in ({"n_paths": 0}, {"n_paths": 2.5}, {"n_paths": True}, {"dt": -0.1}, {"dt": "x"}):
            with pytest.raises(ParameterError, match=next(iter(bad))):
                mc.MCConfig(**bad)

    @pytest.mark.parametrize("dt", [True, False, np.True_, "0.01", None, 0.0, -0.1, math.nan, math.inf])
    def test_step_must_be_a_positive_number(self, dt):
        # True was stored as the step
        with pytest.raises(ParameterError) as excinfo:
            mc.MCConfig(dt=dt)
        assert str(excinfo.value) == f"dt must be a finite positive number, got {dt!r}"

    @pytest.mark.parametrize("dt", [0.01, 1, np.float32(0.01), np.float64(0.01)])
    def test_real_steps_accepted_as_given(self, dt):
        assert mc.MCConfig(dt=dt).dt is dt

    @pytest.mark.parametrize("t", [True, "0.1"])
    def test_horizon_must_be_a_number(self, quiet_setup, t):
        p, sol, x0 = quiet_setup
        with pytest.raises(DomainError) as excinfo:
            mc.sample_paths(x0, t, sol, p, mc.MCConfig(n_paths=2, dt=1e-3))
        assert str(excinfo.value) == f"t must be finite and > 0, got {t!r}"

    @pytest.mark.parametrize("block_size", [0, -64, True, 2.5, "64"])
    def test_block_size_must_be_a_positive_integer(self, quiet_setup, block_size):
        # -64 returned uninitialised memory as endpoints, 0 a bare ValueError
        p, sol, x0 = quiet_setup
        with pytest.raises(ParameterError, match="block_size"):
            mc.sample_paths(x0, 0.02, sol, p, mc.MCConfig(n_paths=2), block_size=block_size)

    @pytest.mark.parametrize("bad", [{"n_paths": 0}, {"n_paths": 2.5}, {"dt": 0.0}, {"dt": "x"}])
    def test_appendix5_checks_its_config(self, quiet_setup, bad):
        # n_paths=0 divided by zero
        p, sol, _ = quiet_setup
        with pytest.raises(ParameterError, match=next(iter(bad))):
            mc.appendix5_negligibility(p, sol, [0.0], **{"T": 0.1, "dt": 0.02, "n_paths": 2, **bad})

    @pytest.mark.parametrize("seed", [-1, 2**128, 1.0, True, "1"])
    def test_seed_outside_philox_keys_rejected(self, quiet_setup, seed):
        # Philox raised a bare ValueError for -1 and 2**128
        p, sol, _ = quiet_setup
        with pytest.raises(ParameterError, match="seed"):
            mc.MCConfig(seed=seed)
        with pytest.raises(ParameterError, match="seed"):
            mc.appendix5_negligibility(p, sol, [0.0], T=0.1, dt=0.02, n_paths=2, seed=seed)
        with pytest.raises(ParameterError, match="seed"):
            mc.budget_brownian_check(T=10, seed=seed)

    def test_seed_range_ends_accepted(self, quiet_setup):
        p, sol, x0 = quiet_setup
        for seed in (0, 2**128 - 1, np.uint64(2**64 - 1)):
            ens = mc.sample_paths(x0, 0.02, sol, p, mc.MCConfig(n_paths=2, seed=seed))
            assert ens.n_paths == 2
        mc.appendix5_negligibility(p, sol, [0.0], T=0.1, dt=0.02, n_paths=2, seed=2**128 - 1)

    def test_horizon_must_align_with_step(self, quiet_setup):
        # one step count serves the sampler, appendix 5 and the linear-noise
        # reference; T = 1 at dt = 0.3 would simulate 0.9
        p, sol, x0 = quiet_setup
        with pytest.raises(ParameterError):
            mc.sample_paths(x0, 0.1234, sol, p, mc.MCConfig(n_paths=2, dt=1e-3))
        with pytest.raises(DomainError):
            mc.sample_paths(x0, 0.0, sol, p, mc.MCConfig(n_paths=2, dt=1e-3))
        with pytest.raises(ParameterError):
            mc.appendix5_negligibility(p, sol, [0.0], T=1.0, dt=0.3, n_paths=2)
        with pytest.raises(ParameterError):
            mc.lna_moments(x0, 0.1234, 1e-3, sol, p)


class TestDeterminism:
    def test_identical_seeds_identical_ensembles(self, quiet_setup):
        p, sol, x0 = quiet_setup
        cfg = mc.MCConfig(n_paths=200, dt=1e-2, seed=11)
        a = mc.sample_paths(x0, 0.1, sol, p, cfg)
        b = mc.sample_paths(x0, 0.1, sol, p, cfg)
        np.testing.assert_array_equal(a.C, b.C)
        np.testing.assert_array_equal(a.K, b.K)
        np.testing.assert_array_equal(a.A, b.A)

    def test_block_size_invariance(self, quiet_setup):
        # tile-keyed streams and whole-tile blocks: the scheduling block
        # cannot matter
        p, sol, x0 = quiet_setup
        cfg = mc.MCConfig(n_paths=300, dt=1e-2, seed=5)
        whole = mc.sample_paths(x0, 0.1, sol, p, cfg, block_size=4096)
        for block_size in (7, 64):
            part = mc.sample_paths(x0, 0.1, sol, p, cfg, block_size=block_size)
            for name in "CKA":
                np.testing.assert_array_equal(getattr(part, name), getattr(whole, name))

    def test_first_paths_independent_of_n_paths(self, quiet_setup):
        # a partial last tile is simulated whole and truncated
        p, sol, x0 = quiet_setup
        few = mc.sample_paths(x0, 0.1, sol, p, mc.MCConfig(n_paths=100, dt=1e-2, seed=5))
        many = mc.sample_paths(x0, 0.1, sol, p, mc.MCConfig(n_paths=300, dt=1e-2, seed=5))
        assert few.n_paths == 100
        for name in "CKA":
            np.testing.assert_array_equal(getattr(few, name), getattr(many, name)[:100])

    def test_different_seeds_differ(self, quiet_setup):
        p, sol, x0 = quiet_setup
        a = mc.sample_paths(x0, 0.1, sol, p, mc.MCConfig(n_paths=50, dt=1e-2, seed=1))
        b = mc.sample_paths(x0, 0.1, sol, p, mc.MCConfig(n_paths=50, dt=1e-2, seed=2))
        assert not np.array_equal(a.C, b.C)


def _reference_noise(seed, tile, n_steps):
    """Tile ``tile``'s noise as one step-major draw from its own jumped Philox stream."""
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(tile))
    return rng.standard_normal((n_steps, mc._TILE, 3))


def _traced(fn):
    """``fn()`` and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNoiseStreams:
    """Tile j draws the stream Philox(key=seed).jumped(j), whatever the chunking."""

    def _check(self, seed, tile, n_tiles, n_steps, chunk):
        chunks = [c.copy() for c in mc._tile_noise(seed, tile, n_tiles, n_steps, chunk)]
        noise = np.concatenate(chunks, axis=0)
        assert noise.shape == (n_steps, n_tiles, mc._TILE, 3)
        for j in range(n_tiles):
            ref = _reference_noise(seed, tile + j, n_steps)
            np.testing.assert_array_equal(noise[:, j], ref)
        return chunks

    def test_start_offset_beyond_32_bits(self):
        chunk, _ = mc._chunk_steps(2, 17)
        self._check(seed=2**40 + 1, tile=2**32 + 5, n_tiles=2, n_steps=17, chunk=chunk)

    def test_multi_chunk_horizon(self):
        chunks = self._check(seed=123, tile=10, n_tiles=2, n_steps=30, chunk=7)
        assert [c.shape[0] for c in chunks] == [7, 7, 7, 7, 2]
        self._check(seed=123, tile=11, n_tiles=2, n_steps=30, chunk=7)

    def test_budget_grows_with_block_to_64_tiles(self):
        # 4 MiB up to 16 tiles, then in proportion to 16 MiB at 64 tiles: one
        # (chunk, sub) from 1024 to 4096 paths, and shorter ones at 8192
        shapes = [mc._chunk_steps(n, 10**6) for n in (8, 16, 32, 64, 128)]
        assert shapes == [(231, 32), (87, 24), (87, 24), (87, 24), (41, 12)]

    @pytest.mark.parametrize(
        "n_tiles, n_steps, shape",
        [(8, 1000, (231, 32)), (16, 2000, (87, 24)), (64, 1000, (87, 24)), (29, 1000, (87, 24)),
         (64, 10, (10, 1)), (27, 10, (10, 1))],
        ids=["mc_long-sample", "appendix5", "mc-validate-block", "mc-validate-last",
             "mc_wide-block", "mc_wide-last"],
    )
    def test_shipped_block_shapes(self, n_tiles, n_steps, shape):
        # mc_long's 512 paths at t = 10; appendix 5's 1000 paths at T = 40,
        # dt = 0.02; mc-validate's default 10,000 paths at t = 10 and mc_wide's
        # 100,000 paths at t = 0.1, in 4096-path blocks and a last partial one
        assert mc._chunk_steps(n_tiles, n_steps) == shape

    def test_chunking_leaves_ensembles_unchanged(self, quiet_setup, monkeypatch):
        p, sol, x0 = quiet_setup
        cfg = mc.MCConfig(n_paths=100, dt=1e-2, seed=4)
        whole = mc.sample_paths(x0, 0.5, sol, p, cfg, block_size=64)
        monkeypatch.setattr(mc, "_NOISE_BYTES", 24 * mc._TILE * 3)
        chunked = mc.sample_paths(x0, 0.5, sol, p, cfg, block_size=64)
        for name in "CKA":
            np.testing.assert_array_equal(getattr(chunked, name), getattr(whole, name))

    def test_appendix5_ratios_pinned(self):
        # recorded with the Heun step on tile streams; chunking must not move them
        p = ModelParams().replace(
            A0=1.0, gamma=0.0, kappa=0.0, r_c=0.0, varpi=0.05, nu=0.5
        )
        sol = solve_phase(p, 0)
        ratios = mc.appendix5_negligibility(
            p, sol, [0.0, 0.01, 0.05], T=4.0, dt=0.02, n_paths=50, seed=2**40 + 3
        )
        expected = {0.0: 0.01643599264915741, 0.01: 0.01609069227726814, 0.05: 0.014823319973484149}
        assert ratios.keys() == expected.keys()
        for r, value in expected.items():
            assert ratios[r] == pytest.approx(value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("block_size", [64, 4096])
    def test_negative_capital_regime_pinned(self, block_size):
        # base.cfg phase 1 at t = 100: 94 of 256 paths reach K <= 0 and run
        # off to K ~ -1e10, so most sub-chunks take the clamped redo; the
        # endpoints are pinned byte for byte
        p = load_config(BASE_CFG)
        sol = solve_phase(p, 1)
        x0 = AgentState(C=sol.C_bar_phase, K=p.K_bar, A=sol.A_bar_phase)
        cfg = mc.MCConfig(n_paths=256, dt=1e-2, seed=3)
        ens = mc.sample_paths(x0, 100.0, sol, p, cfg, block_size=block_size)
        digest = hashlib.sha256(ens.C.tobytes() + ens.K.tobytes() + ens.A.tobytes()).hexdigest()
        assert digest == "db11b354e8ec79b1b21a35bfcaaaef809b39e64a4e6b826e6258851bfa23294c"
        assert ens.n_negative_K == 94

    def test_appendix5_ratios_pinned_at_base_cfg(self):
        # the docstring's and README's figures, bit for bit; at the shipped
        # budget the 2000 steps of 1024 paths cross several noise chunks, and
        # the tracemalloc peak is about 4.5 MB (17.1 MB at a 16 MiB budget)
        p = load_config(BASE_CFG)
        sol = solve_phase(p, 1)
        assert mc._chunk_steps(16, 2000) == (87, 24)
        mc.appendix5_negligibility(p, sol, [0.0], T=0.1, dt=0.02, n_paths=2, seed=1)  # warm-up
        ratios, peak = _traced(
            lambda: mc.appendix5_negligibility(
                p, sol, [0.0, 0.05, 0.1, 0.2], T=40.0, dt=0.02, n_paths=1000, seed=12345
            )
        )
        assert peak <= 6 * 10**6, peak
        assert {r: repr(v) for r, v in ratios.items()} == {
            0.0: "7.536926988801071",
            0.05: "1.9120521328673534",
            0.1: "0.7165379450153092",
            0.2: "0.22462705097703478",
        }
        a, b, c, d = (f"{v:.2f}" for v in ratios.values())
        quoted = f"{a}, {b}, {c} and {d} for r = 0, 0.05, 0.1 and 0.2"
        readme = (Path(BASE_CFG).parent / "README.md").read_text(encoding="utf-8")
        for text in (mc.appendix5_negligibility.__doc__, readme):
            assert quoted in " ".join(text.split())


class TestMemory:
    """Memory grows with the block size, not with the horizon."""

    def test_peak_does_not_grow_with_horizon(self, monkeypatch):
        monkeypatch.setattr(mc, "_NOISE_BYTES", 64 * 1024)
        p = ModelParams().replace(
            A0=1.0, gamma=0.0, kappa=0.0, r_c=0.0, varpi=0.05, nu=0.5
        )
        sol = solve_phase(p, 0)
        x0 = AgentState(C=sol.C_bar_phase, K=p.K_bar, A=sol.A_bar_phase)
        cfg = mc.MCConfig(n_paths=128, dt=1e-2, seed=1)
        # warm-up: first-call imports must not count as the short run's peak
        mc.appendix5_negligibility(p, sol, [0.0], T=0.1, dt=0.02, n_paths=2, seed=1)
        runs = {
            "sample_paths": lambda scale: mc.sample_paths(x0, 0.5 * scale, sol, p, cfg),
            "appendix5_negligibility": lambda scale: mc.appendix5_negligibility(
                p, sol, [0.0, 0.05], T=1.0 * scale, dt=0.02, n_paths=128, seed=1
            ),
        }
        for name, run in runs.items():
            short = _traced(lambda: run(1))[1]
            long = _traced(lambda: run(10))[1]
            assert long <= 1.5 * short, (name, short, long)

    def test_shipped_budget_peak(self):
        # mc-validate's sampler at phase 1, t = 10, 512 paths (1000 steps),
        # with no patch: about 4.4 MB at the shipped 4 MiB, 13.9 MB at 16 MiB
        # (the base.cfg pin checks appendix 5's peak)
        p = load_config(BASE_CFG)
        sol = solve_phase(p, 1)
        x0 = AgentState(C=sol.C_bar_phase, K=p.K_bar, A=sol.A_bar_phase)
        cfg = mc.MCConfig(n_paths=512, dt=1e-2, seed=0)
        mc.sample_paths(x0, 0.1, sol, p, cfg)  # warm-up
        peak = _traced(lambda: mc.sample_paths(x0, 10.0, sol, p, cfg))[1]
        assert peak <= 6 * 10**6, peak

    def test_one_block_alive_at_a_time(self):
        # four 1024-path blocks against one: beyond the endpoints and flags
        # (25 bytes a path), the later blocks may not add to the peak.  With
        # the finished block's buffers alive while the next one allocates it
        # was 787 kB over
        p = load_config(BASE_CFG)
        sol = solve_phase(p, 1)
        x0 = AgentState(C=sol.C_bar_phase, K=p.K_bar, A=sol.A_bar_phase)
        runs = {n: mc.MCConfig(n_paths=n, dt=1e-2, seed=3) for n in (1024, 4096)}
        mc.sample_paths(x0, 0.1, sol, p, runs[1024], block_size=1024)  # warm-up
        one, four = (_traced(lambda: mc.sample_paths(x0, 1.0, sol, p, cfg, block_size=1024))[1]
                     for cfg in runs.values())
        assert four - one <= 25 * 3072 + 16_000, (one, four)

    @pytest.mark.parametrize("n_paths", [128, 512])
    def test_saved_stream_state_is_small(self, monkeypatch, n_paths):
        # 50 steps in noise chunks of 11 or 1: every path's stream position
        # is saved between chunks.  The Heun engine's buffers share the
        # budget with the noise; beyond it a path may hold its state, its
        # coordinates and the step's temporaries, not a state dict.
        budget = 64 * 1024
        monkeypatch.setattr(mc, "_NOISE_BYTES", budget)
        p = ModelParams().replace(
            A0=1.0, gamma=0.0, kappa=0.0, r_c=0.0, varpi=0.05, nu=0.5
        )
        sol = solve_phase(p, 0)
        x0 = AgentState(C=sol.C_bar_phase, K=p.K_bar, A=sol.A_bar_phase)
        cfg = mc.MCConfig(n_paths=n_paths, dt=1e-2, seed=1)
        runs = {
            "sample_paths": lambda t: mc.sample_paths(x0, t, sol, p, cfg),
            "appendix5_negligibility": lambda t: mc.appendix5_negligibility(
                p, sol, [0.0, 0.05], T=t, dt=1e-2, n_paths=n_paths, seed=1
            ),
        }
        for name, run in runs.items():
            run(0.1)  # warm-up
            peak = _traced(lambda: run(0.5))[1]
            assert peak <= budget + 384 * n_paths, (name, peak)


class TestDynamics:
    def test_drift_equilibrium_is_fixed_point_without_noise(self):
        # noise amplitudes ~1e-12: the sampler must hold the drift root
        p = ModelParams().replace(
            A0=1.0, gamma=0.0, kappa=0.0, varpi=1e-12, nu=1e-12, lambda_sq=1e24
        )
        sol = solve_phase(p, 0)
        A_bar = sol.A_bar_phase

        def k_drift(k):
            return A_bar * k ** p.epsilon - sol.C_bar_phase - p.delta * k

        lo = (A_bar * p.epsilon / p.delta) ** (1.0 / (1.0 - p.epsilon))
        hi = 10.0 * lo
        from scipy.optimize import brentq

        K_eq = brentq(k_drift, lo, hi, xtol=1e-13)
        x0 = AgentState(C=sol.C_bar_phase, K=K_eq, A=A_bar)
        ens = mc.sample_paths(x0, 1.0, sol, p, mc.MCConfig(n_paths=3, dt=1e-2))
        np.testing.assert_allclose(ens.C, x0.C, atol=1e-9)
        np.testing.assert_allclose(ens.K, x0.K, atol=1e-9)
        np.testing.assert_allclose(ens.A, x0.A, atol=1e-9)

    def test_heun_weak_order_two(self):
        # deterministic limit: endpoint error vs a fine-step reference
        # shrinks with fitted order ~2 in dt
        p = ModelParams().replace(
            A0=1.0, gamma=0.0, kappa=0.0, varpi=1e-12, nu=1e-12, lambda_sq=1e24
        )
        sol = solve_phase(p, 0)
        x0 = AgentState(C=sol.C_bar_phase + 0.2, K=8.0, A=sol.A_bar_phase + 0.5)
        t = 0.8

        def endpoint(dt):
            ens = mc.sample_paths(x0, t, sol, p, mc.MCConfig(n_paths=1, dt=dt))
            return np.array([ens.C[0], ens.K[0], ens.A[0]])

        ref = endpoint(t / 3200)
        errs = [np.max(np.abs(endpoint(t / n) - ref)) for n in (10, 20, 40, 80)]
        order = np.polyfit(np.log([10, 20, 40, 80]), np.log(errs), 1)[0]
        assert -2.2 < order < -1.8

    @pytest.mark.parametrize("phase", [0, 1])
    def test_drift_jacobian_is_kernel_drift_matrix(self, phase, drift_jacobian):
        # one nonlinear sampler drift; its Jacobian at the phase anchor is
        # the kernels' drift matrix
        p = load_config(BASE_CFG)
        sol = solve_phase(p, phase)
        jac = drift_jacobian((sol.C_bar_phase, p.K_bar, sol.A_bar_phase), sol, p)
        np.testing.assert_allclose(jac, green._drift_matrix(sol, p), rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("phase", [0, 1])
    def test_drift_jacobian_matches_central_differences(self, phase, drift_jacobian):
        # away from the anchor, where the consumption row's K and A entries
        # do not vanish
        p = load_config(BASE_CFG)
        sol = solve_phase(p, phase)
        point = mc._drift_and_jacobian(sol, p)
        for x in ([1.3, 11.5, 9.0], [0.6, 7.0, 10.8], [2.5, 300.0, 9.9]):
            jac = np.empty((3, 3))
            for j in range(3):
                h = 1e-6 * x[j]
                up, down = list(x), list(x)
                up[j] += h
                down[j] -= h
                jac[:, j] = (np.array(point(*up)[:3]) - np.array(point(*down)[:3])) / (2.0 * h)
            np.testing.assert_allclose(drift_jacobian(x, sol, p), jac, rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("phase", [0, 1])
    def test_point_rates_are_the_block_drift(self, phase, clamp):
        # the plain-float rates at one state (the reference's mean, appendix 5's
        # root) against the block drift of the Heun engine, both clamp modes, on
        # a grid with K > 0.  They are == wherever NumPy's array power gives the
        # bits of the scalar ** (most states); elsewhere F = K**eps differs in
        # its last bit, and so may dC and dK.
        p = load_config(BASE_CFG)
        sol = solve_phase(p, phase)
        grid = np.meshgrid(np.linspace(0.0, 3.0, 7), np.geomspace(1e-3, 1e3, 41), np.linspace(8.0, 12.0, 5))
        C, K, A = (g.ravel() for g in grid)
        block = np.empty((5, C.size))  # dC, dK, dA, the rate A F' + r_c, work
        mc._drift(sol, p)(C, K, A, *block, clamp)
        point = mc._drift_and_jacobian(sol, p)
        rates = np.array([point(*x)[:3] for x in zip(C.tolist(), K.tolist(), A.tolist())]).T
        same = np.power(K, p.epsilon) == np.array([k ** p.epsilon for k in K.tolist()])
        assert same.mean() > 0.8
        np.testing.assert_array_equal(rates[:, same], block[:3, same])
        np.testing.assert_array_equal(rates[2], block[2])  # dA has no power
        F = K ** p.epsilon
        np.testing.assert_allclose(rates[0], block[0], rtol=1e-15, atol=0.0)
        scale = A * F + C + p.delta * K
        assert np.all(np.abs(rates[1] - block[1]) <= 4 * np.finfo(float).eps * scale)

    def test_variance_convention(self, quiet_setup):
        # Var(C(t)) ~ varpi^2 t at small horizons: the density convention
        p, sol, x0 = quiet_setup
        t = 0.05
        ens = mc.sample_paths(x0, t, sol, p, mc.MCConfig(n_paths=20000, dt=1e-3, seed=2))
        var_C = np.var(ens.C, ddof=1)
        assert var_C == pytest.approx(p.varpi ** 2 * t, rel=0.05)
        var_A = np.var(ens.A, ddof=1)
        assert var_A == pytest.approx(t / p.lambda_sq, rel=0.05)

    def test_negative_capital_flagged_and_retained(self, quiet_setup):
        p, sol, _ = quiet_setup
        noisy = p.replace(nu=5.0)
        start = AgentState(C=sol.C_bar_phase, K=0.05, A=sol.A_bar_phase)
        ens = mc.sample_paths(start, 0.1, sol, noisy, mc.MCConfig(n_paths=500, dt=1e-2, seed=0))
        assert ens.n_negative_K > 0
        assert ens.n_paths == 500  # nothing killed
        assert np.all(np.isfinite(ens.K))

    def test_predictor_excursion_flagged(self, quiet_setup, monkeypatch):
        # one step with K > 0 at the start and at the end but K = 0 exactly
        # at the predictor: the step flags the path.  At K = 0 the unclamped
        # drift keeps K finite (0**eps = 0), so only the check of the
        # predictors sends the step to the clamped redo.  C's noise takes the
        # predictor to C = -200, where the capital drift brings K back up.
        p, sol, _ = quiet_setup
        dt = 1e-2
        amp_C, amp_K = p.varpi * math.sqrt(dt), p.nu * math.sqrt(dt)
        x0 = AgentState(C=sol.C_bar_phase, K=1.0, A=sol.A_bar_phase)  # F(1) = 1 exactly
        dK = mc._drift_and_jacobian(sol, p)(x0.C, x0.K, x0.A)[1]
        z = np.zeros((1, 1, mc._TILE, 3))
        z[..., 0] = (-200.0 - x0.C) / amp_C
        z[..., 1] = -(x0.K + dK * dt) / amp_K
        assert amp_K * z[0, 0, 0, 1] == -(x0.K + dK * dt)  # the predictor's K is 0.0
        monkeypatch.setattr(mc, "_tile_noise", lambda *args: iter([z]))
        ens = mc.sample_paths(x0, dt, sol, p, mc.MCConfig(n_paths=1, dt=dt))
        assert ens.K[0] > 0.0
        assert np.isfinite(ens.C[0])
        assert ens.n_negative_K == 1

    def test_endpoint_excursion_flagged(self, quiet_setup, monkeypatch):
        # one step with K > 0 at the start and at the predictor (1e-6) but
        # K <= 0 at the end: the path is flagged
        p, sol, _ = quiet_setup
        dt = 1e-2
        x0 = AgentState(C=sol.C_bar_phase, K=1.0, A=sol.A_bar_phase)
        dK = mc._drift_and_jacobian(sol, p)(x0.C, x0.K, x0.A)[1]
        z = np.zeros((1, 1, mc._TILE, 3))
        z[..., 1] = (1e-6 - x0.K - dK * dt) / (p.nu * math.sqrt(dt))
        monkeypatch.setattr(mc, "_tile_noise", lambda *args: iter([z]))
        ens = mc.sample_paths(x0, dt, sol, p, mc.MCConfig(n_paths=1, dt=dt))
        assert ens.K[0] <= 0.0
        assert ens.n_negative_K == 1

    def test_moments_recomputable(self, quiet_setup):
        p, sol, x0 = quiet_setup
        ens = mc.sample_paths(x0, 0.1, sol, p, mc.MCConfig(n_paths=100, dt=1e-2))
        m = ens.moments()
        assert m["mean"]["C"] == pytest.approx(float(np.mean(ens.C)), abs=1e-12)
        assert m["var"]["K"] == pytest.approx(float(np.var(ens.K, ddof=1)), abs=1e-12)


class TestLinearNoise:
    """:func:`montecarlo.lna_moments`, the reference of :func:`compare_to_green`."""

    @pytest.mark.parametrize("phase,t,gap", [(0, 0.1, 3e-5), (1, 10.0, 5e-4)])
    def test_mean_follows_the_drift(self, phase, t, gap):
        # the noise-free Heun mean against DOP853 on the same drift; the
        # Heun error at dt = 1e-2 is -1.9e-5 and -2.8e-4 in K
        from scipy.integrate import solve_ivp

        p = load_config(BASE_CFG)
        sol = solve_phase(p, phase)
        x0 = AgentState(C=sol.C_bar_phase, K=p.K_bar, A=sol.A_bar_phase)
        point = mc._drift_and_jacobian(sol, p)
        exact = solve_ivp(
            lambda s, y: point(*y.tolist())[:3], (0.0, t), x0.as_array(),
            method="DOP853", rtol=1e-12, atol=1e-12,
        ).y[:, -1]
        mean, _ = mc.lna_moments(x0, t, 1e-2, sol, p)
        np.testing.assert_allclose(mean, exact, rtol=0.0, atol=gap)

    @pytest.mark.parametrize("dt", [0.0, math.nan, "0.01", True])
    def test_step_checked_as_by_the_config(self, quiet_setup, dt):
        # 0.0 raised ZeroDivisionError, NaN ValueError and "0.01" TypeError
        p, sol, x0 = quiet_setup
        with pytest.raises(ParameterError) as excinfo:
            mc.lna_moments(x0, 0.1, dt, sol, p)
        assert str(excinfo.value) == f"dt must be a finite positive number, got {dt!r}"

    def test_capital_crash_raises(self, quiet_setup):
        p, sol, _ = quiet_setup
        start = AgentState(C=10.0, K=0.5, A=sol.A_bar_phase)
        with pytest.raises(DomainError):
            mc.lna_moments(start, 1.0, 1e-2, sol, p)

    def test_non_finite_mean_raises(self):
        # A = 1e300 overflows the predictor's capital drift: K = inf after
        # the one step
        p = load_config(BASE_CFG)
        sol = solve_phase(p, 0)
        start = AgentState(C=sol.C_bar_phase, K=10.0, A=1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match=r"after step 1 of 1: K = inf"):
                mc.lna_moments(start, 0.01, 1e-2, sol, p)

    def test_overflowing_power_is_a_non_finite_moment(self):
        # at a subnormal K and eps = 0.01, K**(eps-1) overflows: Python's **
        # raises OverflowError where NumPy's scalar power gives inf.  F' is
        # inf, so the Jacobian is, and the step's moments are not finite; the
        # message is the one the NumPy step gave
        p = load_config(BASE_CFG).replace(epsilon=0.01)
        sol = solve_phase(p, 0)
        with pytest.raises(OverflowError):
            1e-320 ** (p.epsilon - 1.0)
        covs = ", ".join(f"cov({a}, {b}) = nan" for a in "CKA" for b in "CKA")
        message = f"the linear-noise moments are not finite after step 1 of 5: C = -inf, K = inf, {covs}"
        with pytest.raises(DomainError) as err:
            mc.lna_moments(AgentState(C=0.0, K=1e-320, A=10.0), 0.05, 1e-2, sol, p)
        assert str(err.value) == message

    @pytest.mark.parametrize("phase, t, mean, cov", [
        (0, 0.1, [1.0797884560802866, 11.886286433128154, 10.0], [
            [0.0010626384346617422, -5.399097608346444e-05, 0.0],
            [-5.399097608346444e-05, 0.0010590938073537029, 2.625817171685571e-05],
            [0.0, 2.625817171685571e-05, 0.0002499687525779683],
        ]),
        (1, 10.0, [2.009054638191322, 343.60828224598026, 9.973380936196836], [
            [0.5889883094570828, -3.046586259580776, 0.0],
            [-3.046586259580776, 38.67704091399174, 0.6409746496680345],
            [0.0, 0.6409746496680345, 0.0246900879691274],
        ]),
    ])
    def test_moments_pinned(self, phase, t, mean, cov):
        # mc-validate's reference at both shipped settings (base.cfg, from
        # the anchor, dt = 1e-2), as the NumPy-array step gave them, by
        # repr: every bit and the sign of every zero.  C-A stays exactly 0:
        # C stays at C_bar along the mean, so J_CK and J_CA vanish there
        p = load_config(BASE_CFG)
        sol = solve_phase(p, phase)
        x0 = AgentState(C=sol.C_bar_phase, K=p.K_bar, A=sol.A_bar_phase)
        got_mean, got_cov = mc.lna_moments(x0, t, 1e-2, sol, p)
        assert repr(got_mean.tolist()) == repr(mean)
        assert repr(got_cov.tolist()) == repr(cov)


def lna_ensemble(x0, t, sol, p, seed, n=20000, shift=0.0):
    """Draws from the linear-noise marginals, consumption shifted by ``shift`` standard errors."""
    mu, cov = mc.lna_moments(x0, t, 1e-3, sol, p)
    sd = np.sqrt(np.diag(cov))
    rng = np.random.default_rng(seed)
    C, K, A = (mu[i] + sd[i] * rng.standard_normal(n) for i in range(3))
    return mc.PathEnsemble(C=C + shift * sd[0] / math.sqrt(n), K=K, A=A, t=t, dt=1e-3, seed=0)


class TestCompareToGreen:
    def test_one_path_is_refused(self, quiet_setup):
        # the CLI's --n check fires first, so only library callers reach this
        p, sol, x0 = quiet_setup
        ens = mc.sample_paths(x0, 0.02, sol, p, mc.MCConfig(n_paths=1, dt=1e-3))
        with pytest.raises(ParameterError) as excinfo:
            mc.compare_to_green(ens, x0, sol, p)
        assert str(excinfo.value) == "comparing moments needs at least 2 paths, got 1"

    def test_self_test_passes(self, quiet_setup):
        # an ensemble drawn from the analytic marginals must pass
        p, sol, x0 = quiet_setup
        report = mc.compare_to_green(lna_ensemble(x0, 0.05, sol, p, seed=0), x0, sol, p)
        assert report["pass"]

    def test_biased_ensemble_fails(self, quiet_setup):
        p, sol, x0 = quiet_setup
        report = mc.compare_to_green(lna_ensemble(x0, 0.05, sol, p, seed=1, shift=10.0), x0, sol, p)
        assert not report["pass"]
        assert abs(report["zscores"]["mean_C"]) > 4.0

    def test_langevin_ensemble_passes(self, quiet_setup):
        p, sol, x0 = quiet_setup
        ens = mc.sample_paths(x0, 0.1, sol, p, mc.MCConfig(n_paths=20000, dt=1e-3, seed=7))
        assert mc.compare_to_green(ens, x0, sol, p)["pass"]

    @pytest.mark.parametrize("phase", [0, 1])
    def test_shipped_parameters(self, phase):
        # base.cfg (A0 = 8): all nine gates
        p = load_config(BASE_CFG)
        sol = solve_phase(p, phase)
        x0 = AgentState(C=sol.C_bar_phase, K=p.K_bar, A=sol.A_bar_phase)
        ens = mc.sample_paths(x0, 0.1, sol, p, mc.MCConfig(n_paths=20000, dt=1e-3, seed=0))
        report = mc.compare_to_green(ens, x0, sol, p)
        z, ks = report["zscores"], report["ks"]
        assert all(abs(v) <= 4.0 for v in z.values()), z
        assert all(v >= 1e-3 for v in ks.values()), ks
        assert report["pass"]


class TestBudgetBrownian:
    def test_increment_variance_and_whiteness(self):
        report = mc.budget_brownian_check(T=10000, seed=3, sigma_bar_sq=1.0, n_reps=10)
        assert report["variance"] == pytest.approx(2.0, rel=0.05)
        assert abs(report["autocorr_lag1"]) <= 0.02

    def test_exact_constraint_mode(self):
        report = mc.budget_brownian_check(T=10000, seed=4, sigma_bar_sq=0.0, n_reps=3)
        # float roundoff only; the sums involved are O(T^1.5)
        assert report["residual_max_abs"] <= 1e-6 * 10000

    def test_relaxed_residual_scales_with_slack(self):
        tight = mc.budget_brownian_check(T=2000, seed=5, sigma_bar_sq=1e-4, n_reps=20)
        loose = mc.budget_brownian_check(T=2000, seed=5, sigma_bar_sq=4.0, n_reps=20)
        assert tight["residual_max_abs"] < loose["residual_max_abs"]

    def test_short_series_rejected(self):
        with pytest.raises(ParameterError):
            mc.budget_brownian_check(T=1)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({"T": 2.5}, "T must be >= 2, got 2.5"),
            ({"T": True}, "T must be >= 2, got True"),
            ({"T": "10"}, "T must be >= 2, got 10"),
            ({"n_reps": 0}, "n_reps must be an integer >= 1, got 0"),
            ({"n_reps": -1}, "n_reps must be an integer >= 1, got -1"),
            ({"n_reps": 1.5}, "n_reps must be an integer >= 1, got 1.5"),
            ({"n_reps": True}, "n_reps must be an integer >= 1, got True"),
            ({"sigma_bar_sq": math.nan}, "sigma_bar_sq must be finite and >= 0, got nan"),
            ({"sigma_bar_sq": -1.0}, "sigma_bar_sq must be finite and >= 0, got -1.0"),
            ({"sigma_bar_sq": math.inf}, "sigma_bar_sq must be finite and >= 0, got inf"),
            ({"sigma_bar_sq": -math.inf}, "sigma_bar_sq must be finite and >= 0, got -inf"),
            ({"sigma_bar_sq": True}, "sigma_bar_sq must be finite and >= 0, got True"),
            ({"sigma_bar_sq": "1"}, "sigma_bar_sq must be finite and >= 0, got 1"),
            ({"sigma_bar_sq": None}, "sigma_bar_sq must be finite and >= 0, got None"),
            ({"sigma_bar_sq": 1 + 0j}, "sigma_bar_sq must be finite and >= 0, got (1+0j)"),
        ],
        ids=[
            "T-2.5", "T-True", "T-text", "n_reps-0", "n_reps--1", "n_reps-1.5", "n_reps-True",
            "sigma-nan", "sigma-negative", "sigma-inf", "sigma--inf",
            "sigma-True", "sigma-text", "sigma-None", "sigma-complex",
        ],
    )
    def test_arguments_checked(self, bad, message):
        # T=2.5 raised a bare TypeError, n_reps=0 a NumPy ValueError, NaN ran,
        # inf returned a NaN variance, sigma_bar_sq=True ran as 1.0, and a
        # string, None or a complex raised a bare TypeError
        with pytest.raises(ParameterError) as excinfo:
            mc.budget_brownian_check(**{"T": 10, **bad})
        assert str(excinfo.value) == message

    def test_integer_types_accepted(self):
        report = mc.budget_brownian_check(T=np.int64(10), n_reps=np.int32(2))
        assert report["n_increments"] == 20


class TestAppendix5:
    def test_discounted_capital_term_negligible(self):
        p = ModelParams().replace(
            A0=1.0, gamma=0.0, kappa=0.0, r_c=0.0, varpi=0.05, nu=0.5
        )
        sol = solve_phase(p, 0)
        ratios = mc.appendix5_negligibility(
            p, sol, [0.0, 0.01, 0.05], T=40.0, dt=0.02, n_paths=100, seed=5
        )
        assert set(ratios) == {0.0, 0.01, 0.05}
        for r, ratio in ratios.items():
            assert ratio < 0.1, r

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, True, np.True_, "0.05", None, np.array(0.05)])
    def test_rate_must_be_a_finite_real(self, quiet_setup, r):
        # NaN returned {nan: nan}, inf {inf: nan}, and True ran as r = 1
        p, sol, _ = quiet_setup
        with pytest.raises(ParameterError) as excinfo:
            mc.appendix5_negligibility(p, sol, [0.0, r], T=0.1, dt=0.02, n_paths=2)
        assert str(excinfo.value) == f"discount rate must be a finite real number, got {r!r}"

    def test_negative_rate_is_undiscounted(self, quiet_setup):
        p, sol, _ = quiet_setup
        ratios = mc.appendix5_negligibility(
            p, sol, [0.0, -0.05, np.float64(0.05), 1], T=0.2, dt=0.02, n_paths=2
        )
        assert list(ratios) == [0.0, -0.05, 0.05, 1.0]
        assert ratios[-0.05] == ratios[0.0]

    def test_ratio_grows_with_discount_weighting(self):
        # larger r concentrates r_bar, but the integral shrinks; the
        # ratio stays finite and positive
        p = ModelParams().replace(
            A0=1.0, gamma=0.0, kappa=0.0, r_c=0.0, varpi=0.05, nu=0.5
        )
        sol = solve_phase(p, 0)
        ratios = mc.appendix5_negligibility(
            p, sol, [0.0, 0.05], T=20.0, dt=0.05, n_paths=50, seed=1
        )
        assert all(v > 0.0 for v in ratios.values())

    def test_capital_root_matches_brentq(self, monkeypatch):
        # appendix 5's Newton root against a bracketing reference on the drift
        # written out, over random draws of both phases; a stand-in Heun
        # engine stops each run at the start state
        from scipy.optimize import brentq

        class Started(Exception):
            pass

        def start_only(start, *args):
            raise Started(start[1])

        monkeypatch.setattr(mc, "_heun_paths", start_only)
        rng = np.random.default_rng(22)
        counts = [0, 0]
        while min(counts) < 200:
            p = ModelParams().replace(
                A0=rng.uniform(4.0, 12.0), epsilon=rng.uniform(0.15, 0.85),
                delta=rng.uniform(0.02, 0.3), kappa=rng.uniform(0.0, 0.4),
            )
            for phase in (0, 1):
                try:
                    sol = solve_phase(p, phase)
                except CycleFieldError:
                    continue
                if not sol.feasible:  # refused before the root is sought
                    with pytest.raises(InfeasiblePhaseError, match=f"phase {phase} is infeasible"):
                        mc.appendix5_negligibility(p, sol, [0.0], T=0.02, n_paths=1)
                    continue
                C, A, eps, delta = sol.C_bar_phase, sol.A_bar_phase, p.epsilon, p.delta

                def k_drift(k):
                    return A * k ** eps - C - delta * k

                lo = (A * eps / delta) ** (1.0 / (1.0 - eps))
                if not k_drift(lo) > 0.0:  # the drift maximum is not positive
                    with pytest.raises(DomainError, match="no stable positive root"):
                        mc.appendix5_negligibility(p, sol, [0.0], T=0.02, n_paths=1)
                    continue
                hi = 2.0 * lo
                while k_drift(hi) > 0.0:
                    hi *= 2.0
                want = brentq(k_drift, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)
                with pytest.raises(Started) as got:
                    mc.appendix5_negligibility(p, sol, [0.0], T=0.02, n_paths=1)
                assert got.value.args[0] == pytest.approx(want, rel=1e-14, abs=0.0), (p, phase)
                counts[phase] += 1

    def test_overflowing_drift_maximum_is_a_domain_error(self):
        # (A_bar eps/delta)^(1/(1-eps)) raised a raw OverflowError
        p = load_config(BASE_CFG).replace(epsilon=0.995)
        with pytest.raises(DomainError, match="exceeds 1e300"):
            mc.appendix5_negligibility(p, solve_phase(p, 0), [0.0], T=0.1, n_paths=2)

    @pytest.mark.parametrize("change, phase", [({"C_bar": 50.0}, 0)])
    def test_drift_without_a_positive_root_is_a_domain_error(self, change, phase):
        # C_bar = 50 lies above the drift maximum
        p = load_config(BASE_CFG).replace(**change)
        with pytest.raises(DomainError, match="no stable positive root"):
            mc.appendix5_negligibility(p, solve_phase(p, phase), [0.0], T=0.1, n_paths=2)

    @pytest.mark.parametrize("nu", [1.5, 3.0])
    def test_infeasible_phase_is_refused(self, nu):
        # mc-validate refuses an infeasible phase (exit 3), and so does the
        # estimate, naming the anchor.  At nu = 1.5 it simulated from the
        # infeasible phase-1 anchor; at nu = 3 that anchor has A_bar < 0, and
        # the drift has no positive root
        p = load_config(BASE_CFG).replace(nu=nu)
        sol = solve_phase(p, 1)
        assert not sol.feasible
        anchor = f"C_bar_phase={sol.C_bar_phase:.6g}, A_bar_phase={sol.A_bar_phase:.6g}"
        with pytest.raises(InfeasiblePhaseError) as err:
            mc.appendix5_negligibility(p, sol, [0.0], T=0.1, n_paths=2)
        assert str(err.value) == f"phase 1 is infeasible; its anchor is {anchor}"
