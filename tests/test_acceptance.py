"""End-to-end acceptance checks.

Each test class exercises one externally stated requirement on the full
package: solver residuals and convergence orders, kernel normalization,
deterministic-path consistency, interaction-correction identities, the
stochastic-simulation cross checks, and artifact reproducibility.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import simpson

from cyclefield import corrections, green, montecarlo as mc
from cyclefield.cli import run
from cyclefield.errors import ConvergenceError, InfeasiblePhaseError
from cyclefield.params import ModelParams
from cyclefield.paths import AgentState
from cyclefield.phases import (
    _Y_of,
    _Shifts,
    c0_window,
    compatibility_root,
    gamma3_first_order,
    gamma3_fixed_point,
    solve_phase,
)


def draw_feasible(rng):
    """One random parameter set admitting the nontrivial phase.

    Perturbs the base configuration and re-draws the weight offset inside
    the intersection of its admissible window and the existence gate, so
    the compatibility root exists for almost every draw.
    """
    while True:
        p = ModelParams().replace(
            A0=rng.uniform(6.0, 10.0),
            kappa=rng.uniform(0.1, 0.3),
            epsilon=rng.uniform(0.25, 0.35),
            varpi=rng.uniform(0.08, 0.12),
        )
        floor, U = c0_window(p)
        cap = (
            p.alpha_laplace
            + math.sqrt(p.varsigma ** 2 * p.varpi ** 2 + p.r_c ** 2)
            + 1.0 / p.lam
            + abs(_Y_of(p, p.A_bar0))
        )
        hi = min(floor + U, cap)
        if hi <= floor:
            continue
        p = p.replace(C0=floor + rng.uniform(0.1, 0.9) * (hi - floor))
        try:
            sol = solve_phase(p, 1)
        except Exception:
            continue
        if sol.feasible:
            return p, sol


@pytest.fixture(scope="module")
def feasible_draws():
    rng = np.random.default_rng(20260826)
    return [draw_feasible(rng) for _ in range(100)]


class TestFixedPointResidualAndOrder:
    def test_hundred_draws_residual_and_quadratic_error(self, feasible_draws):
        start = time.perf_counter()
        for p, sol in feasible_draws:
            ge = sol.gamma_eta
            g3 = gamma3_fixed_point(p, ge)
            assert abs(_Shifts(p, False).rhs(ge)(g3) - g3) < 1e-10
        # the first-order expansion misses the fixed point at second
        # order in the condensate strength: fitted slope of the error
        scalings = np.array([1.0, 0.5, 0.25, 0.125])
        orders = []
        for p, sol in feasible_draws[:10]:
            errs = []
            for s in scalings:
                ge = s * sol.gamma_eta
                errs.append(abs(gamma3_fixed_point(p, ge) - gamma3_first_order(p, ge)))
            slope = np.polyfit(np.log(scalings), np.log(errs), 1)[0]
            orders.append(slope)
            assert slope >= 1.9, (p, slope)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, elapsed


def damped_gamma3(params, gamma_eta, tol=1e-12, max_iter=1000, paper_k1_approx=False):
    """Oracle: the damped Gamma3 iteration the bracketed solve replaced."""
    damping = 0.5
    g = params.A_bar0
    residual = math.inf
    for it in range(1, max_iter + 1):
        rhs = _Shifts(params, paper_k1_approx).rhs(gamma_eta)(g)
        residual = abs(rhs - g)
        if residual < tol:
            return (1.0 - damping) * g + damping * rhs
        g = (1.0 - damping) * g + damping * rhs
        if not math.isfinite(g):
            raise ConvergenceError("Gamma3 iteration diverged", residual, it)
    raise ConvergenceError("Gamma3 iteration did not converge", residual, max_iter)


def condensate(p):
    """The phase-1 ``gamma_eta`` of ``p``, or 0 where the phase is infeasible."""
    try:
        return compatibility_root(p)["gamma_eta"]
    except InfeasiblePhaseError:
        return 0.0


class TestRootAgreesWithDampedIteration:
    """The bracketed solve finds the root the damped iteration found.

    Both stop on a residual below 1e-12, which leaves each root off by
    about residual / (1 - slope of rhs), so they agree to ~1e-12, not to
    the last bit.
    """

    def test_hundred_draws(self, feasible_draws):
        for p, sol in feasible_draws:
            for ge in (0.0, sol.gamma_eta):
                want = damped_gamma3(p, ge)
                assert gamma3_fixed_point(p, ge) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_kappa_grid_where_damped_iteration_converges(self):
        base = ModelParams()
        for kappa in np.linspace(0.0, 0.75, 76):
            p = base.replace(kappa=float(kappa))
            for ge in (0.0, condensate(p)):
                want = damped_gamma3(p, ge)
                assert gamma3_fixed_point(p, ge) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_converges_up_to_kappa_099(self):
        # the slope of rhs tends to 1 as kappa -> 1; the damped iteration
        # needed more than 1000 sweeps beyond kappa ~ 0.78
        base = ModelParams()
        for kappa in np.linspace(0.75, 0.99, 49):
            p = base.replace(kappa=float(kappa))
            ge = condensate(p)
            g3 = gamma3_fixed_point(p, ge)
            assert abs(_Shifts(p, False).rhs(ge)(g3) - g3) < 1e-12, kappa


class TestFreeLimit:
    def test_fixed_point_reduces_to_dressed_bare_level(self, feasible_draws):
        for p, _ in feasible_draws[:20]:
            target = p.A0 / (1.0 - p.kappa)
            assert gamma3_fixed_point(p, 0.0) == pytest.approx(target, abs=1e-12 * target)
        base = ModelParams()
        assert gamma3_fixed_point(base, 0.0) == pytest.approx(
            base.A0 / (1.0 - base.kappa), abs=1e-11
        )

    def test_trivial_phase_is_massless(self, feasible_draws):
        for p, _ in feasible_draws[:20]:
            assert solve_phase(p, 0).mass == 0.0
        assert solve_phase(ModelParams(), 0).mass == 0.0


class TestPhaseOrdering:
    def test_condensate_lowers_averages_and_opens_gap(self, feasible_draws):
        for p, sol1 in feasible_draws:
            sol0 = solve_phase(p, 0)
            assert sol1.avg_C < sol0.avg_C, p
            assert sol1.avg_A < sol0.avg_A, p
            assert sol1.avg_Y < sol0.avg_Y, p
            assert sol1.mass > 0.0, p


def _vectorized_gaussian(from_state, Cg, Kg, Ag, t, sol, p):
    """Vectorized mirror of green.gaussian_factor on endpoint grids."""
    Am = 0.5 * (from_state.A + Ag)
    Km = 0.5 * (from_state.K + Kg)
    AFp = Am * p.epsilon * Km ** (p.epsilon - 1.0)
    alpha = p.delta - AFp
    beta = 2.0 * AFp + p.r_c - p.delta
    two_ab = 2.0 * alpha + beta
    K2e = p.K_bar ** (2.0 * p.epsilon)
    b_coef = 2.0 * (
        p.nu ** 2
        + 2.0 * K2e / (p.lambda_sq * alpha ** 2)
        + 3.0 * p.varpi ** 2 / (2.0 * two_ab * beta)
    )
    C_bar = sol.C_bar_phase
    Keps = p.K_bar ** p.epsilon
    off = (p.delta * p.K_bar + C_bar) / alpha
    X1 = (Cg - C_bar) - (from_state.C - C_bar) * (1.0 + (alpha + beta) * t)
    X2 = (Kg - p.K_bar + off) - (
        (from_state.K - p.K_bar + off) * (1.0 - alpha * t)
        - (from_state.C - C_bar) * t
        + from_state.A * Keps * t
    )
    X3 = Ag - from_state.A
    v1 = p.varpi ** 2 * t
    v2 = 0.5 * b_coef * t
    v3 = (1.0 / p.lambda_sq) * t
    quad = X1 ** 2 / (2.0 * v1) + X2 ** 2 / (2.0 * v2) + X3 ** 2 / (2.0 * v3)
    return np.exp(-quad) / np.sqrt((2.0 * math.pi) ** 3 * v1 * v2 * v3)


class TestKernelNormalization:
    def test_gaussian_factor_has_unit_mass(self):
        start = time.perf_counter()
        rng = np.random.default_rng(5)
        t = 0.01
        n = 61
        for _ in range(5):
            p = ModelParams().replace(
                A0=rng.uniform(7.0, 9.0),
                varpi=rng.uniform(0.08, 0.12),
                nu=rng.uniform(0.08, 0.12),
            )
            sol = solve_phase(p, 0)
            x = AgentState(
                C=sol.C_bar_phase + rng.uniform(-0.02, 0.02),
                K=p.K_bar + rng.uniform(-0.1, 0.1),
                A=sol.A_bar_phase + rng.uniform(-0.02, 0.02),
            )
            center = green.most_likely_endpoint(x, t, sol, p)
            coeffs = green.coefficients(sol, p)
            sd = np.sqrt(
                [p.varpi ** 2 * t, 0.5 * coeffs.b_coef * t, 0.5 * coeffs.c_coef * t]
            )
            axes = [
                np.linspace(c - 5.0 * s, c + 5.0 * s, n)
                for c, s in zip((center.C, center.K, center.A), sd)
            ]
            Cg, Kg, Ag = np.meshgrid(*axes, indexing="ij")
            vals = _vectorized_gaussian(x, Cg, Kg, Ag, t, sol, p)
            mass = simpson(
                simpson(simpson(vals, x=axes[2]), x=axes[1]), x=axes[0]
            )
            assert mass == pytest.approx(1.0, abs=1e-3)
            # the vectorized mirror agrees with the scalar implementation
            for idx in ((30, 30, 30), (10, 45, 20)):
                y = AgentState(C=axes[0][idx[0]], K=axes[1][idx[1]], A=axes[2][idx[2]])
                assert vals[idx] == pytest.approx(
                    green.gaussian_factor(x, y, t, sol, p), rel=1e-12
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, elapsed


@pytest.fixture(scope="module")
def slow_setup():
    # low technology and a small consumption anchor keep the drift
    # equilibrium at positive capital with slow rates
    p = ModelParams().replace(A0=0.1, C_bar=0.05, kappa=0.0, gamma=0.0)
    sol = solve_phase(p, 0)
    x = AgentState(C=sol.C_bar_phase, K=p.K_bar, A=sol.A_bar_phase)
    return p, sol, x


class TestMostLikelyEndpointVsAveragePath:
    def test_argmax_solves_zero_exponent_relations(self, slow_setup):
        p, sol, x = slow_setup
        for t in (0.2, 0.1, 0.05, 0.025):
            to = green.most_likely_endpoint(x, t, sol, p)
            for r in green.dmcvr_residuals(x, to, t, sol, p):
                assert abs(r) < 1e-8, t

    def test_argmax_tracks_average_path_to_second_order(self, slow_setup):
        p, sol, x = slow_setup
        horizons = np.array([0.2, 0.1, 0.05, 0.025])
        errs = []
        for t in horizons:
            ml = green.most_likely_endpoint(x, t, sol, p)
            path = green.average_path(x, t, sol, p, n_steps=400)
            avg = np.array([path.C[-1], path.K[-1], path.A[-1]])
            errs.append(np.max(np.abs(avg - ml.as_array())))
        slope = np.polyfit(np.log(horizons), np.log(errs), 1)[0]
        assert slope >= 1.9, (errs, slope)


class TestEquilibriumAndSaddle:
    def test_rhs_vanishes_at_equilibrium(self, feasible_draws):
        for p, _ in feasible_draws[:20]:
            sol = solve_phase(p, 0)
            eq = green.equilibrium(sol, p)
            rhs = green.average_path_rhs(eq.as_array(), sol, p, eq.K)
            assert np.max(np.abs(rhs)) < 1e-12, p

    def test_saddle_structure_when_discount_matches_depreciation(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = ModelParams().replace(
                A0=rng.uniform(0.502, 0.803),
                kappa=0.0,
                C_bar=0.5,
                varpi=0.05,
                r_c=0.05,  # equal to the depreciation rate
            )
            sol = solve_phase(p, 0)
            report = green.linearized_eigenvalues(sol, p)
            eigs = np.sort(np.real(report["jacobian_eigenvalues"]))
            assert eigs[0] < 0.0 < eigs[1], p.A0


class TestDeviationElasticities:
    QUERY = corrections.DeviationQuery(
        x0=AgentState(C=1.1, K=10.5, A=9.8), v0=(0.05, -0.1, 0.02), t=0.3
    )

    def test_consumption_deviation_identically_zero(self, trivial, params):
        rng = np.random.default_rng(3)
        for _ in range(10):
            q = corrections.DeviationQuery(
                x0=AgentState(
                    C=rng.uniform(0.5, 1.5),
                    K=rng.uniform(8.0, 12.0),
                    A=rng.uniform(9.0, 11.0),
                ),
                v0=tuple(rng.normal(scale=0.1, size=3)),
                t=rng.uniform(0.05, 0.5),
            )
            dC, _, _ = corrections.path_deviation(q, trivial, params)
            assert dC == 0.0

    def perturbed(self, key, h, t, trivial, params):
        q = self.QUERY
        state = [q.x0.C, q.x0.K, q.x0.A]
        vel = list(q.v0)
        in_idx = {"C0": 0, "K0": 1, "A0": 2}.get(key[-2:])
        if key.endswith("dot0"):
            vel[{"Cdot0": 0, "Kdot0": 1, "Adot0": 2}[key]] += h
        else:
            state[in_idx] += h
        shifted = corrections.DeviationQuery(
            x0=AgentState(C=state[0], K=state[1], A=state[2]), v0=tuple(vel), t=t
        )
        return corrections.path_deviation(shifted, trivial, params)

    def test_partials_match_central_differences(self, trivial, params):
        t = 0.3
        h = 1e-4
        table = corrections.elasticity_table(t, trivial, params)
        out_idx = {"dK": 1, "dA": 2}
        for key, value in table.items():
            out, _, inp = key.partition("_d")
            plus = self.perturbed(inp, +h, t, trivial, params)[out_idx[out]]
            minus = self.perturbed(inp, -h, t, trivial, params)[out_idx[out]]
            fd = (plus - minus) / (2.0 * h)
            assert value == pytest.approx(fd, rel=1e-6, abs=0.0), key

    def test_sign_pattern(self, trivial, params):
        table = corrections.elasticity_table(0.3, trivial, params)
        assert table["dK_dCdot0"] < 0.0
        for key, value in table.items():
            if key != "dK_dCdot0":
                assert value > 0.0, key


class TestTwoAgentIdentities:
    QUERY = corrections.TwoAgentQuery(
        from1=AgentState(C=1.0, K=10.0, A=10.0),
        to1=AgentState(C=1.2, K=10.5, A=9.9),
        from2=AgentState(C=0.9, K=11.0, A=10.2),
        to2=AgentState(C=1.1, K=11.5, A=10.4),
        t=0.3,
    )

    def test_swap_symmetry_exact(self, trivial, params):
        q = self.QUERY
        swapped = corrections.TwoAgentQuery(
            from1=q.from2, to1=q.to2, from2=q.from1, to2=q.to1, t=q.t
        )
        a = corrections.two_agent_correction(q, trivial, params)
        b = corrections.two_agent_correction(swapped, trivial, params)
        assert a["V_I"] == b["V_I"]
        assert a["d12"] == b["d21"]
        assert a["d21"] == b["d12"]

    def test_static_partner_reduces_to_mean_capital_push(self, trivial, params):
        q = corrections.TwoAgentQuery(
            from1=self.QUERY.from1,
            to1=self.QUERY.to1,
            from2=AgentState(C=1.0, K=11.0, A=10.2),
            to2=AgentState(C=1.0, K=12.0, A=10.2),
            t=0.3,
        )
        out = corrections.two_agent_correction(q, trivial, params)
        coeffs = green.coefficients(trivial, params)
        mean_K2 = 0.5 * (q.from2.K + q.to2.K)
        assert out["d21"]["A"] == params.gamma * coeffs.c_coef * q.t * mean_K2

    def test_interaction_potential_linear_in_coupling(self, trivial, params):
        values = {}
        for gamma in (0.01, 0.02, 0.04):
            p = params.replace(gamma=gamma)
            values[gamma] = corrections.two_agent_correction(self.QUERY, trivial, p)["V_I"]
        assert values[0.02] == pytest.approx(2.0 * values[0.01], rel=1e-12)
        assert values[0.04] == pytest.approx(4.0 * values[0.01], rel=1e-12)


class TestStochasticCrossChecks:
    def test_simulation_against_analytic_kernel(self):
        start = time.perf_counter()
        p = ModelParams().replace(A0=1.0, gamma=0.0)
        sol = solve_phase(p, 0)
        x0 = AgentState(C=sol.C_bar_phase, K=p.K_bar, A=sol.A_bar_phase)
        cfg = mc.MCConfig(n_paths=100000, dt=1e-3, seed=0)
        ens = mc.sample_paths(x0, 0.1, sol, p, cfg)
        report = mc.compare_to_green(ens, x0, sol, p)
        for key in ("C", "K", "A"):
            assert abs(report["zscores"][f"mean_{key}"]) <= 4.0, report["zscores"]
            assert abs(report["zscores"][f"var_{key}"]) <= 4.0, report["zscores"]

        budget = mc.budget_brownian_check(T=10000, seed=0, sigma_bar_sq=1.0)
        assert budget["variance"] == pytest.approx(2.0, rel=0.05)

        p5 = ModelParams().replace(
            A0=1.0, gamma=0.0, kappa=0.0, r_c=0.0, varpi=0.05, nu=0.5
        )
        sol5 = solve_phase(p5, 0)
        ratios = mc.appendix5_negligibility(
            p5, sol5, [0.0, 0.01, 0.05], T=40.0, dt=0.02, n_paths=200, seed=0
        )
        for r, ratio in ratios.items():
            assert ratio < 0.1, (r, ratio)

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, elapsed


class TestArtifactReproducibility:
    CASES = [
        (["phases"], "json"),
        (["phase-scan", "--key", "A0", "--range", "7.0,9.0,5"], "csv"),
        (
            ["transit", "--from", "1.1,10.2,10.0", "--to", "1.12,10.3,10.01", "--t", "0.01"],
            "json",
        ),
        (["path", "--x0", "1.0,10.0,10.0", "--t", "0.2", "--n-steps", "40"], "csv"),
        (["mc-validate", "--t", "0.02", "--n", "1000", "--seed", "42"], "json"),
    ]

    @pytest.mark.parametrize("argv,kind", CASES, ids=[c[0][0] for c in CASES])
    def test_repeated_runs_are_byte_identical(self, tmp_path, argv, kind):
        outs = []
        for name in ("first", "second"):
            out = tmp_path / f"{name}.{kind}"
            assert run(argv + ["--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0]
        if kind == "json":
            json.loads(outs[0])

    def test_exported_ensemble_reproducible(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            export = tmp_path / f"{name}.csv"
            out = tmp_path / f"{name}.json"
            code = run(
                [
                    "mc-validate", "--t", "0.02", "--n", "500", "--seed", "3",
                    "--export", str(export), "--output", str(out),
                ]
            )
            assert code == 0
            blobs.append(export.read_bytes() + out.read_bytes())
        assert blobs[0] == blobs[1]
