import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc as scipy_erfc
from scipy.special import erfcx as scipy_erfcx

from cyclefield.errors import (
    ConvergenceError,
    CycleFieldError,
    DomainError,
    InfeasiblePhaseError,
    SingularityError,
)
from cyclefield import phases
from cyclefield.params import ModelParams
from cyclefield.phases import (
    _erfcx,
    _Shifts,
    _Y_of,
    boundary_shifts,
    c0_window,
    compatibility_root,
    gamma3_first_order,
    gamma3_fixed_point,
    phase_existence,
    solve_phase,
    stability_check,
)

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class TestBoundaryShifts:
    def test_consumption_shift_matches_truncated_gaussian_quadrature(self, params):
        # C1 is the magnitude of the mean shift conditional on the
        # negative tail of the consumption Gaussian
        p = params.replace(C_bar=0.2)  # keep the tail mass quadrature-friendly
        C1, _, _ = boundary_shifts(p, p.A_bar0)
        mu, sd = p.C_bar, p.varpi

        def density(x):
            return math.exp(-((x - mu) ** 2) / (2.0 * sd * sd))

        num = quad(lambda x: (mu - x) * density(x), mu - 12 * sd, 0.0)[0]
        den = quad(density, mu - 12 * sd, 0.0)[0]
        assert C1 == pytest.approx(num / den, rel=1e-9)

    def test_consumption_shift_stable_for_large_anchor(self, params):
        # naive exp/erfc evaluation underflows to 0/0 here; the shift
        # tends to the anchor itself (the tail hugs zero)
        p = params.replace(C_bar=40.0, varpi=1.0)
        C1, _, _ = boundary_shifts(p, p.A_bar0)
        assert math.isfinite(C1)
        assert p.C_bar < C1 < p.C_bar + 0.1

    def test_technology_shift_underflows_cleanly(self, params):
        _, _, A1 = boundary_shifts(params, params.A_bar0)
        assert A1 == 0.0  # lam * Gamma3^2 is huge at the base point
        _, _, A1_small = boundary_shifts(params.replace(lambda_sq=0.01), 0.5)
        assert A1_small > 0.0

    def test_capital_shift_negative_and_finite(self, params):
        p = params.replace(A0=0.9, C_bar=0.3, varpi=0.05, kappa=0.0)
        _, K1p, _ = boundary_shifts(p, p.A_bar0)
        assert math.isfinite(K1p)
        assert K1p <= 0.0

    def test_capital_shift_log_space_matches_naive_when_benign(self, params):
        p = params.replace(A0=0.9, C_bar=0.3, varpi=0.05, kappa=0.0)
        g3 = p.A_bar0
        _, K1p, _ = boundary_shifts(p, g3)
        Y = abs(p.delta - g3 * p.epsilon * p.K_bar ** (p.epsilon - 1.0))
        u = p.C_bar + SQRT_2_OVER_PI * p.varpi - g3 * p.K_bar ** p.epsilon * (1.0 - p.epsilon)
        naive = (
            -SQRT_2_OVER_PI
            * math.sqrt(Y)
            * p.nu
            * math.exp(-u * u / (2.0 * Y * p.nu ** 2))
            / (math.erf(u / math.sqrt(2.0)) + 1.0)
        )
        assert K1p == pytest.approx(naive, rel=1e-12)

    def test_surrogate_same_sign_and_scale(self, params):
        p = params.replace(A0=0.9, C_bar=0.3, varpi=0.05, kappa=0.0)
        _, exact, _ = boundary_shifts(p, p.A_bar0)
        _, approx, _ = boundary_shifts(p, p.A_bar0, paper_k1_approx=True)
        assert approx <= 0.0
        if exact != 0.0:
            assert 0.1 < approx / exact < 10.0


class TestErrorFunctions:
    """``_erfcx`` at x >= 0 and ``math.erfc(-u/sqrt2)`` at u >= 0, as ``boundary_shifts`` calls them."""

    # 0, the C1 argument at the defaults (1/(sqrt2 0.1)), both sides of the
    # x = 26 branch switch, and the continued fraction's far range
    ERFCX_POINTS = [
        0.0, 1e-300, 1e-8, 0.5, 1.0 / (math.sqrt(2.0) * 0.1), 25.5, math.nextafter(26.0, 0.0),
        26.0, math.nextafter(26.0, math.inf), 26.5, 40.0, 1e3, 1e6, 1e8,
    ]

    @pytest.mark.parametrize("x", ERFCX_POINTS)
    def test_erfcx_matches_scipy_at_switch_and_tails(self, x):
        assert _erfcx(x) == pytest.approx(float(scipy_erfcx(x)), rel=2e-15, abs=0.0)

    def test_erfcx_matches_scipy_on_a_grid(self):
        xs = np.concatenate([np.linspace(0.0, 30.0, 3001), np.geomspace(30.0, 1e8, 501)])
        ours = np.array([_erfcx(float(x)) for x in xs])
        assert np.max(np.abs(ours / scipy_erfcx(xs) - 1.0)) <= 2e-15

    def test_erfc_of_negative_argument_matches_scipy(self):
        u = np.concatenate([np.linspace(0.0, 40.0, 4001), [1e3, 1e8]])
        ours = np.array([math.erfc(-float(v) / math.sqrt(2.0)) for v in u])
        assert np.max(np.abs(ours / scipy_erfc(-u / math.sqrt(2.0)) - 1.0)) <= 2e-15

    @pytest.mark.parametrize("x", [0.5, 7.0710678118654746, 25.9, 26.1, 1e4])
    def test_erfcx_matches_mpmath(self, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = float(mpmath.exp(mpmath.mpf(x) ** 2) * mpmath.erfc(mpmath.mpf(x)))
        assert _erfcx(x) == pytest.approx(exact, rel=1e-15, abs=0.0)


class TestGamma3:
    def test_trivial_fixed_point_is_bare_level(self, params):
        assert gamma3_fixed_point(params, 0.0) == pytest.approx(params.A_bar0, abs=1e-12)

    def test_residual_below_tolerance(self, params):
        ge = 0.003
        g3 = gamma3_fixed_point(params, ge)
        assert abs(_Shifts(params, False).rhs(ge)(g3) - g3) < 1e-10

    @pytest.mark.parametrize("phase", [0, 1])
    def test_consumption_shift_computed_once_per_gamma3_solve(self, params, monkeypatch, phase):
        # C1 depends only on C_bar and varpi, not on the Gamma_3 iterate
        ge = compatibility_root(params)["gamma_eta"] if phase else 0.0
        expected = gamma3_fixed_point(params, ge)
        real, calls = phases._consumption_boundary_shift, []
        monkeypatch.setattr(phases, "_consumption_boundary_shift", lambda p: calls.append(p) or real(p))
        assert gamma3_fixed_point(params, ge) == expected
        assert calls == [params]

    def test_first_order_slope_matches_implicit_derivative(self, params):
        h = 1e-6
        slope_fd = (gamma3_fixed_point(params, h) - gamma3_fixed_point(params, 0.0)) / h
        slope = (gamma3_first_order(params, 1.0) - gamma3_first_order(params, 0.0))
        assert slope_fd == pytest.approx(slope, rel=1e-4)

    def test_nonconvergence_reports_residual(self, params):
        with pytest.raises(ConvergenceError) as err:
            gamma3_fixed_point(params, 0.003, tol=1e-30, max_iter=5)
        assert err.value.iterations == 5
        assert err.value.residual >= 0.0

    def test_nonconvergence_names_a_bracket_around_the_root(self, params):
        root = gamma3_fixed_point(params, 0.003)
        with pytest.raises(ConvergenceError, match="bracket") as err:
            gamma3_fixed_point(params, 0.003, tol=1e-30, max_iter=5)
        lo, hi = map(float, re.search(r"\[(\S+), (\S+)\]", str(err.value)).groups())
        assert lo <= root <= hi and lo < hi

    def test_stalled_regula_falsi_bisects_to_the_root(self, params):
        # nu = 2.3: f is +377 and -6.1e20 at the ends of [-11.5, 9.47], so the
        # regula falsi point rounds onto an end; the bisection step that takes
        # over reaches the root the damped iteration finds (0.0953898568889)
        p = params.replace(nu=2.3)
        ge = compatibility_root(p)["gamma_eta"]
        g3 = gamma3_fixed_point(p, ge)
        assert abs(_Shifts(p, False).rhs(ge)(g3) - g3) < 1e-12
        assert g3 == pytest.approx(0.09538985688890404, rel=1e-10)
        assert solve_phase(p, 1).Gamma3 == g3

    def test_pole_in_the_bracket_is_a_singularity(self, params):
        # the bracket narrows onto a pole of rhs, not a root: the
        # denominator of rhs changes sign between its ends
        p = params.replace(A0=3.691903901261551)
        ge = compatibility_root(p)["gamma_eta"]
        with pytest.raises(SingularityError, match="Gamma3 pole") as err:
            gamma3_fixed_point(p, ge)
        lo, hi = map(float, re.search(r"\[(\S+), (\S+)\]", str(err.value)).groups())
        shifts = _Shifts(p, False)
        den_lo, den_hi = (shifts.den(*shifts(g)[2:], ge) for g in (lo, hi))
        assert lo < hi and (den_lo < 0.0) != (den_hi < 0.0)
        with pytest.raises(SingularityError, match="Gamma3 pole"):
            solve_phase(p, 1)


_OUT_OF_RANGE = "vanishing factor in closed form: phase-{} closed forms left the double range ({})"
_OVERFLOW = "(34, 'Numerical result out of range')"

# (parameter change, phase, paper_k1_approx, error type, message): what
# solve_phase raised before one evaluator served a whole solve.  The cases
# after the first five add a second fault that the closed forms reach later.
ERROR_ORDER = {
    "infeasible-window": (
        {"C0": 1e9}, 1, False, InfeasiblePhaseError, "C0=1e+09 outside the admissible window (0.300249, 43.9377)",
    ),
    "K_bar-power-overflow": (
        {"K_bar": 1e-310, "epsilon": 0.001}, 0, False, SingularityError, _OUT_OF_RANGE.format(0, _OVERFLOW),
    ),
    "K_bar-power-overflow-phase-1": (
        {"K_bar": 1e-310, "epsilon": 0.001}, 1, False, SingularityError, _OUT_OF_RANGE.format(1, _OVERFLOW),
    ),
    "Y-zero": (
        {"K_bar": 1.0, "epsilon": 0.5, "kappa": 0.0, "A0": 0.1, "delta": 0.05}, 0, False, SingularityError,
        "vanishing factor in closed form: Y = delta - Gamma3 eps K_bar^(eps-1)",
    ),
    "K1p-overflow": (
        {"A0": 100.0, "nu": 1.0, "kappa": 0.0}, 1, False, SingularityError,
        "vanishing factor in closed form: K1p denominator erf(u/sqrt2) + 1 (K1p = -exp(7991.34))",
    ),
    "Gamma3-pole": (
        {"A0": 3.691903901261551}, 1, False, SingularityError,
        "vanishing factor in closed form: Gamma3 pole: the rhs denominator changes sign in "
        "[-0.9190822633979401, -0.91908226339794]",
    ),
    "Y-zero-then-nu-squared": (
        {"K_bar": 1.0, "epsilon": 0.5, "kappa": 0.0, "A0": 0.1, "delta": 0.05, "nu": 1e200}, 0, True,
        SingularityError, "vanishing factor in closed form: Y = delta - Gamma3 eps K_bar^(eps-1)",
    ),
    "C1-zero-then-K_bar-power": (
        {"C_bar": 1e308, "varpi": 1e-300, "K_bar": 1e-310, "epsilon": 0.001}, 0, False, SingularityError,
        _OUT_OF_RANGE.format(0, "float division by zero"),
    ),
    "K1p-then-varsigma-squared": (
        {"A0": 100.0, "nu": 1.0, "kappa": 0.0, "varsigma": 1e200}, 0, False, SingularityError,
        "vanishing factor in closed form: K1p denominator erf(u/sqrt2) + 1 (K1p = -exp(7991.34))",
    ),
    "window-then-C1-zero": (
        {"C0": 1e9, "varpi": 1e-310}, 1, False, InfeasiblePhaseError,
        "C0=1e+09 outside the admissible window (0.3, 43.9375)",
    ),
    "window-then-nu-squared": (
        {"C0": 1e9, "nu": 1e200}, 1, False, InfeasiblePhaseError,
        "C0=1e+09 outside the admissible window (0.300249, 43.9377)",
    ),
}


class _StoreLog(dict):
    """A ``_Shifts`` memo that logs every store: one per uncached evaluation."""

    def __init__(self):
        super().__init__()
        self.stores = []

    def __setitem__(self, g, value):
        self.stores.append(g)
        super().__setitem__(g, value)


class TestShiftEvaluator:
    """One solve builds one ``_Shifts``: each Gamma_3 iterate is evaluated once, and C1 once."""

    @pytest.fixture
    def spy(self, monkeypatch):
        made, visited = [], []
        init, rhs_of = phases._Shifts.__init__, phases._Shifts.rhs

        def spy_init(shifts, *args):
            made.append(shifts)
            init(shifts, *args)
            shifts.memo = _StoreLog()

        def spy_rhs(shifts, gamma_eta):
            rhs = rhs_of(shifts, gamma_eta)
            return lambda g: visited.append(g) or rhs(g)

        monkeypatch.setattr(phases._Shifts, "__init__", spy_init)
        monkeypatch.setattr(phases._Shifts, "rhs", spy_rhs)
        return made, visited

    @pytest.mark.parametrize(
        "change", [{}, {"nu": 2.3}, {"A0": 5.0}, {"kappa": 0.6}], ids=["base", "bisects", "A0", "kappa"]
    )
    @pytest.mark.parametrize("paper_k1_approx", [False, True])
    @pytest.mark.parametrize("phase", [0, 1])
    def test_each_gamma3_iterate_evaluated_once(self, params, spy, change, paper_k1_approx, phase):
        made, visited = spy
        sol = solve_phase(params.replace(**change), phase, paper_k1_approx)
        assert len(made) == 1
        # one uncached evaluation per distinct g the root-find visits, although
        # compatibility_root and the solution read some g again
        assert made[0].memo.stores == visited
        assert len(set(visited)) == len(visited)
        assert visited[0] == params.replace(**change).A_bar0 and visited[-1] == sol.Gamma3

    @pytest.mark.parametrize("phase", [0, 1])
    def test_consumption_shift_computed_once_per_solve(self, params, monkeypatch, phase):
        real, calls = phases._consumption_boundary_shift, []
        monkeypatch.setattr(phases, "_consumption_boundary_shift", lambda p: calls.append(p) or real(p))
        solve_phase(params, phase)
        assert calls == [params]

    @given(g=st.floats(-20.0, 40.0), gamma_eta=st.floats(0.0, 0.01))
    def test_agrees_with_the_parameter_level_forms(self, params, g, gamma_eta):
        p = params
        shifts = _Shifts(p, False)
        K1p, A1, Y, AFp = shifts(g)
        assert (shifts.C1, K1p, A1) == boundary_shifts(p, g)
        assert Y == _Y_of(p, g) and AFp == g * p.epsilon * p.K_bar ** (p.epsilon - 1.0)
        ab = p.varpi ** 2 / phases._consumption_denom(p, AFp) + p.nu ** 2
        Keps1 = p.K_bar ** p.epsilon * (1.0 - p.epsilon)
        assert shifts.den(Y, AFp, gamma_eta) == 4.0 * Y * Y - ab * gamma_eta ** 2 * Y + 2.0 * gamma_eta * Keps1

    @pytest.mark.parametrize(
        "change,phase,paper_k1_approx,error,message", ERROR_ORDER.values(), ids=list(ERROR_ORDER)
    )
    def test_bad_parameters_raise_what_they_raised(self, change, phase, paper_k1_approx, error, message):
        with pytest.raises(CycleFieldError) as err:
            solve_phase(ModelParams(**change), phase, paper_k1_approx)
        assert type(err.value) is error and str(err.value) == message


class TestCompatibility:
    def test_base_configuration_admits_condensate(self, params):
        root = compatibility_root(params)
        assert 0.0 < root["gamma_eta"] < root["gamma_eta_bound"]
        assert root["D"] > 0.0
        assert root["K1p0"] == boundary_shifts(params, params.A_bar0)[1]

    def test_offset_window_gates_the_phase(self, params):
        floor, U = c0_window(params)
        assert U > 0.0
        with pytest.raises(InfeasiblePhaseError):
            compatibility_root(params.replace(C0=floor / 2.0))
        with pytest.raises(InfeasiblePhaseError):
            compatibility_root(params.replace(C0=floor + 2.0 * U))

    @pytest.mark.parametrize("change", [{}, {"varpi": 0.2, "r_c": 0.1}])
    def test_window_floor_and_d_gate_share_one_scale(self, params, change):
        p = params.replace(**change)
        floor, _ = c0_window(p)
        root = compatibility_root(p)
        Keps1 = p.K_bar ** p.epsilon * (1.0 - p.epsilon)
        # D = Keps1 (alpha_laplace - C0 + scale + 1/lambda + |Y0|) and
        # floor = alpha_laplace + scale + 1/lambda
        assert root["D"] == pytest.approx(Keps1 * (floor - p.C0 + abs(_Y_of(p, p.A_bar0))), rel=1e-12)

    def test_existence_report(self, params):
        report = phase_existence(params)
        assert report["feasible"]
        assert report["gamma_positive"]
        assert report["A0_large"]
        assert report["lambda_large"]
        assert 0.0 < report["spread"] < 1.0
        assert not phase_existence(params.replace(gamma=0.0))["feasible"]
        assert not phase_existence(params.replace(A0=2.0, C0=1e9))["feasible"]


class TestWindowReuse:
    """Phase 1 reads the C0 window from compatibility_root, with the verdict phase_existence gives."""

    @pytest.mark.parametrize(
        "change",
        [{}, {"A0": 3.0, "C_bar": 2.0, "kappa": 0.8, "K_bar": 2.0, "epsilon": 0.3}],
        ids=["base", "solvable-to-the-top"],
    )
    def test_feasibility_across_both_window_edges(self, params, change):
        p0 = params.replace(**change)
        floor, U = c0_window(p0)
        edges = [x for e in (floor, floor + U) for x in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))]
        outcomes = set()
        for c0 in np.linspace(floor / 2.0, floor + 1.5 * U, 21).tolist() + edges:
            p = p0.replace(C0=c0)
            report = phase_existence(p)
            try:
                root = compatibility_root(p)
            except InfeasiblePhaseError as exc:
                with pytest.raises(InfeasiblePhaseError) as info:
                    solve_phase(p, 1)
                assert str(info.value) == str(exc)
                outcomes.add("window" if not report["window_ok"] else "gate")
                continue
            sol = solve_phase(p, 1)
            assert report["window_ok"]
            assert (root["window_floor"], root["window_width"]) == (report["window_floor"], report["window_width"])
            physical = sol.mass > 0.0 and sol.C_bar_phase >= 0.0 and sol.A_bar_phase >= 0.0
            assert sol.feasible == (report["feasible"] and physical)
            outcomes.add(sol.feasible)
        # both edges are crossed, and phase 1 solves somewhere inside
        assert "window" in outcomes and outcomes & {True, False}
        assert {c0 for c0 in edges if not phase_existence(p0.replace(C0=c0))["window_ok"]} == set(edges[:2] + edges[4:])


class TestSolvePhase:
    def test_trivial_closed_forms(self, trivial, params):
        assert trivial.Gamma3 == pytest.approx(params.A_bar0, abs=1e-12)
        assert trivial.mass == 0.0
        assert trivial.gamma_eta == 0.0
        assert trivial.avg_C == pytest.approx(params.C_bar + SQRT_2_OVER_PI * params.varpi)

    def test_nontrivial_background(self, nontrivial, params):
        assert nontrivial.gamma_eta > 0.0
        assert nontrivial.mass > 0.0
        assert nontrivial.Gamma3 < params.A_bar0
        assert nontrivial.feasible
        assert nontrivial.stable

    def test_phase_averages_ordered(self, trivial, nontrivial):
        assert nontrivial.avg_C < trivial.avg_C
        assert nontrivial.avg_A < trivial.avg_A
        assert nontrivial.avg_Y < trivial.avg_Y

    def test_feasible_needs_a_physical_solution(self, params):
        # the existence conditions hold, but the mass gap and the
        # consumption anchor come out negative
        sol = solve_phase(params.replace(nu=2.3), 1)
        assert phase_existence(params.replace(nu=2.3))["feasible"]
        assert sol.mass < 0.0 and sol.C_bar_phase < 0.0
        assert not sol.feasible

    def test_invalid_phase_rejected(self, params):
        with pytest.raises(DomainError):
            solve_phase(params, 2)

    def test_surrogate_branch_runs(self, params):
        sol = solve_phase(params, 1, paper_k1_approx=True)
        assert sol.gamma_eta > 0.0

    def test_stability_brackets_positive_at_base(self, params, nontrivial):
        report = stability_check(
            params,
            nontrivial.gamma_eta,
            nontrivial.Gamma3,
            nontrivial.avg_K,
            nontrivial.avg_A,
        )
        assert report["stable"]
        assert report["bracket_consumption"] > 0.0
        assert report["bracket_capital"] > 0.0
        assert report["bracket_technology"] > 0.0
        assert report["condensate_product"] > 0.0

    @given(
        st.floats(6.0, 10.0),
        st.floats(0.1, 0.3),
        st.floats(0.25, 0.35),
        st.floats(0.08, 0.12),
    )
    def test_trivial_phase_always_solvable(self, A0, kappa, epsilon, varpi):
        p = ModelParams().replace(A0=A0, kappa=kappa, epsilon=epsilon, varpi=varpi)
        sol = solve_phase(p, 0)
        assert sol.mass == 0.0
        assert sol.avg_Y > 0.0
        assert sol.avg_K < 0.0  # signed average; magnitude is the capital scale


# every finite value ModelParams accepts, field by field
_POSITIVE = ("varpi", "nu", "lambda_sq", "delta", "K_bar", "C_bar", "A0", "theta_sq")
_NONNEGATIVE = ("varsigma", "r_c", "gamma", "C0", "sigma_sq", "eta_sq")
_FIELDS = tuple(f.name for f in fields(ModelParams))


def validated_domain(name):
    if name == "epsilon":
        return st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    if name == "kappa":
        return st.floats(0.0, 1.0, exclude_max=True)
    if name in _POSITIVE:
        return st.floats(0.0, exclude_min=True, allow_infinity=False)
    if name in _NONNEGATIVE:
        return st.floats(0.0, allow_infinity=False)
    return st.floats(allow_nan=False, allow_infinity=False)


def assert_finite_or_typed(p):
    """Each phase either solves with every field finite or raises a typed error."""
    for phase in (0, 1):
        try:
            sol = solve_phase(p, phase)
        except CycleFieldError:
            continue
        bad = {k: v for k, v in vars(sol).items() if isinstance(v, float) and not math.isfinite(v)}
        assert not bad, (p, phase, bad)


class TestSolvePhaseDomain:
    @pytest.mark.parametrize("name", _FIELDS)
    @given(data=st.data())
    def test_one_field_across_its_domain(self, name, data):
        value = data.draw(validated_domain(name), label=name)
        assert_finite_or_typed(ModelParams().replace(**{name: value}))

    @given(st.fixed_dictionaries({name: validated_domain(name) for name in _FIELDS}))
    def test_all_fields_at_once(self, values):
        assert_finite_or_typed(ModelParams(**values))
