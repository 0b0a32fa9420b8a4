import dataclasses
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad, quad_vec
from scipy.linalg import expm
from scipy.optimize import brentq

from cyclefield import corrections, green, montecarlo as mc
from cyclefield.errors import DomainError, ParameterError, SingularityError, TrajectoryTerminated
from cyclefield.params import ModelParams, load_config
from cyclefield.paths import AgentPath, AgentState
from cyclefield.phases import solve_phase


BASE_CFG = str(Path(__file__).resolve().parent.parent / "base.cfg")


def anchor_state(solution, params):
    return AgentState(C=solution.C_bar_phase, K=params.K_bar, A=solution.A_bar_phase)


class TestCoefficients:
    def test_reference_vs_midpoint(self, trivial, params):
        ref = green.coefficients(trivial, params)
        mid = green.coefficients(
            trivial, params, anchor_state(trivial, params), anchor_state(trivial, params)
        )
        assert ref.alpha == pytest.approx(mid.alpha)
        assert ref.beta == pytest.approx(mid.beta)

    def test_maintext_beta_differs_by_marginal_product(self, trivial, params):
        appendix = green.coefficients(trivial, params)
        maintext = green.coefficients(trivial, params, maintext=True)
        AFp = trivial.A_bar_phase * params.epsilon * params.K_bar ** (params.epsilon - 1.0)
        assert appendix.beta - maintext.beta == pytest.approx(AFp)
        assert appendix.alpha == maintext.alpha

    def test_mass_carried_from_phase(self, trivial, nontrivial, params):
        assert green.coefficients(trivial, params).mass == 0.0
        assert green.coefficients(nontrivial, params).mass == nontrivial.mass

    def test_record_is_an_immutable_named_tuple(self, trivial, params):
        rec = green.coefficients(trivial, params)
        assert list(rec._asdict()) == [
            "alpha", "beta", "Omega_sq", "b_coef", "c_coef", "mass", "A_bar", "C_bar"
        ]
        with pytest.raises(AttributeError):
            rec.alpha = 0.0


def copy_state(x):
    """An equal, unlinked state: the kernels evaluate its pairs alone."""
    return AgentState(C=x.C, K=x.K, A=x.A)


class TestKernelMemo:
    """Repeated, switched and interleaved calls return what a fresh evaluation returns."""

    @pytest.fixture
    def pair(self, trivial, params):
        x = anchor_state(trivial, params)
        return x, AgentState(C=x.C + 0.01, K=x.K + 0.05, A=x.A + 0.002)

    def test_same_states_at_two_times(self, trivial, params, pair):
        x, y = pair
        first = green.transition_density(x, y, 0.01, trivial, params)
        second = green.transition_density(x, y, 0.02, trivial, params)
        assert first[1] != second[1]
        fresh = green.transition_density(copy_state(x), copy_state(y), 0.02, trivial, params)
        assert second == fresh
        assert green.transition_density(x, y, 0.01, trivial, params) == first

    def test_switching_maintext(self, trivial, params, pair):
        x, y = pair
        appendix = green.coefficients(trivial, params, x, y)
        maintext = green.coefficients(trivial, params, x, y, maintext=True)
        assert maintext.beta != appendix.beta
        d_app = green.transition_density(x, y, 0.01, trivial, params)
        d_main = green.transition_density(x, y, 0.01, trivial, params, maintext=True)
        assert d_main[1] != d_app[1]
        assert d_main == green.transition_density(
            copy_state(x), copy_state(y), 0.01, trivial, params, maintext=True
        )
        assert green.transition_density(x, y, 0.01, trivial, params) == d_app

    def test_equal_params_object_gives_same_values(self, trivial, params, pair):
        x, y = pair
        twin = params.replace()
        assert twin == params and twin is not params
        rec = green.coefficients(trivial, params, x, y)
        assert green.coefficients(trivial, twin, x, y) == rec
        assert green.transition_density(x, y, 0.01, trivial, twin) == green.transition_density(
            x, y, 0.01, trivial, params
        )

    def test_corrected_log_density_subtracts_gamma_v_exactly(self, nontrivial, params, pair):
        x, y = pair
        t = 0.01
        _, log_g = green.transition_density(x, y, t, nontrivial, params)
        _, log_c = corrections.corrected_density(x, y, t, nontrivial, params)
        V = corrections.correction_potential(x, y, t, nontrivial, params)
        assert log_c == log_g - params.gamma * V
        fresh = corrections.corrected_density(copy_state(x), copy_state(y), t, nontrivial, params)
        assert fresh[1] == log_c


class TestDensityMemo:
    """Each density call checks its horizon and warns on its own; equal states give equal results."""

    @pytest.fixture
    def pair(self, nontrivial, params):
        x = anchor_state(nontrivial, params)
        return x, AgentState(C=x.C + 0.01, K=x.K + 0.05, A=x.A + 0.002)

    def fresh(self, kernel, x, y, *args, **kwargs):
        return kernel(copy_state(x), copy_state(y), *args, **kwargs)

    def test_same_pair_at_a_second_time(self, nontrivial, params, pair):
        x, y = pair
        times = (0.01, 0.02, 0.01)
        got = [
            (
                green.transition_density(x, y, t, nontrivial, params),
                corrections.corrected_density(x, y, t, nontrivial, params),
            )
            for t in times
        ]
        for t, (td, cd) in zip(times, got):
            assert td == self.fresh(green.transition_density, x, y, t, nontrivial, params)
            assert cd == self.fresh(corrections.corrected_density, x, y, t, nontrivial, params)
        assert got[0][0][1] != got[1][0][1]

    def test_equal_states_as_new_objects(self, nontrivial, params, pair):
        x, y = pair
        t = 0.01
        td = green.transition_density(x, y, t, nontrivial, params)
        x2, y2 = copy_state(x), copy_state(y)
        assert x2 == x and x2 is not x
        assert corrections.corrected_density(x2, y2, t, nontrivial, params)[1] == (
            td[1] - params.gamma * corrections.correction_potential(x, y, t, nontrivial, params)
        )
        assert green.transition_density(x2, y2, t, nontrivial, params) == td
        # the reversed pair in between has a density of its own
        assert green.transition_density(y, x, t, nontrivial, params) != td
        assert green.transition_density(x, y, t, nontrivial, params) == td

    def test_maintext_switch(self, nontrivial, params, pair):
        x, y = pair
        t = 0.01
        main = green.transition_density(x, y, t, nontrivial, params, maintext=True)
        app_cd = corrections.corrected_density(x, y, t, nontrivial, params)
        assert app_cd == self.fresh(corrections.corrected_density, x, y, t, nontrivial, params)
        main_cd = corrections.corrected_density(x, y, t, nontrivial, params, maintext=True)
        assert main_cd == self.fresh(corrections.corrected_density, x, y, t, nontrivial, params, maintext=True)
        assert main_cd[1] != app_cd[1]
        assert green.transition_density(x, y, t, nontrivial, params, maintext=True) == main
        assert green.transition_density(x, y, t, nontrivial, params) == self.fresh(
            green.transition_density, x, y, t, nontrivial, params
        )

    def test_small_time_warning_on_every_repeated_call(self, trivial, params):
        x = anchor_state(trivial, params)
        y = AgentState(C=x.C + 0.01, K=x.K + 0.05, A=x.A)
        path = AgentPath([x.C, y.C], [x.K, y.K], [x.A, y.A], dt=1.0)
        for a, b in ((x, y), (path.state(0), path.state(1))):  # a lone pair, then a path's batch
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for _ in range(3):
                    green.transition_density(a, b, 1.0, trivial, params)
                    corrections.corrected_density(a, b, 1.0, trivial, params)
            assert [w.category for w in caught] == [green.SmallTimeWarning] * 6
            assert [Path(w.filename).name for w in caught] == ["test_green.py"] * 6

    def test_horizon_checked_on_every_call(self, trivial, params, pair):
        x, y = pair
        path = AgentPath([x.C, y.C], [x.K, y.K], [x.A, y.A], dt=0.01)
        for a, b in ((x, y), (path.state(0), path.state(1))):
            green.transition_density(a, b, 0.01, trivial, params)
            for t in (0.0, -0.01, math.nan, math.inf, True, "0.01", None):
                message = re.escape(f"t must be finite and > 0, got {t!r}")
                with pytest.raises(DomainError, match=message):
                    green.transition_density(a, b, t, trivial, params)
                with pytest.raises(DomainError, match=message):
                    corrections.corrected_density(a, b, t, trivial, params)
                with pytest.raises(DomainError, match=message):
                    green.gaussian_factor(a, b, t, trivial, params)


def seeded_panel(solution, params, seed=20261019, n_paths=8, n_samples=101, dt=0.01):
    """Paths relaxing towards the phase background (rate 0.5) with the model's noise amplitudes."""
    anchor = np.array([solution.C_bar_phase, params.K_bar, solution.A_bar_phase])
    amp = np.array([params.varpi, params.nu, 1.0 / params.lam])
    rng = np.random.default_rng(seed)
    x = anchor + amp * rng.standard_normal((n_paths, 3))
    out = np.empty((n_samples, n_paths, 3))
    out[0] = x
    for k in range(1, n_samples):
        x = x - 0.5 * (x - anchor) * dt + amp * math.sqrt(dt) * rng.standard_normal((n_paths, 3))
        out[k] = x
    return [AgentPath(out[:, i, 0], out[:, i, 1], out[:, i, 2], dt=dt) for i in range(n_paths)]


class TestScalarPanelPin:
    """The scalar pair kernels over a seeded panel, summed, are pinned bit for bit.

    The pairs are read through :meth:`AgentPath.state`, so the kernels read
    each path's batch; :class:`TestPathBatch` checks that every value
    equals the pair's lone evaluation.
    """

    def test_sums(self):
        params = load_config(BASE_CFG)
        sol = solve_phase(params, 0)
        td = cd = lp = 0.0
        for path in seeded_panel(sol, params):
            for i in range(len(path) - 1):
                a, b = path.state(i), path.state(i + 1)
                td += green.transition_density(a, b, path.dt, sol, params)[1]
                cd += corrections.corrected_density(a, b, path.dt, sol, params)[1]
                lp += math.log(green.laplace_propagator(a, b, sol, params))
        assert (td, cd, lp) == (673.4019955915454, 672.6014268832014, 956.595343316047)


def outcome(kernel, *args):
    """A kernel's value, or the type and message of the error it raises."""
    try:
        return kernel(*args)
    except (DomainError, SingularityError) as exc:
        return type(exc), str(exc)


def pair_kernels(solution, params, t, maintext=False):
    """Every kernel read from a path's batch, as a function of one pair of states."""
    return {
        "transition_density": lambda a, b: green.transition_density(a, b, t, solution, params, maintext),
        "corrected_density": lambda a, b: corrections.corrected_density(a, b, t, solution, params, maintext),
        "correction_potential": lambda a, b: corrections.correction_potential(a, b, t, solution, params),
        "gaussian_factor": lambda a, b: green.gaussian_factor(a, b, t, solution, params),
        "laplace_propagator": lambda a, b: green.laplace_propagator(a, b, solution, params),
    }


class TestPathBatch:
    """Consecutive states of a path read the path's batch; each value is the pair's lone evaluation."""

    @pytest.fixture(autouse=True)
    def no_numpy_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", green.SmallTimeWarning)
            yield

    @pytest.mark.parametrize("maintext", [False, True])
    def test_linked_equals_unlinked(self, nontrivial, trivial, params, maintext):
        # pairs of three paths in turn, each pair at two horizons, both
        # conventions and a second solution/params set, so the kept batch
        # and its horizon change on every call
        paths = seeded_panel(nontrivial, params, seed=7, n_paths=3, n_samples=12)
        other = params.replace(gamma=0.2, alpha_laplace=0.5)
        settings = (
            pair_kernels(nontrivial, params, 0.01, maintext),
            pair_kernels(nontrivial, params, 0.003, maintext),
            pair_kernels(nontrivial, params, 0.01, not maintext),
            pair_kernels(trivial, params, 0.01, maintext),
            pair_kernels(nontrivial, other, 0.01, maintext),
        )
        for i in range(len(paths[0]) - 1):
            for path in paths:
                a, b = path.state(i), path.state(i + 1)
                for name in settings[0]:
                    for kernels in settings:
                        kernel = kernels[name]
                        linked = kernel(a, b)
                        assert linked == kernel(copy_state(a), copy_state(b)), (name, i)
                        assert linked == kernel(a, b), (name, i)

    @pytest.mark.parametrize(
        "t", [True, np.True_, Decimal("1"), Fraction(1), np.float64(1.0), np.float32(1.0)],
        ids=["True", "np.True_", "Decimal", "Fraction", "float64", "float32"],
    )
    def test_kept_horizon_reused_only_for_a_float(self, nontrivial, params, t):
        # once the batch holds t = 1.0, a horizon that only compares equal to it
        # goes through the check: True read the kept density, and Decimal("1")
        # crashed corrected_density with a bare TypeError
        path = seeded_panel(nontrivial, params, seed=7, n_paths=1, n_samples=12)[0]
        a, b = path.state(0), path.state(1)
        for kernel in (green.transition_density, green.gaussian_factor, corrections.corrected_density):
            kernel(a, b, 1.0, nontrivial, params)
            linked = outcome(kernel, a, b, t, nontrivial, params)
            assert linked == outcome(kernel, copy_state(a), copy_state(b), t, nontrivial, params)
            if isinstance(t, (bool, np.bool_)):
                assert linked == (DomainError, f"t must be finite and > 0, got {t!r}")
            else:
                assert linked == kernel(a, b, 1.0, nontrivial, params)

    def test_linked_panel_sums_equal_unlinked(self, nontrivial, params):
        kernels = pair_kernels(nontrivial, params, 0.01)
        sums = {"linked": dict.fromkeys(kernels, 0.0), "unlinked": dict.fromkeys(kernels, 0.0)}
        for path in seeded_panel(nontrivial, params, n_paths=3, n_samples=40):
            for i in range(len(path) - 1):
                a, b = path.state(i), path.state(i + 1)
                for name, kernel in kernels.items():
                    value = kernel(a, b)
                    sums["linked"][name] += value[1] if isinstance(value, tuple) else value
                    value = kernel(copy_state(a), copy_state(b))
                    sums["unlinked"][name] += value[1] if isinstance(value, tuple) else value
        assert sums["linked"] == sums["unlinked"]

    def test_pair_arrays_built_once_per_path(self, nontrivial, params, monkeypatch):
        built = []
        record = green._pair

        def counting(*args, **kwargs):
            built.append(args)
            return record(*args, **kwargs)

        monkeypatch.setattr(green, "_pair", counting)
        paths = seeded_panel(nontrivial, params, n_paths=4, n_samples=30)
        for path in paths:
            states = [path.state(i) for i in range(len(path))]
            for a, b in zip(states, states[1:]):
                green.transition_density(a, b, path.dt, nontrivial, params)
                corrections.corrected_density(a, b, path.dt, nontrivial, params)
                green.laplace_propagator(a, b, nontrivial, params)
        assert len(built) == len(paths)

    def test_only_consecutive_states_of_one_path_read_its_batch(self, nontrivial, params):
        path, twin = seeded_panel(nontrivial, params, n_paths=2, n_samples=5)
        for a, b in (
            (path.state(-1), path.state(0)),  # last and first: not consecutive
            (path.state(1), path.state(1)),
            (path.state(2), path.state(1)),
            (path.state(1), twin.state(2)),
            (path.state(1), copy_state(path.state(2))),
            (dataclasses.replace(path.state(1)), path.state(2)),
        ):
            _, batch, i = green._lookup(green._log_density_rows, a, b, 0.01, nontrivial, params)
            assert batch.path is None and i == 0
        last = (path.state(-2), path.state(-1))
        _, batch, i = green._lookup(green._log_density_rows, *last, 0.01, nontrivial, params)
        assert batch.path is path and i == len(path) - 2

    SCENARIOS = {
        # name: (config changes, phase, C, K, A, t, kernel that fails on some pairs, error)
        "midpoint capital": (
            {}, 0, [1.08, 1.08, 1.09, 1.1], [10.0, 0.0, 0.0, 10.0], [10.0] * 4, 0.01,
            "transition_density", (DomainError, "midpoint capital must be positive"),
        ),
        "capital variance rate": (
            {"r_c": 0.01}, 0, [1.0, 1.01, 1.02, 1.03], [10.0, 10.05, 10.1, 10.15],
            [10.0, 10.0, 0.2, 0.2], 0.01,
            "laplace_propagator", (SingularityError, "vanishing factor in closed form: capital variance rate b"),
        ),
        "coincident endpoints": (
            {}, 0, [1.08, 1.09, 1.09, 1.1], [10.0, 10.05, 10.05, 10.1], [10.0, 10.01, 10.01, 10.0], 0.01,
            "laplace_propagator", (DomainError, "Laplace propagator diverges at coincident endpoints"),
        ),
        "density past the largest double": (
            {}, 0, [1.08, 1.09, 1.09, 1.1], [10.0, 10.05, 10.05, 10.1], [10.0, 10.01, 10.01, 10.0], 1e-250,
            "transition_density", (DomainError, "density exp("),
        ),
        "decay rate": (
            {"alpha_laplace": -100.0}, 0, [1.08, 1.09, 1.1, 4.0], [10.0, 10.01, 10.02, 10.03],
            [0.79, 0.8, 10.0, 10.0], 0.01,
            "laplace_propagator", (DomainError, "Laplace propagator decay rate must be positive"),
        ),
    }

    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_failing_pair_raises_alone(self, params, scenario):
        changes, phase, C, K, A, t, failing, (error, message) = self.SCENARIOS[scenario]
        p = params.replace(**changes)
        sol = solve_phase(params, phase)
        path = AgentPath(C, K, A, dt=t)
        kernels = pair_kernels(sol, p, t)
        seen = []
        for i in range(len(path) - 1):
            a, b = path.state(i), path.state(i + 1)
            for name, kernel in kernels.items():
                got = outcome(kernel, a, b)
                assert got == outcome(kernel, copy_state(a), copy_state(b)), (name, i)
                if name == failing:
                    seen.append(got)
        raised = [got for got in seen if isinstance(got, tuple) and got[0] is error]
        assert raised and all(text.startswith(message) for _, text in raised)
        assert len(raised) < len(seen)  # the other pairs of the path are scored

    def test_vanishing_variances_raise_on_every_pair(self, trivial, params):
        t = 5e-324
        path = seeded_panel(trivial, params, n_paths=1, n_samples=4)[0]
        message = f"kernel variances vanish at t = {t!r}"
        for i in range(len(path) - 1):
            a, b = path.state(i), path.state(i + 1)
            for kernel in (green.transition_density, corrections.corrected_density, green.gaussian_factor):
                assert outcome(kernel, a, b, t, trivial, params) == (DomainError, message)


class TestCorrectedDensityLookup:
    """A linked ``corrected_density`` reads G and V in one lookup and keeps every check."""

    def counting(self, monkeypatch, owner, name, calls):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def test_one_lookup_and_no_nested_kernel(self, nontrivial, params, monkeypatch):
        calls = []
        for owner, name in (
            (green, "transition_density"), (corrections, "transition_density"),
            (corrections, "correction_potential"), (corrections, "_lookup"),
        ):
            self.counting(monkeypatch, owner, name, calls)
        paths = seeded_panel(nontrivial, params, n_paths=3, n_samples=20)
        n = 0
        for path in paths:
            for i in range(len(path) - 1):
                corrections.corrected_density(path.state(i), path.state(i + 1), path.dt, nontrivial, params)
                n += 1
        assert calls == ["_lookup"] * n

    def test_uncorrected_density_checked_first(self, params, monkeypatch):
        # with V so large that G exp(-gamma V) fits a double, a pair whose
        # G overflows still raises the uncorrected density's error
        sol = solve_phase(params, 0)
        t = 1e-250
        path = AgentPath([1.08, 1.09, 1.09, 1.1], [10.0, 10.05, 10.05, 10.1], [10.0, 10.01, 10.01, 10.0], dt=t)
        monkeypatch.setattr(corrections, "_potential_rows", lambda pair, t, p, maintext: (pair.X[0] * 0.0 + 1e6, ()))
        a, b = path.state(1), path.state(2)
        expected = outcome(green.transition_density, a, b, t, sol, params)
        assert expected[0] is DomainError and expected[1].startswith("density exp(")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", green.SmallTimeWarning)
            for x, y in ((a, b), (copy_state(a), copy_state(b))):  # the kept batch's route, then the lone one
                assert outcome(corrections.corrected_density, x, y, t, sol, params) == expected
                # where G fits a double, the pair reads the large V
                log_g = green.transition_density(x, y, 0.01, sol, params)[1]
                assert corrections.corrected_density(x, y, 0.01, sol, params) == (0.0, log_g - params.gamma * 1e6)


def fixed_point(solution, params):
    """The sampler drift's stable fixed point ``(C_bar, K_eq, A_bar)``, K_eq above the drift maximum."""
    point = mc._drift_and_jacobian(solution, params)
    lo = (solution.A_bar_phase * params.epsilon / params.delta) ** (1.0 / (1.0 - params.epsilon))
    K_eq = brentq(lambda k: point(solution.C_bar_phase, k, solution.A_bar_phase)[1], lo, 1e3 * lo, xtol=1e-13)
    return AgentState(C=solution.C_bar_phase, K=K_eq, A=solution.A_bar_phase)


def lyapunov_closed_form(J, params, s):
    """``e^{J s}`` and ``int_0^s e^{J u} Q e^{J^T u} du`` with the sampler's noise, by eigendecomposition.

    With ``J = V diag(w) V^-1`` and ``Q~ = V^-1 Q V^-T`` the integral is
    ``V [Q~_ij (e^{(w_i + w_j) s} - 1) / (w_i + w_j)] V^T``.
    """
    Q = np.diag([params.varpi ** 2, params.nu ** 2, 1.0 / params.lambda_sq])
    w, V = np.linalg.eig(J)
    Vinv = np.linalg.inv(V)
    Qt = Vinv @ Q @ Vinv.T
    rate = w[:, None] + w[None, :]
    W = Qt * np.expm1(rate * s) / rate
    return np.real(V @ np.diag(np.exp(w * s)) @ Vinv), np.real(V @ W @ V.T)


class TestCovariance:
    """The covariance of the Monte Carlo reference :func:`montecarlo.lna_moments`.

    At the drift's fixed point the mean stays put, so the Jacobian is
    constant and the Lyapunov equation has a closed form; the Heun steps
    reach it to second order in ``dt``.
    """

    @pytest.mark.parametrize("phase", [0, 1])
    def test_ode_matches_closed_form(self, params, phase, drift_jacobian):
        sol = solve_phase(params, phase)
        x = fixed_point(sol, params)
        J = drift_jacobian((x.C, x.K, x.A), sol, params)
        for s in (0.05, 0.2, 0.5):
            _, exact = lyapunov_closed_form(J, params, s)
            err = [
                np.max(np.abs(mc.lna_moments(x, s, dt, sol, params)[1] - exact)) / np.max(np.abs(exact))
                for dt in (1e-2, 5e-3)
            ]
            assert err[0] < 1e-3, (s, err)
            assert 3.6 < err[0] / err[1] < 4.4, (s, err)

    def test_matches_quadrature(self, trivial, params, drift_jacobian):
        x = fixed_point(trivial, params)
        J = drift_jacobian((x.C, x.K, x.A), trivial, params)
        Q = np.diag([params.varpi ** 2, params.nu ** 2, 1.0 / params.lambda_sq])
        s = 0.4
        integral, _ = quad_vec(lambda u: expm(J * u) @ Q @ expm(J.T * u), 0.0, s, epsabs=0, epsrel=1e-12)
        _, cov = mc.lna_moments(x, s, 1e-3, trivial, params)
        np.testing.assert_allclose(cov, integral, rtol=1e-5, atol=1e-5 * np.max(np.abs(integral)))

    def test_response_vector_matches(self, trivial, params, drift_jacobian):
        # near the fixed point the mean responds to the start state through e^{J s}
        x = fixed_point(trivial, params)
        d = np.array([1e-3, 1e-2, 1e-3])
        y = AgentState(*(x.as_array() + d))
        decay, _ = lyapunov_closed_form(drift_jacobian((x.C, x.K, x.A), trivial, params), params, 0.4)
        response = mc.lna_moments(y, 0.4, 1e-2, trivial, params)[0] - mc.lna_moments(x, 0.4, 1e-2, trivial, params)[0]
        np.testing.assert_allclose(response, decay @ d, rtol=1e-5, atol=0)

    def test_long_horizon_matches_closed_form(self, nontrivial, params, drift_jacobian):
        x = fixed_point(nontrivial, params)
        d = np.array([1e-3, 1e-2, 1e-3])
        y = AgentState(*(x.as_array() + d))
        decay, exact = lyapunov_closed_form(drift_jacobian((x.C, x.K, x.A), nontrivial, params), params, 10.0)
        mean, cov = mc.lna_moments(x, 10.0, 1e-2, nontrivial, params)
        assert np.max(np.abs(cov - exact)) / np.max(np.abs(exact)) < 1e-6
        response = mc.lna_moments(y, 10.0, 1e-2, nontrivial, params)[0] - mean
        np.testing.assert_allclose(response, decay @ d, rtol=1e-4, atol=0)

    def test_small_horizon_limit(self, trivial, params):
        s = 1e-5
        _, cov = mc.lna_moments(anchor_state(trivial, params), s, s, trivial, params)
        expected = s * np.diag([params.varpi ** 2, params.nu ** 2, 1.0 / params.lambda_sq])
        np.testing.assert_allclose(cov, expected, rtol=1e-2, atol=1e-11)

    @given(st.floats(0.01, 1.0))
    def test_accumulator_symmetric_with_positive_diagonal(self, s):
        params = ModelParams()
        sol = solve_phase(params, 0)
        _, cov = mc.lna_moments(anchor_state(sol, params), s, s / 10, sol, params)
        np.testing.assert_array_equal(cov, cov.T)
        assert np.all(np.diag(cov) > 0.0)
        assert np.all(np.linalg.eigvalsh(cov) > 0.0)

    def test_zero_horizon(self, trivial, params):
        with pytest.raises(DomainError):
            mc.lna_moments(AgentState(C=1.4, K=9.0, A=10.5), 0.0, 1e-2, trivial, params)

    def test_negative_horizon_rejected(self, trivial, params):
        with pytest.raises(DomainError):
            mc.lna_moments(anchor_state(trivial, params), -1e-3, 1e-3, trivial, params)


class TestTransitionDensity:
    def test_density_is_exp_of_log(self, trivial, params):
        x = anchor_state(trivial, params)
        y = AgentState(C=x.C + 0.01, K=x.K + 0.05, A=x.A)
        d, ld = green.transition_density(x, y, 0.01, trivial, params)
        assert d == pytest.approx(math.exp(ld))

    def test_mass_damps_nontrivial_phase(self, trivial, nontrivial, params):
        # with endpoints at each phase's own most likely point, the
        # density ratio reduces to the mass damping exp(-m1 t)
        t = 0.01
        x0 = anchor_state(trivial, params)
        x1 = anchor_state(nontrivial, params)
        y0 = green.most_likely_endpoint(x0, t, trivial, params)
        y1 = green.most_likely_endpoint(x1, t, nontrivial, params)
        _, ld0 = green.transition_density(x0, y0, t, trivial, params)
        _, ld1 = green.transition_density(x1, y1, t, nontrivial, params)
        assert ld1 < ld0
        assert ld0 - ld1 == pytest.approx(nontrivial.mass * t, rel=0.05)

    def test_small_time_warning(self, trivial, params):
        x = anchor_state(trivial, params)
        with pytest.warns(green.SmallTimeWarning):
            green.transition_density(x, x, 1.0, trivial, params)
        # a repeated call is a memo hit and still warns
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                green.transition_density(x, x, 1.0, trivial, params)
        assert [w.category for w in caught] == [green.SmallTimeWarning] * 2
        assert {w.filename for w in caught} == {__file__}

    def test_small_time_threshold_is_on_the_larger_rate(self, trivial, params):
        x = anchor_state(trivial, params)
        y = AgentState(C=x.C + 0.01, K=x.K + 0.05, A=x.A)
        c = green.coefficients(trivial, params, x, y)
        t_edge = green._SMALL_S_THRESHOLD / max(abs(c.alpha), abs(c.beta))
        with warnings.catch_warnings():
            warnings.simplefilter("error", green.SmallTimeWarning)
            green.transition_density(x, y, 0.99 * t_edge, trivial, params)
        with pytest.warns(green.SmallTimeWarning):
            green.transition_density(x, y, 1.01 * t_edge, trivial, params)

    def test_zero_horizon_rejected(self, trivial, params):
        x = anchor_state(trivial, params)
        with pytest.raises(DomainError):
            green.transition_density(x, x, 0.0, trivial, params)

    @pytest.mark.parametrize("t", [-1e-3, math.nan, math.inf])
    def test_horizon_outside_zero_to_infinity_rejected(self, trivial, params, t):
        x = anchor_state(trivial, params)
        y = AgentState(C=x.C + 0.01, K=x.K + 0.05, A=x.A)
        for kernel in (green.transition_density, green.gaussian_factor, green.dmcvr_residuals):
            with pytest.raises(DomainError):
                kernel(x, y, t, trivial, params)
        with pytest.raises(DomainError):
            green.most_likely_endpoint(x, t, trivial, params)
        with pytest.raises(DomainError):
            green.average_path(x, t, trivial, params)

    def test_nonpositive_capital_variance_rate_is_singular(self):
        # r_c = 0.01 makes 3 varpi^2 / (2 (2 alpha + beta) beta) outweigh the
        # other terms of b; every kernel that divides by the rates says so
        p = ModelParams(r_c=0.01)
        sol = solve_phase(p, 0)
        x, y = AgentState(C=1.0, K=10.0, A=0.2), AgentState(C=1.01, K=10.05, A=0.21)
        assert green.coefficients(sol, p, x, y).b_coef <= 0.0
        with pytest.raises(SingularityError, match="capital variance rate b"):
            green.transition_density(x, y, 0.01, sol, p)
        with pytest.raises(SingularityError, match="capital variance rate b"):
            green.laplace_propagator(x, y, sol, p)

    def test_gaussian_factor_peaks_at_most_likely_endpoint(self, trivial, params):
        x = anchor_state(trivial, params)
        t = 0.01
        peak = green.most_likely_endpoint(x, t, trivial, params)
        f_peak = green.gaussian_factor(x, peak, t, trivial, params)
        rng = np.random.default_rng(0)
        for _ in range(20):
            off = rng.normal(scale=[0.01, 0.02, 0.01])
            other = AgentState(C=peak.C + off[0], K=peak.K + off[1], A=peak.A + off[2])
            assert green.gaussian_factor(x, other, t, trivial, params) <= f_peak * (1 + 1e-9)


class TestDrift:
    @pytest.mark.parametrize("phase", [0, 1])
    def test_displacement_matches_exact_arithmetic(self, params, phase):
        # X = (to - from) - t drift(from), against the same float inputs in
        # exact rational arithmetic; endpoints lie one to three standard
        # deviations off the drifted start, so X is well conditioned
        p = params
        sol = solve_phase(p, phase)
        ref = green.coefficients(sol, p)
        Keps = p.K_bar ** p.epsilon
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(250):
            C, K, A = rng.uniform([0.5, 5.0, 9.0], [3.0, 15.0, 11.0])
            x = AgentState(C=float(C), K=float(K), A=float(A))
            t = float(rng.uniform(1e-3, 1e-2))
            sd = np.sqrt([p.varpi ** 2 * t, 0.5 * ref.b_coef * t, 0.5 * ref.c_coef * t])
            z = rng.choice([-1.0, 1.0], 3) * rng.uniform(1.0, 3.0, 3) * sd
            dC = (ref.alpha + ref.beta) * (x.C - ref.C_bar)
            dK = -(ref.alpha * (x.K - p.K_bar) + p.delta * p.K_bar + x.C - x.A * Keps)
            y = AgentState(*(float(v) for v in (x.C + t * dC + z[0], x.K + t * dK + z[1], x.A + z[2])))
            c = green.coefficients(sol, p, x, y)
            pair = green._pair(sol, p, x, y)
            X = (*green.dmcvr_residuals(x, y, t, sol, p)[:2], pair.X[2])
            # the Gaussian exponent reads the same displacement
            quad = sum(Xi * Xi / (2.0 * w * t) for Xi, w in zip(X, pair.rates))
            log_norm = -0.5 * sum(math.log(2.0 * math.pi * w * t) for w in pair.rates)
            assert green._log_gaussian_rows(pair, t, p, False)[0] == pytest.approx(log_norm - quad, rel=1e-13)
            F = Fraction
            a, Kb = F(c.alpha), F(p.K_bar)
            exact_dK = -(a * (F(x.K) - Kb) + F(p.delta) * Kb + F(x.C) - F(x.A) * F(Keps))
            exact = (
                F(y.C) - F(x.C) - F(t) * (a + F(c.beta)) * (F(x.C) - F(c.C_bar)),
                F(y.K) - F(x.K) - F(t) * exact_dK,
                F(y.A) - F(x.A),
            )
            worst = max(worst, *(float(abs(F(got) - e) / abs(e)) for got, e in zip(X, exact)))
        assert worst <= 1e-14

    @pytest.mark.parametrize("phase", [0, 1])
    def test_drift_matrix_rows_are_the_drift(self, params, phase):
        # the kernel drift is affine, and _drift_matrix holds its slopes
        p = params
        sol = solve_phase(p, phase)
        coeffs = green.coefficients(sol, p)
        anchor = anchor_state(sol, p)
        F = green._drift_matrix(sol, p)
        for x in (AgentState(C=1.3, K=11.5, A=9.0), AgentState(C=0.6, K=7.0, A=10.8)):
            change = np.subtract(green._drift(x, coeffs, p), green._drift(anchor, coeffs, p))
            np.testing.assert_allclose(change, F[:2] @ (x.as_array() - anchor.as_array()), rtol=1e-12, atol=1e-14)


class TestMostLikelyEndpoint:
    def test_zero_exponent_relations(self, trivial, params):
        x = AgentState(C=1.2, K=10.5, A=9.8)
        t = 0.02
        to = green.most_likely_endpoint(x, t, trivial, params)
        r1, r2, r3 = green.dmcvr_residuals(x, to, t, trivial, params)
        assert abs(r1) < 1e-10
        assert abs(r2) < 1e-10
        assert abs(r3) < 1e-10

    def test_technology_relation_is_the_printed_linear_form(self, trivial, params):
        x, y, t = AgentState(C=1.2, K=10.5, A=9.0), AgentState(C=1.21, K=10.4, A=9.1), 0.02
        r3 = green.dmcvr_residuals(x, y, t, trivial, params)[2]
        gap = 0.5 * (x.A + y.A) - trivial.A_bar_phase
        assert r3 == pytest.approx(params.lambda_sq * (y.A - x.A) + 0.5 * gap * t, rel=1e-14)

    def test_anchor_is_almost_fixed(self, trivial, params):
        x = anchor_state(trivial, params)
        to = green.most_likely_endpoint(x, 0.01, trivial, params)
        assert to.C == pytest.approx(x.C, abs=1e-12)
        assert to.A == pytest.approx(x.A, abs=1e-12)


class TestEquilibrium:
    def test_average_path_rhs_vanishes(self, trivial, params):
        eq = green.equilibrium(trivial, params)
        rhs = green.average_path_rhs(eq.as_array(), trivial, params, eq.K)
        np.testing.assert_allclose(rhs, 0.0, atol=1e-12)

    def test_positive_capital_required(self, params):
        # a consumption anchor above sustainable production empties the stock
        p = params.replace(A0=0.1, C_bar=5.0, kappa=0.0)
        sol = solve_phase(p, 0)
        with pytest.raises(DomainError):
            green.equilibrium(sol, p)

    def test_jacobian_eigenvalue_signs_at_balanced_rates(self):
        p = ModelParams().replace(A0=0.6, kappa=0.0, C_bar=0.5, varpi=0.05, r_c=0.05)
        sol = solve_phase(p, 0)
        report = green.linearized_eigenvalues(sol, p)
        eigs = np.sort(np.real(report["jacobian_eigenvalues"]))
        assert eigs[0] < 0.0 < eigs[1]


class TestAveragePath:
    def test_stays_at_equilibrium(self, trivial, params):
        eq = green.equilibrium(trivial, params)
        path = green.average_path(eq, 0.5, trivial, params, n_steps=100)
        np.testing.assert_allclose(path.C, eq.C, rtol=1e-12)
        np.testing.assert_allclose(path.K, eq.K, rtol=1e-12)
        np.testing.assert_allclose(path.A, eq.A, rtol=1e-12)

    @pytest.mark.parametrize("n_steps", [2.5, True, False, np.True_, "2", 0, -1, np.float64(2.0)])
    def test_step_count_must_be_a_positive_integer(self, trivial, params, n_steps):
        # 2.5 raised a bare TypeError, and True ran one step
        with pytest.raises(ParameterError) as excinfo:
            green.average_path(green.equilibrium(trivial, params), 0.5, trivial, params, n_steps=n_steps)
        assert str(excinfo.value) == f"n_steps must be >= 1, got {n_steps}"

    @pytest.mark.parametrize("n_steps", [2, np.int64(2), np.uint8(2)])
    def test_integer_step_counts_accepted(self, trivial, params, n_steps):
        path = green.average_path(green.equilibrium(trivial, params), 0.5, trivial, params, n_steps=n_steps)
        assert len(path) == 3

    def test_capital_crash_terminates_with_partial(self, trivial, params):
        start = AgentState(C=10.0, K=2.0, A=trivial.A_bar_phase)
        with pytest.raises(TrajectoryTerminated) as err:
            green.average_path(start, 5.0, trivial, params, n_steps=500)
        assert err.value.partial_path is not None
        assert len(err.value.partial_path) >= 2


class TestMeanState:
    """The mean of the Monte Carlo reference :func:`montecarlo.lna_moments`."""

    def test_anchor_drift(self, trivial, params):
        # at the anchor only the capital drift acts
        x = anchor_state(trivial, params)
        t = 1e-3
        mu, _ = mc.lna_moments(x, t, t, trivial, params)
        Keps = params.K_bar ** params.epsilon
        G0 = trivial.A_bar_phase * Keps - params.delta * params.K_bar - trivial.C_bar_phase
        assert mu[0] == pytest.approx(x.C, abs=1e-12)
        assert mu[2] == pytest.approx(x.A, abs=1e-12)
        assert (mu[1] - x.K) / t == pytest.approx(G0, rel=1e-3)


class TestPaperKernelConventions:
    """Paper-kernel conventions the Monte Carlo oracle does not check, pinned as they are."""

    def test_density_capital_variance_rate_is_half_b_not_nu_squared(self, trivial, params):
        # the density's capital variance grows at b/2, the sampler's (and
        # its linear-noise reference's) at nu^2, twenty times smaller at the
        # defaults
        t = 1e-3
        x = anchor_state(trivial, params)
        rate_K = green._pair(trivial, params, x, x).rates[1]
        assert rate_K == pytest.approx(0.20144106368924605, rel=1e-12)
        _, cov = mc.lna_moments(x, t, t, trivial, params)
        assert cov[1, 1] / t == pytest.approx(params.nu ** 2, rel=1e-2)
        assert params.nu ** 2 == pytest.approx(0.01, rel=1e-12)

    def test_average_path_consumption_rate_subtracts_delta(self, trivial, params):
        # average_path_rhs grows C - C_bar at A F'(K) + r_c - delta, the
        # Langevin sampler at A F'(K) + r_c
        C, K, A = trivial.C_bar_phase + 0.1, 10.5, 9.5
        AFp = A * params.epsilon * K ** (params.epsilon - 1.0)
        dC = green.average_path_rhs(np.array([C, K, A]), trivial, params, K_e=10.0)[0]
        assert dC / (C - trivial.C_bar_phase) == pytest.approx(AFp + params.r_c - params.delta, rel=1e-12)
        dC_mc, _, _, rate, *_ = mc._drift_and_jacobian(trivial, params)(C, K, A)
        assert rate == pytest.approx(AFp + params.r_c, rel=1e-12)
        assert dC_mc == pytest.approx(rate * (C - trivial.C_bar_phase), rel=1e-12)


class TestLaplacePropagator:
    def test_matches_quadrature_in_t(self, trivial, params):
        x = AgentState(C=1.1, K=10.2, A=10.0)
        y = AgentState(C=1.15, K=10.4, A=10.05)
        rate = 5.0  # far enough from the default 0.2 that the propagator must read it
        p = params.replace(alpha_laplace=rate)
        value = green.laplace_propagator(x, y, trivial, p)

        def integrand(t):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", green.SmallTimeWarning)
                d, _ = green.transition_density(x, y, t, trivial, p)
            return d * math.exp(-rate * t)

        # the integrand is sharply peaked near its saddle; steer the
        # quadrature through it
        numeric = quad(
            integrand, 0.0, 5.0, limit=800, points=[0.005, 0.02, 0.05, 0.2, 1.0]
        )[0]
        numeric += quad(integrand, 5.0, 80.0, limit=200)[0]
        assert value == pytest.approx(numeric, rel=2e-2, abs=0)  # values are ~1e-12

    def test_coincident_endpoints_diverge(self, trivial, params):
        x = AgentState(C=1.1, K=10.2, A=10.0)
        with pytest.raises(DomainError):
            green.laplace_propagator(x, x, trivial, params)
