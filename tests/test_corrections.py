import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclefield import corrections, green
from cyclefield.errors import DomainError
from cyclefield.params import ModelParams
from cyclefield.paths import AgentPath, AgentState
from cyclefield.phases import solve_phase


def make_query(t=0.2):
    return corrections.DeviationQuery(
        x0=AgentState(C=1.1, K=10.5, A=9.8), v0=(0.05, -0.1, 0.02), t=t
    )


class TestCorrectionPotential:
    def test_corrected_density_is_damped_kernel(self, trivial, params):
        x = AgentState(C=1.1, K=10.2, A=10.0)
        y = AgentState(C=1.12, K=10.3, A=10.01)
        t = 0.01
        _, log_g = green.transition_density(x, y, t, trivial, params)
        V = corrections.correction_potential(x, y, t, trivial, params)
        d, ld = corrections.corrected_density(x, y, t, trivial, params)
        assert ld == pytest.approx(log_g - params.gamma * V)
        assert d == pytest.approx(math.exp(ld))

    def test_potential_vanishes_at_zero_horizon(self, trivial, params):
        x = AgentState(C=1.1, K=10.2, A=10.0)
        y = AgentState(C=1.5, K=11.0, A=9.0)
        assert corrections.correction_potential(x, y, 0.0, trivial, params) == 0.0

    def test_negative_horizon_rejected(self, trivial, params):
        x = AgentState(C=1.0, K=10.0, A=10.0)
        with pytest.raises(DomainError):
            corrections.correction_potential(x, x, -1.0, trivial, params)


@pytest.mark.parametrize(
    "t", [math.nan, math.inf, -1.0, True, np.True_, "0.1", None],
    ids=["nan", "inf", "negative", "True", "np.True_", "text", "None"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda t, sol, p: corrections.correction_potential(
            AgentState(C=1.0, K=10.0, A=10.0), AgentState(C=1.1, K=10.2, A=9.9), t, sol, p
        ),
        lambda t, sol, p: corrections.elasticity_table(t, sol, p),
        lambda t, sol, p: corrections.modified_matrices(t, sol, p),
        lambda t, sol, p: make_query(t=t),
        lambda t, sol, p: corrections.TwoAgentQuery(*[AgentState(C=1, K=1, A=1)] * 4, t=t),
    ],
    ids=["correction_potential", "elasticity_table", "modified_matrices", "DeviationQuery", "TwoAgentQuery"],
)
def test_horizon_outside_zero_to_infinity_rejected(call, t, trivial, params):
    with pytest.raises(DomainError, match="finite and >= 0"):
        call(t, trivial, params)


class TestDeviationQuery:
    @pytest.mark.parametrize(
        "v0", [("a", 0, 0), (True, 0.0, 0.0), (0.0, np.False_, 0.0), (0.0, 0.0, None), (0.0, math.nan, 0.0)],
        ids=["text", "True", "np.False_", "None", "nan"],
    )
    def test_velocity_components_must_be_finite_numbers(self, v0):
        # "a" raised a bare ValueError, and True ran as 1.0
        with pytest.raises(DomainError) as excinfo:
            corrections.DeviationQuery(x0=AgentState(C=1.1, K=10.5, A=9.8), v0=v0, t=0.2)
        assert str(excinfo.value) == f"v0 components must be finite, got {v0!r}"

    def test_real_components_stored_as_floats(self):
        q = corrections.DeviationQuery(
            x0=AgentState(C=1.1, K=10.5, A=9.8), v0=(np.float32(0.5), Fraction(1, 4), -1), t=np.float32(0.5)
        )
        assert q.v0 == (0.5, 0.25, -1.0) and q.t == 0.5
        assert all(type(v) is float for v in (*q.v0, q.t))


class TestPathDeviation:
    def test_consumption_deviation_identically_zero(self, trivial, params):
        dC, _, _ = corrections.path_deviation(make_query(), trivial, params)
        assert dC == 0.0

    @given(st.floats(0.01, 1.0), st.floats(0.0, 0.2))
    def test_linear_in_interaction_strength(self, t, gamma):
        params = ModelParams()
        sol = solve_phase(params, 0)
        q = make_query(t)
        base = corrections.path_deviation(q, sol, params.replace(gamma=0.05))
        scaled = corrections.path_deviation(q, sol, params.replace(gamma=0.05 * 3.0))
        for b, s in zip(base, scaled):
            assert s == pytest.approx(3.0 * b, rel=1e-12, abs=1e-300)

    def test_vanishes_without_interaction(self, trivial, params):
        p0 = params.replace(gamma=0.0)
        assert corrections.path_deviation(make_query(), trivial, p0) == (0.0, 0.0, 0.0)


class TestElasticities:
    STATE_KEYS = {
        "dK_dC0": (1, 0, 0.0),   # (output index, input index, _)
        "dK_dK0": (1, 1, 0.0),
        "dK_dA0": (1, 2, 0.0),
        "dA_dK0": (2, 1, 0.0),
    }
    VELOCITY_KEYS = {
        "dK_dCdot0": (1, 0),
        "dK_dKdot0": (1, 1),
        "dK_dAdot0": (1, 2),
        "dA_dKdot0": (2, 1),
        "dA_dAdot0": (2, 2),
    }

    def central_difference(self, trivial, params, t, out_idx, in_idx, velocity):
        h = 1e-4
        base = make_query(t)
        x0, v0 = base.x0, list(base.v0)

        def shifted(sign):
            if velocity:
                v = list(v0)
                v[in_idx] += sign * h
                q = corrections.DeviationQuery(x0=x0, v0=tuple(v), t=t)
            else:
                vals = [x0.C, x0.K, x0.A]
                vals[in_idx] += sign * h
                q = corrections.DeviationQuery(
                    x0=AgentState(C=vals[0], K=vals[1], A=vals[2]), v0=tuple(v0), t=t
                )
            return corrections.path_deviation(q, trivial, params)[out_idx]

        return (shifted(+1) - shifted(-1)) / (2.0 * h)

    def test_table_matches_central_differences(self, trivial, params):
        t = 0.3
        table = corrections.elasticity_table(t, trivial, params)
        for key, (oi, ii, _) in self.STATE_KEYS.items():
            fd = self.central_difference(trivial, params, t, oi, ii, velocity=False)
            assert table[key] == pytest.approx(fd, rel=1e-6, abs=0.0), key
        for key, (oi, ii) in self.VELOCITY_KEYS.items():
            fd = self.central_difference(trivial, params, t, oi, ii, velocity=True)
            assert table[key] == pytest.approx(fd, rel=1e-6, abs=0.0), key

    def test_printed_signs(self, trivial, params):
        table = corrections.elasticity_table(0.3, trivial, params)
        assert table["dK_dCdot0"] < 0.0  # later consumption growth evicts capital
        for key, value in table.items():
            if key != "dK_dCdot0":
                assert value > 0.0, key


class TestModifiedMatrices:
    def test_free_limit(self, trivial, params):
        p0 = params.replace(gamma=0.0)
        m = corrections.modified_matrices(0.4, trivial, p0)
        np.testing.assert_allclose(m["M_bar"], m["M"], atol=0)
        np.testing.assert_allclose(m["H_bar"], 0.4 * m["H"], atol=0)
        np.testing.assert_allclose(m["source"], 0.0, atol=0)

    def test_moment_matrices_structure(self, trivial, params):
        s = 0.5
        m = corrections.modified_matrices(s, trivial, params)
        Keps = params.K_bar ** params.epsilon
        assert m["R1"][0, 2] == pytest.approx(s ** 3 / 24.0)
        assert m["R1"][2, 2] == pytest.approx(-Keps * s ** 3 / 12.0)
        assert m["R2"][1, 2] == pytest.approx(s ** 2 / 2.0)
        assert m["R3"][1, 2] == pytest.approx(s ** 2)
        np.testing.assert_allclose(m["R1"], m["R1"].T, atol=0)
        np.testing.assert_allclose(m["R3"], m["R3"].T, atol=0)

    @pytest.mark.parametrize("phase", [0, 1])
    def test_display_drift_is_the_kernel_drift_with_the_capital_row_negated(self, params, phase):
        # M = [[alpha+beta, 0, 0], [1, alpha, -K_bar^eps], [0, 0, 0]] at the
        # reference coefficients, every zero positive
        sol = solve_phase(params, phase)
        c = green.coefficients(sol, params)
        expected = np.array(
            [
                [c.alpha + c.beta, 0.0, 0.0],
                [1.0, c.alpha, -params.K_bar ** params.epsilon],
                [0.0, 0.0, 0.0],
            ]
        )
        M = corrections.modified_matrices(0.1, sol, params)["M"]
        assert M.tobytes() == expected.tobytes()

    def test_modified_covariance_symmetric(self, trivial, params):
        m = corrections.modified_matrices(0.5, trivial, params)
        np.testing.assert_allclose(m["H_bar"], m["H_bar"].T, rtol=1e-12)

    def test_first_order_in_gamma(self, trivial, params):
        s = 0.5
        m1 = corrections.modified_matrices(s, trivial, params.replace(gamma=0.01))
        m2 = corrections.modified_matrices(s, trivial, params.replace(gamma=0.02))
        base = corrections.modified_matrices(s, trivial, params.replace(gamma=0.0))
        d1 = m1["M_bar"] - base["M_bar"]
        d2 = m2["M_bar"] - base["M_bar"]
        # the product form carries a small gamma^2 remainder
        np.testing.assert_allclose(d2, 2.0 * d1, rtol=1e-2, atol=1e-8)


class TestTwoAgent:
    def make_query(self, t=0.3):
        return corrections.TwoAgentQuery(
            from1=AgentState(C=1.0, K=10.0, A=10.0),
            to1=AgentState(C=1.2, K=10.5, A=9.9),
            from2=AgentState(C=0.9, K=11.0, A=10.2),
            to2=AgentState(C=1.1, K=11.5, A=10.4),
            t=t,
        )

    def test_swap_symmetry(self, trivial, params):
        q = self.make_query()
        swapped = corrections.TwoAgentQuery(
            from1=q.from2, to1=q.to2, from2=q.from1, to2=q.to1, t=q.t
        )
        a = corrections.two_agent_correction(q, trivial, params)
        b = corrections.two_agent_correction(swapped, trivial, params)
        assert a["V_I"] == pytest.approx(b["V_I"], rel=1e-12)
        assert a["d21"] == b["d12"]
        assert a["d12"] == b["d21"]

    def test_static_partner_reduction(self, trivial, params):
        # no consumption or technology variation: only the mean-capital push
        q = corrections.TwoAgentQuery(
            from1=AgentState(C=1.0, K=10.0, A=10.0),
            to1=AgentState(C=1.2, K=10.5, A=9.9),
            from2=AgentState(C=1.0, K=11.0, A=10.2),
            to2=AgentState(C=1.0, K=12.0, A=10.2),
            t=0.3,
        )
        out = corrections.two_agent_correction(q, trivial, params)
        coeffs = green.coefficients(trivial, params)
        mean_K2 = 0.5 * (q.from2.K + q.to2.K)
        assert out["d21"]["A"] == params.gamma * coeffs.c_coef * q.t * mean_K2

    def test_interaction_potential_linear_in_gamma(self, trivial, params):
        q = self.make_query()
        v1 = corrections.two_agent_correction(q, trivial, params.replace(gamma=0.02))["V_I"]
        v2 = corrections.two_agent_correction(q, trivial, params.replace(gamma=0.04))["V_I"]
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_query_validation(self):
        with pytest.raises(DomainError):
            corrections.TwoAgentQuery(
                from1=AgentState(C=1, K=1, A=1),
                to1=AgentState(C=1, K=1, A=1),
                from2=AgentState(C=1, K=1, A=1),
                to2=AgentState(C=1, K=1, A=1),
                t=-1.0,
            )


class TestOverflowingHorizon:
    """A power of the horizon that leaves the double range names its formula and the horizon."""

    STATE = AgentState(C=1.0, K=10.0, A=10.0)

    def calls(self, solution, params):
        x = self.STATE
        path = AgentPath([x.C] * 3, [x.K] * 3, [x.A] * 3, dt=0.01)
        return {
            "correction_potential": lambda t: corrections.correction_potential(x, x, t, solution, params),
            # the kept batch's route, and the lone pair's
            "corrected_density-linked": lambda t: corrections.corrected_density(
                path.state(0), path.state(1), t, solution, params
            ),
            "corrected_density-lone": lambda t: corrections.corrected_density(x, x, t, solution, params),
            "elasticity_table": lambda t: corrections.elasticity_table(t, solution, params),
            "path_deviation": lambda t: corrections.path_deviation(make_query(t), solution, params),
            "two_agent_correction": lambda t: corrections.two_agent_correction(
                corrections.TwoAgentQuery(x, x, x, x, t=t), solution, params
            ),
            "modified_matrices": lambda t: corrections.modified_matrices(t, solution, params),
        }

    @pytest.mark.parametrize(
        "function, t, message",
        [
            ("correction_potential", 1e110, "correction_potential overflows a double at horizon t = 1e+110"),
            ("corrected_density-linked", 1e110, "correction_potential overflows a double at horizon t = 1e+110"),
            ("corrected_density-lone", 1e110, "correction_potential overflows a double at horizon t = 1e+110"),
            ("elasticity_table", 1e60, "elasticity_table overflows a double at horizon t = 1e+60"),
            ("path_deviation", 1e60, "elasticity_table overflows a double at horizon t = 1e+60"),
            ("two_agent_correction", 1e110, "two_agent_correction overflows a double at horizon t = 1e+110"),
            ("modified_matrices", 1e110, "modified_matrices overflows a double at horizon s = 1e+110"),
        ],
    )
    def test_overflow_names_formula_and_horizon(self, trivial, params, function, t, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OverflowError) as excinfo:
                self.calls(trivial, params)[function](t)
        assert str(excinfo.value) == message
        assert isinstance(excinfo.value.__cause__, OverflowError)
        # the density's horizon and small-time checks run first: one warning, then the potential overflows
        small_time = [w for w in caught if issubclass(w.category, green.SmallTimeWarning)]
        assert len(small_time) == function.startswith("corrected_density")

    @pytest.mark.parametrize("s", [1e60, 1e100])
    def test_modified_matrices_products_overflow(self, trivial, params, s):
        # s**3 still fits a double; the products of the scaled moment matrices do not
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowError) as excinfo:
                corrections.modified_matrices(s, trivial, params)
        assert str(excinfo.value) == f"modified_matrices overflows a double at horizon s = {s!r}"

    def test_modified_matrices_finite_at_a_long_horizon(self, trivial, params):
        out = corrections.modified_matrices(1e10, trivial, params)
        assert all(np.all(np.isfinite(m)) for m in out.values())

    @pytest.mark.parametrize("function", ["correction_potential", "two_agent_correction"])
    def test_below_the_overflow_edge(self, trivial, params, function):
        self.calls(trivial, params)[function](1e100)  # t**3 = 1e300 still fits a double
