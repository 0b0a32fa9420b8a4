import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclefield.errors import DomainError, ParameterError, ShapeError
from cyclefield.params import ModelParams
from cyclefield.paths import AgentPath, AgentState
from cyclefield.weights import (
    log_weight_capital,
    log_weight_consumption,
    log_weight_intertemporal_constraint,
    log_weight_technology_pair,
    log_weight_total,
    production,
    production_derivative,
    utility_quadratic,
    _log_weight_restoring,
    _log_weight_technology_single,
)


def make_path(n=21, dt=0.05, C=1.0, K=10.0, A=10.0, rng=None):
    if rng is None:
        return AgentPath(np.full(n, C), np.full(n, K), np.full(n, A), dt=dt)
    return AgentPath(
        C + 0.1 * rng.standard_normal(n),
        K + 0.5 * rng.standard_normal(n),
        A + 0.2 * rng.standard_normal(n),
        dt=dt,
    )


class TestUtility:
    def test_max_at_satiation(self):
        theta, c_hat = 2.0, 1.0
        c_tilde = c_hat + 1.0 / theta
        assert utility_quadratic(c_tilde, theta, c_hat) == pytest.approx(1.0 / (2.0 * theta))
        grid = np.linspace(0.0, 3.0, 101)
        vals = utility_quadratic(grid, theta, c_hat)
        assert np.max(vals) <= 1.0 / (2.0 * theta) + 1e-15

    def test_theta_validated(self):
        with pytest.raises(ParameterError):
            utility_quadratic(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("theta", [True, False, np.True_, "2", None, 0.0, -1.0, math.nan, math.inf])
    def test_theta_must_be_a_positive_number(self, theta):
        # True ran as theta = 1
        with pytest.raises(ParameterError) as excinfo:
            utility_quadratic(1.0, theta, 1.0)
        assert str(excinfo.value) == f"theta must be a finite positive number, got {theta!r}"

    @given(st.floats(0.1, 10.0), st.floats(0.1, 5.0), st.floats(-2.0, 2.0))
    def test_bounded_above(self, theta, c_hat, c):
        assert utility_quadratic(c, theta, c_hat) <= 1.0 / (2.0 * theta) + 1e-12


class TestProduction:
    def test_exact_value(self, params):
        assert production(10.0, 10.0, params) == pytest.approx(10.0 * 10.0 ** 0.3)

    def test_taylor_agrees_near_expansion_point(self, params):
        for K in (9.5, 10.0, 10.5):
            exact = production(K, 10.0, params, mode="exact")
            taylor = production(K, 10.0, params, mode="taylor")
            u = (K - params.K_bar) / params.K_bar
            assert abs(exact - taylor) <= 20.0 * abs(u) ** 3 + 1e-12

    def test_derivative_matches_finite_difference(self, params):
        h = 1e-6
        for mode in ("exact", "taylor"):
            fd = (
                production(10.0 + h, 10.0, params, mode=mode)
                - production(10.0 - h, 10.0, params, mode=mode)
            ) / (2.0 * h)
            assert production_derivative(10.0, 10.0, params, mode=mode) == pytest.approx(
                fd, rel=1e-8
            )

    def test_exact_rejects_nonpositive_capital(self, params):
        with pytest.raises(DomainError):
            production(0.0, 10.0, params)
        with pytest.raises(ParameterError):
            production(10.0, 10.0, params, mode="bogus")


class TestProductionDerivative:
    @pytest.mark.parametrize("K", [0.0, -1.0, [10.0, 0.0]])
    def test_exact_mode_needs_positive_capital(self, params, K):
        with pytest.raises(DomainError) as excinfo:
            production_derivative(K, 10.0, params)
        assert str(excinfo.value) == "marginal product in exact mode requires K > 0"

    def test_unknown_mode_rejected(self, params):
        with pytest.raises(ParameterError) as excinfo:
            production_derivative(10.0, 10.0, params, mode="cubic")
        assert str(excinfo.value) == "unknown production mode 'cubic'"


class TestConsumptionWeight:
    def test_zero_residual_path_scores_offset_only(self, params):
        # a path following its own drift exactly leaves only the C0*T reward
        n, dt = 200, 0.01
        C = np.empty(n)
        C[0] = 1.3
        K = np.full(n, params.K_bar)
        A = np.full(n, 10.0)
        for i in range(n - 1):
            r = production_derivative(K[i], A[i], params) + params.r_c
            C[i + 1] = C[i] + dt * r * (C[i] - params.C_bar)
        path = AgentPath(C, K, A, dt=dt)
        w = log_weight_consumption(path, params)
        assert w == pytest.approx(params.C0 * path.duration, abs=1e-10)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_never_exceeds_offset_reward(self, params, seed):
        path = make_path(rng=np.random.default_rng(seed))
        assert log_weight_consumption(path, params) <= params.C0 * path.duration + 1e-12


class TestCapitalWeight:
    def test_zero_residual_path(self, params):
        n, dt = 100, 0.01
        K = np.empty(n)
        K[0] = 10.0
        C = np.full(n, 1.0)
        A = np.full(n, 10.0)
        for i in range(n - 1):
            drift = production(K[i], A[i], params) - C[i] - params.delta * K[i]
            K[i + 1] = K[i] + dt * drift
        path = AgentPath(C, K, A, dt=dt)
        assert log_weight_capital(path, params) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_nonpositive(self, params, seed):
        path = make_path(rng=np.random.default_rng(seed))
        assert log_weight_capital(path, params) <= 0.0


class TestTechnologyWeight:
    def test_pair_reduces_to_singles_without_interaction(self, params):
        p0 = params.replace(gamma=0.0)
        rng = np.random.default_rng(0)
        p1, p2 = make_path(rng=rng), make_path(rng=rng)
        both = log_weight_technology_pair(p1, p2, p0, A_bar=10.0)
        singles = _log_weight_technology_single(p1, p0, 10.0) + _log_weight_technology_single(
            p2, p0, 10.0
        )
        assert both == pytest.approx(singles, rel=1e-12)

    def test_cross_term_is_unrestricted_double_sum(self, params):
        rng = np.random.default_rng(1)
        p1, p2 = make_path(n=6, rng=rng), make_path(n=6, rng=rng)
        got = log_weight_technology_pair(p1, p2, params, A_bar=10.0)
        base = log_weight_technology_pair(p1, p2, params.replace(gamma=0.0), A_bar=10.0)
        cross = 0.0
        for i in range(len(p1) - 1):
            for j in range(len(p2) - 1):
                cross += p1.A[i] * p2.K[j] + p2.A[i] * p1.K[j]
        assert got - base == pytest.approx(-params.gamma * p1.dt * p2.dt * cross, rel=1e-12)

    def test_mismatched_grids_rejected(self, params):
        with pytest.raises(ShapeError):
            log_weight_technology_pair(make_path(n=5), make_path(n=6), params, A_bar=10.0)


class TestTotalWeight:
    def test_single_path_is_sum_of_components(self, params):
        path = make_path(rng=np.random.default_rng(2))
        total = log_weight_total([path], params, A_bar=10.0)
        expected = (
            log_weight_consumption(path, params)
            + log_weight_capital(path, params)
            + _log_weight_restoring(path, params)
            + _log_weight_technology_single(path, params, 10.0)
        )
        assert total == pytest.approx(expected, rel=1e-12)

    def test_all_unordered_pairs_counted(self, params):
        rng = np.random.default_rng(3)
        paths = [make_path(n=8, rng=rng) for _ in range(3)]
        total = log_weight_total(paths, params, A_bar=10.0)
        free = log_weight_total(paths, params.replace(gamma=0.0), A_bar=10.0)
        # brute force over ordered pairs of distinct paths and both time grids
        cross = 0.0
        for i in range(3):
            for j in range(3):
                if i != j:
                    for s in range(len(paths[i]) - 1):
                        for u in range(len(paths[j]) - 1):
                            cross += paths[i].A[s] * paths[j].K[u]
        assert total - free == pytest.approx(-params.gamma * paths[0].dt ** 2 * cross, rel=1e-9, abs=0)

    def test_budget_penalty_not_included(self, params):
        # the relaxed budget term is a separate observable
        path = make_path(rng=np.random.default_rng(4))
        total = log_weight_total([path], params, A_bar=10.0)
        penalty = log_weight_intertemporal_constraint(path, params)
        assert penalty < 0.0
        assert total != pytest.approx(total + penalty)

    def test_empty_collection_rejected(self, params):
        with pytest.raises(ShapeError):
            log_weight_total([], params, A_bar=10.0)

    @pytest.mark.parametrize("other", [{"n": 22}, {"dt": 0.04}], ids=["length", "step"])
    def test_paths_on_different_grids_rejected(self, params, other):
        paths = [make_path(rng=np.random.default_rng(5)), make_path(rng=np.random.default_rng(6), **other)]
        with pytest.raises(ShapeError) as excinfo:
            log_weight_total(paths, params, A_bar=10.0)
        assert str(excinfo.value) == "all paths must share a time grid"


class TestIntertemporalConstraint:
    def test_balanced_budget_scores_zero(self, params):
        n, dt = 11, 0.1
        C = np.full(n, 2.0)
        path = AgentPath(C, np.full(n, 10.0), np.full(n, 10.0), dt=dt)
        revenue = np.full(n, 2.0)
        assert log_weight_intertemporal_constraint(path, params, revenue=revenue) == 0.0

    def test_gap_is_squared(self, params):
        n, dt = 11, 0.1
        path = AgentPath(np.full(n, 1.0), np.full(n, 10.0), np.full(n, 10.0), dt=dt)
        w1 = log_weight_intertemporal_constraint(path, params, revenue=np.full(n, 2.0))
        w2 = log_weight_intertemporal_constraint(path, params, revenue=np.full(n, 3.0))
        assert w2 == pytest.approx(4.0 * w1, rel=1e-12)

    def test_revenue_shape_checked(self, params):
        path = make_path(n=5)
        with pytest.raises(ShapeError):
            log_weight_intertemporal_constraint(path, params, revenue=np.zeros(3))


class TestPathRoundTrip:
    @given(st.integers(0, 2 ** 32 - 1))
    def test_csv_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        path = make_path(n=7, dt=0.125, rng=rng)
        back = AgentPath.from_csv(path.to_csv())
        np.testing.assert_array_equal(back.times, path.times)
        np.testing.assert_array_equal(back.C, path.C)
        np.testing.assert_array_equal(back.K, path.K)
        np.testing.assert_array_equal(back.A, path.A)
        assert back.dt == path.dt

    def test_header_names_may_carry_spaces(self):
        path = make_path(n=4, dt=0.25)
        body = path.to_csv().partition("\n")[2]
        back = AgentPath.from_csv("t, C, K, A\n" + body)
        np.testing.assert_array_equal(back.K, path.K)

    @pytest.mark.parametrize(
        "text",
        [
            "t,C,K\n0,1,10,10\n0.5,1,10,10\n",        # wrong header
            "t,K,C,A\n0,1,10,10\n0.5,1,10,10\n",      # names out of order
            "t,C,K,A\n0,1,10,10\n",                    # a single data row
            "t,C,K,A\n",                                # an empty body
            "t,C,K,A",                                   # no body at all
            "t,C,K,A\n0,1,10,10\n0.5,1,10,10\n1.5,1,10,10\n",  # non-uniform grid
            "t,C,K,A\n0,1,10\n0.5,1,10\n",             # three numbers a row
            "t,C,K,A\n0,1,10,10\n0.5,1,10\n",          # a short row
        ],
    )
    def test_malformed_csv_raises_shape_error(self, text):
        with pytest.raises(ShapeError):
            AgentPath.from_csv(text)

    def test_state_validation(self):
        with pytest.raises(DomainError):
            AgentState(C=-1.0, K=1.0, A=1.0)
        with pytest.raises(DomainError):
            AgentState(C=1.0, K=math.nan, A=1.0)
