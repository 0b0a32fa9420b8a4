import math

import numpy as np
import pytest

from cyclefield.errors import DomainError
from cyclefield.paths import AgentPath, AgentState

COORDS = ("C", "K", "A")


def state_with(name, value):
    """A state whose coordinate ``name`` is ``value`` and whose others are valid floats."""
    values = {"C": 1.0, "K": 10.0, "A": 0.2}
    values[name] = value
    return AgentState(**values)


class TestAgentState:
    @pytest.mark.parametrize("name", COORDS)
    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "must be a real number, got True"),
            ("1", "must be a real number, got '1'"),
            (math.nan, "must be finite, got nan"),
            (math.inf, "must be finite, got inf"),
            (-math.inf, "must be finite, got -inf"),
            (-1e-300, "must be >= 0, got -1e-300"),
        ],
        ids=["bool", "str", "nan", "inf", "-inf", "negative"],
    )
    def test_rejected_with_message(self, name, value, message):
        with pytest.raises(DomainError) as excinfo:
            state_with(name, value)
        assert str(excinfo.value) == f"{name} {message}"

    @pytest.mark.parametrize("name", COORDS)
    def test_negative_zero_accepted(self, name):
        s = state_with(name, -0.0)
        assert getattr(s, name) == 0.0
        assert type(getattr(s, name)) is float

    @pytest.mark.parametrize("name", COORDS)
    @pytest.mark.parametrize("value", [3, np.float64(3.0)], ids=["int", "float64"])
    def test_stored_as_float(self, name, value):
        s = state_with(name, value)
        assert type(getattr(s, name)) is float
        assert getattr(s, name) == 3.0

    def test_valid_floats_stored_as_given(self):
        C, K, A = 1.5, 1e-300, 7.25
        s = AgentState(C, K, A)
        assert (s.C, s.K, s.A) == (C, K, A)
        assert s.C is C and s.K is K and s.A is A

    def test_frozen(self):
        s = AgentState(1.0, 2.0, 3.0)
        with pytest.raises(AttributeError):
            s.C = 0.0


class TestAgentPathState:
    def test_states_hold_python_floats_equal_to_the_samples(self):
        path = AgentPath([1.0, 1.25], [10.0, 10.5], [0.2, 0.3], dt=0.01)
        for i in range(len(path)):
            s = path.state(i)
            assert all(type(v) is float for v in (s.C, s.K, s.A))
            assert (s.C, s.K, s.A) == (path.C[i], path.K[i], path.A[i])

    @pytest.mark.parametrize("name", COORDS)
    def test_negative_coordinate_rejected(self, name):
        coords = {"C": [1.0, 1.0], "K": [10.0, 10.0], "A": [0.2, 0.2]}
        coords[name] = [-2.5, 1.0]
        path = AgentPath(coords["C"], coords["K"], coords["A"], dt=0.01)  # a path only checks finiteness
        assert path.state(1) == state_with(name, 1.0)
        with pytest.raises(DomainError) as excinfo:
            path.state(0)
        assert str(excinfo.value) == f"{name} must be >= 0, got -2.5"
