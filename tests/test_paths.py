import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import cyclefield
from cyclefield import paths
from cyclefield.errors import DomainError, ShapeError
from cyclefield.paths import AgentPath, AgentState

COORDS = ("C", "K", "A")


def state_with(name, value):
    """A state whose coordinate ``name`` is ``value`` and whose others are valid floats."""
    values = {"C": 1.0, "K": 10.0, "A": 0.2}
    values[name] = value
    return AgentState(**values)


class TestPackageExports:
    """``AgentPath`` and ``AgentState`` load lazily from the package, as if imported there."""

    @pytest.mark.parametrize("name", ["AgentPath", "AgentState"])
    def test_names_are_the_paths_classes(self, name):
        assert getattr(cyclefield, name) is getattr(paths, name)
        assert name in dir(cyclefield)

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from cyclefield import *", namespace)
        assert {name: namespace[name] for name in cyclefield.__all__} == {
            name: getattr(cyclefield, name) for name in cyclefield.__all__
        }

    def test_unknown_name_raises_the_standard_error(self):
        with pytest.raises(AttributeError, match="^module 'cyclefield' has no attribute 'no_such_name'$"):
            getattr(cyclefield, "no_such_name")
        assert not hasattr(cyclefield, "no_such_name")


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

    def test_states_equal_the_checked_construction(self):
        # a path of non-negative samples builds its states without AgentState's check
        path = AgentPath([1.0, -0.0, 2.5], [10.0, 0.0, 1e-300], [0.2, 7.25, 0.0], dt=0.01)
        for i in range(len(path)):
            s, ref = path.state(i), AgentState(path.C.item(i), path.K.item(i), path.A.item(i))
            assert s == ref and repr(s) == repr(ref)
            assert [math.copysign(1.0, getattr(s, n)) for n in COORDS] == [
                math.copysign(1.0, getattr(ref, n)) for n in COORDS
            ]
            assert all(type(getattr(s, n)) is float for n in COORDS)

    @pytest.mark.parametrize("name", COORDS)
    def test_negative_coordinate_rejected(self, name):
        coords = {"C": [1.0, 1.0], "K": [10.0, 10.0], "A": [0.2, 0.2]}
        coords[name] = [-2.5, 1.0]
        path = AgentPath(coords["C"], coords["K"], coords["A"], dt=0.01)  # a path only checks finiteness
        assert path.state(1) == state_with(name, 1.0)
        with pytest.raises(DomainError) as excinfo:
            path.state(0)
        assert str(excinfo.value) == f"{name} must be >= 0, got -2.5"


class TestStateLink:
    """``AgentPath.state(i)`` links the state to ``(path, i)``; nothing else does, and nothing else sees it."""

    @pytest.fixture
    def path(self):
        return AgentPath([1.0, 1.25, 1.5], [10.0, 10.5, 11.0], [0.2, 0.3, 0.4], dt=0.01)

    def test_linked_to_path_and_non_negative_index(self, path):
        assert path.state(1)._link == (path, 1)
        assert path.state(-1)._link == (path, 2)
        assert path.state(np.int64(-3))._link == (path, 0)

    def test_replace_copy_and_hand_built_states_are_unlinked(self, path):
        s = path.state(1)
        assert dataclasses.replace(s)._link is None
        assert dataclasses.replace(s, C=2.0)._link is None
        assert AgentState(C=s.C, K=s.K, A=s.A)._link is None
        assert AgentState(1.25, 10.5, 0.3)._link is None

    def test_link_not_an_init_argument(self):
        with pytest.raises(TypeError):
            AgentState(1.0, 2.0, 3.0, None)
        assert AgentState.__match_args__ == ("C", "K", "A")

    def test_equality_hash_and_repr_ignore_the_link(self, path):
        s, plain = path.state(1), AgentState(1.25, 10.5, 0.3)
        assert s == plain and path.state(-2) == s
        assert hash(s) == hash(plain) == hash((1.25, 10.5, 0.3))
        assert repr(s) == repr(plain) == "AgentState(C=1.25, K=10.5, A=0.3)"
        assert s != path.state(2)


class TestAgentPathArrays:
    def test_coordinates_are_read_only_copies(self):
        C, K, A = np.array([1.0, 1.25]), np.array([10.0, 10.5]), np.array([0.2, 0.3])
        path = AgentPath(C, K, A, dt=0.01)
        C[0] = K[0] = A[0] = 5.0  # the caller's arrays stay writable and apart from the path's
        assert (path.C[0], path.K[0], path.A[0]) == (1.0, 10.0, 0.2)
        for name in COORDS:
            arr = getattr(path, name)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
            with pytest.raises(AttributeError):
                setattr(path, name, np.zeros(2))

    @pytest.mark.parametrize("name", ["dt", "t0", "_nonnegative"])
    def test_grid_is_read_only(self, name):
        path = AgentPath([1.0, 1.25], [10.0, 10.5], [0.2, 0.3], dt=0.01, t0=2.0)
        before = getattr(path, name)
        for bad in (-1.0, math.nan, 0.5):
            with pytest.raises(AttributeError, match=f"AgentPath.{name}"):
                setattr(path, name, bad)
        with pytest.raises(AttributeError, match=f"AgentPath.{name}"):
            delattr(path, name)
        assert getattr(path, name) == before
        assert (path.dt, path.t0, path.duration) == (0.01, 2.0, 0.01)
        with pytest.raises(AttributeError):
            path.extra = 1.0


class TestCheckHorizon:
    """A horizon is a real number, not a bool, in ``(0, inf)``; anything else raises its DomainError."""

    @pytest.mark.parametrize(
        "t", [True, False, np.True_, "0.1", None, [0.1], 0.0, -1.0, math.nan, math.inf],
        ids=["True", "False", "np.True_", "text", "None", "list", "zero", "negative", "nan", "inf"],
    )
    def test_non_horizons_rejected(self, t):
        # True ran as t = 1, and "0.1" raised a bare TypeError
        with pytest.raises(DomainError) as excinfo:
            paths.check_horizon(t)
        assert str(excinfo.value) == f"t must be finite and > 0, got {t!r}"

    @pytest.mark.parametrize("t", [0.01, 2, np.float32(0.01), np.int64(2), Fraction(1, 100), np.array(0.01)])
    def test_real_horizons_accepted(self, t):
        paths.check_horizon(t)


class TestAgentPathConstruction:
    """Each malformed coordinate set raises its own typed error and message."""

    @pytest.mark.parametrize(
        "coords,error,message",
        [
            (
                ([[1.0, 1.1]], [10.0, 10.5], [0.2, 0.3]), ShapeError,
                "path coordinates must be one-dimensional arrays",
            ),
            (
                ([1.0, 1.1], [10.0, 10.5, 11.0], [0.2, 0.3]), ShapeError,
                "coordinate arrays must share a length, got (2,), (3,), (2,)",
            ),
            (([1.0], [10.0], [0.2]), ShapeError, "a path needs at least 2 samples, got 1"),
            (
                ([1.0, 1.1], [10.0, math.nan], [0.2, 0.3]), DomainError,
                "path coordinate K contains non-finite values",
            ),
        ],
        ids=["2-D", "unequal lengths", "one sample", "NaN sample"],
    )
    def test_malformed_coordinates_rejected(self, coords, error, message):
        with pytest.raises(error) as excinfo:
            AgentPath(*coords, dt=0.01)
        assert type(excinfo.value) is error and str(excinfo.value) == message


class TestAgentPathGrid:
    """``dt`` and ``t0`` must be finite real numbers, not bools; a bad one raises ShapeError naming it."""

    COORDS = ([1.0, 1.25, 1.5], [10.0, 10.5, 11.0], [0.2, 0.3, 0.4])

    @pytest.mark.parametrize(
        "t0", [math.nan, math.inf, -math.inf, "abc", None, True, False, pytest.param(10 ** 400, id="int-1e400"), [0.0]]
    )
    def test_bad_t0_rejected(self, t0):
        with pytest.raises(ShapeError) as excinfo:
            AgentPath(*self.COORDS, dt=0.01, t0=t0)
        assert str(excinfo.value) == f"t0 must be a finite real number, got {t0!r}"

    @pytest.mark.parametrize(
        "dt", [math.nan, math.inf, 0.0, -0.01, "0.01", None, True, False, pytest.param(10 ** 400, id="int-1e400")]
    )
    def test_bad_dt_rejected(self, dt):
        with pytest.raises(ShapeError) as excinfo:
            AgentPath(*self.COORDS, dt=dt)
        assert str(excinfo.value) == f"dt must be a finite positive number, got {dt!r}"

    def test_dt_checked_before_t0(self):
        with pytest.raises(ShapeError, match="^dt must"):
            AgentPath(*self.COORDS, dt=True, t0=math.nan)

    @pytest.mark.parametrize("t0", [0.0, -0.0, 2.0, -3.5, 7, 1e6, -1e-300, np.float64(0.125)])
    def test_finite_t0_round_trips_through_csv(self, t0):
        path = AgentPath(*self.COORDS, dt=0.25, t0=t0)
        assert type(path.t0) is float and path.t0 == t0
        back = AgentPath.from_csv(path.to_csv())
        assert (back.t0, back.dt) == (path.t0, path.dt)
        np.testing.assert_array_equal(back.times, path.times)
        for name in COORDS:
            np.testing.assert_array_equal(getattr(back, name), getattr(path, name))
