"""Agent states and uniformly sampled agent paths."""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from cyclefield.errors import DomainError, ShapeError


def check_horizon(t: float) -> None:
    """Raise :class:`DomainError` unless the horizon is a number, not a bool, with ``0 < t < inf`` (NaN fails)."""
    try:
        valid = not isinstance(t, (bool, np.bool_)) and 0.0 < t < math.inf
    except TypeError:  # not comparable with a float, such as a string or None
        valid = False
    if not valid:
        raise DomainError(f"t must be finite and > 0, got {t!r}")


@dataclass(frozen=True, slots=True)
class AgentState:
    """A single (consumption, capital, technology) point.

    Each coordinate must be a real number (not a bool), finite and >= 0,
    and is stored as a ``float``.

    A state read by :meth:`AgentPath.state` is linked to ``(path, i)`` by a
    private field that equality, hashing and ``repr`` ignore; the pair
    kernels score two consecutive linked states from one batch over the
    whole path.  A state built any other way, or by
    :func:`dataclasses.replace`, is unlinked.
    """

    C: float  # consumption level
    K: float  # capital stock
    A: float  # technology level
    _link: tuple | None = field(default=None, init=False, compare=False, repr=False)  # (path, index)

    def __post_init__(self):
        for name in ("C", "K", "A"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise DomainError(f"{name} must be a real number, got {v!r}")
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
            if v < 0.0:
                raise DomainError(f"{name} must be >= 0, got {v}")
            object.__setattr__(self, name, float(v))

    def as_array(self) -> np.ndarray:
        return np.array([self.C, self.K, self.A], dtype=float)


# the slots' own setters, past the frozen __setattr__
_set_C, _set_K, _set_A, _set_link = (getattr(AgentState, name).__set__ for name in ("C", "K", "A", "_link"))


class AgentPath:
    """A path of :class:`AgentState` samples on a uniform time grid.

    Parameters
    ----------
    C, K, A : array_like
        Coordinate samples, one per grid point (at least two).
    dt : float
        Grid spacing, finite and strictly positive.
    t0 : float, optional
        Time of the first sample, finite.

    The path is read-only, with copies of ``C``, ``K`` and ``A``, so what
    is computed from it stays valid for its life.
    """

    __slots__ = ("C", "K", "A", "_nonnegative", "dt", "t0", "_views")  # _views: memoryviews of C, K, A

    def __init__(self, C, K, A, dt: float, t0: float = 0.0):
        C = np.array(C, dtype=float)
        K = np.array(K, dtype=float)
        A = np.array(A, dtype=float)
        if C.ndim != 1 or K.ndim != 1 or A.ndim != 1:
            raise ShapeError("path coordinates must be one-dimensional arrays")
        if not (C.shape == K.shape == A.shape):
            raise ShapeError(
                f"coordinate arrays must share a length, got {C.shape}, {K.shape}, {A.shape}"
            )
        if C.size < 2:
            raise ShapeError(f"a path needs at least 2 samples, got {C.size}")
        if isinstance(dt, bool) or not (isinstance(dt, (int, float)) and 0 < dt <= sys.float_info.max):
            raise ShapeError(f"dt must be a finite positive number, got {dt!r}")
        if isinstance(t0, bool) or not (isinstance(t0, (int, float)) and abs(t0) <= sys.float_info.max):
            raise ShapeError(f"t0 must be a finite real number, got {t0!r}")
        for name, arr in (("C", C), ("K", K), ("A", A)):
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"path coordinate {name} contains non-finite values")
            arr.flags.writeable = False
        nonnegative = bool(C.min() >= 0.0 and K.min() >= 0.0 and A.min() >= 0.0)
        views = (memoryview(C), memoryview(K), memoryview(A))
        for name, value in zip(self.__slots__, (C, K, A, nonnegative, float(dt), float(t0), views)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete AgentPath.{name}: a path is read-only")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return self.C.size

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.C.size)

    @property
    def duration(self) -> float:
        """Total time span (n - 1) * dt."""
        return (self.C.size - 1) * self.dt

    def state(self, i: int) -> AgentState:
        """Sample ``i`` as an :class:`AgentState` of Python floats, linked to ``(self, i)``.

        A negative ``i`` is linked by its non-negative position, so
        ``state(-1)`` and ``state(0)`` are never consecutive.
        """
        C, K, A = self._views
        c, k, a = C[i], K[i], A[i]  # Python floats
        if self._nonnegative:  # finite, non-negative Python floats: AgentState's check would pass
            state = object.__new__(AgentState)
            _set_C(state, c)
            _set_K(state, k)
            _set_A(state, a)
        else:
            state = AgentState(c, k, a)
        _set_link(state, (self, i + len(C) if i < 0 else i))
        return state

    # -- CSV round trip -----------------------------------------------------

    CSV_HEADER = "t,C,K,A"

    def to_csv(self) -> str:
        """Serialize to CSV with header ``t,C,K,A`` and %.17g floats."""
        lines = [self.CSV_HEADER]
        for t, c, k, a in zip(self.times, self.C, self.K, self.A):
            lines.append(f"{t:.17g},{c:.17g},{k:.17g},{a:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "AgentPath":
        """Parse a path from CSV text with header ``t,C,K,A``.

        Spaces around the header names are allowed.  The time column must be
        uniformly spaced (relative tolerance 1e-9).
        """
        header, _, body = text.partition("\n")
        if tuple(name.strip() for name in header.split(",")) != ("t", "C", "K", "A"):
            raise ShapeError(f"path CSV must have header '{cls.CSV_HEADER}', got {header!r}")
        if not body.strip():
            raise ShapeError("a path needs at least 2 samples, got 0")
        try:
            rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ShapeError(f"path CSV rows must hold four numbers: {exc}") from exc
        if rows.shape[1] != 4:
            raise ShapeError(f"path CSV rows must hold four numbers, got {rows.shape[1]}")
        t = rows[:, 0]
        if t.size < 2:
            raise ShapeError(f"a path needs at least 2 samples, got {t.size}")
        steps = np.diff(t)
        dt = steps[0]
        if dt <= 0 or not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
            raise ShapeError("path CSV time grid is not uniformly increasing")
        return cls(rows[:, 1], rows[:, 2], rows[:, 3], dt=float(dt), t0=float(t[0]))
