"""Field-theoretic business-cycle toolkit.

Statistical weights over agent paths, saddle-point phase structure,
analytic transition kernels, first-order interaction corrections, and a
Langevin Monte Carlo oracle, with a CLI front end.

``AgentPath`` and ``AgentState`` load :mod:`cyclefield.paths`, and with it
NumPy, on first access, so ``import cyclefield`` and the phase solver need
neither.
"""

from cyclefield.errors import (
    ConvergenceError,
    CycleFieldError,
    DomainError,
    InfeasiblePhaseError,
    ParameterError,
    ShapeError,
    SingularityError,
    TrajectoryTerminated,
)
from cyclefield.params import ModelParams, load_config

__all__ = [
    "AgentPath",
    "AgentState",
    "ConvergenceError",
    "CycleFieldError",
    "DomainError",
    "InfeasiblePhaseError",
    "ModelParams",
    "ParameterError",
    "ShapeError",
    "SingularityError",
    "TrajectoryTerminated",
    "load_config",
]

__version__ = "0.1.0"

_PATH_NAMES = ("AgentPath", "AgentState")


def __getattr__(name):
    if name in _PATH_NAMES:
        from cyclefield import paths

        return getattr(paths, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_PATH_NAMES))
