import numpy as np
import pytest
from hypothesis import settings

from cyclefield.params import ModelParams
from cyclefield.phases import solve_phase

settings.register_profile("default", max_examples=25, deadline=None)
settings.load_profile("default")


@pytest.fixture(scope="session")
def params():
    return ModelParams()


@pytest.fixture(scope="session")
def trivial(params):
    return solve_phase(params, 0)


@pytest.fixture(scope="session")
def nontrivial(params):
    return solve_phase(params, 1)


@pytest.fixture(scope="session")
def drift_jacobian():
    """The sampler drift's 3x3 Jacobian at ``x``, assembled from ``montecarlo._drift_and_jacobian``."""
    from cyclefield import montecarlo as mc

    def jacobian(x, solution, params):
        *_, jCC, jCK, jCA, jKK, jKA, jAA = mc._drift_and_jacobian(solution, params)(*x)
        return np.array([[jCC, jCK, jCA], [-1.0, jKK, jKA], [0.0, 0.0, jAA]])

    return jacobian
