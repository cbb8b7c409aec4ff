import numpy as np
import pytest

from fieldtomo.states import coherent_state, superposition


@pytest.fixture(scope="session")
def g():
    """The probe's coupling."""
    return 1.0


@pytest.fixture(scope="session")
def state_one():
    """(|1> + |2>)/sqrt(2)"""
    return superposition([(1, 1.0), (2, 1.0)], 8)


@pytest.fixture(scope="session")
def state_two():
    """(|1> + e^{i pi/4} |2>)/sqrt(2)"""
    return superposition([(1, 1.0), (2, np.exp(1j * np.pi / 4))], 8)


@pytest.fixture(scope="session")
def alpha_state():
    """Coherent state with |alpha| = 0.7, arg alpha = pi/3."""
    return coherent_state(0.7 * np.exp(1j * np.pi / 3), 12)
