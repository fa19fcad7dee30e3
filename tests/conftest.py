import numpy as np
import pytest

import zdrd

STABLE_4D_A = np.array(
    [
        [0.0551, 0.0893, 0.0051, 0.0649],
        [0.0708, 0.0896, 0.0441, 0.0278],
        [0.0291, 0.0126, 0.0030, 0.0676],
        [0.0511, 0.0207, 0.0457, 0.0591],
    ]
)
UNSTABLE_4D_A = np.array(
    [
        [0.8147, 0.6324, 0.9575, 0.9572],
        [0.9058, 0.0975, 0.9649, 0.4854],
        [0.1270, 0.2785, 0.1576, 0.8003],
        [0.9134, 0.5469, 0.9706, 0.1419],
    ]
)


def random_source(p, seed, rho=0.9):
    """Seeded random source with spectral radius rho and B = I."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(p, p))
    A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
    return zdrd.new_source(A, np.eye(p), np.eye(p))


@pytest.fixture(scope="session")
def stable4():
    return zdrd.new_source(STABLE_4D_A, np.eye(4), np.eye(4))


@pytest.fixture(scope="session")
def unstable4():
    return zdrd.new_source(UNSTABLE_4D_A, np.eye(4), np.eye(4))


@pytest.fixture(scope="session")
def stable_ar2():
    return zdrd.augment_ar([[[0.3]], [[0.5]]], [[1.0]])


@pytest.fixture(scope="session")
def unstable_ar2():
    return zdrd.augment_ar([[[1.2]], [[0.5]]], [[1.0]])


@pytest.fixture(scope="session")
def scalar_half():
    return zdrd.new_source([[0.5]], [[1.0]], [[1.0]])
