import numpy as np
import pytest

import zdrd
from zdrd import kernels
from zdrd.linalg import symmetrize
from zdrd.realization import channel_matrices
from zdrd.source_model import source_rows

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


def awgn_reference(src, scheme, n, seeds):
    """(k, alpha, beta, e) of one ``kernels.awgn_loop`` over steps 0..n, on the
    streams ``coding.run_awgn_batch`` draws from ``seeds``: the source path
    from seeds.source and the channel noise from seeds.dither."""
    u = source_rows(src, seeds.source)(n + 1)
    noise = np.random.default_rng(seeds.dither).standard_normal((n + 1, scheme.r))
    fe, g = channel_matrices(scheme)
    return kernels.awgn_loop(src.A, u[1:], u[0], fe, g, noise)


def fixed_gains(scheme, sol):
    """(H, sigma_v) of a scheme: H = E^{-1} diag(h_tilde) E = I - pi lam^{-1}
    and sigma_v = pi H^T, the gain and noise covariance of the realization read
    as a fixed-gain filter, which only the steady-state checks use."""
    H = scheme.E_inv @ np.diag(scheme.h_tilde) @ scheme.E
    return H, symmetrize(sol.pi @ H.T)


def steady_state_update(lam, H, sigma_v, A, BBt):
    """One predicted-covariance update with fixed gains.

    Sigma -> A (Sigma - Sigma H^T (H Sigma H^T + sigma_v)^+ H Sigma) A^T + BB^T.
    The innovation covariance may be singular when coordinates are inactive,
    hence the pseudoinverse.
    """
    lam = np.asarray(lam, float)
    S = H @ lam @ H.T + sigma_v
    # rcond above the solver-gap scale: inactive directions are exact zeros
    # of the innovation covariance that carry only numerical noise
    gain = lam @ H.T @ np.linalg.pinv(symmetrize(S), rcond=1e-9)
    filt = lam - gain @ H @ lam
    return symmetrize(A @ filt @ A.T + BBt)


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
