"""Backend parity: the numba kernels and the pure-NumPy fallback must agree."""

import numpy as np
import pytest

from zdrd import kernels
from zdrd._backend import HAVE_NUMBA

pytestmark = pytest.mark.skipif(not HAVE_NUMBA, reason="numba unavailable")


@pytest.fixture
def loop_inputs():
    rng = np.random.default_rng(0)
    p, r, n = 4, 4, 2000
    A = rng.normal(size=(p, p)) * 0.4
    bw = rng.normal(size=(n, p))
    x0 = rng.normal(size=p)
    fe = rng.normal(size=(r, p))
    g = rng.normal(size=(p, r)) * 0.2
    return A, bw, x0, fe, g, rng


def both_backends(fn):
    prev = kernels.get_backend()
    out = {}
    try:
        for backend in ("numba", "numpy"):
            kernels.set_backend(backend)
            out[backend] = fn()
    finally:
        kernels.set_backend(prev)
    return out["numba"], out["numpy"]


def test_state_loop_parity(loop_inputs):
    A, bw, x0, *_ = loop_inputs
    nb, py = both_backends(lambda: kernels.state_loop(A, bw, x0))
    assert np.array_equal(nb, py)


def test_awgn_loop_parity(loop_inputs):
    A, bw, x0, fe, g, rng = loop_inputs
    noise = rng.standard_normal((bw.shape[0] + 1, fe.shape[0]))
    nb, py = both_backends(lambda: kernels.awgn_loop(A, bw, x0, fe, g, noise))
    for a, b in zip(nb, py):
        assert np.array_equal(a, b)


def test_sdusq_loop_parity(loop_inputs):
    A, bw, x0, fe, g, rng = loop_inputs
    deltas = np.full(fe.shape[0], np.sqrt(12.0))
    dith = (rng.random((bw.shape[0] + 1, fe.shape[0])) - 0.5) * deltas
    nb, py = both_backends(lambda: kernels.sdusq_loop(A, bw, x0, fe, g, dith, deltas))
    for a, b in zip(nb, py):
        assert np.array_equal(a, b)


def test_d4_loop_parity(loop_inputs):
    A, bw, x0, fe, g, rng = loop_inputs
    scale = 3.0382
    dith = rng.uniform(-scale, scale, (bw.shape[0] + 1, fe.shape[0])) * 0.2
    nb, py = both_backends(lambda: kernels.d4_loop(A, bw, x0, fe, g, dith, scale))
    for a, b in zip(nb, py):
        assert np.array_equal(a, b)


def test_set_backend_validation():
    with pytest.raises(ValueError):
        kernels.set_backend("cuda")
