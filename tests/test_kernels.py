"""Exactness of the lockstep feedback loop.

The scalar loops below are the per-point implementations the lockstep
kernel replaced, kept verbatim as references: every output of the kernel
must equal theirs bit for bit, and a loop's row of a batch must equal the
same loop run alone.
"""

import numpy as np
import pytest

from zdrd import kernels
from zdrd.quantizers import sdusq_dither
from zdrd.source_model import new_source, simulate, source_noise


def _state_loop(A, bw, x0, out):
    """States of x(t+1) = A x(t) + bw(t); bw rows precomputed as B @ w_t."""
    n1, p = out.shape
    for i in range(p):
        out[0, i] = x0[i]
    for t in range(1, n1):
        for i in range(p):
            acc = bw[t - 1, i]
            for j in range(p):
                acc += A[i, j] * out[t - 1, j]
            out[t, i] = acc


def _channel_loop(A, bw, x0, fe, g, noise, deltas, quantized, idx, k, alpha, beta, e):
    """Feedback loop for the AWGN channel and the dithered scalar quantizer."""
    n1, p = k.shape
    r = alpha.shape[1]
    eprev = np.zeros(p)
    for t in range(n1):
        if t == 0:
            for i in range(p):
                k[t, i] = x0[i]
        else:
            for i in range(p):
                acc = bw[t - 1, i]
                for j in range(p):
                    acc += A[i, j] * eprev[j]
                k[t, i] = acc
        for i in range(r):
            acc = 0.0
            for j in range(p):
                acc += fe[i, j] * k[t, j]
            alpha[t, i] = acc
        if quantized:
            for i in range(r):
                z = (alpha[t, i] + noise[t, i]) / deltas[i]
                if z >= 0.0:
                    ji = np.floor(z + 0.5)
                else:
                    ji = -np.floor(-z + 0.5)
                idx[t, i] = np.int64(ji)
                beta[t, i] = ji * deltas[i] - noise[t, i]
        else:
            for i in range(r):
                beta[t, i] = alpha[t, i] + noise[t, i]
        for i in range(p):
            acc = k[t, i]
            for j in range(r):
                acc -= g[i, j] * beta[t, j]
            e[t, i] = acc
            eprev[i] = acc


def _d4_loop(A, bw, x0, fe, g, dither, scale, idx, k, alpha, beta, e):
    """Feedback loop quantizing each block of four coordinates to scale*D4."""
    n1, p = k.shape
    r = alpha.shape[1]
    nblk = r // 4
    eprev = np.zeros(p)
    z = np.zeros(4)
    for t in range(n1):
        if t == 0:
            for i in range(p):
                k[t, i] = x0[i]
        else:
            for i in range(p):
                acc = bw[t - 1, i]
                for j in range(p):
                    acc += A[i, j] * eprev[j]
                k[t, i] = acc
        for i in range(r):
            acc = 0.0
            for j in range(p):
                acc += fe[i, j] * k[t, j]
            alpha[t, i] = acc
        for b in range(nblk):
            o = 4 * b
            ssum = 0.0
            worst = -1.0
            wk = 0
            for i in range(4):
                xi = (alpha[t, o + i] + dither[t, o + i]) / scale
                if xi >= 0.0:
                    fi = np.floor(xi + 0.5)
                else:
                    fi = -np.floor(-xi + 0.5)
                z[i] = fi
                ssum += fi
                d = abs(xi - fi)
                if d > worst:
                    worst = d
                    wk = i
            if np.int64(ssum) % 2 != 0:
                xk = (alpha[t, o + wk] + dither[t, o + wk]) / scale
                if xk >= z[wk]:
                    z[wk] += 1.0
                else:
                    z[wk] -= 1.0
            for i in range(4):
                idx[t, o + i] = np.int64(z[i])
                beta[t, o + i] = z[i] * scale - dither[t, o + i]
        for i in range(p):
            acc = k[t, i]
            for j in range(r):
                acc -= g[i, j] * beta[t, j]
            e[t, i] = acc
            eprev[i] = acc


def _alloc(n1, p, r):
    return (
        np.empty((n1, r), dtype=np.int64),
        np.empty((n1, p)),
        np.empty((n1, r)),
        np.empty((n1, r)),
        np.empty((n1, p)),
    )


def ref_awgn(A, bw, x0, fe, g, noise):
    idx, k, alpha, beta, e = _alloc(bw.shape[0] + 1, A.shape[0], fe.shape[0])
    _channel_loop(A, bw, x0, fe, g, noise, np.ones(fe.shape[0]), False, idx, k, alpha, beta, e)
    return k, alpha, beta, e


def ref_sdusq(A, bw, x0, fe, g, dither, deltas):
    out = _alloc(bw.shape[0] + 1, A.shape[0], fe.shape[0])
    _channel_loop(A, bw, x0, fe, g, dither, deltas, True, *out)
    return out


def ref_d4(A, bw, x0, fe, g, dither, scale):
    out = _alloc(bw.shape[0] + 1, A.shape[0], fe.shape[0])
    _d4_loop(A, bw, x0, fe, g, dither, scale, *out)
    return out


def assert_all_equal(got, want):
    assert len(got) == len(want)
    assert np.all(np.isfinite(want[-1]))  # the loop stayed bounded
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


P, N = 4, 2000
SCALE = 3.0382


def channel(rng, r, p=P):
    """fe, g of a stable closed loop: g is half a pseudo-inverse of fe, perturbed."""
    fe = 3.0 * rng.normal(size=(r, p))
    g = 0.5 * np.linalg.pinv(fe) if r else np.zeros((p, 0))
    return fe, g * (1.0 + 0.1 * rng.normal(size=(p, r)))


def loop_inputs(seed, r, p=P, n=N):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(p, p)) * 0.4
    bw = rng.normal(size=(n, p))
    x0 = rng.normal(size=p)
    fe, g = channel(rng, r, p)
    return A, bw, x0, fe, g, rng


def test_no_channel_is_the_state_recursion():
    A, bw, x0, *_ = loop_inputs(0, 0)
    want = np.empty((N + 1, P))
    _state_loop(A, bw, x0, want)
    _, e = kernels.feedback_loop(A, bw[..., None], x0[:, None])
    assert np.array_equal(e[..., 0], want)


def test_simulate_matches_state_recursion():
    src = new_source(np.eye(3) * 0.5 + 0.1, [[1.0, 0.0], [0.5, 1.0], [0.0, 2.0]], np.eye(3))
    traj = simulate(src, 500, seed=4)
    x0, w = source_noise(src, 500, 4)
    want = np.empty((501, 3))
    _state_loop(src.A, w @ src.B.T, x0, want)
    assert np.array_equal(traj.samples, want)
    assert np.array_equal(traj.noise, w) and np.array_equal(traj.x0, x0)


def test_awgn_loop_exact():
    A, bw, x0, fe, g, rng = loop_inputs(1, 4)
    noise = rng.standard_normal((N + 1, 4))
    got = kernels.awgn_loop(A, bw, x0, fe, g, noise)
    assert_all_equal(got, ref_awgn(A, bw, x0, fe, g, noise))


def test_sdusq_loop_exact():
    A, bw, x0, fe, g, rng = loop_inputs(2, 4)
    deltas = np.sqrt(12.0) * np.array([1.0, 0.5, 2.0, 1.0])
    dith = sdusq_dither(rng, deltas, N + 1)
    got = kernels.sdusq_loop(A, bw, x0, fe, g, dith, deltas)
    assert_all_equal(got, ref_sdusq(A, bw, x0, fe, g, dith, deltas))


def test_d4_loop_exact_generic():
    A, bw, x0, fe, g, rng = loop_inputs(3, 8)
    dith = kernels.d4_dither(rng, SCALE, (N + 1) * 2).reshape(N + 1, 8)
    got = kernels.d4_loop(A, bw, x0, fe, g, dith, SCALE)
    assert_all_equal(got, ref_d4(A, bw, x0, fe, g, dith, SCALE))


def test_d4_loop_exact_at_ties():
    # with fe = 0 the loop quantizes exactly dither/scale; scale 2 keeps the
    # half-integer rows exact ties
    A, bw, x0, _, g, rng = loop_inputs(4, 4)
    scale = 2.0
    generic = rng.uniform(-4, 4, (N + 1 - 1000, 4))
    ties = rng.integers(-6, 7, (1000, 4)) / 2.0
    dith = np.vstack([generic, ties]) * scale
    fe = np.zeros((4, P))
    got = kernels.d4_loop(A, bw, x0, fe, g, dith, scale)
    assert_all_equal(got, ref_d4(A, bw, x0, fe, g, dith, scale))


def _batch(arrays, shape):
    """Per-loop arrays stacked on a last axis, each zero-padded to ``shape``."""
    out = np.zeros(shape + (len(arrays),))
    for col, a in enumerate(arrays):
        out[tuple(slice(0, m) for m in a.shape) + (col,)] = a
    return out


@pytest.mark.parametrize("kind", ["awgn", "sdusq", "d4"])
def test_mixed_batch_rows_equal_single_runs(kind):
    # G = 5 loops of one source with different active-set sizes; each row of
    # the padded batch must equal its own G = 1 run and the scalar reference
    widths = [0, 4, 8, 4, 0] if kind == "d4" else [0, 2, 4, 2, 0]
    rmax = max(widths)
    rng = np.random.default_rng(5)
    A = rng.normal(size=(P, P)) * 0.4
    runs = []
    for r in widths:
        bw = rng.normal(size=(N, P))
        x0 = rng.normal(size=P)
        fe, g = channel(rng, r)
        if kind == "awgn":
            noise = rng.standard_normal((N + 1, r))
        elif kind == "sdusq":
            noise = sdusq_dither(rng, np.full(r, np.sqrt(12.0)), N + 1)
        else:
            noise = kernels.d4_dither(rng, SCALE, (N + 1) * (r // 4)).reshape(N + 1, r)
        runs.append((bw, x0, fe, g, noise))

    bw, x0, fe, g, noise = (
        _batch([run[m] for run in runs], shape)
        for m, shape in enumerate([(N, P), (P,), (rmax, P), (P, rmax), (N + 1, rmax)])
    )
    if kind == "awgn":
        step = kernels.awgn_step(noise)
    elif kind == "sdusq":
        step = kernels.sdusq_step(noise, np.full((rmax, len(runs)), np.sqrt(12.0)))
    else:
        step = kernels.d4_step(noise, np.full(len(runs), SCALE))
    idx, e = kernels.feedback_loop(A, bw, x0, fe, g, step)
    assert (idx is None) == (kind == "awgn")

    for col, (r, run) in enumerate(zip(widths, runs)):
        if kind == "awgn":
            single = kernels.awgn_loop(A, *run)
            want = ref_awgn(A, *run)
        elif kind == "sdusq":
            single = kernels.sdusq_loop(A, *run, np.full(r, np.sqrt(12.0)))
            want = ref_sdusq(A, *run, np.full(r, np.sqrt(12.0)))
        else:
            single = kernels.d4_loop(A, *run, SCALE)
            want = ref_d4(A, *run, SCALE)
        assert_all_equal(single, want)
        assert np.array_equal(e[:, :, col], single[-1])
        if idx is not None:
            assert np.array_equal(idx[:, :r, col], single[0])


def test_backend_name():
    assert kernels.get_backend() == "numpy"
