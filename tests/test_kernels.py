"""Exactness of the lockstep feedback loop.

The scalar loops below are the per-point implementations the lockstep
kernel replaced, kept verbatim as references: every output of the kernel
must equal theirs bit for bit, and a loop's row of a batch must equal the
same loop run alone.  ``per_term_loop`` adds every term of every sum by
its own numpy call; the kernel, which takes each sum as one reduction,
must equal it bit for bit too, signs of zero included.
"""

import numpy as np
import pytest

from zdrd import kernels
from zdrd.quantizers import d4_nearest_columns, dithered_decode, dithered_encode, z_nearest
from zdrd.source_model import new_source, simulate, source_noise


def uniform_dither(rng, deltas, n):
    """n rows of independent uniforms on [-delta_i/2, delta_i/2]."""
    return (rng.random((n, len(deltas))) - 0.5) * deltas


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


def _round_half(a):
    """floor(a + 1/2) for a >= 0, exactly: floor(a), plus one when the exact
    remainder a - floor(a) is at least 1/2.  (The float sum a + 1/2 rounds up
    for the double below 1/2 and for odd integers from 2^52.)"""
    f = np.floor(a)
    return f + 1.0 if a - f >= 0.5 else f


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
                ji = _round_half(z) if z >= 0.0 else -_round_half(-z)
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
                fi = _round_half(xi) if xi >= 0.0 else -_round_half(-xi)
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


def per_term_loop(A, bw, x0, fe=None, g=None, step=None):
    """``kernels.feedback_loop`` with every term of every sum added by its own call."""
    n1 = bw.shape[0] + 1
    p, G = x0.shape
    if fe is None:
        fe, g = np.zeros((0, p, G)), np.zeros((p, 0, G))
    r = fe.shape[0]
    a_t = np.ascontiguousarray(A.T)[:, :, None]
    fe_t = np.ascontiguousarray(fe.transpose(1, 0, 2))
    g_t = np.ascontiguousarray(g.transpose(1, 0, 2))
    a_prod = np.empty((p, p, G))
    fe_prod = np.empty((p, r, G))
    g_prod = np.empty((r, p, G))
    e = np.empty((n1, p, G))
    idx = None
    alpha = np.empty((r, G))
    e[0] = x0
    for t in range(n1):
        k = e[t]  # holds k_t until the channel output is subtracted
        if t:
            np.copyto(k, bw[t - 1])
            np.multiply(a_t, e[t - 1][:, None], out=a_prod)
            for term in a_prod:
                np.add(k, term, out=k)
        if not r:
            continue
        alpha.fill(0.0)
        np.multiply(fe_t, k[:, None], out=fe_prod)
        for term in fe_prod:
            np.add(alpha, term, out=alpha)
        q, beta = step(t, alpha)
        if q is not None:
            if idx is None:
                idx = np.empty((n1, r, G), dtype=np.int64)
            idx[t] = q
        np.multiply(g_t, beta[:, None], out=g_prod)
        for term in g_prod:
            np.subtract(k, term, out=k)
    return idx, e


def per_call_lattice_step(dither, scale, nearest):
    """``kernels.lattice_step`` with fresh arrays each step and int64 indices."""

    def step(t, alpha):
        z = dithered_encode(alpha, dither[t], scale, nearest)
        return z.astype(np.int64), dithered_decode(z, dither[t], scale)

    return step


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
    dith = uniform_dither(rng, deltas, N + 1)
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


def test_loops_exact_next_to_half():
    # with fe = 0 both loops quantize exactly dither/scale; the double below
    # 1/2 and odd integers from 2^52 are where floor(|z| + 1/2) is wrong
    A, bw, x0, _, g, rng = loop_inputs(5, 4)
    h = np.nextafter(0.5, 0.0)
    hard = np.array([h, 0.5, 1.5, 2.0**52 + 1.0])
    dith = rng.choice(np.concatenate([hard, -hard]), (N + 1, 4))
    fe, ones = np.zeros((4, P)), np.ones(4)
    assert np.any(dith == h) and np.any(dith == -h)
    got = kernels.sdusq_loop(A, bw, x0, fe, g, dith, ones)
    assert_all_equal(got, ref_sdusq(A, bw, x0, fe, g, dith, ones))
    got = kernels.d4_loop(A, bw, x0, fe, g, dith, 1.0)
    assert_all_equal(got, ref_d4(A, bw, x0, fe, g, dith, 1.0))


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
            noise = uniform_dither(rng, np.full(r, np.sqrt(12.0)), N + 1)
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
        step = kernels.lattice_step(noise, np.full((rmax, len(runs)), np.sqrt(12.0)), z_nearest)
    else:
        step = kernels.lattice_step(noise, np.full(len(runs), SCALE), d4_nearest_columns)
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


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def random_stack(rng, rows, shape):
    """Terms of mixed sign and magnitude, with signed zeros among them."""
    s = rng.normal(size=(rows,) + shape) * 10.0 ** rng.integers(-12, 12, (rows,) + shape)
    s[rng.random(s.shape) < 0.1] = 0.0
    s[rng.random(s.shape) < 0.1] = -0.0
    return s


class TestReductionOrder:
    # feedback_loop sums by one reduction along axis 0; that equals adding
    # the rows one at a time only because numpy runs the rows in its outer
    # loop whenever the result has two or more elements, and because the
    # reduction starts from an initial value that is an exact identity for
    # the first row (-0.0), or the zero a zeroed sum starts from (+0.0)
    SHAPES = [(2, 1), (1, 2), (4, 1), (4, 5), (5, 20), (9, 3), (1, 7)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_axis0_reductions_add_rows_in_order(self, shape):
        rng = np.random.default_rng(20)
        for rows in list(range(1, 20)) + [33, 64]:
            s = random_stack(rng, rows, shape)
            seq = s[0].copy()
            for row in s[1:]:
                np.add(seq, row, out=seq)
            assert_same_bits(np.add.reduce(s, axis=0, initial=-0.0), seq)
            seq = np.zeros(shape)
            for row in s:
                np.add(seq, row, out=seq)
            assert_same_bits(np.add.reduce(s, axis=0, initial=0.0), seq)
            seq = s[0].copy()
            for row in s[1:]:
                np.subtract(seq, row, out=seq)
            assert_same_bits(np.subtract.reduce(s, axis=0), seq)

    def test_one_element_sums_the_loop_makes(self):
        # k at p = G = 1 is bw plus one term, and e is a subtraction at any
        # width; alpha never has one element (it carries a spare zero row)
        rng = np.random.default_rng(21)
        for rows in range(1, 40):
            s = random_stack(rng, rows, (1, 1))
            seq = s[0].copy()
            for row in s[1:]:
                np.subtract(seq, row, out=seq)
            assert_same_bits(np.subtract.reduce(s, axis=0), seq)
        for _ in range(200):
            s = random_stack(rng, 2, (1, 1))
            assert_same_bits(np.add.reduce(s, axis=0, initial=-0.0), s[0] + s[1])


def mixed_batch(kind, rho, widths, p=P, n=N, seed=30):
    """A lockstep batch of one source, A = rho * a random rotation, one loop per width.

    Every eigenvalue of A has modulus rho and |A| = rho.  With g half the
    pseudo-inverse of fe, |A (I - g fe)| is rho at r < p and rho / 2 at
    r >= p, so each closed loop stays bounded at rho < 1 for any r, and at
    rho < 2 with r >= p.
    """
    rng = np.random.default_rng(seed)
    A = rho * np.linalg.qr(rng.normal(size=(p, p)))[0]
    rmax, G = max(widths), len(widths)
    bw = rng.normal(size=(n, p, G))
    x0 = rng.normal(size=(p, G))
    fe = np.zeros((rmax, p, G))
    g = np.zeros((p, rmax, G))
    noise = np.zeros((n + 1, rmax, G))
    for col, r in enumerate(widths):
        fe[:r, :, col] = 3.0 * rng.normal(size=(r, p))
        g[:, :r, col] = 0.5 * np.linalg.pinv(fe[:r, :, col])
        if kind == "awgn":
            noise[:, :r, col] = rng.standard_normal((n + 1, r))
        elif kind == "sdusq":
            noise[:, :r, col] = uniform_dither(rng, np.full(r, np.sqrt(12.0)), n + 1)
        else:
            noise[:, :r, col] = kernels.d4_dither(rng, SCALE, (n + 1) * (r // 4)).reshape(n + 1, r)
    return A, bw, x0, fe, g, noise


def steps(kind, noise):
    """(the kernel's step, the per-call reference step) of one kind."""
    if kind == "awgn":
        return kernels.awgn_step(noise), kernels.awgn_step(noise)
    scale, nearest = (np.sqrt(12.0), z_nearest) if kind == "sdusq" else (SCALE, d4_nearest_columns)
    return kernels.lattice_step(noise, scale, nearest), per_call_lattice_step(noise, scale, nearest)


def assert_loops_equal(A, bw, x0, fe, g, noise, kind):
    step, ref_step = steps(kind, noise)
    idx, e = kernels.feedback_loop(A, bw, x0, fe, g, step)
    ref_idx, ref_e = per_term_loop(A, bw, x0, fe, g, ref_step)
    assert np.abs(e).max() < 100.0  # the loops stayed bounded
    assert_same_bits(e, ref_e)
    if kind == "awgn":
        assert idx is None and ref_idx is None
    else:
        assert_same_bits(idx, ref_idx)


# an unstable source needs every direction in the channel: r >= p
BATCHES = {
    ("awgn", "stable"): [0, 2, 4, 3, 0],
    ("sdusq", "stable"): [0, 2, 4, 3, 0],
    ("d4", "stable"): [0, 4, 8, 4, 0],
    ("awgn", "unstable"): [4, 6, 4],
    ("sdusq", "unstable"): [4, 6, 4],
    ("d4", "unstable"): [4, 8, 4],
}


@pytest.mark.parametrize("kind, stability", sorted(BATCHES))
def test_lockstep_equals_per_term_loop(kind, stability):
    rho = 0.9 if stability == "stable" else 1.4
    A, bw, x0, fe, g, noise = mixed_batch(kind, rho, BATCHES[kind, stability])
    assert (np.max(np.abs(np.linalg.eigvals(A))) > 1.0) == (stability == "unstable")
    assert_loops_equal(A, bw, x0, fe, g, noise, kind)


@pytest.mark.parametrize("kind", ["awgn", "sdusq"])
@pytest.mark.parametrize("p", [1, 2, 9, 12])
def test_lockstep_equals_per_term_loop_with_one_loop_of_one_dimension(kind, p):
    # G = r = 1 makes alpha one element, and p = 1 makes k one; with eight
    # or more terms a one-element sum would be pairwise without the spare row
    A, bw, x0, fe, g, noise = mixed_batch(kind, 0.9, [1], p=p)
    assert_loops_equal(A, bw, x0, fe, g, noise, kind)


def test_no_channel_equals_per_term_loop():
    # a state that A and B never reach sums signed zeros only: k_0 is -0.0
    # plus the terms 0 * e_j, of either sign, and -0.0 * e_0, of the other
    A, bw, x0, *_ = mixed_batch("awgn", 0.9, [0, 0, 0])
    A[0] = 0.0
    A[0, 0] = -0.0
    bw[:, 0] = -0.0
    e = kernels.feedback_loop(A, bw, x0)[1]
    assert np.any(np.signbit(e[1:, 0]) & (e[1:, 0] == 0.0))
    assert_same_bits(e, per_term_loop(A, bw, x0)[1])
