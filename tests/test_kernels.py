"""Exactness of the lockstep feedback loop.

Every output of the kernel is compared with one reference, kept in
``conftest``: ``reference_loop``, which adds the terms of every sum, each
its own rounded product, one at a time in index order, driven by
``reference_step``, whose Gaussian, Z and D4 steps round by
``sign_floor`` and ``d4_rule`` and call nothing in ``zdrd.quantizers`` or
``zdrd.kernels``.  A single loop must equal the reference in its indices,
k, alpha, beta and e; a batch, or a horizon run in pieces, in its errors
and lattice coordinates bit for bit, signs of zero included; and a loop's
row of a batch must equal the same loop run alone.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zdrd
from zdrd import kernels, quantizers
from zdrd.quantizers import d4_nearest_columns, z_nearest
from zdrd.source_model import new_source, simulate

from conftest import reference_loop, reference_step


def uniform_dither(rng, deltas, n):
    """n rows of independent uniforms on [-delta_i/2, delta_i/2]."""
    return (rng.random((n, len(deltas))) - 0.5) * deltas


def horizon_loop(A, bw, x0, fe=None, g=None, step=None, loop=None):
    """A loop, ``kernels.feedback_loop`` unless given, over a horizon: the
    rows x0, bw..., from a zero error."""
    u = np.concatenate([x0[None], bw])
    return (loop or kernels.feedback_loop)(A, u, np.zeros_like(x0), fe, g, step)


def recording(step, k, alpha, beta=None):
    """``step``, copying the k and alpha of each step t into k[t] and alpha[t],
    and what it returns into beta[t] if beta is given."""

    def record(t, kt, at):
        k[t], alpha[t] = kt, at
        bt = step(t, kt, at)
        if beta is not None:
            beta[t] = bt
        return bt

    return record


def reference_one_loop(kind, A, bw, x0, fe, g, noise, scale=None):
    """What ``kernels.{kind}_loop`` returns for one loop, ((idx,) k, alpha,
    beta, e), by the reference loop and step of ``kind``."""
    k = np.empty((len(bw) + 1, len(x0), 1))
    alpha, beta, z = (np.empty(noise.shape + (1,)) for _ in range(3))
    if scale is not None:
        scale = np.asarray(scale, float)[..., None]
    step = recording(reference_step(kind, noise[..., None], scale, z), k, alpha, beta)
    e = horizon_loop(
        A, bw[..., None], x0[:, None], fe[..., None], g[..., None], step, loop=reference_loop
    )
    out = (e if fe.shape[0] == 0 else k, alpha, beta, e)
    if kind != "awgn":
        out = (z.astype(np.int64),) + out
    return tuple(a[..., 0] for a in out)


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
    want = horizon_loop(A, bw[..., None], x0[:, None], loop=reference_loop)[..., 0]
    e = horizon_loop(A, bw[..., None], x0[:, None])
    assert np.array_equal(e[..., 0], want)


def test_simulate_matches_state_recursion():
    src = new_source(np.eye(3) * 0.5 + 0.1, [[1.0, 0.0], [0.5, 1.0], [0.0, 2.0]], np.eye(3))
    # the draws in their documented order: p normals for x_0 (sigma_x0 = I,
    # so x_0 is them), then q per row of w
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal(3)
    w = rng.standard_normal((500, 2))
    want = horizon_loop(src.A, (w @ src.B.T)[..., None], x0[:, None], loop=reference_loop)[..., 0]
    assert np.array_equal(simulate(src, 500, seed=4), want)


def test_awgn_loop_exact():
    A, bw, x0, fe, g, rng = loop_inputs(1, 4)
    noise = rng.standard_normal((N + 1, 4))
    got = kernels.awgn_loop(A, bw, x0, fe, g, noise)
    assert_all_equal(got, reference_one_loop("awgn", A, bw, x0, fe, g, noise))


def test_sdusq_loop_exact():
    A, bw, x0, fe, g, rng = loop_inputs(2, 4)
    deltas = np.sqrt(12.0) * np.array([1.0, 0.5, 2.0, 1.0])
    dith = uniform_dither(rng, deltas, N + 1)
    got = kernels.sdusq_loop(A, bw, x0, fe, g, dith, deltas)
    assert_all_equal(got, reference_one_loop("sdusq", A, bw, x0, fe, g, dith, deltas))


def test_d4_loop_exact_generic():
    A, bw, x0, fe, g, rng = loop_inputs(3, 8)
    dith = kernels.d4_dither(rng, SCALE, (N + 1) * 2).reshape(N + 1, 8)
    got = kernels.d4_loop(A, bw, x0, fe, g, dith, SCALE)
    assert_all_equal(got, reference_one_loop("d4", A, bw, x0, fe, g, dith, SCALE))


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
    assert_all_equal(got, reference_one_loop("d4", A, bw, x0, fe, g, dith, scale))


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
    assert_all_equal(got, reference_one_loop("sdusq", A, bw, x0, fe, g, dith, ones))
    got = kernels.d4_loop(A, bw, x0, fe, g, dith, 1.0)
    assert_all_equal(got, reference_one_loop("d4", A, bw, x0, fe, g, dith, 1.0))


def _batch(arrays, shape):
    """Per-loop arrays stacked on a last axis, each zero-padded to ``shape``."""
    out = np.zeros(shape + (len(arrays),))
    for col, a in enumerate(arrays):
        out[tuple(slice(0, m) for m in a.shape) + (col,)] = a
    return out


@pytest.mark.parametrize("kind", ["awgn", "sdusq", "d4"])
def test_mixed_batch_rows_equal_single_runs(kind):
    # G = 5 loops of one source with different active-set sizes; each row of
    # the padded batch must equal its own G = 1 run and the reference
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
    z = np.empty(noise.shape)
    if kind == "awgn":
        step = kernels.awgn_step(noise)
    elif kind == "sdusq":
        step = kernels.lattice_step(noise, np.full((rmax, len(runs)), np.sqrt(12.0)), z_nearest, z)
    else:
        step = kernels.lattice_step(noise, np.full(len(runs), SCALE), d4_nearest_columns, z)
    k, alpha = np.empty((N + 1, P, len(runs))), np.empty(noise.shape)
    e = horizon_loop(A, bw, x0, fe, g, recording(step, k, alpha))

    for col, (r, run) in enumerate(zip(widths, runs)):
        if kind == "awgn":
            single = kernels.awgn_loop(A, *run)
            want = reference_one_loop(kind, A, *run)
        elif kind == "sdusq":
            single = kernels.sdusq_loop(A, *run, np.full(r, np.sqrt(12.0)))
            want = reference_one_loop(kind, A, *run, np.full(r, np.sqrt(12.0)))
        else:
            single = kernels.d4_loop(A, *run, SCALE)
            want = reference_one_loop(kind, A, *run, SCALE)
        assert_all_equal(single, want)
        assert np.array_equal(e[:, :, col], single[-1])
        assert np.array_equal(k[:, :, col], single[-4])
        assert np.array_equal(alpha[:, :r, col], single[-3])
        if kind != "awgn":
            assert np.array_equal(z[:, :r, col].astype(np.int64), single[0])


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
    """The kernel's step and the reference step of one kind, each with the
    array its lattice coordinates go to (None for the AWGN channel)."""
    if kind == "awgn":
        return kernels.awgn_step(noise), reference_step(kind, noise), None, None
    scale, nearest = (np.sqrt(12.0), z_nearest) if kind == "sdusq" else (SCALE, d4_nearest_columns)
    z, ref_z = np.empty(noise.shape), np.empty(noise.shape)
    return (
        kernels.lattice_step(noise, scale, nearest, z),
        reference_step(kind, noise, scale, ref_z),
        z,
        ref_z,
    )


def assert_loops_equal(A, bw, x0, fe, g, noise, kind):
    step, ref_step, z, ref_z = steps(kind, noise)
    e = horizon_loop(A, bw, x0, fe, g, step)
    ref_e = horizon_loop(A, bw, x0, fe, g, ref_step, loop=reference_loop)
    assert np.abs(e).max() < 100.0  # the loops stayed bounded
    assert_same_bits(e, ref_e)
    if kind != "awgn":
        assert_same_bits(z, ref_z)


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
    e = horizon_loop(A, bw, x0)
    assert np.any(np.signbit(e[1:, 0]) & (e[1:, 0] == 0.0))
    assert_same_bits(e, horizon_loop(A, bw, x0, loop=reference_loop))


@pytest.mark.parametrize("kind", ["none", "awgn", "sdusq", "d4"])
def test_loop_in_pieces_equals_one_run(kind):
    # a horizon's input rows cut into pieces, each run from the last error of
    # the piece before, equal one run: the errors, the lattice coordinates and
    # the k and alpha each step was called with.  Among the pieces are empty
    # ones, one holding the first row (x0) only and others a single row
    base = "awgn" if kind == "none" else kind
    widths = [0, 0, 0] if kind == "none" else BATCHES[base, "stable"]
    A, bw, x0, fe, g, noise = mixed_batch(base, 0.9, widths)
    u = np.concatenate([x0[None], bw])

    def run(lo, hi, e_prev):
        # rows lo..hi-1 of u from e_prev; the errors, the lattice coordinates
        # (None without them) and the steps' (k, alpha); with no channel no
        # step is called, k is e and alpha has no columns
        k, alpha = np.empty(u[lo:hi].shape), np.empty(noise[lo:hi].shape)
        if kind == "none":
            e = kernels.feedback_loop(A, u[lo:hi], e_prev)
            return e, None, (e, alpha)
        step, _, z, _ = steps(base, noise[lo:hi])
        e = kernels.feedback_loop(A, u[lo:hi], e_prev, fe, g, recording(step, k, alpha))
        return e, z, (k, alpha)

    e, z, (k, alpha) = run(0, N + 1, np.zeros_like(x0))
    cuts = [0, 0, 1, 2, 3, 250, 777, 777, N + 1]
    pieces, e_prev = [], np.zeros_like(x0)
    for lo, hi in zip(cuts, cuts[1:]):
        got = run(lo, hi, e_prev)
        assert got[0].shape == (hi - lo,) + x0.shape
        pieces.append(got)
        if hi > lo:
            e_prev = got[0][-1]
    assert_same_bits(np.concatenate([ep for ep, _, _ in pieces]), e)
    assert_same_bits(np.concatenate([kp for _, _, (kp, _) in pieces]), k)
    assert_same_bits(np.concatenate([ap for _, _, (_, ap) in pieces]), alpha)
    if z is None:
        assert all(zp is None for _, zp, _ in pieces)
    else:
        assert_same_bits(np.concatenate([zp for _, zp, _ in pieces]), z)


def test_references_call_no_library_rule(monkeypatch):
    # the reference loop and its three steps run with the library's
    # quantizer rules and loop made to raise; the inputs are drawn first
    names = ["z_nearest", "d4_nearest", "d4_nearest_columns", "dithered_encode", "dithered_decode"]
    runs = []
    for kind in ["awgn", "sdusq", "d4"]:
        A, bw, x0, fe, g, noise = mixed_batch(kind, 0.9, BATCHES[kind, "stable"], n=50)
        runs.append((A, bw, x0, fe, g, steps(kind, noise)[1]))

    def refuse(*args, **kwargs):
        raise AssertionError("a reference called the library")

    for name in names:
        monkeypatch.setattr(quantizers, name, refuse)
    monkeypatch.setattr(kernels, "feedback_loop", refuse)
    # a name bound into the references' module would escape the patches
    assert not set(names + ["feedback_loop"]) & set(reference_loop.__globals__)
    for A, bw, x0, fe, g, ref_step in runs:
        e = horizon_loop(A, bw, x0, fe, g, ref_step, loop=reference_loop)
        assert e.shape == (51,) + x0.shape and np.all(np.isfinite(e))


def test_kernel_bench_runs_without_scipy():
    # the kernel benchmark needs numpy alone; only its exit status is checked
    script = str(Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py")
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(zdrd.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    probe = (
        "import runpy, sys; sys.modules['scipy'] = None; "
        f"sys.argv = [{script!r}, '--n', '200', '--repeat', '1']; "
        f"runpy.run_path({script!r}, run_name='__main__')"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
