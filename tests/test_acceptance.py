"""Acceptance gate: each release criterion at its stated tolerance.

Every test prints one PASS/FAIL line (visible with ``pytest -s`` and in
captured output on failure).  Monte-Carlo checks run at fixed seeds with the
slack stated in the criterion.
"""

import math
import time
import warnings

import numpy as np
from scipy.stats import kstest

import zdrd
from zdrd import experiments, kernels
from zdrd.coding import (
    HALF_LOG2_PIE6,
    SeedBundle,
    run_coding_experiment,
    theoretical_upper_bound,
)
from zdrd.quantizers import SQRT12
from zdrd.realization import build_realization, channel_matrices, steady_state_update
from zdrd.solver import FORM_A, FORM_B, nrdf, scalar_ar1_nrdf


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_scalar_closed_form_agreement():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        alpha = rng.uniform(-1.5, 1.5)
        sigma2 = rng.uniform(0.1, 4.0)
        dmax = sigma2 / (1 - alpha**2) if abs(alpha) < 1 else math.inf
        hi = 2.0 * max(1.0, dmax if math.isfinite(dmax) else 1.0)
        D = rng.uniform(1e-6, hi)
        src = zdrd.new_source([[alpha]], [[math.sqrt(sigma2)]], [[1.0]])
        got = nrdf(src, D, form=FORM_B).rate_bits
        worst = max(worst, abs(got - scalar_ar1_nrdf(alpha, sigma2, D)))
    elapsed = time.perf_counter() - t0
    _report(
        "1 scalar closed-form",
        worst < 1e-6 and elapsed < 5.0,
        f"max |err| = {worst:.2e} bits over 100 draws, {elapsed:.2f}s",
    )


def test_criterion_2_unstable_floor_4d(unstable4):
    t0 = time.perf_counter()
    grid = np.geomspace(0.06, 3.0, 20)
    rates = np.array([nrdf(unstable4, float(d)).rate_bits for d in grid])
    elapsed = time.perf_counter() - t0
    min_per_dim = float(rates.min() / 4.0)
    _report(
        "2 unstable 4-d floor",
        min_per_dim >= 0.3161 - 1e-4 and elapsed < 30.0,
        f"min rate/4 = {min_per_dim:.4f} bits >= 0.3161 - 1e-4, {elapsed:.1f}s for 20 points",
    )


def test_criterion_3_unstable_ar2_floor(unstable_ar2):
    grid = np.geomspace(0.06, 3.0, 12)
    rates = np.array([nrdf(unstable_ar2, float(d)).rate_bits for d in grid])
    _report(
        "3 unstable AR(2) floor",
        float(rates.min()) >= 0.611 - 1e-4,
        f"min rate = {rates.min():.4f} bits >= 0.611 - 1e-4",
    )


def test_criterion_4_waterfilling_threshold(stable4):
    grid = np.round(np.arange(3.55, 4.3501, 0.1), 10)
    actives = []
    for d in grid:
        sol = nrdf(stable4, float(d))
        actives.append(build_realization(stable4, sol).r)
    actives = np.array(actives)
    full = np.where(actives == 4)[0]
    dropped = np.where(actives < 4)[0]
    ok = full.size > 0 and dropped.size > 0 and dropped.min() == full.max() + 1
    lo = grid[full.max()] if full.size else math.nan
    hi = grid[dropped.min()] if dropped.size else math.nan
    ok = ok and lo <= 3.95 <= hi
    _report(
        "4 waterfilling threshold",
        bool(ok),
        f"r drops from 4 between D={lo} and D={hi}; bracket contains 3.95 (step 0.1)",
    )


def test_criterion_5_realization_fidelity(scalar_half, stable_ar2, unstable_ar2, stable4, unstable4):
    cases = [
        ("p=1 stable", scalar_half, 0.5),
        ("p=1 unstable", zdrd.new_source([[1.3]], [[1.0]], [[1.0]]), 0.4),
        ("p=2 stable", stable_ar2, 0.8),
        ("p=2 unstable", unstable_ar2, 0.5),
        ("p=4 stable", stable4, 1.0),
        ("p=4 unstable", unstable4, 1.0),
    ]
    details = []
    ok = True
    for i, (label, src, D) in enumerate(cases):
        scheme = build_realization(src, nrdf(src, D))
        traj = zdrd.simulate(src, 100_000, seed=9000 + i)
        run = zdrd.run_awgn_channel(scheme, traj, seed=9100 + i)
        rel = abs(run.empirical_mse - D) / D
        ok = ok and rel < 0.02
        details.append(f"{label}: {100 * rel:.2f}%")
    _report("5 realization fidelity", ok, "; ".join(details) + " (tol 2%)")


def _sandwich_case(src, D, kind, n, seed_base, tmp_path):
    sol = nrdf(src, D)
    scheme = build_realization(src, sol)
    trace = tmp_path / f"trace_{kind}_{seed_base}.csv"
    res = run_coding_experiment(
        scheme, src, n, SeedBundle(seed_base, seed_base + 1), kind, trace_path=trace
    )
    lengths = np.loadtxt(trace, delimiter=",", skiprows=1, usecols=scheme.r + 1)
    se3 = 3.0 * float(np.std(lengths)) / math.sqrt(lengths.size)
    lower = nrdf(src, res.empirical_mse).rate_bits
    upper = theoretical_upper_bound(lower, scheme.r, kind)
    rate = res.empirical_rate_bits_per_vector
    ok = lower <= rate <= upper + se3
    return ok, f"D={D}: {lower:.3f} <= {rate:.3f} <= {upper:.3f}+{se3:.3f}"


def test_criterion_6_coding_sandwich(stable4, unstable4, tmp_path):
    scalar_const = HALF_LOG2_PIE6
    d4_const = theoretical_upper_bound(0.0, 4, "d4") / 4.0
    const_ok = abs(scalar_const - 0.2546) <= 1e-4 and abs(d4_const - 0.4439) <= 1e-4
    details = [f"scalar const {scalar_const:.5f}", f"D4/dim const {d4_const:.5f}"]
    ok = const_ok
    for j, D in enumerate((0.1, 0.5, 1.5)):
        good, msg = _sandwich_case(stable4, D, "sdusq", 100_000, 7000 + 10 * j, tmp_path)
        ok = ok and good
        details.append("sdusq " + msg)
    for j, D in enumerate((0.3, 1.0, 1.5)):
        good, msg = _sandwich_case(unstable4, D, "d4", 100_000, 7500 + 10 * j, tmp_path)
        ok = ok and good
        details.append("d4 " + msg)
    _report("6 coding sandwich", ok, "; ".join(details))


def test_criterion_7_high_rate_gap_informative(stable4):
    d_small = float(experiments.default_grid(stable4)[0])
    sol = nrdf(stable4, d_small)
    scheme = build_realization(stable4, sol)
    res = run_coding_experiment(
        scheme, stable4, 100_000, SeedBundle(7700, 7701), "sdusq"
    )
    gap = (res.empirical_rate_bits_per_vector - sol.rate_bits) / scheme.r
    in_range = 0.15 <= gap <= 0.45
    print(
        f"ACCEPTANCE 7 high-rate gap: {'PASS' if in_range else 'INFO'} "
        f"(gap/r = {gap:.4f} at D = {d_small:.4f}; informative range [0.15, 0.45])"
    )
    if not in_range:
        warnings.warn(f"high-rate gap {gap:.4f} outside informative range", stacklevel=1)
    assert math.isfinite(gap) and gap > 0.0


def test_criterion_8_property_suites(stable4, unstable_ar2, scalar_half, tmp_path):
    details = []

    # joint-diagonalization round trip at 1e-9
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(10):
        M = rng.normal(size=(3, 3))
        P = M @ M.T + 0.3 * np.eye(3)
        N = rng.normal(size=(3, 3))
        L = P + N @ N.T + 0.1 * np.eye(3)
        E, pt, lt = zdrd.joint_diagonalize(P, L)
        Einv = np.linalg.inv(E)
        worst = max(worst, np.linalg.norm(Einv @ np.diag(pt) @ Einv.T - P))
        worst = max(worst, np.linalg.norm(Einv @ np.diag(lt) @ Einv.T - L))
    diag_ok = worst < 1e-9
    details.append(f"joint-diag roundtrip {worst:.1e}")

    # form cross-agreement at 1e-6 bits
    rng = np.random.default_rng(89)
    fworst = 0.0
    for _ in range(3):
        A = rng.normal(size=(2, 2)) * 0.6
        B = rng.normal(size=(2, 2)) + np.eye(2)
        src = zdrd.new_source(A, B, np.eye(2))
        D = float(rng.uniform(0.2, 0.8))
        fworst = max(
            fworst,
            abs(nrdf(src, D, form=FORM_B).rate_bits - nrdf(src, D, form=FORM_A).rate_bits),
        )
    form_ok = fworst < 1e-6
    details.append(f"formA/formB {fworst:.1e} bits")

    # steady-state fixed point at 1e-6
    ric_worst = 0.0
    for src, D in [(stable4, 1.0), (unstable_ar2, 0.7)]:
        sol = nrdf(src, D)
        scheme = build_realization(src, sol)
        sigma = sol.lam.copy()
        for _ in range(20):
            sigma = steady_state_update(sigma, scheme.H, scheme.sigma_v, src.A, src.B @ src.B.T)
            ric_worst = max(ric_worst, np.linalg.norm(sigma - sol.lam))
    ric_ok = ric_worst < 1e-6
    details.append(f"riccati fixed point {ric_worst:.1e}")

    # Huffman sandwich on a run
    scheme = build_realization(stable4, nrdf(stable4, 1.0))
    res = run_coding_experiment(
        scheme, stable4, 30_000, SeedBundle(90, 91), "sdusq"
    )
    huff_ok = (
        res.empirical_entropy_bits - 1e-9
        <= res.empirical_rate_bits_per_vector
        <= res.empirical_entropy_bits + 1.0 + 1e-9
    )
    details.append("huffman sandwich holds")

    # dither-error uniformity (KS at the 1% level, n = 1e5)
    sch = build_realization(scalar_half, nrdf(scalar_half, 0.5))
    fe, g = channel_matrices(sch)
    rs = np.random.default_rng(92)
    w = rs.standard_normal((100_000, 1))
    deltas = np.full(1, SQRT12)
    dith = (np.random.default_rng(93).random((100_001, 1)) - 0.5) * deltas
    _, _, alpha, beta, _ = kernels.sdusq_loop(
        scalar_half.A, w @ scalar_half.B.T, rs.standard_normal(1), fe, g, dith, deltas
    )
    err = (beta - alpha)[:, 0]
    stat = kstest(err, "uniform", args=(-SQRT12 / 2, SQRT12)).statistic
    ks_ok = stat < 1.63 / math.sqrt(err.size)
    details.append(f"KS {stat:.2e} < 1% critical")

    # determinism: bit-identical report files
    cfg = experiments.preset_config("example4", n_steps=2000, points=3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    experiments.write_csv(experiments.run_experiment(cfg), p1)
    experiments.write_csv(experiments.run_experiment(cfg), p2)
    det_ok = p1.read_bytes() == p2.read_bytes()
    details.append("bit-identical reports")

    _report(
        "8 property suites",
        diag_ok and form_ok and ric_ok and huff_ok and ks_ok and det_ok,
        "; ".join(details),
    )
