"""Feedback test-channel realization with per-dimension rate allocation.

Given the optimizing pair (pi, lam) at distortion D, the reproduction

    y_t = E^{-1} Ht E x_t + (I - E^{-1} Ht E) A y_{t-1} + E^{-1} Theta v_t,
    v_t ~ N(0, I),

achieves rate 1/2 log2(|lam|/|pi|) and steady-state error covariance pi.
E is a nonsingular congruence that diagonalizes pi and lam simultaneously;
in those coordinates the per-dimension gains are

    Ht_i  = 1 - mu_pi_i / mu_lam_i,
    theta_i = sqrt(mu_pi_i * Ht_i),      phi_i = sqrt(Ht_i / mu_pi_i),

with Ht_i = theta_i * phi_i.  Coordinates with mu_pi_i = mu_lam_i carry no
information (Ht_i = 0): the rate allocation has shut them off, and only the
r active coordinates are wired through the channel.

The channel input is the innovation k_t = x_t - A y_{t-1}; alpha_t = Phi E k_t
restricted to active coordinates crosses the unit-variance AWGN (or, in
:mod:`zdrd.coding`, a dithered quantizer), and the output is scaled back by
E^{-1} Theta.
"""

import json
from dataclasses import dataclass, fields

import numpy as np

from . import kernels
from .errors import DimensionMismatch, NotPD, OrderViolation
from .linalg import fix_eigvec_signs, symmetrize
from .source_model import GaussMarkovSource, Trajectory, driving_rows

ACTIVE_TOL = 1e-9  # a dimension is active when Ht exceeds this


@dataclass(frozen=True)
class RealizationScheme:
    E: np.ndarray
    E_inv: np.ndarray
    pi_tilde: np.ndarray  # descending diagonal of E pi E^T
    lambda_tilde: np.ndarray  # descending diagonal of E lam E^T
    h_tilde: np.ndarray  # per-coordinate gains, zero at inactive coordinates
    theta: np.ndarray
    phi: np.ndarray
    H: np.ndarray  # = E^{-1} diag(h_tilde) E = I - pi lam^{-1}
    sigma_v: np.ndarray  # = pi H^T
    active: np.ndarray  # boolean mask
    r: int

    def to_dict(self):
        """Every field by name, arrays as nested lists."""
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


@dataclass(frozen=True)
class ChannelRun:
    x: np.ndarray  # (n+1, p) source states
    y: np.ndarray  # (n+1, p) reproductions
    k: np.ndarray  # (n+1, p) innovations  x_t - A y_{t-1}
    alpha: np.ndarray  # (n+1, r) channel inputs
    beta: np.ndarray  # (n+1, r) channel outputs
    empirical_mse: float


def joint_diagonalize(pi, lam):
    """Nonsingular E with E pi E^T and E lam E^T diagonal, both descending.

    Construction: eigendecompose pi = U^T diag(w) U (w descending), whiten,
    then eigendecompose pi^{-1/2} lam pi^{-1/2} = V^T diag(s) V (s
    descending), and set E = diag(w)^{1/2} V pi^{-1/2}.  Then
    E pi E^T = diag(w) and E lam E^T = diag(w * s); both profiles are
    products of descending positive sequences, hence descending.  Eigenvector
    signs are fixed by making each column's largest-magnitude entry positive,
    so E is deterministic.
    """
    pi = symmetrize(np.asarray(pi, float))
    lam = symmetrize(np.asarray(lam, float))
    w, U = np.linalg.eigh(pi)
    if w.min() <= 0:
        raise NotPD("pi must be positive definite")
    order = np.argsort(w)[::-1]
    w = w[order]
    U = fix_eigvec_signs(U[:, order])
    pi_inv_half = U @ np.diag(w**-0.5) @ U.T
    M = symmetrize(pi_inv_half @ lam @ pi_inv_half)
    s, V = np.linalg.eigh(M)
    if s.min() <= 0:
        raise NotPD("lam must be positive definite")
    order = np.argsort(s)[::-1]
    s = s[order]
    V = fix_eigvec_signs(V[:, order])
    E = np.diag(np.sqrt(w)) @ V.T @ pi_inv_half
    return E, w.copy(), w * s


def waterfill_factors(pi_tilde, lambda_tilde):
    """Per-coordinate gains from the diagonal profiles.

    Requires descending profiles with pi_tilde <= lambda_tilde + ACTIVE_TOL
    elementwise.  Coordinates with gain below ACTIVE_TOL are inactive and
    carry exact zeros in h_tilde, theta, phi.
    """
    pi_tilde = np.asarray(pi_tilde, float)
    lambda_tilde = np.asarray(lambda_tilde, float)
    if pi_tilde.shape != lambda_tilde.shape:
        raise DimensionMismatch("profile lengths differ")
    if np.any(pi_tilde > lambda_tilde + ACTIVE_TOL):
        raise OrderViolation("pi_tilde exceeds lambda_tilde beyond tolerance")
    if np.any(pi_tilde <= 0) or np.any(lambda_tilde <= 0):
        raise NotPD("profiles must be strictly positive")
    h = 1.0 - pi_tilde / lambda_tilde
    active = h > ACTIVE_TOL
    h = np.where(active, h, 0.0)
    theta = np.where(active, np.sqrt(pi_tilde * h), 0.0)
    phi = np.where(active, np.sqrt(h / np.where(active, pi_tilde, 1.0)), 0.0)
    return h, theta, phi, active, int(active.sum())


def build_realization(src: GaussMarkovSource, sol) -> RealizationScheme:
    """Assemble the full scheme from a solved (pi, lam) pair."""
    E, pi_t, lam_t = joint_diagonalize(sol.pi, sol.lam)
    h, theta, phi, active, r = waterfill_factors(pi_t, lam_t)
    E_inv = np.linalg.inv(E)
    H = E_inv @ np.diag(h) @ E
    sigma_v = symmetrize(sol.pi @ H.T)
    return RealizationScheme(
        E=E,
        E_inv=E_inv,
        pi_tilde=pi_t,
        lambda_tilde=lam_t,
        h_tilde=h,
        theta=theta,
        phi=phi,
        H=H,
        sigma_v=sigma_v,
        active=active,
        r=r,
    )


def channel_matrices(scheme: RealizationScheme):
    """(fe, g): alpha = fe @ k on active coordinates, y-update gain g."""
    act = scheme.active
    fe = (scheme.phi[:, None] * scheme.E)[act]
    g = (scheme.E_inv * scheme.theta[None, :])[:, act]
    return np.ascontiguousarray(fe), np.ascontiguousarray(g)


def run_awgn_channel(scheme: RealizationScheme, traj: Trajectory, seed: int) -> ChannelRun:
    """Drive the scheme with unit-variance Gaussian channel noise.

    The loop runs in innovations/error coordinates (exact rearrangement of
    the reproduction recursion, see :mod:`zdrd.kernels`), so unstable
    sources are handled at any horizon; y is reported as x - e and inherits
    float overflow from x when the raw state left float64 range.
    empirical_mse averages ||x_t - y_t||^2 over the whole run.
    """
    p = scheme.E.shape[0]
    if traj.samples.shape[1] != p:
        raise DimensionMismatch(
            f"trajectory dimension {traj.samples.shape[1]} does not match scheme ({p})"
        )
    src = traj.source
    fe, g = channel_matrices(scheme)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((traj.samples.shape[0], scheme.r))
    bw = driving_rows(src, traj.noise)
    k, alpha, beta, e = kernels.awgn_loop(src.A, bw, traj.x0, fe, g, noise)
    with np.errstate(invalid="ignore"):
        y = traj.samples - e
    mse = float(np.mean(np.sum(e * e, axis=1)))
    return ChannelRun(x=traj.samples, y=y, k=k, alpha=alpha, beta=beta, empirical_mse=mse)


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
