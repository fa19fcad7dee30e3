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
restricted to active coordinates crosses the unit-variance AWGN or a
dithered quantizer, and the output is scaled back by E^{-1} Theta.  This
module only builds the scheme; :func:`channel_matrices` gives the two
matrices a loop needs, and every closed loop, over either channel, runs
through the one driver of :mod:`zdrd.coding` (``run_awgn_batch``,
``run_coding_batch``).
"""

import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, NotPD, OrderViolation
from .linalg import fix_eigvec_signs, symmetrize
from .source_model import GaussMarkovSource

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
    active: np.ndarray  # boolean mask
    r: int

    def to_dict(self):
        """Every field by name, arrays as nested lists."""
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


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
    return RealizationScheme(
        E=E,
        E_inv=np.linalg.inv(E),
        pi_tilde=pi_t,
        lambda_tilde=lam_t,
        h_tilde=h,
        theta=theta,
        phi=phi,
        active=active,
        r=r,
    )


def channel_matrices(scheme: RealizationScheme):
    """(fe, g): alpha = fe @ k on active coordinates, y-update gain g."""
    act = scheme.active
    fe = (scheme.phi[:, None] * scheme.E)[act]
    g = (scheme.E_inv * scheme.theta[None, :])[:, act]
    return np.ascontiguousarray(fe), np.ascontiguousarray(g)
