"""Small symmetric-matrix helpers shared across modules."""

import numpy as np

from .errors import DimensionMismatch, EigenFailure, NotPSD

PSD_EIG_TOL = -1e-10
SYM_TOL = 1e-12


def as_matrix(M, name="matrix"):
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-d array, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return M


def symmetrize(M):
    """(M + M^T) / 2, halved before the sum so that it stays finite up to the float64 maximum."""
    return 0.5 * M + 0.5 * M.T


def check_psd(M, name="matrix"):
    """Validate symmetry and eigenvalue nonnegativity; returns the symmetrized matrix."""
    M = as_matrix(M, name)
    if M.shape[0] != M.shape[1]:
        raise NotPSD(f"{name} must be square, got {M.shape}")
    scale = max(1.0, np.abs(M).max())
    if np.abs(M - M.T).max() > SYM_TOL * scale:
        raise NotPSD(f"{name} is not symmetric (residual > {SYM_TOL})")
    S = symmetrize(M)
    w = eigvalsh_checked(S, name)
    if w.min() < PSD_EIG_TOL:
        raise NotPSD(f"{name} has eigenvalue {w.min():.3e} < {PSD_EIG_TOL}")
    return S


def eigvalsh_checked(M, name="matrix"):
    try:
        return np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"symmetric eigensolver failed on {name}: {exc}") from exc


def sorted_eig(A):
    """General (complex) eigenvalues sorted by descending magnitude, ties by descending real part."""
    try:
        ev = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigenvalue iteration did not converge: {exc}") from exc
    order = np.lexsort((-ev.real, -np.abs(ev)))
    return ev[order]


def discrete_lyapunov(A, Q):
    """Solution X of X = A X A^T + Q by one dense solve of the Kronecker system.

    (I - A (x) A) vec X = vec Q is the construction of scipy's direct method,
    here used at every size: the p^2 x p^2 system costs O(p^6) flops and
    8 p^4 bytes, about 40 ms and 8 MB at p = 32 on a 2-core Xeon.  Raises
    np.linalg.LinAlgError when the system is singular, i.e. when A has
    eigenvalues mu_i, mu_j with mu_i mu_j = 1.
    """
    K = np.eye(A.size) - np.kron(A, A)
    return np.linalg.solve(K, Q.ravel()).reshape(Q.shape)


def fix_eigvec_signs(V):
    """Flip eigenvector columns so the largest-magnitude component is positive."""
    V = V.copy()
    for j in range(V.shape[1]):
        k = np.argmax(np.abs(V[:, j]))
        if V[k, j] < 0:
            V[:, j] = -V[:, j]
    return V
