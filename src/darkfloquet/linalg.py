"""Small dense linear algebra: Hermitian eigendecomposition on LAPACK and
unitary eigendecomposition via the normal-matrix split.

Everything here targets matrices of dimension a few tens at most; the
emphasis is on orthonormal eigenvectors. Inside a degenerate eigenspace
the basis is whichever one LAPACK returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenDecomposition",
    "hermitian_eigen",
    "unitary_eigen",
]

UNITARITY_TOL = 1e-8  # max |U^dag U - 1| that unitary_eigen accepts
HERMITICITY_TOL = 1e-10  # max |M - M^dag| / max(1, max |M|) of hermitian_eigen


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues paired with unit-norm eigenvectors (matrix columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column k pairs with eigenvalues[k]


def _unitarity_defect(m: np.ndarray) -> float:
    """max |M^dag M - 1|; NaN if M holds NaN or inf."""
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def hermitian_eigen(m: np.ndarray) -> EigenDecomposition:
    """Diagonalize a complex Hermitian matrix with LAPACK (``np.linalg.eigh``).

    Eigenvalues come out real, sorted ascending; eigenvectors are
    orthonormal columns, in LAPACK's basis inside degenerate groups.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not (np.max(np.abs(m - m.conj().T))
            <= HERMITICITY_TOL * max(1.0, np.max(np.abs(m)))):
        raise ValueError("matrix is not Hermitian within tolerance")
    eigvals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    return EigenDecomposition(eigvals, vecs)


def _groups(keys: np.ndarray, tol: float):
    """(start, stop) of each run of two or more sorted keys whose
    neighbours differ by at most tol."""
    start, n = 0, len(keys)
    while start < n:
        stop = start + 1
        while stop < n and abs(keys[stop] - keys[stop - 1]) <= tol:
            stop += 1
        if stop - start > 1:
            yield start, stop
        start = stop


def unitary_eigen(u: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a unitary matrix.

    A unitary matrix is normal, so its Hermitian and anti-Hermitian parts
    A = (U + U^dag)/2 and B = (U - U^dag)/(2i) commute: diagonalize A,
    then diagonalize B restricted to each eigenspace of A. Results are
    sorted by ascending eigenphase in (-pi, pi].
    """
    u = np.asarray(u, dtype=complex)
    if not (_unitarity_defect(u) <= UNITARITY_TOL):  # NaN fails too
        raise ValueError("matrix is not unitary within tolerance")
    # A is Hermitian as built: a[j, i] is the exact conjugate of a[i, j]
    a = 0.5 * (u + u.conj().T)
    b = (u - u.conj().T) / 2j
    a_vals, vecs = np.linalg.eigh(a)
    # resolve each degenerate eigenspace of A against B
    for start, stop in _groups(a_vals, 1e-8):
        block = vecs[:, start:stop]
        s = block.conj().T @ b @ block
        vecs[:, start:stop] = block @ np.linalg.eigh(0.5 * (s + s.conj().T))[1]
    lambdas = np.einsum("ik,ij,jk->k", vecs.conj(), u, vecs)
    if np.max(np.abs(np.abs(lambdas) - 1.0)) > 1e-7:
        raise ValueError("eigenvalues left the unit circle; input too far "
                         "from unitary")
    phases = np.angle(lambdas)
    phases[phases <= -np.pi] = np.pi
    order = np.argsort(phases, kind="stable")
    return EigenDecomposition(lambdas[order], vecs[:, order])
