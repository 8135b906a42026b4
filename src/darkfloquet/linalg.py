"""Small dense linear algebra: unitary eigendecomposition via the
normal-matrix split, on LAPACK.

Everything here targets matrices of dimension a few tens at most; the
emphasis is on orthonormal eigenvectors. Inside a degenerate eigenspace
the basis is whichever one LAPACK returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenDecomposition",
    "unitary_eigen",
]

UNITARITY_TOL = 1e-8  # max |U^dag U - 1| that unitary_eigen accepts


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues paired with unit-norm eigenvectors (matrix columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column k pairs with eigenvalues[k]


def _unitarity_defect(m: np.ndarray) -> float:
    """max |M^dag M - 1|; NaN if M holds NaN or inf."""
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def unitary_eigen(u: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a unitary matrix.

    A unitary matrix is normal, so its Hermitian and anti-Hermitian parts
    A = (U + U^dag)/2 and B = (U - U^dag)/(2i) commute: diagonalize A,
    then diagonalize B restricted to each eigenspace of A. Eigenpairs come
    in LAPACK's order: ascending eigenvalue of A, the cosine of the
    eigenphase, and inside an eigenspace of A ascending eigenvalue of B.
    """
    u = np.asarray(u, dtype=complex)
    if not (_unitarity_defect(u) <= UNITARITY_TOL):  # NaN fails too
        raise ValueError("matrix is not unitary within tolerance")
    # A is Hermitian as built: a[j, i] is the exact conjugate of a[i, j]
    a = 0.5 * (u + u.conj().T)
    b = (u - u.conj().T) / 2j
    a_vals, vecs = np.linalg.eigh(a)
    # resolve each degenerate eigenspace of A, a run of two or more sorted
    # eigenvalues whose neighbours differ by at most 1e-8, against B
    edges = [0, *np.flatnonzero(np.diff(a_vals) > 1e-8) + 1, len(a_vals)]
    for start, stop in zip(edges[:-1], edges[1:]):
        if stop - start > 1:
            block = vecs[:, start:stop]
            s = block.conj().T @ b @ block
            vecs[:, start:stop] = block @ np.linalg.eigh(0.5 * (s + s.conj().T))[1]
    lambdas = np.einsum("ik,ij,jk->k", vecs.conj(), u, vecs)
    if np.max(np.abs(np.abs(lambdas) - 1.0)) > 1e-7:
        raise ValueError("eigenvalues left the unit circle; input too far "
                         "from unitary")
    return EigenDecomposition(lambdas, vecs)
