"""Small dense linear algebra: Hermitian eigendecomposition on LAPACK,
unitary eigendecomposition via the normal-matrix split, and tridiagonal
determinant recursions.

Everything here targets matrices of dimension a few tens at most; the
emphasis is on orthonormal eigenvectors and deterministic ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenDecomposition",
    "hermitian_eigen",
    "unitary_eigen",
    "tridiag_det_sequence",
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


def hermitian_eigen(m: np.ndarray, hermiticity_tol: float = 1e-10) -> EigenDecomposition:
    """Diagonalize a complex Hermitian matrix with LAPACK (``np.linalg.eigh``).

    Eigenvalues come out real, sorted ascending; eigenvectors are
    orthonormal columns, put in a deterministic order inside degenerate
    groups.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not (np.max(np.abs(m - m.conj().T))
            <= hermiticity_tol * max(1.0, np.max(np.abs(m)))):
        raise ValueError("matrix is not Hermitian within tolerance")
    a = 0.5 * (m + m.conj().T)  # symmetrize away representation noise
    eigvals, vecs = np.linalg.eigh(a)
    vecs = _order_degenerate(eigvals, vecs, 1e-8 * max(1.0, np.linalg.norm(a)))
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


def _order_degenerate(keys: np.ndarray, vecs: np.ndarray, tol: float) -> np.ndarray:
    """Deterministic ordering inside degenerate groups: sort by descending
    magnitude of the first nonzero component, ties by its site index."""
    vecs = vecs.copy()

    def rank(col):
        w = vecs[:, col]
        nz = np.flatnonzero(np.abs(w) > 1e-9)
        j = nz[0] if len(nz) else 0
        return (-abs(w[j]), j)
    for start, stop in _groups(keys, tol):
        vecs[:, start:stop] = vecs[:, sorted(range(start, stop), key=rank)]
    return vecs


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
    a = 0.5 * (u + u.conj().T)
    b = (u - u.conj().T) / 2j
    dec = hermitian_eigen(a, hermiticity_tol=1e-8)
    vecs = dec.eigenvectors.astype(complex)
    # resolve each degenerate eigenspace of A against B
    for start, stop in _groups(dec.eigenvalues, 1e-8):
        block = vecs[:, start:stop]
        sub = hermitian_eigen(block.conj().T @ b @ block, hermiticity_tol=1e-8)
        vecs[:, start:stop] = block @ sub.eigenvectors
    lambdas = np.einsum("ik,ij,jk->k", vecs.conj(), u, vecs)
    if np.max(np.abs(np.abs(lambdas) - 1.0)) > 1e-7:
        raise ValueError("eigenvalues left the unit circle; input too far "
                         "from unitary")
    phases = np.angle(lambdas)
    phases[phases <= -np.pi] = np.pi
    order = np.argsort(phases, kind="stable")
    lambdas = lambdas[order]
    vecs = vecs[:, order]
    vecs = _order_degenerate(np.sort(phases), vecs, 1e-8)
    return EigenDecomposition(lambdas, vecs)


def tridiag_det_sequence(v_eff: float, v: float, n_max: int) -> np.ndarray:
    """Determinants D_1..D_{n_max} of the effective chain Hamiltonian.

    The matrix has zero diagonal, first bond v_eff, remaining bonds v; the
    determinants obey D_1 = 0, D_2 = -v_eff**2, D_N = -v**2 * D_{N-2}.
    Each value is cross-checked against a dense LAPACK determinant.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    d = np.zeros(n_max)
    if n_max >= 2:
        d[1] = -v_eff**2
    for k in range(2, n_max):
        d[k] = -v**2 * d[k - 2]
    for size in range(1, n_max + 1):
        dense = np.linalg.det(_effective_matrix(size, v_eff, v))
        scale = max(1.0, abs(d[size - 1]), abs(dense))
        if abs(dense - d[size - 1]) > 1e-9 * scale:
            raise ArithmeticError(
                f"determinant recursion disagrees with dense determinant at N={size}: "
                f"{d[size - 1]} vs {dense}")
    return d


def _effective_matrix(n: int, v_eff: float, v: float) -> np.ndarray:
    bonds = np.full(n - 1, float(v)) if n > 1 else np.zeros(0)
    if n > 1:
        bonds[0] = v_eff
    return np.diag(bonds, 1) + np.diag(bonds, -1)

