import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkfloquet import DrivenSystem, NumericalQualityError, bessel_j0
from darkfloquet.effective import _effective_matrices
from darkfloquet.floquet import _modes

from oracles import (expm_scaling_squaring, j0_series_oracle,
                     tridiag_det_sequence)


def random_hermitian(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return x + x.conj().T


def random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def unitary_modes(stack):
    """(eps, vecs) of `floquet._modes` for a stack of unitaries read as U(T)
    at omega = 2 pi, so T = 1 and mode k has eigenvalue exp(-i eps_k)."""
    stack = np.asarray(stack, dtype=complex)
    system = DrivenSystem(stack.shape[-1], 1.0, 0.0, 2 * np.pi)
    return _modes([system] * len(stack), stack)


class TestHermitianEigen:
    # the Hermitian eigenproblems of the package go straight to LAPACK
    def test_three_chain_spectrum(self):
        lam, _ = np.linalg.eigh(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                                         dtype=float))
        assert np.allclose(lam, [-np.sqrt(2), 0, np.sqrt(2)], atol=1e-12)

    def test_effective_three_level_spectrum(self):
        # closed form: 0 and +/- sqrt(v^2 + v_eff^2)
        v_eff = j0_series_oracle(2.0)
        s = np.sqrt(1.0 + v_eff**2)
        lam, _ = np.linalg.eigh(_effective_matrices(3, [v_eff], 1.0)[0])
        assert np.allclose(lam, [-s, 0.0, s], atol=1e-12)
        assert s == pytest.approx(1.0247570838908455, abs=1e-12)


def with_its_conjugate(u):
    """A stack of u and q u q^dag, the same spectrum on other eigenvectors."""
    q = random_unitary(np.random.default_rng(7), len(u))
    return np.stack([u, q @ u @ q.conj().T])


def phases_unitary(phases, seed):
    q = random_unitary(np.random.default_rng(seed), len(phases))
    return q @ np.diag(np.exp(1j * np.asarray(phases))) @ q.conj().T


def on_circle(phases):
    """Eigenphases sorted on the circle cut at -2.5, no case's phase."""
    return np.sort(np.mod(np.asarray(phases) + 2.5, 2 * np.pi))


CHAIN_T = 2 * np.pi / 10.0
STACK_CASES = {
    "identity": (np.eye(4), [0.0] * 4),
    "diagonal-phases": (np.diag(np.exp(1j * np.array([0.4, -1.2]))),
                        [0.4, -1.2]),
    # U = exp(-i H T) for the bare 3-chain; eigenphases -lambda T
    "undriven-3-chain": (
        expm_scaling_squaring(-1j * CHAIN_T * np.array(
            [[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)),
        np.sqrt(2) * CHAIN_T * np.array([1.0, 0.0, -1.0])),
    "repeated-phases": (phases_unitary([0.7, 0.7, -0.7, 2.0, 2.0], 5),
                        [0.7, 0.7, -0.7, 2.0, 2.0]),
    # eigenvalue -1 twice: a doubly degenerate quasi-energy at the zone edge
    "zone-edge-pair": (phases_unitary([np.pi, np.pi, 0.3, -1.1], 6),
                       [np.pi, np.pi, 0.3, -1.1]),
}


class TestUnitaryEigen:
    @pytest.mark.parametrize("case", STACK_CASES)
    def test_stack(self, case):
        # eigenvalues repeated exactly: the basis of each eigenspace must
        # still be orthonormal and solve the eigenproblem to rounding
        u, phases = STACK_CASES[case]
        stack = with_its_conjugate(u)
        eps, vecs = unitary_modes(stack)
        lam = np.exp(-1j * eps)[:, None]
        assert np.max(np.abs(stack @ vecs - vecs * lam)) <= 1e-12
        assert np.max(np.abs(vecs.conj().swapaxes(1, 2) @ vecs
                             - np.eye(len(u)))) <= 1e-12
        assert np.all(np.diff(eps) >= 0)
        for e in eps:
            assert np.allclose(on_circle(-e), on_circle(phases), atol=1e-12)

    def test_rejects_non_unitary(self):
        stack = [random_unitary(np.random.default_rng(3), 3), np.eye(3) * 1.5]
        with pytest.raises(NumericalQualityError, match="unit circle"):
            unitary_modes(stack)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 6), seed=st.integers(0, 10**6),
           tau=st.floats(0.1, 3.0))
    def test_consistent_with_hermitian_exponential(self, n, seed, tau):
        rng = np.random.default_rng(seed)
        hs = [random_hermitian(rng, n) for _ in range(3)]
        stack = np.stack([expm_scaling_squaring(-1j * h * tau) for h in hs])
        eps, vecs = unitary_modes(stack)
        lam = np.exp(-1j * eps)[:, None]
        assert np.max(np.abs(stack @ vecs - vecs * lam)) <= 1e-7
        for h, e in zip(hs, eps):
            expected = np.exp(-1j * np.linalg.eigvalsh(h) * tau)
            assert np.allclose(np.sort(np.angle(np.exp(-1j * e))),
                               np.sort(np.angle(expected)), atol=1e-7)


class TestTridiagDetSequence:
    def test_unit_couplings(self):
        assert np.allclose(tridiag_det_sequence(1.0, 1.0, 4), [0, -1, 0, 1])

    def test_zero_veff_kills_all(self):
        assert np.allclose(tridiag_det_sequence(0.0, 7.0, 6), np.zeros(6))

    def test_closed_form_k3(self):
        # D_{2k} = (-1)^k v^{2k-2} v_eff^2 with k = 3
        d = tridiag_det_sequence(2.0, 3.0, 6)
        assert d[5] == pytest.approx((-1) ** 3 * 3.0**4 * 2.0**2)

    def test_against_dense_determinant(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            v_eff = rng.uniform(-2, 2)
            v = rng.uniform(0.5, 2)
            d = tridiag_det_sequence(v_eff, v, 12)
            for n in range(1, 13):
                dense = np.linalg.det(_effective_matrices(n, [v_eff], v)[0])
                assert d[n - 1] == pytest.approx(
                    dense, rel=1e-9, abs=1e-9 * max(1.0, abs(dense)))


def test_bessel_reexport_matches_series():
    # sanity that the package-level import is the real implementation
    assert bessel_j0(2.0) == pytest.approx(j0_series_oracle(2.0), abs=1e-13)
