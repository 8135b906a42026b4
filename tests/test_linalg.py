import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkfloquet import bessel_j0, hermitian_eigen, unitary_eigen
from darkfloquet.linalg import _effective_matrix

from oracles import (expm_scaling_squaring, j0_series_oracle,
                     tridiag_det_sequence)


def random_hermitian(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return x + x.conj().T


class TestHermitianEigen:
    def test_three_chain_spectrum(self):
        dec = hermitian_eigen(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                                       dtype=float))
        assert np.allclose(dec.eigenvalues, [-np.sqrt(2), 0, np.sqrt(2)],
                           atol=1e-12)

    def test_diagonal_matrix(self):
        dec = hermitian_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(dec.eigenvalues, [1, 2, 3])
        for k, col in enumerate([1, 2, 0]):
            assert abs(abs(dec.eigenvectors[col, k]) - 1.0) < 1e-12

    def test_effective_three_level_spectrum(self):
        # closed form: 0 and +/- sqrt(v^2 + v_eff^2)
        v_eff = j0_series_oracle(2.0)
        s = np.sqrt(1.0 + v_eff**2)
        dec = hermitian_eigen(_effective_matrix(3, v_eff, 1.0))
        assert np.allclose(dec.eigenvalues, [-s, 0.0, s], atol=1e-12)
        assert s == pytest.approx(1.0247570838908455, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigen(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 10**6))
    def test_roundtrip_and_orthonormality(self, n, seed):
        m = random_hermitian(np.random.default_rng(seed), n)
        dec = hermitian_eigen(m)
        scale = max(1.0, np.max(np.abs(m)))
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - m)) <= 1e-7 * scale
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-8
        residual = m @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
        assert np.max(np.abs(residual)) <= 1e-8 * scale
        assert np.all(np.diff(dec.eigenvalues) >= -1e-12)

    def test_agrees_with_numpy(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 9):
            m = random_hermitian(rng, n)
            dec = hermitian_eigen(m)
            assert np.allclose(dec.eigenvalues, np.linalg.eigvalsh(m),
                               atol=1e-10 * max(1.0, np.max(np.abs(m))))


class TestUnitaryEigen:
    def test_identity(self):
        dec = unitary_eigen(np.eye(4, dtype=complex))
        assert np.allclose(dec.eigenvalues, 1.0)

    def test_diagonal_phases(self):
        u = np.diag(np.exp(1j * np.array([0.4, -1.2])))
        dec = unitary_eigen(u)
        assert np.allclose(np.sort(np.angle(dec.eigenvalues)), [-1.2, 0.4],
                           atol=1e-12)

    def test_undriven_chain_exponential(self):
        # U = exp(-i H T) for the bare 3-chain; eigenphases -lambda T
        h = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
        t_period = 2 * np.pi / 10.0
        u = expm_scaling_squaring(-1j * h * t_period)
        dec = unitary_eigen(u)
        expected = np.sort(-np.array([-np.sqrt(2), 0, np.sqrt(2)]) * t_period)
        assert np.allclose(np.sort(np.angle(dec.eigenvalues)), expected,
                           atol=1e-7)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            unitary_eigen(np.eye(3) * 1.5)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 6), seed=st.integers(0, 10**6),
           tau=st.floats(0.1, 3.0))
    def test_consistent_with_hermitian_exponential(self, n, seed, tau):
        h = random_hermitian(np.random.default_rng(seed), n)
        u = expm_scaling_squaring(-1j * h * tau)
        dec = unitary_eigen(u)
        residual = u @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
        assert np.max(np.abs(residual)) <= 1e-7
        assert np.max(np.abs(np.abs(dec.eigenvalues) - 1.0)) <= 1e-7
        expected = np.exp(-1j * hermitian_eigen(h).eigenvalues * tau)
        assert np.allclose(np.sort(np.angle(dec.eigenvalues)),
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
                dense = np.linalg.det(_effective_matrix(n, v_eff, v))
                assert d[n - 1] == pytest.approx(
                    dense, rel=1e-9, abs=1e-9 * max(1.0, abs(dense)))


def test_bessel_reexport_matches_series():
    # sanity that the package-level import is the real implementation
    assert bessel_j0(2.0) == pytest.approx(j0_series_oracle(2.0), abs=1e-13)
