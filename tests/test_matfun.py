import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from qrecovery.matfun import (
    MatrixDomainError,
    NonHermitianError,
    complex_power,
    eig_hermitian,
)
from qrecovery.qcore import random_unitary, stream


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def test_identity_spectrum():
    spec = eig_hermitian(np.eye(3))
    npt.assert_allclose(spec.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)
    npt.assert_allclose(
        spec.eigenvectors @ spec.eigenvectors.conj().T, np.eye(3), atol=1e-12
    )


def test_diagonal_spectrum_sorted_ascending():
    spec = eig_hermitian(np.diag([2.0, 0.0]))
    npt.assert_allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_reconstruction_error(seed):
    # oracle: the reconstruction itself
    h = random_hermitian(4, stream(101, seed))
    spec = eig_hermitian(h)
    scale = max(np.abs(h).max(), 1.0)
    u = spec.eigenvectors
    assert np.linalg.norm((u * spec.eigenvalues) @ u.conj().T - h) / np.linalg.norm(h) < 1e-10
    assert np.abs(spec.eigenvectors.conj().T @ spec.eigenvectors - np.eye(4)).max() < 1e-10 * scale


def test_non_hermitian_rejected_with_measured_defect():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonHermitianError) as err:
        eig_hermitian(bad)
    assert err.value.defect == pytest.approx(1.0)


def test_generalized_inverse_of_diagonal():
    npt.assert_allclose(
        complex_power(np.diag([4.0, 0.0, 0.5]), -1.0), np.diag([0.25, 0.0, 2.0]), atol=1e-14
    )


def test_complex_power_identity_base():
    for z in (0.5, 1j, 2.0 - 0.3j):
        npt.assert_allclose(complex_power(np.eye(3), z), np.eye(3), atol=1e-13)


def test_imaginary_power_unitary_on_full_rank():
    rng = stream(103, 0)
    h = random_hermitian(4, rng)
    h = h @ h.conj().T + 0.1 * np.eye(4)  # positive definite
    u = complex_power(h, 1j * 0.8)
    npt.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-10)


def test_half_power_diagonal():
    npt.assert_allclose(complex_power(np.diag([4.0, 1.0]), 0.5), np.diag([2.0, 1.0]), atol=1e-13)


def test_complex_power_rejects_negative_eigenvalues():
    with pytest.raises(MatrixDomainError):
        complex_power(np.diag([1.0, -1.0]), 0.5)


def test_negative_eigenvalue_named_in_error():
    with pytest.raises(MatrixDomainError, match="-2"):
        complex_power(np.diag([1.0, -2.0]), 0.5)


def test_unit_power_returns_input():
    rng = stream(102, 0)
    g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    h = g @ g.conj().T  # rank-2 PSD: the kernel maps to 0 = 0^1
    npt.assert_allclose(complex_power(h, 1.0), h, atol=1e-12)


def test_support_mask_excludes_kernel():
    # eigenvalues ascend: 0, 2
    npt.assert_array_equal(eig_hermitian(np.diag([2.0, 0.0])).support_mask(), [False, True])


def test_ranks_and_support_of_a_stack():
    # a negative eigenvalue below the cutoff and a numerical zero are outside
    # the support; the support eigenpairs end the ascending spectrum
    spec = eig_hermitian(np.stack([np.diag([3.0, 0.0, -1e-20]), np.diag([1.0, 2.0, -0.5])]))
    npt.assert_array_equal(spec.ranks, [1, 2])
    assert int(spec[0].ranks) == 1
    lam, vecs = spec.support()
    npt.assert_array_equal(lam, spec.eigenvalues[:, 1:])
    npt.assert_array_equal(vecs, spec.eigenvectors[:, :, 1:])


_POWERS = st.sampled_from([0.5, -0.5, 2.0, 1j * 0.7, 0.5 - 1j * 1.3, -0.5 + 1j * 2.1])


@settings(max_examples=80, deadline=None)
@given(
    dim=st.integers(1, 6),
    rank=st.integers(1, 6),
    z=_POWERS,
    seed=st.integers(0, 2**32 - 1),
)
def test_spectrum_power_matches_eigen_formula(dim, rank, z, seed):
    # reference: U diag(lam^z) U^dag from the known eigenpairs, 0 on the kernel
    rank = min(rank, dim)
    rng = np.random.default_rng(seed)
    lam = np.zeros(dim)
    lam[:rank] = rng.uniform(0.05, 2.0, rank)
    u = random_unitary(dim, rng)
    h = (u * lam) @ u.conj().T
    values = np.zeros(dim, dtype=complex)
    values[:rank] = lam[:rank] ** z
    expected = (u * values) @ u.conj().T
    npt.assert_allclose(eig_hermitian(h).power(z), expected, atol=1e-10)
    npt.assert_allclose(complex_power(h, z), expected, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 5), z=_POWERS, seed=st.integers(0, 2**32 - 1))
def test_spectrum_power_zeroes_negative_eigenvalues(dim, z, seed):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.1, 1.0, dim)
    lam[0] = -lam[0]
    u = random_unitary(dim, rng)
    h = (u * lam) @ u.conj().T
    values = np.zeros(dim, dtype=complex)
    values[1:] = lam[1:] ** z
    npt.assert_allclose(eig_hermitian(h).power(z), (u * values) @ u.conj().T, atol=1e-10)
    with pytest.raises(MatrixDomainError, match="PSD"):
        complex_power(h, z)


@pytest.mark.parametrize("seed", range(4))
def test_imaginary_powers_compose_to_support_projector(seed):
    rng = stream(104, seed)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    h = g @ g.conj().T  # rank 2 PSD
    t = 1.3
    prod = complex_power(h, 1j * t) @ complex_power(h, -1j * t)
    q, _ = np.linalg.qr(g)  # orthonormal basis of the support of h = g g^dag
    npt.assert_allclose(prod, q @ q.conj().T, atol=1e-10)


def test_support_projector_is_projector():
    # H^0 is the projector onto the support of H
    rng = stream(105, 0)
    g = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    p = complex_power(g @ g.conj().T, 0.0)
    npt.assert_allclose(p @ p, p, atol=1e-10)
    npt.assert_allclose(p, p.conj().T, atol=1e-12)
    assert np.trace(p).real == pytest.approx(3.0, abs=1e-10)


def test_sqrt_then_square_returns_support_projected_input():
    rng = stream(106, 0)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    h = g @ g.conj().T
    s = complex_power(h, 0.5)
    npt.assert_allclose(s @ s, h, atol=1e-10)
