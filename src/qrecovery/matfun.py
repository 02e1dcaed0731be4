"""Hermitian eigendecomposition kernel and matrix-function conventions.

Every matrix function here follows the support convention: eigenvalues at or
below the numerical rank cutoff count as exact zeros and are mapped to zero,
so ``mat_inv`` is a generalized inverse and ``mat_log2`` is the logarithm on
the support.  The cutoff is ``dim * max|eigenvalue| * 1e-12``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "DEFAULT_HERM_TOL",
    "RANK_CUTOFF_FACTOR",
    "NonHermitianError",
    "MatrixDomainError",
    "Spectrum",
    "hermiticity_defect",
    "assert_hermitian",
    "eig_hermitian",
    "rank_cutoff",
    "support_projector",
    "mat_func",
    "complex_power",
    "mat_log2",
    "mat_sqrt",
    "mat_inv",
]

DEFAULT_HERM_TOL = 1e-12
RANK_CUTOFF_FACTOR = 1e-12


class NonHermitianError(ValueError):
    """Raised when an input matrix is not Hermitian within tolerance."""

    def __init__(self, defect: float, tol: float):
        self.defect = defect
        self.tol = tol
        super().__init__(
            f"matrix is not Hermitian: relative asymmetry {defect:.3e} exceeds {tol:.3e}"
        )


class MatrixDomainError(ValueError):
    """Raised when a scalar function is undefined at a support eigenvalue."""


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` is real and ascending; ``eigenvectors`` holds the
    corresponding orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @cached_property
    def cutoff(self) -> float:
        return rank_cutoff(self.eigenvalues)

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T

    def support_mask(self) -> np.ndarray:
        """Boolean mask of eigenvalues counted as nonzero."""
        return np.abs(self.eigenvalues) > self.cutoff

    def power(self, z: complex) -> np.ndarray:
        """H^z on the support: eigenvalues above the cutoff map to lambda^z,
        all others (negative ones included) to 0."""
        mask = self.eigenvalues > self.cutoff
        values = np.zeros(self.dim, dtype=complex)
        values[mask] = np.exp(z * np.log(self.eigenvalues[mask]))
        u = self.eigenvectors
        return (u * values) @ u.conj().T


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max |H - H^dag| entry relative to the largest magnitude entry of H."""
    matrix = np.asarray(matrix)
    scale = max(float(np.abs(matrix).max(initial=0.0)), 1.0)
    return float(np.abs(matrix - matrix.conj().T).max(initial=0.0)) / scale


def assert_hermitian(matrix: np.ndarray, tol: float = DEFAULT_HERM_TOL) -> None:
    defect = hermiticity_defect(matrix)
    if defect > tol:
        raise NonHermitianError(defect, tol)


def eig_hermitian(matrix: np.ndarray, tol: float = DEFAULT_HERM_TOL) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, rejecting non-Hermitian input."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    assert_hermitian(matrix, tol)
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def rank_cutoff(eigenvalues: np.ndarray) -> float:
    """Threshold below which an eigenvalue counts as zero: dim * |lambda|_max * 1e-12."""
    eigenvalues = np.asarray(eigenvalues)
    lam_max = float(np.abs(eigenvalues).max(initial=0.0))
    return eigenvalues.shape[0] * lam_max * RANK_CUTOFF_FACTOR


def support_projector(matrix: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the support (nonzero eigenspaces) of H."""
    spec = eig_hermitian(matrix)
    u = spec.eigenvectors[:, spec.support_mask()]
    return u @ u.conj().T


def mat_func(
    matrix: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    name: str = "f",
) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix on its support.

    Kernel eigenvalues (at or below the rank cutoff) map to 0; support
    eigenvalues map through ``f``.  If ``f`` produces a non-finite value at a
    support eigenvalue, a :class:`MatrixDomainError` names the offending
    eigenvalue.
    """
    spec = eig_hermitian(matrix)
    mask = spec.support_mask()
    values = np.zeros(spec.dim, dtype=complex)
    if mask.any():
        with np.errstate(all="ignore"):
            mapped = np.asarray(f(spec.eigenvalues[mask]), dtype=complex)
        bad = ~np.isfinite(mapped)
        if bad.any():
            lam = spec.eigenvalues[mask][bad][0]
            raise MatrixDomainError(f"{name} is undefined at support eigenvalue {lam!r}")
        values[mask] = mapped
    u = spec.eigenvectors
    return (u * values) @ u.conj().T


def complex_power(matrix: np.ndarray, z: complex) -> np.ndarray:
    """H^z for positive semi-definite H, with 0^z = 0 on the kernel.

    For purely imaginary z the result is a partial isometry on the support
    (unitary when H is full rank).
    """
    spec = eig_hermitian(matrix)
    negative = spec.eigenvalues[spec.eigenvalues < -spec.cutoff]
    if negative.size:
        raise MatrixDomainError(
            f"complex power requires PSD input; found eigenvalue {negative[0]!r}"
        )
    return spec.power(z)


def mat_log2(matrix: np.ndarray) -> np.ndarray:
    """Binary logarithm on the support; errors on negative support eigenvalues."""

    def _log2(x):
        return np.where(x > 0, np.log2(np.where(x > 0, x, 1.0)), np.nan)

    return mat_func(matrix, _log2, name="log2")


def mat_sqrt(matrix: np.ndarray) -> np.ndarray:
    return complex_power(matrix, 0.5)


def mat_inv(matrix: np.ndarray) -> np.ndarray:
    """Generalized inverse: invert support eigenvalues, keep the kernel at zero."""
    return mat_func(matrix, lambda x: 1.0 / x, name="reciprocal")
