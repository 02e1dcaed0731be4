"""Hermitian eigendecomposition kernel and matrix-function conventions.

Every matrix power here follows the support convention: eigenvalues at or
below the numerical rank cutoff count as exact zeros and are mapped to zero,
so the power -1 is a generalized inverse.  The cutoff is
``dim * max|eigenvalue| * 1e-12``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
import numpy as np

__all__ = [
    "RANK_CUTOFF_FACTOR",
    "NonHermitianError",
    "NonFiniteError",
    "MatrixDomainError",
    "Spectrum",
    "hermiticity_defect",
    "assert_hermitian",
    "eig_hermitian",
    "rank_cutoff",
    "complex_power",
]

HERM_TOL = 1e-12
RANK_CUTOFF_FACTOR = 1e-12


class NonHermitianError(ValueError):
    """Raised when an input matrix is not Hermitian within tolerance."""

    def __init__(self, defect: float, tol: float):
        self.defect = defect
        self.tol = tol
        super().__init__(
            f"matrix is not Hermitian: relative asymmetry {defect:.3e} exceeds {tol:.3e}"
        )


class NonFiniteError(ValueError):
    """Raised when an input holds a NaN or infinite entry."""


def _require_finite(values, what: str) -> None:
    """Raise :class:`NonFiniteError` unless every entry of ``values`` is finite."""
    if not np.isfinite(values).all():
        raise NonFiniteError(f"{what} has a NaN or infinite entry")


class MatrixDomainError(ValueError):
    """Raised when a scalar function is undefined at a support eigenvalue."""


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack.

    ``eigenvalues`` is real and ascending; ``eigenvectors`` holds the
    corresponding orthonormal eigenvectors as columns.  For a (..., d, d)
    stack they are (..., d) and (..., d, d), every method acts per matrix, and
    ``spec[i]`` is the spectrum of matrix i.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    @cached_property
    def cutoff(self) -> float:
        return rank_cutoff(self.eigenvalues)

    def __getitem__(self, index) -> "Spectrum":
        """The spectrum of one matrix (or of a sub-stack) of a stack."""
        return Spectrum(self.eigenvalues[index], self.eigenvectors[index])

    def support_mask(self) -> np.ndarray:
        """Boolean mask of eigenvalues counted as nonzero."""
        return np.abs(self.eigenvalues) > self.cutoff

    def power(self, z: complex) -> np.ndarray:
        """H^z on the support: eigenvalues above the cutoff map to lambda^z,
        all others (negative ones included) to 0."""
        mask = self.eigenvalues > self.cutoff
        values = np.zeros(self.eigenvalues.shape, dtype=complex)
        values[mask] = np.exp(z * np.log(self.eigenvalues[mask]))
        u = self.eigenvectors
        return (u * values[..., None, :]) @ u.conj().swapaxes(-1, -2)


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max |H - H^dag| entry relative to the largest magnitude entry of H (at
    least 1); for a (..., d, d) stack, the largest such defect of its matrices.

    A NaN or infinite entry raises :class:`NonFiniteError`, found from the
    largest magnitude before H - H^dag is formed.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim == 2:  # the common case, at half the cost of the stacked form
        peak = float(np.abs(matrix).max(initial=0.0))
        if not math.isfinite(peak):
            raise NonFiniteError("matrix has a NaN or infinite entry")
        return float(np.abs(matrix - matrix.conj().T).max(initial=0.0)) / max(peak, 1.0)
    axes = (-2, -1)
    peak = np.abs(matrix).max(axis=axes, initial=0.0)
    _require_finite(peak, "matrix stack")
    scale = np.maximum(peak, 1.0)
    asym = np.abs(matrix - matrix.conj().swapaxes(-1, -2)).max(axis=axes, initial=0.0)
    return float((asym / scale).max(initial=0.0))


def assert_hermitian(matrix: np.ndarray) -> None:
    defect = hermiticity_defect(matrix)
    if defect > HERM_TOL:
        raise NonHermitianError(defect, HERM_TOL)


def eig_hermitian(matrix: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix or of a (..., d, d) stack of
    them, rejecting non-Hermitian input; one check covers the whole stack, and
    each matrix gets the same decomposition as on its own."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim < 2 or matrix.shape[-2] != matrix.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {matrix.shape}")
    assert_hermitian(matrix)
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def rank_cutoff(eigenvalues: np.ndarray) -> float:
    """Threshold below which an eigenvalue counts as zero: dim * |lambda|_max * 1e-12.

    A stack of spectra, shape (..., dim), gets one threshold per spectrum,
    shape (..., 1), so that it broadcasts against the stack.
    """
    eigenvalues = np.asarray(eigenvalues)
    lam_max = np.abs(eigenvalues).max(axis=-1, initial=0.0, keepdims=eigenvalues.ndim > 1)
    return eigenvalues.shape[-1] * lam_max * RANK_CUTOFF_FACTOR


def complex_power(matrix: np.ndarray, z: complex) -> np.ndarray:
    """H^z for positive semi-definite H (or each matrix of a stack), with 0^z = 0 on the kernel.

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

