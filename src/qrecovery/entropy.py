"""Entropy, information, and distance functionals, all in bits.

Every quantity here returns binary-logarithm units.  Internally the spectral
sums are accumulated in natural log and converted once through
``NAT_TO_BITS``, so there is exactly one unit-conversion point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matfun import eig_hermitian, rank_cutoff
from .qcore import (
    DensityOperator,
    Ensemble,
    _grouped,
    _keep_indices,
    _mixture,
    as_matrix,
    partial_trace,
    ptrace,
)

__all__ = [
    "NAT_TO_BITS",
    "SUPPORT_TOL",
    "RelEntropyResult",
    "entropy",
    "rel_entropy",
    "shannon_entropy",
    "classical_rel_entropy",
    "cond_entropy",
    "mutual_info",
    "cmi",
    "holevo_chi",
    "fidelity",
    "root_fidelity",
    "trace_norm",
    "trace_distance",
    "binary_entropy",
]

NAT_TO_BITS = 1.0 / math.log(2.0)
SUPPORT_TOL = 1e-9


@dataclass(frozen=True)
class RelEntropyResult:
    """Relative entropy value in bits plus the support diagnostics.

    ``value`` is ``math.inf`` exactly when the mass of P outside the support
    of Q (``support_violation``) exceeds ``SUPPORT_TOL``.
    """

    value: float
    support_violation: float


def entropy(rho):
    """von Neumann entropy -Tr{rho log2 rho} of a PSD matrix; a
    :class:`DensityOperator` lends its cached eigenvalues.  For a (..., d, d)
    stack, the array of each matrix's entropy."""
    if isinstance(rho, DensityOperator):
        return shannon_entropy(rho.eigenvalues)
    return shannon_entropy(np.linalg.eigvalsh(as_matrix(rho)))


def rel_entropy(p, q) -> RelEntropyResult:
    """Quantum relative entropy D(P||Q) = Tr{P [log2 P - log2 Q]}.

    Finite values are computed on the support of Q; the result carries the
    mass of P on ker(Q) and is infinite when that mass exceeds
    ``SUPPORT_TOL``.  For two (..., d, d) stacks both fields are arrays, one
    entry per pair.
    """
    p, q = as_matrix(p), as_matrix(q)
    if p.shape != q.shape:
        raise ValueError(f"operand shapes differ: {p.shape} vs {q.shape}")
    if (np.abs(p).max(axis=(-2, -1), initial=0.0) == 0.0).any():
        raise ValueError("rel_entropy requires P != 0")
    spec = eig_hermitian(np.stack([p, q], axis=-3))
    lam_p, lam_q = spec.eigenvalues[..., 0, :], spec.eigenvalues[..., 1, :]
    # <v|P|v> on every eigenvector v of Q; on ker(Q) they sum to the mass of P there
    vecs = spec.eigenvectors[..., 1, :, :]
    weights = np.real(np.sum(vecs.conj() * (p @ vecs), axis=-2))
    return _rel_entropy(lam_p, weights, lam_q)


def shannon_entropy(p):
    """Shannon entropy -sum_i p_i log2 p_i of a probability vector, under the
    same rank cutoff as :func:`entropy`: the entropy of diag(p).  For a
    (..., n) stack, the array of each row's entropy."""
    lam = np.asarray(p)
    keep = lam > rank_cutoff(lam)
    total = _masked_sums(lam * np.log(np.where(keep, lam, 1.0)), keep)
    return _scalar(np.where(keep.any(axis=-1), -total * NAT_TO_BITS, 0.0))


def _scalar(values):
    """A 0-d result as a float, any other as it is."""
    return float(values) if np.ndim(values) == 0 else values


def _masked_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Sum over the last axis of each row's entries where ``mask`` holds, every
    row summed as its compressed vector ``row[mask_row]`` is summed on its own.

    Zeros in place of the dropped entries would not do: numpy's sum takes the
    first entry as its start and pairs terms up by position from 8 on.  So the
    rows are grouped by mask pattern and each group's kept columns summed.
    """
    if values.ndim == 1:
        return values[mask].sum()
    n = values.shape[-1]
    if values.size == n:  # one row
        row = values.reshape(n)[np.broadcast_to(mask, values.shape).reshape(n)]
        return row.sum().reshape(values.shape[:-1])
    flat, keep = values.reshape(-1, n), np.broadcast_to(mask, values.shape).reshape(-1, n)

    def group(idx):
        # C order: a column-indexed copy comes out in Fortran order, whose
        # rows numpy would not sum pairwise
        return np.ascontiguousarray(flat[idx][:, keep[idx[0]]]).sum(axis=-1)

    sums = _grouped([row.tobytes() for row in keep], group)
    return np.array(sums, dtype=values.dtype).reshape(values.shape[:-1])


def classical_rel_entropy(p, q) -> RelEntropyResult:
    """Relative entropy D(p||q) = sum_i p_i [log2 p_i - log2 q_i] of two
    nonnegative vectors, under the same rank cutoff and support convention as
    :func:`rel_entropy`: the relative entropy of diag(p) and diag(q)."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if p.ndim != 1 or p.shape != q.shape:
        raise ValueError(f"operands must be vectors of one length: {p.shape} vs {q.shape}")
    if float(np.abs(p).max(initial=0.0)) == 0.0:
        raise ValueError("classical_rel_entropy requires p != 0")
    return _rel_entropy(p, p, q)


def _rel_entropy(lam_p: np.ndarray, weights: np.ndarray, lam_q: np.ndarray) -> RelEntropyResult:
    """D(P||Q) from the spectra of P and Q and the weights <v|P|v> of P on
    the eigenvectors v of Q, in the order of ``lam_q``; row-wise for stacks."""
    mask_q = lam_q > rank_cutoff(lam_q)
    mass = _masked_sums(weights, ~mask_q)
    violation = np.where(0.0 > mass, 0.0, mass)  # max(mass, 0.0), keeping a -0.0 as max does
    mask_p = lam_p > rank_cutoff(lam_p)
    term_p = _masked_sums(lam_p * np.log(np.where(mask_p, lam_p, 1.0)), mask_p)
    term_q = _masked_sums(weights * np.log(np.where(mask_q, lam_q, 1.0)), mask_q)
    value = np.where(violation > SUPPORT_TOL, math.inf, (term_p - term_q) * NAT_TO_BITS)
    return RelEntropyResult(_scalar(value), _scalar(violation))


def cond_entropy(rho: DensityOperator, cond) -> float:
    """Conditional entropy H(rest | cond) = H(full) - H(cond)."""
    if isinstance(cond, str):
        cond = (cond,)
    cond = tuple(cond)
    rest = tuple(l for l in rho.labels if l not in cond)
    if not rest:
        raise ValueError("conditioning on every factor leaves nothing")
    sigma = partial_trace(rho, rest)
    return entropy(rho) - entropy(sigma)


def mutual_info(rho: DensityOperator, a, b) -> float:
    """Mutual information I(A;B) = H(A) + H(B) - H(AB) for the bipartition
    of ``rho``'s factors into the label groups ``a`` and ``b``."""
    if isinstance(a, str):
        a = (a,)
    if isinstance(b, str):
        b = (b,)
    labels = set(rho.labels)
    if set(a) | set(b) != labels or set(a) & set(b):
        raise ValueError(f"groups {a!r}, {b!r} do not bipartition {rho.labels!r}")
    a, b = (_keep_indices(rho.systems, group) for group in (a, b))
    return float(_mutual_info(rho.matrix[None], rho.dims, a, b)[0])


def _mutual_info(rho: np.ndarray, dims: tuple, a, b) -> np.ndarray:
    """I(A;B) of each state of a (N, D, D) stack on factors of sizes
    ``dims``, A and B the factors of the index groups ``a`` and ``b``, which
    together hold every factor."""
    return entropy(ptrace(rho, dims, a)) + entropy(ptrace(rho, dims, b)) - entropy(rho)


def cmi(rho: DensityOperator, a, b, c) -> float:
    """Conditional mutual information I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C)."""
    groups = [(l,) if isinstance(l, str) else tuple(l) for l in (a, b, c)]
    a, b, c = groups
    if set(a + b + c) != set(rho.labels) or len(a + b + c) != len(rho.labels):
        raise ValueError(f"groups {groups!r} do not tripartition {rho.labels!r}")
    a, b, c = (_keep_indices(rho.systems, group) for group in groups)
    return float(_cmi_stack(rho.matrix[None], rho.dims, a, b, c)[0])


def _cmi_stack(rho: np.ndarray, dims: tuple, a, b, c) -> np.ndarray:
    """I(A;B|C) = H(AC) + H(BC) - H(ABC) - H(C) of each state of a (N, D, D)
    stack on factors of sizes ``dims``, A, B and C the factors of the index
    groups ``a``, ``b`` and ``c``."""
    h_ac = entropy(ptrace(rho, dims, list(a) + list(c)))
    h_bc = entropy(ptrace(rho, dims, list(b) + list(c)))
    return h_ac + h_bc - entropy(rho) - entropy(ptrace(rho, dims, c))


def holevo_chi(ens: Ensemble) -> float:
    """Holevo information: entropy of the average minus average entropy."""
    mats = np.stack([s.matrix for s in ens.states])
    return float(_holevo_chi(ens.probs[None], mats[None])[0])


def _holevo_chi(probs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """:func:`holevo_chi` of each ensemble of (N, m) probabilities and
    (N, m, d, d) member states."""
    return entropy(_mixture(probs, mats)) - (probs * entropy(mats)).sum(axis=-1)


def root_fidelity(p, q):
    """sqrt(F)(P, Q) = ||sqrt(P) sqrt(Q)||_1 for PSD operators, both square
    roots taken on the support (eigenvalues at or below the rank cutoff map to 0).

    For two (n, d, d) stacks, the array of the n pairs' root fidelities.
    """
    sp, sq = eig_hermitian(np.stack([as_matrix(p), as_matrix(q)])).power(0.5)
    fid = np.linalg.svd(sp @ sq, compute_uv=False).sum(axis=-1)
    return float(fid) if fid.ndim == 0 else fid


def fidelity(p, q) -> float:
    """Uhlmann fidelity F(P, Q) = ||sqrt(P) sqrt(Q)||_1^2."""
    return root_fidelity(p, q) ** 2


def trace_norm(x):
    """||X||_1, or the array of each norm of a (..., m, n) stack."""
    return _scalar(np.linalg.svd(as_matrix(x), compute_uv=False).sum(axis=-1))


def trace_distance(rho, sigma) -> float:
    """||rho - sigma||_1 (no 1/2 factor; callers add it where a formula needs it)."""
    return trace_norm(as_matrix(rho) - as_matrix(sigma))


def binary_entropy(x: float) -> float:
    """h2(x) in bits, defined on [0, 1] with h2(0) = h2(1) = 0."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy needs x in [0, 1], got {x!r}")
    if x in (0.0, 1.0):
        return 0.0
    return float(-(x * math.log(x) + (1 - x) * math.log(1 - x)) * NAT_TO_BITS)
