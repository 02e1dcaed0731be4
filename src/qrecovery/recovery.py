"""Recovery maps: Petz, rotated Petz, the integrated recovery channel with
projector completion, the adjoint-based recovery channel, and the Uhlmann
isometry maximizer.  The conditional-mutual-information recovery map of a
state rho_AC is ``rotated_petz(rho_AC, partial_trace_channel(..., "A"), t/2)``.

Construction notes
------------------
A Petz map for reference ``sigma`` and channel ``N`` with Kraus ``{K_i}`` has
Kraus operators ``sigma^{1/2} K_i^dag N(sigma)^{-1/2}`` (generalized inverses
throughout).  Rotating by the modular unitaries ``omega^{it} . omega^{-it}``
multiplies these by complex matrix powers.  The integrated channel averages
the rotated maps over ``p_weight`` in closed form (the rotation enters
linearly through phases whose average is ``w / sinh w``) and adds a
completion term ``Tr{(I - Pi) . } I/d`` on the kernel of ``N(sigma)``, which
restores exact trace preservation.

Integrands that are nonlinear in the rotation, such as ``log F(rho,
R^{t/2}(N(rho)))``, are evaluated at every quadrature node at once: the
swiveled Kraus operators differ between nodes only by diagonal phases in the
support eigenbases (:func:`swiveled_kraus`), and the root fidelity of every
node comes from one stacked SVD (:func:`stacked_root_fidelity`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .matfun import Spectrum, complex_power, eig_hermitian
from .qcore import (
    Channel,
    DimensionMismatchError,
    KrausMap,
    Purification,
    as_matrix,
)

__all__ = [
    "NotCompletelyPositiveError",
    "QuadratureSpec",
    "UhlmannResult",
    "p_weight",
    "quadrature",
    "petz_map",
    "rotated_petz",
    "swiveled_kraus",
    "stacked_root_fidelity",
    "swiveled_root_fidelities",
    "integrated_recovery",
    "adjoint_recovery",
    "uhlmann_isometry",
]


class NotCompletelyPositiveError(ValueError):
    """Raised when a requested recovery map would not be completely positive.

    Carries a witness input on which the completion weight is negative.
    """

    def __init__(self, message: str, witness: np.ndarray):
        super().__init__(message)
        self.witness = witness


def p_weight(t):
    """The rotation-parameter probability density ``(pi/2) / (cosh(pi t) + 1)``,
    which integrates to one."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        out = (np.pi / 2.0) / (np.cosh(np.pi * t) + 1.0)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre rule for integrals against ``p_weight``.

    ``nodes`` total nodes (odd) are spread over ``panels`` equal subintervals
    of ``[-halfwidth, halfwidth]``; any remainder nodes go to the leading
    panels.  The returned weights absorb the density and are renormalized to
    sum exactly to one, which keeps integrated recovery maps exactly
    trace-preserving.
    """

    nodes: int = 101
    halfwidth: float = 10.0
    panels: int = 10

    def __post_init__(self):
        if self.nodes < 3 or self.nodes % 2 == 0:
            raise ValueError(f"nodes must be odd and >= 3, got {self.nodes}")
        if not (np.isfinite(self.halfwidth) and self.halfwidth > 0):
            raise ValueError(f"halfwidth must be positive and finite, got {self.halfwidth!r}")
        if not 1 <= self.panels <= self.nodes:
            raise ValueError("panels must be between 1 and the node count")


@lru_cache(maxsize=32)
def quadrature(spec: QuadratureSpec = QuadratureSpec(), normalized: bool = True):
    """Nodes and density-weighted weights for the rotation integral.

    Returns ``(t, w)`` with ``w_j ~ gl_w_j * p_weight(t_j)``; with
    ``normalized=True`` (the default) the weights are rescaled to sum to one.
    Rules are cached per ``(spec, normalized)``, so both arrays are read-only.
    """
    edges = np.linspace(-spec.halfwidth, spec.halfwidth, spec.panels + 1)
    per, rem = divmod(spec.nodes, spec.panels)
    ts, ws = [], []
    for i in range(spec.panels):
        k = per + (1 if i < rem else 0)
        if k == 0:
            continue
        x, w = np.polynomial.legendre.leggauss(k)
        a, b = edges[i], edges[i + 1]
        ts.append(0.5 * (b - a) * x + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * w)
    t = np.concatenate(ts)
    w = np.concatenate(ws) * p_weight(t)
    if w.min() < 0:
        raise AssertionError("quadrature produced a negative weight")
    if normalized:
        w = w / w.sum()
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _sigma_pair(sigma, channel: KrausMap):
    sig = as_matrix(sigma)
    if sig.shape != (channel.in_dim, channel.in_dim):
        raise DimensionMismatchError(
            f"sigma dimension {sig.shape} does not match channel input {channel.in_dim}"
        )
    return sig, channel.apply(sig)


def petz_map(sigma, channel: KrausMap) -> Channel:
    """The Petz recovery map for (sigma, N); CP and trace-non-increasing.

    Perfectly recovers sigma: ``(P o N)(sigma) = sigma``.
    """
    sig, n_sig = _sigma_pair(sigma, channel)
    left = complex_power(sig, 0.5)
    right = complex_power(n_sig, -0.5)
    return Channel(tuple(left @ k.conj().T @ right for k in channel.kraus))


def rotated_petz(sigma, channel: KrausMap, t: float) -> Channel:
    """Swiveled Petz map: modular rotation by t on both ends of the Petz map.

    At ``t=0`` this is exactly :func:`petz_map`; for every t it still recovers
    sigma perfectly.
    """
    sig, n_sig = _sigma_pair(sigma, channel)
    t = float(t)
    left = complex_power(sig, 0.5 - 1j * t)
    right = complex_power(n_sig, -0.5 + 1j * t)
    return Channel(tuple(left @ k.conj().T @ right for k in channel.kraus))


def _petz_core(spec_sig: Spectrum, spec_out: Spectrum, kraus):
    """Support eigenbases u, v, their eigenvalues lam, mu, and the Petz Kraus
    operators lam^{1/2} u^dag K_k^dag v mu^{-1/2} in those bases, stacked (K, r_in, r_out)."""
    in_supp = spec_sig.eigenvalues > spec_sig.cutoff
    out_supp = spec_out.eigenvalues > spec_out.cutoff
    u = spec_sig.eigenvectors[:, in_supp]
    v = spec_out.eigenvectors[:, out_supp]
    lam = spec_sig.eigenvalues[in_supp]
    mu = spec_out.eigenvalues[out_supp]
    scale = np.sqrt(lam)[:, None] / np.sqrt(mu)[None, :]
    core = np.stack([scale * (u.conj().T @ k.conj().T @ v) for k in kraus])
    return u, lam, v, mu, core


def swiveled_kraus(spec_sig: Spectrum, spec_out: Spectrum, kraus, t) -> np.ndarray:
    """Kraus operators sigma^{(1-it)/2} K_k^dag N(sigma)^{(-1+it)/2} of the
    swiveled Petz map R^{t/2} for every node of ``t``, stacked (T, K, d_in, d_out).

    ``spec_sig`` and ``spec_out`` are the spectra of sigma and of the output
    reference N(sigma) (any PSD operator on the output space will do); powers
    act on their supports as in :func:`rotated_petz`.  Between nodes only the
    phases lam^{-it/2} and mu^{it/2} change, so the Petz core is built once.
    """
    u, lam, v, mu, core = _petz_core(spec_sig, spec_out, kraus)
    half = np.asarray(t, dtype=float)[:, None] / 2.0
    left = u * np.exp(-1j * half * np.log(lam))[:, None, :]
    right = np.exp(1j * half * np.log(mu))[:, :, None] * v.conj().T
    return left[:, None] @ core @ right[:, None]


def stacked_root_fidelity(sqrt_rho: np.ndarray, kraus: np.ndarray, sqrt_x: np.ndarray,
                          lead: int = 1) -> np.ndarray:
    """sqrt F(rho, sum_k A_k X A_k^dag) for every node of a Kraus stack, by one stacked SVD.

    ``kraus`` is (T, K, d_out, d_in); each A_k = I_lead (x) kraus[j, k] acts
    on the last factor of X.  With W = sqrt(X) the root fidelity is the trace
    norm ||sqrt(rho) [A_1 W ... A_K W]||_1, so no recovered state and no
    square root of it is formed.
    """
    n_nodes, n_kraus, d_out, d_in = kraus.shape
    w = np.asarray(sqrt_x).reshape(lead, d_in, -1)
    cols = (kraus[:, :, None] @ w).reshape(n_nodes, n_kraus, lead * d_out, -1)
    m = (sqrt_rho @ cols).transpose(0, 2, 1, 3)
    stack = m.reshape(n_nodes, m.shape[1], -1)
    return np.linalg.svd(stack, compute_uv=False).sum(axis=-1)


def swiveled_root_fidelities(rho, sigma, channel: KrausMap, t, n_rho, n_sigma) -> np.ndarray:
    """sqrt F(rho, R^{t/2}(N(rho))) at every node of ``t``, with R^{t/2} the
    swiveled Petz map of :func:`rotated_petz` for (sigma, N); ``n_rho`` and
    ``n_sigma`` are the caller's N(rho) and N(sigma)."""
    spec_in = eig_hermitian(np.stack([as_matrix(sigma), as_matrix(rho)]))
    spec_out = eig_hermitian(np.stack([as_matrix(n_sigma), as_matrix(n_rho)]))
    ks = swiveled_kraus(spec_in[0], spec_out[0], channel.kraus, t)
    return stacked_root_fidelity(spec_in[1].power(0.5), ks, spec_out[1].power(0.5))


def _completion_kraus(directions: np.ndarray, weights, dim: int) -> list:
    """Kraus operators sqrt(w_j / d) |k><d_j| of Q -> sum_j w_j <d_j|Q|d_j> I/d.

    ``directions`` holds the orthonormal d_j as columns and ``weights`` their
    w_j; |k> runs over the standard basis of the d = ``dim`` dimensional
    channel input.  Operators are ordered by direction, then by k.
    """
    basis = np.eye(dim, dtype=complex)
    lam = 1.0 / dim
    ks = []
    for j in range(directions.shape[1]):
        bra = directions[:, j].conj()
        for k in range(dim):
            ks.append(np.sqrt(weights[j] * lam) * np.outer(basis[:, k], bra))
    return ks


def integrated_recovery(sigma, channel: KrausMap) -> Channel:
    """Average of swiveled Petz maps R^{t/2} over ``p_weight``, plus projector completion.

    In the eigenbases of sigma (eigenvalues lam) and N(sigma) (eigenvalues
    mu), restricted to their supports, R^{t/2} is the Petz action times the
    phase e^{i w t} with w = (ln lam_j - ln lam_i + ln mu_k - ln mu_l) / 2.
    ``p_weight`` has characteristic function w / sinh w, so the average is
    exact: the Petz Choi matrix multiplied entrywise by w / sinh w, whose
    eigenvectors give at most rank(sigma) * rank(N(sigma)) Kraus operators.

    The completion term ``Tr{(I - Pi_{N(sigma)}) Q} I/d`` routes any input
    mass outside the support of N(sigma) to the maximally mixed state on the
    channel input space, making the result an exactly trace-preserving
    channel that still recovers sigma perfectly.
    """
    sig, n_sig = _sigma_pair(sigma, channel)
    if sig.shape == n_sig.shape:  # one stacked call when N keeps the dimension
        pair = eig_hermitian(np.stack([sig, n_sig]))
        spec_sig, spec_out = pair[0], pair[1]
    else:
        spec_sig, spec_out = eig_hermitian(sig), eig_hermitian(n_sig)
    u, lam, v, mu, core = _petz_core(spec_sig, spec_out, channel.kraus)
    # rows: vec of the Petz Kraus operators in the support eigenbases
    petz = core.reshape(len(channel.kraus), -1)
    half_log = ((np.log(mu)[None, :] - np.log(lam)[:, None]) / 2.0).reshape(-1)
    w = half_log[:, None] - half_log[None, :]
    with np.errstate(invalid="ignore"):
        char = np.where(w == 0.0, 1.0, w / np.sinh(w))
    spec = eig_hermitian((petz.T @ petz.conj()) * char)
    ks = [
        np.sqrt(e) * (u @ vec.reshape(len(lam), len(mu)) @ v.conj().T)
        for e, vec in zip(spec.eigenvalues, spec.eigenvectors.T)
        if e > 0.0
    ]
    kernel = spec_out.eigenvectors[:, spec_out.eigenvalues <= spec_out.cutoff]
    ks.extend(_completion_kraus(kernel, np.ones(kernel.shape[1]), channel.in_dim))
    return Channel(tuple(ks))


def adjoint_recovery(channel: KrausMap) -> Channel:
    """Recovery channel R(Y) = N^dag(Y) + Tr{(id - N^dag)(Y)} I/d.

    Trace-preserving for any trace-preserving N; completely positive exactly
    when N is subunital.  A superunital N makes the completion weight negative
    on part of the output space, and the constructor rejects it with a witness
    input exhibiting the failure.
    """
    gap = np.eye(channel.out_dim) - channel.on_identity()
    spec = eig_hermitian(gap)
    if spec.eigenvalues[0] < -1e-10:
        witness = np.outer(spec.eigenvectors[:, 0], spec.eigenvectors[:, 0].conj())
        raise NotCompletelyPositiveError(
            "channel is superunital (max eig of N(I) is "
            f"{1.0 - spec.eigenvalues[0]:.12g}); the adjoint-based recovery is not CP",
            witness,
        )
    ks = [k.conj().T for k in channel.kraus]
    # Tr{(I - N(I)) Y} I/d over the gap eigenpairs (mu_l, d_l); gap
    # directions below 1e-12 are numerical zeros of N(I) = I.
    gap_dirs = spec.eigenvalues > 1e-12
    ks.extend(_completion_kraus(spec.eigenvectors[:, gap_dirs], spec.eigenvalues[gap_dirs],
                                channel.in_dim))
    return Channel(tuple(ks))


@dataclass(frozen=True)
class UhlmannResult:
    isometry: np.ndarray
    achieved: float  # |<phi_sigma| (U x I) |phi_rho>|^2


def uhlmann_isometry(phi_rho: Purification, phi_sigma: Purification) -> UhlmannResult:
    """Isometry on the reference factor maximizing the purification overlap.

    Both purifications must share the non-reference factors (same labels,
    dimensions, and order), and the target reference must be at least as large
    as the source reference.  The maximizer comes from the polar decomposition
    of the reference-overlap matrix; the achieved overlap equals the fidelity
    of the reduced states on the shared factors.
    """
    shared_rho = tuple(s for s in phi_rho.systems if s[0] != phi_rho.reference_label)
    shared_sigma = tuple(s for s in phi_sigma.systems if s[0] != phi_sigma.reference_label)
    if shared_rho != shared_sigma:
        raise DimensionMismatchError(
            f"purifications do not share the non-reference systems: {shared_rho} vs {shared_sigma}"
        )
    m_rho = phi_rho.amplitude_matrix()
    m_sigma = phi_sigma.amplitude_matrix()
    r_rho, r_sigma = m_rho.shape[0], m_sigma.shape[0]
    if r_sigma < r_rho:
        raise DimensionMismatchError(
            f"target reference dim {r_sigma} is smaller than source {r_rho}"
        )
    # <phi_sigma| (U x I) |phi_rho> = Tr{U C} with C = M_rho M_sigma^dag
    c = m_rho @ m_sigma.conj().T
    v, s, wh = np.linalg.svd(c)
    w = wh.conj().T
    embed = np.zeros((r_sigma, r_rho))
    np.fill_diagonal(embed, 1.0)
    u = w @ embed @ v.conj().T
    return UhlmannResult(isometry=u, achieved=float(s.sum() ** 2))
