"""Executable verification of the entropy-gain, information-gain, and
entropic-disturbance inequalities, each returning a :class:`CheckReport`.

Conventions: all quantities are in bits; a report's ``lhs`` and ``rhs`` are
arranged so the claim is ``lhs >= rhs`` and ``holds`` means
``lhs - rhs >= -tol``, with ``tol`` the row's entry in
:data:`~qrecovery.reports.TOLERANCES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import (
    NAT_TO_BITS,
    _cmi_stack,
    _holevo_chi,
    entropy,
    rel_entropy,
    root_fidelity,
    shannon_entropy,
)
from .lbfgs import minimize_stack
from .matfun import eig_hermitian, rank_cutoff
from .qcore import (
    PROB_FLOOR,
    Channel,
    DensityOperator,
    DimensionMismatchError,
    Ensemble,
    Instrument,
    KrausMap,
    LabelError,
    _adjoint_stack,
    _apply_block,
    _apply_kraus,
    _apply_ragged,
    _check_reference_label,
    _factor_block,
    _grouped,
    _instrument_kraus,
    _mixture,
    _outcomes,
    _padded,
    _purification_vectors,
    _rng,
    _tp_deviations,
    adjoint,
    as_matrix,
    partial_trace_channel,
    ptrace,
    tp_deviation,
)
from .recovery import (
    QuadratureSpec,
    _adjoint_recovery_stack,
    _integrated_recovery_stack,
    _root_factors,
    _swiveled_root_fidelity_stack,
    quadrature,
    stacked_root_fidelity,
    swiveled_kraus,
)
from .reports import CheckReport

__all__ = [
    "PROB_FLOOR",
    "STATIONARITY_TOL",
    "OptimizerBudget",
    "MinimalEntropyGainResult",
    "check_entropy_gain",
    "check_entropy_gain_recovery",
    "check_recovery_fid",
    "check_recovery_stronger",
    "check_cmi_recovery",
    "minimal_entropy_gain",
    "check_cond_entropy_gain",
    "groenewold_gain",
    "check_info_gain_upper",
    "check_efficient_second_law",
    "check_info_gain_no_qsi",
    "check_info_gain_qsi",
    "check_entropic_disturbance",
]


def _require_tp(channel) -> None:
    """A Kraus or transfer-matrix map is trace-preserving iff its adjoint takes
    I to I; a (N, K, out, in) Kraus stack must hold only such maps."""
    if isinstance(channel, np.ndarray):
        dev = float(_tp_deviations(channel).max())
    else:
        dev = tp_deviation(channel)
    if dev > 1e-9:
        raise ValueError(f"map is not trace-preserving: max deviation {dev:.3e}")


def check_entropy_gain(rho, channel) -> CheckReport:
    """Entropy gain bound H(N(rho)) - H(rho) >= D(rho || (N^dag o N)(rho)).

    ``channel`` may be any positive trace-preserving map exposing ``apply``
    and an adjoint; complete positivity is not required.
    """
    _require_tp(channel)
    mat = as_matrix(rho)
    out = channel.apply(mat)
    return _entropy_gain_reports(mat[None], out[None], adjoint(channel).apply(out)[None])[0]


def _entropy_gain_stack(mat: np.ndarray, ks: np.ndarray) -> list:
    """:func:`check_entropy_gain` for each pair of a (N, d, d) stack of states
    and a (N, K, d', d) stack of channels in Kraus form."""
    _require_tp(ks)
    out = _apply_kraus(ks, mat)
    return _entropy_gain_reports(mat, out, _apply_kraus(_adjoint_stack(ks), out))


def _entropy_gain_reports(mat: np.ndarray, out: np.ndarray, back: np.ndarray) -> list:
    """The entropy-gain rows of (N, d, d) states rho, their outputs N(rho) and
    (N^dag o N)(rho)."""
    lhs = entropy(out) - entropy(mat)
    d = rel_entropy(mat, back)
    return [
        CheckReport("entropy-gain", l, r, dims=(mat.shape[-1],), aux={"support_violation": float(v)})
        for l, r, v in zip(lhs, d.value, d.support_violation)
    ]


def check_entropy_gain_recovery(rho, channel: Channel) -> CheckReport:
    """Entropy gain bound with the adjoint-based recovery channel.

    For subunital N: H(N(rho)) - H(rho) >= D(rho || (R o N)(rho)) with
    R(Y) = N^dag(Y) + Tr{(id - N^dag)(Y)} tau.  The report also carries the
    plain adjoint bound D(rho || (N^dag o N)(rho)), which dominates the
    recovery bound because (R o N)(rho) >= (N^dag o N)(rho).
    """
    return _entropy_gain_recovery_stack(as_matrix(rho)[None], channel.stack[None])[0]


def _entropy_gain_recovery_stack(mat: np.ndarray, ks: np.ndarray) -> list:
    """:func:`check_entropy_gain_recovery` for each pair of a (N, d, d) stack
    of states and a (N, K, d', d) stack of channels in Kraus form."""
    _require_tp(ks)
    rec = _adjoint_recovery_stack(ks)
    out = _apply_kraus(ks, mat)
    lhs = entropy(out) - entropy(mat)
    rhs = rel_entropy(mat, _apply_kraus(rec, out)).value
    rhs_adjoint = rel_entropy(mat, _apply_kraus(_adjoint_stack(ks), out)).value
    dims = (mat.shape[-1], ks.shape[-2])
    return [
        CheckReport("entropy-gain-recovery", l, r, dims=dims,
                    aux={"rhs_adjoint_only": float(a), "dominance_slack": float(a - r)})
        for l, r, a in zip(lhs, rhs, rhs_adjoint)
    ]


@dataclass(frozen=True)
class OptimizerBudget:
    """Search budget of :func:`minimal_entropy_gain`.

    ``restarts`` counts the starts (the maximally mixed state plus random
    ones); ``max_evals`` caps the objective-and-gradient evaluations of one
    start exactly: a start stops, mid line search if need be, when it has
    used them.
    """

    restarts: int = 20
    max_evals: int = 2000

    def __post_init__(self):
        if self.restarts < 1 or self.max_evals < 1:
            raise ValueError(f"restarts and max_evals must be at least 1, got {self!r}")


@dataclass(frozen=True)
class MinimalEntropyGainResult:
    """Best entropy gain found; an upper bound on the true infimum."""

    value: float
    argmin: np.ndarray
    lower_bound: float  # min over visited optima of D(rho || (N^dag o N)(rho))
    converged: bool  # stationarity <= STATIONARITY_TOL
    evals: int
    stationarity: float  # eigenvalue spread in bits of the gradient on supp(argmin)


STATIONARITY_TOL = 1e-6


def _entropy_and_log(mats: np.ndarray):
    """von Neumann entropies in nats and natural logs on the supports of a
    (S, d, d) stack, from one batched eigendecomposition; each row keeps the
    eigenvalues above its own :func:`rank_cutoff`."""
    lam, u = np.linalg.eigh(mats)
    log_lam = np.log(np.where(lam > rank_cutoff(lam), lam, 1.0))
    return -(lam * log_lam).sum(-1), (u * log_lam[:, None, :]) @ u.conj().swapaxes(1, 2)


def _gain_gradient(rho: np.ndarray, channel: Channel, dual: KrausMap):
    """H(N(rho)) - H(rho) in nats and the gradient log rho - N^dag(log N(rho))
    for a (S, d, d) stack of states, ``dual`` the adjoint N^dag of ``channel``.

    Both logs are taken on the support, so the gradient is finite at every
    state; it is the derivative along traceless directions because N is
    trace-preserving.
    """
    h_in, log_in = _entropy_and_log(rho)
    h_out, log_out = _entropy_and_log(channel.apply(rho))
    return h_out - h_in, log_in - dual.apply(log_out)


def _factor_states(x: np.ndarray, d: int):
    """Factors L from rows of 2d^2 real coordinates (S, 2d^2), the states
    rho = L L^dag / Tr(L L^dag) and the traces; a row whose trace is zero or
    not finite gets I/d and trace 0."""
    factor = (x[:, : d * d] + 1j * x[:, d * d :]).reshape(-1, d, d)
    mat = factor @ factor.conj().swapaxes(1, 2)
    tr = np.trace(mat, axis1=1, axis2=2).real
    bad = (tr <= 0) | ~np.isfinite(tr)
    tr = np.where(bad, 0.0, tr)
    rho = np.where(bad[:, None, None], np.eye(d) / d, mat / np.where(bad, 1.0, tr)[:, None, None])
    return factor, rho, tr


def _gain_objective(channel: Channel):
    """x (S, 2d^2) -> (gains in bits (S,), gradients in x (S, 2d^2)) over
    rho = L L^dag / Tr(L L^dag), N the channel.

    With G the state gradient and t = Tr(L L^dag), the gradient in L is
    M = 2 (G - Tr(rho G) I) L / t; its real and imaginary parts are the
    gradients in Re L and Im L.  The factor L keeps M finite as rho loses
    rank, and M = 0 at the I/d fallback.
    """
    d = channel.in_dim
    dual = adjoint(channel)

    def objective(x: np.ndarray):
        factor, rho, tr = _factor_states(x, d)
        gain, grad = _gain_gradient(rho, channel, dual)
        shift = (rho.conj() * grad).sum((1, 2)).real
        scale = 2.0 * NAT_TO_BITS / np.where(tr > 0, tr, 1.0)
        m = scale[:, None, None] * ((grad - shift[:, None, None] * np.eye(d)) @ factor)
        m = np.where(tr[:, None, None] > 0, m, 0.0).reshape(len(x), -1)
        return gain * NAT_TO_BITS, np.concatenate([m.real, m.imag], axis=1)

    return objective


def _stationarity(rho: np.ndarray, grad: np.ndarray) -> float:
    """Spread (max - min) in bits of the eigenvalues of the gradient
    compressed to the support of rho; 0 at a stationary point of the face."""
    support = np.ascontiguousarray(eig_hermitian(rho).support()[1])
    mu = np.linalg.eigvalsh(support.conj().T @ grad @ support)
    return float(mu[-1] - mu[0]) * NAT_TO_BITS


def minimal_entropy_gain(
    channel: Channel, budget: OptimizerBudget = OptimizerBudget(), seed=None
) -> MinimalEntropyGainResult:
    """Gradient search for inf_rho [H(N(rho)) - H(rho)] over a channel N.

    States are parameterized as rho = L L^dag / Tr{L L^dag} with L a free
    complex matrix.  L-BFGS runs on the analytic gradient from the maximally
    mixed state plus ``budget.restarts - 1`` random starts, all advanced in
    lock-step by :func:`~qrecovery.lbfgs.minimize_stack` so that each step
    evaluates one stack of states; a start's path does not depend on the
    others.  Each start is capped at ``budget.max_evals`` evaluations, and
    ``evals`` is their sum.
    Starting at the maximally mixed state guarantees the returned value is
    <= 0 for equal input/output dimensions.  ``value`` is the gain of the
    returned ``argmin``, and ``lower_bound`` the smallest
    D(rho || (N^dag o N)(rho)) over the starts' optima.

    ``stationarity`` certifies the best optimum to first order: the spread in
    bits of the gradient's eigenvalues on the support of ``argmin``, which is
    0 exactly when no direction inside that support lowers the gain.
    ``converged`` means ``stationarity <= STATIONARITY_TOL``; otherwise the
    best value found is returned anyway.  ``channel`` must be trace-preserving.
    """
    _require_tp(channel)
    if channel.in_dim != channel.out_dim:
        raise ValueError("minimal_entropy_gain expects equal input and output dimensions")
    d = channel.in_dim
    rng = _rng(seed)

    starts = [np.concatenate([np.eye(d).reshape(-1), np.zeros(d * d)])]
    for _ in range(budget.restarts - 1):
        starts.append(rng.standard_normal(2 * d * d))
    values, points, evals = minimize_stack(_gain_objective(channel), np.stack(starts), budget.max_evals)
    _, states, _ = _factor_states(points, d)
    dual = adjoint(channel)
    recovered = dual.apply(channel.apply(states))
    lower = min(rel_entropy(mat, rec).value for mat, rec in zip(states, recovered))
    best = states[int(np.argmin(values))]
    stationarity = _stationarity(best, _gain_gradient(best[None], channel, dual)[1][0])
    return MinimalEntropyGainResult(
        value=entropy(channel.apply(best)) - entropy(best),
        argmin=best,
        lower_bound=lower,
        converged=stationarity <= STATIONARITY_TOL,
        evals=int(evals.sum()),
        stationarity=stationarity,
    )


def check_cond_entropy_gain(rho_ab: DensityOperator, channel: Channel) -> CheckReport:
    """Conditional-entropy gain under a local map on the first factor (A here):

    H(A'|B)_sigma - H(A|B)_rho >= D(rho_AB || ((N^dag o N) (x) id)(rho_AB)).
    """
    on = rho_ab.labels[0]
    _factor_block(channel, rho_ab.systems, on, ((on + "'", channel.out_dim),))
    return _cond_entropy_gain_stack(rho_ab.matrix[None], channel.stack[None], rho_ab.dims)[0]


def _cond_entropy_gain_stack(rho: np.ndarray, ks: np.ndarray, dims: tuple) -> list:
    """:func:`check_cond_entropy_gain` for each pair of a (N, D, D) stack of
    states on factors of sizes ``dims`` and a (N, K, d', dims[0]) stack of
    channels in Kraus form acting on the first factor."""
    _require_tp(ks)
    rest = math.prod(dims[1:])
    sigma = _apply_block(ks, rho, 1, rest)
    back = _apply_block(_adjoint_stack(ks), sigma, 1, rest)
    keep = range(1, len(dims))
    out_dims = (ks.shape[-2],) + tuple(dims[1:])
    h_out = entropy(sigma) - entropy(ptrace(sigma, out_dims, keep))
    lhs = h_out - (entropy(rho) - entropy(ptrace(rho, dims, keep)))
    d = rel_entropy(rho, back)
    return [
        CheckReport("cond-entropy-gain", l, r, dims=dims, aux={"support_violation": float(v)})
        for l, r, v in zip(lhs, d.value, d.support_violation)
    ]


# ---------------------------------------------------------------------------
# recoverability of relative entropy and of conditional mutual information


def check_recovery_fid(rho, sigma, channel: Channel) -> CheckReport:
    """Recoverability refinement of data processing (Junge, Renner, Sutter,
    Wilde and Winter 2018):

    D(rho || sigma) - D(N(rho) || N(sigma)) >= -log F(rho, (R o N)(rho)),

    with R the integrated recovery map of (sigma, N); supp(rho) must lie in
    supp(sigma).
    """
    rho, sigma = _recovery_pair(rho, sigma, channel)
    return _recovery_fid_stack(rho[None], sigma[None], channel.stack[None])[0]


def _recovery_pair(rho, sigma, channel: KrausMap):
    """rho and sigma as matrices, once they are checked to fit the channel input."""
    rho, sigma = as_matrix(rho), as_matrix(sigma)
    for x in (rho, sigma):
        if x.shape != (channel.in_dim, channel.in_dim):
            raise DimensionMismatchError(
                f"operand dimension {x.shape} does not match channel input {channel.in_dim}"
            )
    return rho, sigma


def _recovery_fid_stack(rho: np.ndarray, sigma: np.ndarray, ks: np.ndarray) -> list:
    """:func:`check_recovery_fid` for each triple of (N, d, d) stacks of rho
    and sigma and a (N, K, out, d) Kraus stack."""
    n_rho, n_sigma = _apply_kraus(ks, rho), _apply_kraus(ks, sigma)
    rec = _padded(_integrated_recovery_stack(sigma, ks, n_sigma))
    lhs = rel_entropy(rho, sigma).value - rel_entropy(n_rho, n_sigma).value
    sqrt_fids = root_fidelity(rho, _apply_kraus(rec, n_rho))
    dims = (rho.shape[-1], ks.shape[-2])
    return [
        CheckReport("recovery-fid", l, -math.log2(max(float(f) ** 2, 1e-300)), dims=dims)
        for l, f in zip(lhs, sqrt_fids)
    ]


def check_recovery_stronger(
    rho, sigma, channel: Channel, quad: QuadratureSpec = QuadratureSpec()
) -> CheckReport:
    """The same bound with the average over ``p_weight`` outside the logarithm:

    D(rho || sigma) - D(N(rho) || N(sigma)) >= -int dt p(t) log F(rho, R^{t/2}(N(rho))),

    R^{t/2} the swiveled Petz map of (sigma, N); the integral is the ``quad``
    rule over :func:`swiveled_root_fidelities`.
    """
    rho, sigma = _recovery_pair(rho, sigma, channel)
    return _recovery_stronger_stack(rho[None], sigma[None], channel.stack[None], quad)[0]


def _recovery_stronger_stack(rho: np.ndarray, sigma: np.ndarray, ks: np.ndarray,
                             quad: QuadratureSpec) -> list:
    """:func:`check_recovery_stronger` for each triple of (N, d, d) stacks of
    rho and sigma and a (N, K, out, d) Kraus stack."""
    n_rho, n_sigma = _apply_kraus(ks, rho), _apply_kraus(ks, sigma)
    lhs = rel_entropy(rho, sigma).value - rel_entropy(n_rho, n_sigma).value
    nodes, weights = quadrature(quad)
    sqrt_fids = _swiveled_root_fidelity_stack(rho, sigma, n_rho, n_sigma, ks, nodes)
    logs = np.log2(np.maximum(sqrt_fids**2, 1e-300))
    dims = (rho.shape[-1], ks.shape[-2])
    return [
        CheckReport("recovery-stronger", l, -float(weights @ row), dims=dims)
        for l, row in zip(lhs, logs)
    ]


def _recover_abc_stack(rho: np.ndarray, dims: tuple) -> np.ndarray:
    """R_{C->AC}(rho_BC) for each state of a (N, D, D) stack on factors A, B,
    C of sizes ``dims``, as a (N, D, D) stack in the factor order A, B, C.

    Each recovery's Kraus count is its own, and they act on C through
    :func:`~qrecovery.qcore.apply_on`'s product.
    """
    d_a, d_b, d_c = dims
    rho_ac, rho_bc = ptrace(rho, dims, (0, 2)), ptrace(rho, dims, (1, 2))
    trace_a = partial_trace_channel((("A", d_a), ("C", d_c)), "A").stack
    ks = np.broadcast_to(trace_a, (len(rho),) + trace_a.shape)
    recs = _integrated_recovery_stack(rho_ac, ks, _apply_kraus(ks, rho_ac))
    recovered = _apply_ragged(recs, rho_bc, d_b, 1)
    # factors (B, A, C) -> (A, B, C)
    t = recovered.reshape((len(rho), d_b, d_a, d_c, d_b, d_a, d_c))
    return t.transpose(0, 2, 1, 3, 5, 4, 6).reshape(rho.shape)


def check_cmi_recovery(rho_abc: DensityOperator) -> CheckReport:
    """Conditional mutual information versus recovery of A from C:

    I(A;B|C) >= -log F(rho_ABC, R_{C->AC}(rho_BC)),

    with R the integrated recovery map of (rho_AC, Tr_A).  The factors are
    labeled A, B and C.
    """
    if rho_abc.labels != ("A", "B", "C"):
        raise LabelError(f"factors {rho_abc.labels!r} must be ('A', 'B', 'C')")
    return _cmi_recovery_stack(rho_abc.matrix[None], rho_abc.dims)[0]


def _cmi_recovery_stack(rho: np.ndarray, dims: tuple) -> list:
    """:func:`check_cmi_recovery` for each state of a (N, D, D) stack on
    factors A, B, C of sizes ``dims``."""
    lhs = _cmi_stack(rho, dims, (0,), (1,), (2,))
    sqrt_fids = root_fidelity(rho, _recover_abc_stack(rho, dims))
    return [
        CheckReport("cmi-recovery", l, -math.log2(max(float(f) ** 2, 1e-300)), dims=dims)
        for l, f in zip(lhs, sqrt_fids)
    ]


# ---------------------------------------------------------------------------
# information gain


def groenewold_gain(instr: Instrument, rho) -> float:
    """Entropy reduction H(rho) - sum_x p(x) H(rho^x).

    Negative values occur only for inefficient instruments; outcomes with
    probability at or below ``PROB_FLOOR`` are dropped from the sum.
    """
    return float(_groenewold_gains(as_matrix(rho)[None], _outcome_stack(instr)[None])[0])


def _outcome_stack(instr: Instrument) -> np.ndarray:
    """The outcome maps' Kraus operators as one (n, K, out, in) stack, a map
    with fewer than K operators padded with zero ones."""
    return _padded([m.stack for m in instr.maps])


def _groenewold_gains(mat: np.ndarray, kx: np.ndarray) -> np.ndarray:
    """H(rho) - sum_x p(x) H(rho^x) for each pair of a (N, d, d) stack of
    states and a (N, n, K, out, d) stack of instruments."""
    probs, seen, posts = _outcomes(_apply_kraus(kx, mat[:, None]))
    return _entropy_reduction(mat, probs, seen, posts)


def _entropy_reduction(mat: np.ndarray, probs, seen, posts) -> np.ndarray:
    """H(rho) - sum_x p(x) H(rho^x) from :func:`~qrecovery.qcore._outcomes`'
    (N, n) probabilities and mask and (N, n, d, d) posts, each row's terms
    taken in outcome order."""
    reduction = entropy(mat)
    terms = probs * entropy(posts)
    for x in range(probs.shape[1]):
        reduction = reduction - np.where(seen[:, x], terms[:, x], 0.0)
    return reduction


def _by_rank(mat: np.ndarray, group) -> list:
    """``group(idx, rank, vectors)`` per group of the (N, D, D) states of equal
    numerical rank, ``vectors`` their (n_idx, rank * D) purification vectors,
    with the items in state order."""
    spec = eig_hermitian(mat)
    ranks = spec.ranks.tolist()

    def ranked(idx):
        return group(idx, ranks[idx[0]], _purification_vectors(spec[idx]))

    return _grouped(ranks, ranked)


def _instrument_state(vecs: np.ndarray, kx: np.ndarray, rank: int, rest: tuple):
    """Run the instruments of a (N, n, K, out, in) stack on the factor A of
    the purifications (factors R, A, rest) with vectors ``vecs``.

    Returns the (N, n) probabilities and mask of those above ``PROB_FLOOR``,
    the normalized posts on (R, A', rest) (pure for efficient instruments,
    zero below the floor) and their reductions on (R, rest).
    """
    proj = vecs[:, :, None] * vecs.conj()[:, None, :]
    d_rest = math.prod(rest)
    probs, seen, posts = _outcomes(_apply_block(kx, proj[:, None], rank, d_rest))
    dims = (rank, kx.shape[-2]) + tuple(rest)
    return probs, seen, posts, ptrace(posts, dims, [i for i in range(len(dims)) if i != 1])


def _cq_assemble(weights: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """sum_x w_x block_x (x) |x><x| for each row of (N, n) weights and
    (N, n, b, b) blocks (classical factor last); w_x block_x fills the
    (x, x) slot of a (N, b, n, b, n) array, outcome by outcome."""
    n_rows, n, b = blocks.shape[0], blocks.shape[1], blocks.shape[-1]
    out = np.zeros((n_rows, b, n, b, n), dtype=complex)
    for x in range(n):
        out[:, :, x, :, x] += weights[:, x, None, None] * blocks[:, x]
    return out.reshape(n_rows, b * n, b * n)


def check_info_gain_upper(instr: Instrument, rho) -> CheckReport:
    """General information-gain bound, valid for any quantum instrument:

    H(X)_sigma - D(rho || (N^dag o N)(rho)) >= I_G, with N the
    quantum-classical instrument channel.
    """
    return _info_gain_upper_stack(as_matrix(rho)[None], _outcome_stack(instr)[None])[0]


def _info_gain_upper_stack(mat: np.ndarray, kx: np.ndarray) -> list:
    """:func:`check_info_gain_upper` for each pair of a (N, d, d) stack of
    states and a (N, n, K, out, d) stack of instruments."""
    ks = _instrument_kraus(kx, np.eye(kx.shape[1]))
    probs, seen, posts = _outcomes(_apply_kraus(kx, mat[:, None]))
    d = rel_entropy(mat, _apply_kraus(_adjoint_stack(ks), _apply_kraus(ks, mat))).value
    h_x = shannon_entropy(probs)
    gain = _entropy_reduction(mat, probs, seen, posts)
    efficient = kx.shape[2] == 1
    return [
        CheckReport("info-gain-upper", h - v, g, dims=(mat.shape[-1],), aux={
            "h_x": float(h), "d_term": float(v), "groenewold_gain": float(g), "efficient": efficient})
        for h, v, g in zip(h_x, d, gain)
    ]


def check_efficient_second_law(instr: Instrument, rho: DensityOperator) -> CheckReport:
    """Second-law strengthening for efficient instruments:

    H(X|R)_sigma >= D(rho || (R o N)(rho)), with sigma_RX the joint state of
    the classical outcome and the purifying reference, and R the adjoint-based
    recovery of the (subunital) instrument channel.
    """
    if not instr.efficient:
        raise ValueError("check_efficient_second_law requires an efficient instrument")
    _check_reference_label(rho)
    return _efficient_second_law_stack(rho.matrix[None], _outcome_stack(instr)[None])[0]


def _efficient_second_law_stack(mat: np.ndarray, kx: np.ndarray) -> list:
    """:func:`check_efficient_second_law` for each pair of a (N, d, d) stack
    of states and a (N, n, 1, out, d) stack of efficient instruments."""
    ks = _instrument_kraus(kx, np.eye(kx.shape[1]))
    rhs = rel_entropy(mat, _apply_kraus(_adjoint_recovery_stack(ks), _apply_kraus(ks, mat))).value

    def group(idx, rank, vecs):
        probs, seen, _, posts_r = _instrument_state(vecs, kx[idx], rank, ())
        lhs = entropy(_cq_assemble(probs, posts_r)) - entropy(_mixture(probs, posts_r))
        n = kx.shape[1]
        return [
            CheckReport("efficient-second-law", l, rhs[i], dims=(mat.shape[-1],),
                        aux={"outcome_probs_min": float(p.min()), "n_outcomes": n})
            for i, l, p in zip(idx, lhs, probs)
        ]

    return _by_rank(mat, group)


def check_info_gain_no_qsi(instr: Instrument, rho: DensityOperator) -> CheckReport:
    """Information gain of a measurement versus recoverability (no side info).

    Always checks I(R;X) >= -log F(sigma_RX, sigma_R (x) sigma_X); for
    efficient instruments the bound is rebuilt from per-outcome Uhlmann
    isometries carrying the post-measurement purifications back to the input
    space, and the per-outcome root fidelities are reported.
    """
    _check_reference_label(rho)
    return _info_gain_no_qsi_stack(rho.matrix[None], _outcome_stack(instr)[None])[0]


def _info_gain_no_qsi_stack(mat: np.ndarray, kx: np.ndarray) -> list:
    """:func:`check_info_gain_no_qsi` for each pair of a (N, d, d) stack of
    states and a (N, n, K, out, d) stack of instruments.

    The Uhlmann overlaps of the efficient case are the singular values of
    M_post M_in^dag, M the amplitude matrices with A' and A as references, as
    :func:`~qrecovery.recovery.uhlmann_isometry` takes them.
    """
    d, (n, n_kraus, d_out) = mat.shape[-1], kx.shape[1:4]

    def group(idx, rank, vecs):
        probs, seen, posts_ra, posts_r = _instrument_state(vecs, kx[idx], rank, ())
        sigma_rx = _cq_assemble(probs, posts_r)
        sigma_r = _mixture(probs, posts_r)
        h_x = shannon_entropy(probs)
        lhs = entropy(sigma_r) + h_x - entropy(sigma_rx)
        product = _cq_assemble(probs, np.where(seen[:, :, None, None], sigma_r[:, None], 0.0))
        fid_direct = root_fidelity(sigma_rx, product)
        outcome_fids = root_fidelity(posts_r, np.broadcast_to(sigma_r[:, None], posts_r.shape))
        sqrt_fids = np.where(seen, outcome_fids, 0.0)
        avg_sqrt = (probs * sqrt_fids).sum(axis=1)
        if n_kraus == 1:
            m_post = _pure_vectors(posts_ra).reshape(len(idx), n, rank, d_out).swapaxes(2, 3)
            m_in = vecs.reshape(len(idx), rank, d).swapaxes(1, 2)
            overlap = m_post @ m_in.conj().swapaxes(1, 2)[:, None]
            overlaps = np.linalg.svd(overlap)[1].sum(axis=-1)
        reports = []
        for i in range(len(idx)):
            aux = {
                "rhs_fid_direct": -math.log2(float(fid_direct[i]) ** 2),
                "rhs_fid_direct_sum": -2.0 * math.log2(max(float(avg_sqrt[i]), 1e-300)),
                "efficient": n_kraus == 1,
                "per_outcome_sqrt_fid": [float(f) for f in sqrt_fids[i]],
            }
            rhs = aux["rhs_fid_direct"]
            if n_kraus == 1:
                uhlmann_sqrt, max_dev = [0.0] * n, 0.0
                for x in np.flatnonzero(seen[i]):
                    # squared one by one: a scalar ** 2 is pow(), an array's is x * x
                    achieved = float(overlaps[i, x] ** 2)
                    uhlmann_sqrt[x] = math.sqrt(max(achieved, 0.0))
                    max_dev = max(max_dev, abs(achieved - float(sqrt_fids[i, x]) ** 2))
                avg_u = float(np.sum(probs[i] * np.array(uhlmann_sqrt)))
                rhs = -2.0 * math.log2(max(avg_u, 1e-300))
                aux["per_outcome_sqrt_fid_uhlmann"] = uhlmann_sqrt
                aux["uhlmann_vs_fidelity_max_dev"] = max_dev
            reports.append(CheckReport("info-gain-no-qsi", lhs[i], rhs, dims=(d,), aux=aux))
        return reports

    return _by_rank(mat, group)


def _pure_vectors(densities) -> np.ndarray:
    """sqrt(lam_max) times the top eigenvector of each density operator, for
    rank-one inputs the vector whose projector each one is; one stacked call."""
    spec = eig_hermitian(np.stack(densities))
    top = np.sqrt(np.maximum(spec.eigenvalues[..., -1], 0.0))
    return spec.eigenvectors[..., -1] * top[..., None]


def _b_rotated_overlaps(m_in: np.ndarray, g: np.ndarray, m_post: np.ndarray):
    """Uhlmann overlaps of (I_RA (x) g_t)|phi> with a post-measurement
    purification for every g_t of a (T, d_B, d_B) stack, B the last factor of
    |phi>; ``m_in`` and ``m_post`` are the amplitude matrices of |phi> and of
    the post with A and A' as references.  Leading axes of ``m_in``,
    ``m_post`` and of ``g`` (..., T, d_B, d_B) go together.

    The amplitude matrix of the rotated purification is M (I_R (x) g_t)^T,
    M = ``m_in``, so its overlap with M_post is
    sum_{b, c} g_t[b, c] C[c, b], C[c, b] = sum_r M[:, (r, c)] M_post[:, (r, b)]^dag;
    with R summed once per pair, every node's overlap matrix is one row of
    vec(g_t) against C, and one batched SVD of them gives every
    ``uhlmann_isometry(...).achieved``.
    """
    d_a, d_out, d_b = m_in.shape[-2], m_post.shape[-2], g.shape[-1]
    lead = m_in.shape[:-2]
    rows_in = m_in.reshape(lead + (d_a, -1, d_b)).swapaxes(-1, -2).reshape(lead + (d_a * d_b, -1))
    rows_post = m_post.reshape(lead + (d_out, -1, d_b)).swapaxes(-1, -2).reshape(lead + (d_out * d_b, -1))
    c = (rows_in @ rows_post.conj().swapaxes(-1, -2)).reshape(lead + (d_a, d_b, d_out, d_b))
    c = np.moveaxis(c, -3, -1).reshape(lead + (d_a * d_out, d_b * d_b))  # ((a, a'), (b, c))
    overlap = g.reshape(g.shape[:-2] + (d_b * d_b,)) @ c.swapaxes(-1, -2)
    overlap = overlap.reshape(g.shape[:-2] + (d_a, d_out))
    return np.linalg.svd(overlap, compute_uv=False).sum(axis=-1) ** 2


def _amplitudes(vecs: np.ndarray, dims: tuple) -> np.ndarray:
    """Amplitude matrices of (..., prod(dims)) vectors on factors (R, A, B),
    A as the reference: (..., d_A, d_R d_B), as
    :meth:`~qrecovery.qcore.Purification.amplitude_matrix` lays them out."""
    r, a, b = dims
    lead = vecs.shape[:-1]
    swapped = np.ascontiguousarray(vecs.reshape(lead + (r, a, b)).swapaxes(-3, -2))
    return swapped.reshape(lead + (a, r * b))


def check_info_gain_qsi(
    instr: Instrument, rho_ab: DensityOperator, quad: QuadratureSpec = QuadratureSpec()
) -> CheckReport:
    """Information gain with quantum side information versus B-side recovery.

    Builds omega_RBX from a purification of rho_AB, measures the first factor,
    and checks

        I(R;X|B) >= -2 sum_t w_t log[ sum_x p(x) sqrtF(omega^x_RB,
                                        R_B^{x,t/2}(omega_RB)) ],

    where {p(x) R_B^{x,t/2}} is the B-side recovery instrument built from
    modular powers of omega_B^x and omega_B: R_B^{x,t/2} acts as I_R (x) g_t
    with g_t = (omega_B^x)^{(1-it)/2} omega_B^{(-1+it)/2}.

    Evaluation: for each outcome, :func:`swiveled_kraus` stacks g_t over all
    quadrature nodes (only diagonal phases change between nodes), and
    :func:`stacked_root_fidelity` gets every node's root fidelity as
    ||L^x (I_R (x) g_t) L^dag||_1 from one stacked SVD, with
    L^x = diag(sqrt(lam_s)) U_s^dag and L the support factors of
    omega^x_RB and omega_RB taken from their spectra: each node's SVD is
    rank(omega^x_RB) x rank(omega_RB).  The same g_t stack gives the
    trace-preservation sums sum_x p(x) g_t^dag g_t, whose largest deviation
    from the support projector of omega_B is ``recovery_instrument_tp_dev``.
    For efficient instruments every (node, outcome) fidelity is
    cross-checked against the Uhlmann overlap of the rotated input
    purification with the post-measurement purification, computed apart
    from the fidelity SVD from the purifications' amplitude matrices; the
    largest gap is ``uhlmann_vs_fidelity_max_dev``.  ``low_confidence``
    flags a node fidelity below 1e-14.
    """
    if len(rho_ab.systems) != 2:
        raise ValueError("check_info_gain_qsi expects a bipartite input state")
    _check_reference_label(rho_ab)
    kx = _outcome_stack(instr)[None]
    return _info_gain_qsi_stack(rho_ab.matrix[None], kx, rho_ab.dims, quad)[0]


def _info_gain_qsi_stack(mat: np.ndarray, kx: np.ndarray, dims: tuple,
                         quad: QuadratureSpec) -> list:
    """:func:`check_info_gain_qsi` for each pair of a (N, D, D) stack of
    states on factors A, B of sizes ``dims`` and a (N, n, K, out, d_A) stack
    of instruments on A.

    The states, entropies and spectra come from one stacked call per group
    of equal purification rank.  Within such a group the quadrature runs
    once per group of (trial, outcome) pairs whose omega^x_B, omega_B,
    omega^x_RB and omega_RB have equal support sizes, which fix the shapes
    of the swiveled operators and of the support factors; each trial then
    adds its outcomes' node terms in outcome order.
    """
    d_a, d_b = dims
    n, n_kraus, d_out = kx.shape[1:4]
    efficient = n_kraus == 1
    nodes, weights = quadrature(quad)

    def group(idx, r_dim, vecs):
        # purification factors (R, A, B); posts on (R, A', B), reductions on (R, B)
        probs, seen, posts_rab, posts_rb = _instrument_state(vecs, kx[idx], r_dim, (d_b,))
        omega_rb = _mixture(probs, posts_rb)
        omega_b = ptrace(omega_rb, (r_dim, d_b), (1,))
        omega_bx = ptrace(posts_rb, (r_dim, d_b), (1,))
        lhs = (
            entropy(omega_rb)
            + entropy(_cq_assemble(probs, omega_bx))
            - entropy(_cq_assemble(probs, posts_rb))
            - entropy(omega_b)
        )
        # omega_B with every omega_B^x, omega_RB with every omega^x_RB
        spec_bx = eig_hermitian(np.concatenate([omega_b[:, None], omega_bx], axis=1))
        spec_rbx = eig_hermitian(np.concatenate([omega_rb[:, None], posts_rb], axis=1))
        if efficient:
            m_in = _amplitudes(vecs, (r_dim, d_a, d_b))
            m_post = _amplitudes(_pure_vectors(posts_rab), (r_dim, d_out, d_b))
        trial, outcome = np.nonzero(seen)
        # (trial, slot, [B, RB]) support sizes, slot 0 the average and x + 1 the outcome
        sizes = np.stack([spec_bx.ranks, spec_rbx.ranks], axis=-1)

        def pair_group(p):
            t, x = trial[p], outcome[p]
            # g_t = (omega_B^x)^{(1-it)/2} omega_B^{(-1+it)/2} at every node, (P, T, 1, d_B, d_B)
            g = swiveled_kraus(spec_bx[t, x + 1], spec_bx[t, 0], np.eye(d_b)[None], nodes)
            right = _root_factors(spec_rbx[t, 0]).conj().swapaxes(-1, -2)
            sqrt_f = stacked_root_fidelity(_root_factors(spec_rbx[t, x + 1]), g, right, lead=r_dim)
            g = g[:, :, 0]
            dev = np.zeros(len(p))
            if efficient:
                dev = np.abs(_b_rotated_overlaps(m_in[t], g, m_post[t, x]) - sqrt_f**2).max(axis=-1)
            return list(zip(sqrt_f, g.conj().swapaxes(-1, -2) @ g, dev))

        keys = [tuple(sizes[t, [0, x + 1]].ravel().tolist()) for t, x in zip(trial, outcome)]
        sqrt_f, gram, dev = (np.stack(part) for part in zip(*_grouped(keys, pair_group)))
        node_sum = np.zeros((len(idx), len(nodes)))
        tp_acc = np.zeros((len(idx), len(nodes), d_b, d_b), dtype=complex)
        uhlmann_dev = np.zeros(len(idx))
        low_confidence = np.zeros(len(idx), dtype=bool)
        for x in range(n):  # each trial adds its outcomes in order
            sel = outcome == x
            t, p = trial[sel], probs[trial[sel], x]
            tp_acc[t] += p[:, None, None, None] * gram[sel]
            node_sum[t] += p[:, None] * sqrt_f[sel]
            uhlmann_dev[t] = np.maximum(uhlmann_dev[t], dev[sel])
            low_confidence[t] |= (sqrt_f[sel] ** 2 < 1e-14).any(axis=-1)
        proj_b = _grouped(sizes[:, 0, 0].tolist(), lambda i: _support_projectors(spec_bx[i, 0]))
        reports = []
        for i in range(len(idx)):
            aux = {
                "recovery_instrument_tp_dev": float(np.abs(tp_acc[i] - proj_b[i]).max()),
                "min_node_avg_sqrt_fid": float(node_sum[i].min()),
                "low_confidence": bool(low_confidence[i]),
                "n_outcomes": n,
                "efficient": efficient,
            }
            if efficient:
                aux["uhlmann_vs_fidelity_max_dev"] = float(uhlmann_dev[i])
            rhs = -2.0 * float(weights @ np.log2(np.maximum(node_sum[i], 1e-300)))
            reports.append(CheckReport("info-gain-qsi", lhs[i], rhs, dims=dims, aux=aux))
        return reports

    return _by_rank(mat, group)


def _support_projectors(spec) -> np.ndarray:
    """The projector onto the support of each matrix of a spectrum stack whose
    supports share their size."""
    _, support = spec.support()
    return support @ support.conj().swapaxes(-1, -2)


def check_entropic_disturbance(ens: Ensemble, channel: Channel) -> CheckReport:
    """Holevo-information loss versus average recoverability:

    chi(E) - chi(N(E)) >= -2 log sum_x p(x) sqrtF(rho^x, (R o N)(rho^x)),

    with R the integrated recovery map for the ensemble-average state (the
    block structure of the joint cq problem collapses onto the average).
    """
    mats = np.stack([state.matrix for state in ens.states])
    return _entropic_disturbance_stack(ens.probs[None], mats[None], channel.stack[None])[0]


def _entropic_disturbance_stack(probs: np.ndarray, states: np.ndarray, ks: np.ndarray) -> list:
    """:func:`check_entropic_disturbance` for each ensemble of (N, m)
    probabilities and (N, m, d, d) states with a (N, K, out, d) Kraus stack."""
    outs = _apply_kraus(ks[:, None], states)
    chi_in, chi_out = _holevo_chi(probs, states), _holevo_chi(probs, outs)
    avg = _mixture(probs, states)
    rec = _padded(_integrated_recovery_stack(avg, ks, _apply_kraus(ks, avg)))
    sqrt_fids = root_fidelity(states, _apply_kraus(rec[:, None], outs))
    avg_sqrt = (probs * sqrt_fids).sum(axis=-1)
    dims = (states.shape[-1], ks.shape[-2])
    return [
        CheckReport("entropic-disturbance", c_in - c_out, -2.0 * math.log2(max(float(a), 1e-300)),
                    dims=dims, aux={"chi_in": float(c_in), "chi_out": float(c_out),
                                    "avg_sqrt_fid": float(a), "min_sqrt_fid": float(f.min())})
        for c_in, c_out, a, f in zip(chi_in, chi_out, avg_sqrt, sqrt_fids)
    ]
