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
    cmi,
    cond_entropy,
    entropy,
    fidelity,
    holevo_chi,
    rel_entropy,
    root_fidelity,
)
from .lbfgs import minimize_stack
from .matfun import eig_hermitian, rank_cutoff
from .qcore import (
    PROB_FLOOR,
    Channel,
    DensityOperator,
    Ensemble,
    Instrument,
    KrausMap,
    Purification,
    _derived,
    _rng,
    adjoint,
    apply_on,
    as_matrix,
    instrument_channel,
    partial_trace,
    partial_trace_channel,
    permute,
    ptrace,
    purify,
    tp_deviation,
)
from .recovery import (
    QuadratureSpec,
    adjoint_recovery,
    integrated_recovery,
    quadrature,
    stacked_root_fidelity,
    swiveled_kraus,
    swiveled_root_fidelities,
    uhlmann_isometry,
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
    """A Kraus or transfer-matrix map is trace-preserving iff its adjoint takes I to I."""
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
    lhs = entropy(out) - entropy(mat)
    d = rel_entropy(mat, adjoint(channel).apply(out))
    aux = {"support_violation": d.support_violation}
    return CheckReport("entropy-gain", lhs, d.value, dims=(mat.shape[0],), aux=aux)


def check_entropy_gain_recovery(rho, channel: Channel) -> CheckReport:
    """Entropy gain bound with the adjoint-based recovery channel.

    For subunital N: H(N(rho)) - H(rho) >= D(rho || (R o N)(rho)) with
    R(Y) = N^dag(Y) + Tr{(id - N^dag)(Y)} tau.  The report also carries the
    plain adjoint bound D(rho || (N^dag o N)(rho)), which dominates the
    recovery bound because (R o N)(rho) >= (N^dag o N)(rho).
    """
    _require_tp(channel)
    mat = as_matrix(rho)
    rec = adjoint_recovery(channel)
    out = channel.apply(mat)
    lhs = entropy(out) - entropy(mat)
    rhs = rel_entropy(mat, rec.apply(out)).value
    rhs_adjoint = rel_entropy(mat, adjoint(channel).apply(out)).value
    aux = {"rhs_adjoint_only": rhs_adjoint, "dominance_slack": rhs_adjoint - rhs}
    dims = (mat.shape[0], channel.out_dim)
    return CheckReport("entropy-gain-recovery", lhs, rhs, dims=dims, aux=aux)


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
    spec = eig_hermitian(rho)
    support = spec.eigenvectors[:, spec.support_mask()]
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
    _require_tp(channel)
    on = rho_ab.labels[0]
    out_label = on + "'"
    sigma_mat, out_systems = apply_on(
        channel, rho_ab.matrix, rho_ab.systems, on, out_systems=((out_label, channel.out_dim),)
    )
    nn_mat, _ = apply_on(
        adjoint(channel), sigma_mat, out_systems, out_label, out_systems=((on, channel.in_dim),)
    )

    cond_labels = tuple(label for label in rho_ab.labels if label != on)
    # a checked trace-preserving channel on one factor of a checked state
    sigma = _derived(DensityOperator, out_systems, sigma_mat)
    lhs = cond_entropy(sigma, cond_labels) - cond_entropy(rho_ab, cond_labels)
    d = rel_entropy(rho_ab.matrix, nn_mat)
    aux = {"support_violation": d.support_violation}
    return CheckReport("cond-entropy-gain", lhs, d.value, dims=rho_ab.dims, aux=aux)


# ---------------------------------------------------------------------------
# recoverability of relative entropy and of conditional mutual information


def check_recovery_fid(rho, sigma, channel: Channel) -> CheckReport:
    """Recoverability refinement of data processing (Junge, Renner, Sutter,
    Wilde and Winter 2018):

    D(rho || sigma) - D(N(rho) || N(sigma)) >= -log F(rho, (R o N)(rho)),

    with R the integrated recovery map of (sigma, N); supp(rho) must lie in
    supp(sigma).
    """
    rho, sigma = as_matrix(rho), as_matrix(sigma)
    rec = integrated_recovery(sigma, channel)
    out = channel.apply(rho)
    lhs = rel_entropy(rho, sigma).value - rel_entropy(out, channel.apply(sigma)).value
    fid = fidelity(rho, rec.apply(out))
    rhs = -math.log2(max(fid, 1e-300))
    return CheckReport("recovery-fid", lhs, rhs, dims=(rho.shape[0], channel.out_dim))


def check_recovery_stronger(
    rho, sigma, channel: Channel, quad: QuadratureSpec = QuadratureSpec()
) -> CheckReport:
    """The same bound with the average over ``p_weight`` outside the logarithm:

    D(rho || sigma) - D(N(rho) || N(sigma)) >= -int dt p(t) log F(rho, R^{t/2}(N(rho))),

    R^{t/2} the swiveled Petz map of (sigma, N); the integral is the ``quad``
    rule over :func:`swiveled_root_fidelities`.
    """
    rho, sigma = as_matrix(rho), as_matrix(sigma)
    n_rho, n_sigma = channel.apply(rho), channel.apply(sigma)
    lhs = rel_entropy(rho, sigma).value - rel_entropy(n_rho, n_sigma).value
    nodes, weights = quadrature(quad)
    sqrt_fids = swiveled_root_fidelities(rho, sigma, channel, nodes, n_rho, n_sigma)
    acc = float(weights @ np.log2(np.maximum(sqrt_fids**2, 1e-300)))
    return CheckReport("recovery-stronger", lhs, -acc, dims=(rho.shape[0], channel.out_dim))


def _recover_abc(rho: DensityOperator) -> DensityOperator:
    """The A-factor recovery R_{C->AC}(rho_BC) of rho_ABC, factors in the order A, B, C.

    A trace-preserving recovery channel on one factor of a partial trace of a
    checked state gives a state, so it is held without revalidation.
    """
    rho_ac, rho_bc = partial_trace(rho, "B"), partial_trace(rho, "A")
    rec = integrated_recovery(rho_ac.matrix, partial_trace_channel(rho_ac.systems, "A"))
    out = (("A", rho.system_dim("A")), ("C", rho.system_dim("C")))
    mat, out_systems = apply_on(rec, rho_bc.matrix, rho_bc.systems, "C", out_systems=out)
    return permute(_derived(DensityOperator, out_systems, mat), ("A", "B", "C"))


def check_cmi_recovery(rho_abc: DensityOperator) -> CheckReport:
    """Conditional mutual information versus recovery of A from C:

    I(A;B|C) >= -log F(rho_ABC, R_{C->AC}(rho_BC)),

    with R the integrated recovery map of (rho_AC, Tr_A).  The factors are
    labeled A, B and C.
    """
    lhs = cmi(rho_abc, "A", "B", "C")
    fid = fidelity(rho_abc.matrix, _recover_abc(rho_abc).matrix)
    return CheckReport("cmi-recovery", lhs, -math.log2(max(fid, 1e-300)), dims=rho_abc.dims)


# ---------------------------------------------------------------------------
# information gain


def groenewold_gain(instr: Instrument, rho) -> float:
    """Entropy reduction H(rho) - sum_x p(x) H(rho^x).

    Negative values occur only for inefficient instruments; outcomes with
    probability at or below ``PROB_FLOOR`` are dropped from the sum.
    """
    mat = as_matrix(rho)
    return _entropy_reduction(mat, *instr.measure(mat))


def _entropy_reduction(mat: np.ndarray, probs, posts) -> float:
    """H(rho) - sum_x p(x) H(rho^x) from :meth:`Instrument.measure`'s outcomes,
    whose post is ``None`` at or below ``PROB_FLOOR``."""
    reduction = entropy(mat)
    for p, post in zip(probs, posts):
        if post is not None:
            reduction -= p * entropy(post)
    return reduction


def _shannon(probs: np.ndarray) -> float:
    p = probs[probs > PROB_FLOOR]
    return float(-np.sum(p * np.log(p)) * NAT_TO_BITS)


def _reference_instrument_state(instr: Instrument, rho: DensityOperator):
    """Purify rho and run the instrument on its first factor A.

    Returns the purification (factors R, A, rest), outcome probabilities, the
    normalized post-measurement operators on (R, A', rest) (pure for
    efficient instruments), and their reductions on (R, rest).
    """
    phi = purify(rho)
    a_label = rho.labels[0]
    probs, posts = instr.measure(
        phi.projector(), phi.systems, a_label, out_systems=((a_label + "'", instr.out_dim),)
    )
    dims = (phi.reference_dim, instr.out_dim) + rho.dims[1:]
    keep = [i for i in range(len(dims)) if i != 1]
    reduced = [None if post is None else ptrace(post, dims, keep) for post in posts]
    return phi, probs, posts, reduced


def _cq_assemble(weights, blocks, block_dim: int) -> np.ndarray:
    """sum_x w_x block_x (x) |x><x| as one matrix (classical factor last):
    w_x block_x fills the (x, x) slot of a (d, n, d, n) array, and a block
    that is ``None`` (an outcome at or below ``PROB_FLOOR``) leaves it 0."""
    n = len(weights)
    out = np.zeros((block_dim, n, block_dim, n), dtype=complex)
    for x, (w, b) in enumerate(zip(weights, blocks)):
        if b is not None:
            out[:, x, :, x] += w * b
    return out.reshape(block_dim * n, block_dim * n)


def _avg(blocks, weights, dim: int) -> np.ndarray:
    """sum_x w_x block_x over the blocks that are not ``None``."""
    out = np.zeros((dim, dim), dtype=complex)
    for w, b in zip(weights, blocks):
        if b is not None:
            out += w * b
    return out


def check_info_gain_upper(instr: Instrument, rho) -> CheckReport:
    """General information-gain bound, valid for any quantum instrument:

    H(X)_sigma - D(rho || (N^dag o N)(rho)) >= I_G, with N the
    quantum-classical instrument channel.
    """
    mat = as_matrix(rho)
    channel = instrument_channel(instr)
    probs, posts = instr.measure(mat)
    d = rel_entropy(mat, adjoint(channel).apply(channel.apply(mat)))
    h_x = _shannon(probs)
    gain = _entropy_reduction(mat, probs, posts)
    aux = {"h_x": h_x, "d_term": d.value, "groenewold_gain": gain, "efficient": instr.efficient}
    return CheckReport("info-gain-upper", h_x - d.value, gain, dims=(instr.in_dim,), aux=aux)


def check_efficient_second_law(instr: Instrument, rho: DensityOperator) -> CheckReport:
    """Second-law strengthening for efficient instruments:

    H(X|R)_sigma >= D(rho || (R o N)(rho)), with sigma_RX the joint state of
    the classical outcome and the purifying reference, and R the adjoint-based
    recovery of the (subunital) instrument channel.
    """
    if not instr.efficient:
        raise ValueError("check_efficient_second_law requires an efficient instrument")
    phi, probs, _, posts_r = _reference_instrument_state(instr, rho)
    r_dim = phi.reference_dim
    sigma_rx = _cq_assemble(probs, posts_r, r_dim)
    sigma_r = _avg(posts_r, probs, r_dim)
    lhs = entropy(sigma_rx) - entropy(sigma_r)
    channel = instrument_channel(instr)
    rec = adjoint_recovery(channel)
    rhs = rel_entropy(rho.matrix, rec.apply(channel.apply(rho.matrix))).value
    aux = {"outcome_probs_min": float(probs.min()), "n_outcomes": instr.n_outcomes}
    return CheckReport("efficient-second-law", lhs, rhs, dims=(instr.in_dim,), aux=aux)


def check_info_gain_no_qsi(instr: Instrument, rho: DensityOperator) -> CheckReport:
    """Information gain of a measurement versus recoverability (no side info).

    Always checks I(R;X) >= -log F(sigma_RX, sigma_R (x) sigma_X); for
    efficient instruments the bound is rebuilt from per-outcome Uhlmann
    isometries carrying the post-measurement purifications back to the input
    space, and the per-outcome root fidelities are reported.
    """
    phi, probs, posts_ra, posts_r = _reference_instrument_state(instr, rho)
    r_dim = phi.reference_dim
    sigma_rx = _cq_assemble(probs, posts_r, r_dim)
    sigma_r = _avg(posts_r, probs, r_dim)
    h_x = _shannon(probs)
    lhs = entropy(sigma_r) + h_x - entropy(sigma_rx)

    product = _cq_assemble(probs, [None if b is None else sigma_r for b in posts_r], r_dim)
    rhs_direct = -math.log2(fidelity(sigma_rx, product))
    seen = _seen_outcomes(posts_r)
    blocks = np.stack([posts_r[x] for x in seen])
    sqrt_fids = [0.0] * len(probs)
    for x, fid in zip(seen, root_fidelity(blocks, np.broadcast_to(sigma_r, blocks.shape))):
        sqrt_fids[x] = float(fid)
    avg_sqrt = float(np.sum(probs * np.array(sqrt_fids)))
    rhs_direct_sum = -2.0 * math.log2(max(avg_sqrt, 1e-300))

    aux = {
        "rhs_fid_direct": rhs_direct,
        "rhs_fid_direct_sum": rhs_direct_sum,
        "efficient": instr.efficient,
        "per_outcome_sqrt_fid": [float(s) for s in sqrt_fids],
    }
    rhs = rhs_direct
    if instr.efficient:
        a_label = rho.labels[0]
        out_label = a_label + "'"
        phi_sigma = Purification(a_label, phi.systems, phi.vector)
        uhlmann_sqrt = [0.0] * len(probs)
        max_dev = 0.0
        for x, vec in zip(seen, _pure_vectors([posts_ra[x] for x in seen])):
            phi_rho = Purification(out_label, (("R", r_dim), (out_label, instr.out_dim)), vec)
            res = uhlmann_isometry(phi_rho, phi_sigma)
            uhlmann_sqrt[x] = math.sqrt(max(res.achieved, 0.0))
            max_dev = max(max_dev, abs(res.achieved - sqrt_fids[x]**2))
        avg_u = float(np.sum(probs * np.array(uhlmann_sqrt)))
        rhs = -2.0 * math.log2(max(avg_u, 1e-300))
        aux["per_outcome_sqrt_fid_uhlmann"] = [float(s) for s in uhlmann_sqrt]
        aux["uhlmann_vs_fidelity_max_dev"] = max_dev
    return CheckReport("info-gain-no-qsi", lhs, rhs, dims=(instr.in_dim,), aux=aux)


def _seen_outcomes(posts) -> list:
    """Indices of the outcomes that get a post-measurement operator: those of
    probability above ``PROB_FLOOR`` (at least one, as the probabilities sum to 1)."""
    return [x for x, post in enumerate(posts) if post is not None]


def _pure_vectors(densities) -> np.ndarray:
    """sqrt(lam_max) times the top eigenvector of each density operator, for
    rank-one inputs the vector whose projector each one is; one stacked call."""
    spec = eig_hermitian(np.stack(densities))
    top = np.sqrt(np.maximum(spec.eigenvalues[:, -1], 0.0))
    return spec.eigenvectors[:, :, -1] * top[:, None]


def _b_rotated_overlaps(phi: Purification, a_label: str, g: np.ndarray, phi_post: Purification):
    """Uhlmann overlaps of (I_RA (x) g_t)|phi> with ``phi_post`` for every g_t
    of a (T, d_B, d_B) stack, B the last factor of ``phi``.

    With A as the reference, the amplitude matrix of the rotated purification
    is M (I_R (x) g_t)^T, M that of ``phi``; one batched SVD of the overlap
    matrices then gives every ``uhlmann_isometry(...).achieved``.
    """
    m_in = Purification(a_label, phi.systems, phi.vector).amplitude_matrix()
    d_a, d_b = m_in.shape[0], g.shape[-1]
    m_rec = (m_in.reshape(d_a, -1, d_b) @ g.swapaxes(1, 2)[:, None]).reshape(len(g), d_a, -1)
    overlap = m_rec @ phi_post.amplitude_matrix().conj().T
    return np.linalg.svd(overlap, compute_uv=False).sum(axis=-1) ** 2


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
    ||sqrt(omega^x_RB) (I_R (x) g_t) sqrt(omega_RB)||_1 from one stacked SVD.
    The same g_t stack gives the trace-preservation sums
    sum_x p(x) g_t^dag g_t, whose largest deviation from the support
    projector of omega_B is ``recovery_instrument_tp_dev``.  For efficient
    instruments every (node, outcome) fidelity is cross-checked against the
    Uhlmann overlap of the rotated input purification with the
    post-measurement purification, computed apart from the fidelity SVD from
    the purifications' amplitude matrices; the largest gap is
    ``uhlmann_vs_fidelity_max_dev``.  ``low_confidence`` flags a node
    fidelity below 1e-14.
    """
    if len(rho_ab.systems) != 2:
        raise ValueError("check_info_gain_qsi expects a bipartite input state")
    a_label, b_label = rho_ab.labels
    d_b = rho_ab.system_dim(b_label)
    out_label = a_label + "'"
    # purification factors (R, A, B); posts on (R, A', B), reductions on (R, B)
    phi, probs, posts_rab, posts_rb = _reference_instrument_state(instr, rho_ab)
    r_dim = phi.reference_dim

    omega_rb = _avg(posts_rb, probs, r_dim * d_b)
    omega_b = ptrace(omega_rb, (r_dim, d_b), (1,))
    omega_bx = [
        ptrace(block, (r_dim, d_b), (1,)) if block is not None else None for block in posts_rb
    ]

    omega_rbx = _cq_assemble(probs, posts_rb, r_dim * d_b)
    lhs = (
        entropy(omega_rb)
        + entropy(_cq_assemble(probs, omega_bx, d_b))
        - entropy(omega_rbx)
        - entropy(omega_b)
    )

    nodes, weights = quadrature(quad)
    seen = _seen_outcomes(posts_rb)
    # one stacked call each: omega_B with every omega_B^x, omega_RB with every omega^x_RB
    spec_bx = eig_hermitian(np.stack([omega_b] + [omega_bx[x] for x in seen]))
    sqrt_rbx = eig_hermitian(np.stack([omega_rb] + [posts_rb[x] for x in seen])).power(0.5)
    spec_b, sqrt_rb = spec_bx[0], sqrt_rbx[0]
    support_b = spec_b.eigenvectors[:, spec_b.eigenvalues > spec_b.cutoff]
    proj_b = support_b @ support_b.conj().T
    if instr.efficient:
        post_vecs = _pure_vectors([posts_rab[x] for x in seen])

    node_sum = np.zeros(len(nodes))
    tp_acc = np.zeros((len(nodes), d_b, d_b), dtype=complex)
    low_confidence = False
    uhlmann_dev = 0.0
    for j, x in enumerate(seen):
        # g_t = (omega_B^x)^{(1-it)/2} omega_B^{(-1+it)/2} at every node, (T, d_B, d_B)
        g = swiveled_kraus(spec_bx[j + 1], spec_b, (np.eye(d_b),), nodes)
        tp_acc += probs[x] * (g[:, 0].conj().swapaxes(1, 2) @ g[:, 0])
        sqrt_f = stacked_root_fidelity(sqrt_rbx[j + 1], g, sqrt_rb, lead=r_dim)
        f = sqrt_f**2
        low_confidence = low_confidence or bool((f < 1e-14).any())
        node_sum += probs[x] * sqrt_f
        if instr.efficient:
            phi_post = Purification(
                out_label,
                (("R", r_dim), (out_label, instr.out_dim), (b_label, d_b)),
                post_vecs[j],
            )
            achieved = _b_rotated_overlaps(phi, a_label, g[:, 0], phi_post)
            uhlmann_dev = max(uhlmann_dev, float(np.abs(achieved - f).max()))
    min_node_sum = float(node_sum.min())
    tp_dev = float(np.abs(tp_acc - proj_b).max())
    integral = float(weights @ np.log2(np.maximum(node_sum, 1e-300)))
    rhs = -2.0 * integral
    aux = {
        "recovery_instrument_tp_dev": tp_dev,
        "min_node_avg_sqrt_fid": min_node_sum,
        "low_confidence": low_confidence,
        "n_outcomes": instr.n_outcomes,
        "efficient": instr.efficient,
    }
    if instr.efficient:
        aux["uhlmann_vs_fidelity_max_dev"] = uhlmann_dev
    return CheckReport("info-gain-qsi", lhs, rhs, dims=rho_ab.dims, aux=aux)


def check_entropic_disturbance(ens: Ensemble, channel: Channel) -> CheckReport:
    """Holevo-information loss versus average recoverability:

    chi(E) - chi(N(E)) >= -2 log sum_x p(x) sqrtF(rho^x, (R o N)(rho^x)),

    with R the integrated recovery map for the ensemble-average state (the
    block structure of the joint cq problem collapses onto the average).
    """
    avg = ens.average()
    out_systems = ((ens.states[0].labels[0] + "'", channel.out_dim),)
    out = ens.through(channel, out_systems)
    chi_in = holevo_chi(ens)
    chi_out = holevo_chi(out)
    lhs = chi_in - chi_out
    rec = integrated_recovery(avg.matrix, channel)
    recovered = rec.apply(np.stack([state.matrix for state in out.states]))
    sqrt_fids = root_fidelity(np.stack([state.matrix for state in ens.states]), recovered)
    avg_sqrt = float(np.sum(ens.probs * sqrt_fids))
    rhs = -2.0 * math.log2(max(avg_sqrt, 1e-300))
    aux = {"chi_in": chi_in, "chi_out": chi_out, "avg_sqrt_fid": avg_sqrt,
           "min_sqrt_fid": float(sqrt_fids.min())}
    dims = (ens.states[0].dim, channel.out_dim)
    return CheckReport("entropic-disturbance", lhs, rhs, dims=dims, aux=aux)
