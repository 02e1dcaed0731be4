"""Executable verification of the entropy-gain, information-gain, and
entropic-disturbance inequalities, each returning a :class:`CheckReport`.

Conventions: all quantities are in bits; a report's ``lhs`` and ``rhs`` are
arranged so the claim is ``lhs >= rhs`` and ``holds`` means
``lhs - rhs >= -tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .entropy import (
    NAT_TO_BITS,
    cond_entropy,
    entropy,
    fidelity,
    holevo_chi,
    rel_entropy,
    root_fidelity,
)
from .matfun import eig_hermitian
from .qcore import (
    Channel,
    DensityOperator,
    Ensemble,
    Instrument,
    KrausMap,
    Purification,
    _rng,
    adjoint,
    apply_on,
    as_matrix,
    instrument_channel,
    is_subunital,
    ptrace,
    purify,
)
from .recovery import (
    QuadratureSpec,
    adjoint_recovery,
    integrated_recovery,
    quadrature,
    uhlmann_isometry,
)
from .reports import CheckReport

__all__ = [
    "PROB_FLOOR",
    "OptimizerBudget",
    "MinimalEntropyGainResult",
    "check_entropy_gain",
    "check_entropy_gain_recovery",
    "minimal_entropy_gain",
    "check_cond_entropy_gain",
    "groenewold_gain",
    "check_info_gain_upper",
    "check_efficient_second_law",
    "check_info_gain_no_qsi",
    "check_info_gain_qsi",
    "check_entropic_disturbance",
]

PROB_FLOOR = 1e-12


def _require_tp(channel) -> None:
    if isinstance(channel, KrausMap):
        dev = float(np.abs(channel.kraus_gram() - np.eye(channel.in_dim)).max())
    else:  # transfer-matrix map: trace-preserving iff the adjoint fixes I
        eye = np.eye(channel.in_dim)
        dev = float(np.abs(channel.adjoint().apply(eye) - eye).max())
    if dev > 1e-9:
        raise ValueError(f"map is not trace-preserving: max deviation {dev:.3e}")


def _adjoint_compose_apply(channel, x: np.ndarray) -> np.ndarray:
    """(N^dag o N)(x) for Kraus or transfer-matrix maps."""
    return adjoint(channel).apply(channel.apply(x))


def check_entropy_gain(rho, channel, tol: float = 1e-8, seed=None, dims=()) -> CheckReport:
    """Entropy gain bound H(N(rho)) - H(rho) >= D(rho || (N^dag o N)(rho)).

    ``channel`` may be any positive trace-preserving map exposing ``apply``
    and an adjoint; complete positivity is not required.
    """
    _require_tp(channel)
    mat = as_matrix(rho)
    lhs = entropy(channel.apply(mat)) - entropy(mat)
    d = rel_entropy(mat, _adjoint_compose_apply(channel, mat))
    return CheckReport(
        name="entropy-gain",
        lhs=lhs,
        rhs=d.value,
        tol=tol,
        seed=seed,
        dims=dims or (mat.shape[0],),
        aux={"support_violation": d.support_violation},
    )


def check_entropy_gain_recovery(
    rho, channel: Channel, completion_state=None, tol: float = 1e-8, seed=None, dims=()
) -> CheckReport:
    """Entropy gain bound with the adjoint-based recovery channel.

    For subunital N: H(N(rho)) - H(rho) >= D(rho || (R o N)(rho)) with
    R(Y) = N^dag(Y) + Tr{(id - N^dag)(Y)} tau.  The report also carries the
    plain adjoint bound D(rho || (N^dag o N)(rho)), which dominates the
    recovery bound because (R o N)(rho) >= (N^dag o N)(rho).
    """
    _require_tp(channel)
    if not is_subunital(channel, tol=1e-9):
        top = float(np.linalg.eigvalsh(channel.on_identity())[-1])
        raise ValueError(f"channel is not subunital: max eigenvalue of N(I) is {top!r}")
    mat = as_matrix(rho)
    rec = adjoint_recovery(channel, completion_state)
    lhs = entropy(channel.apply(mat)) - entropy(mat)
    rhs = rel_entropy(mat, rec.apply(channel.apply(mat))).value
    rhs_adjoint = rel_entropy(mat, _adjoint_compose_apply(channel, mat)).value
    return CheckReport(
        name="entropy-gain-recovery",
        lhs=lhs,
        rhs=rhs,
        tol=tol,
        seed=seed,
        dims=dims or (mat.shape[0],),
        aux={"rhs_adjoint_only": rhs_adjoint, "dominance_slack": rhs_adjoint - rhs},
    )


@dataclass(frozen=True)
class OptimizerBudget:
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
    converged: bool
    evals: int


def minimal_entropy_gain(
    channel: Channel, budget: OptimizerBudget = OptimizerBudget(), seed=None
) -> MinimalEntropyGainResult:
    """Derivative-free search for inf_rho [H(N(rho)) - H(rho)].

    States are parameterized as rho = L L^dag / Tr{L L^dag} with L a free
    complex matrix; the search runs Nelder-Mead from the maximally mixed state
    plus random restarts.  Starting at the maximally mixed state guarantees
    the returned value is <= 0 for equal input/output dimensions.
    ``converged`` means at least two restarts agreed on the best value within
    1e-6; otherwise the best value found is returned anyway.
    """
    if channel.in_dim != channel.out_dim:
        raise ValueError("minimal_entropy_gain expects equal input and output dimensions")
    d = channel.in_dim
    rng = _rng(seed)

    def to_rho(x: np.ndarray) -> np.ndarray:
        factor = (x[: d * d] + 1j * x[d * d :]).reshape(d, d)
        mat = factor @ factor.conj().T
        tr = float(np.real(np.trace(mat)))
        if tr <= 0 or not np.isfinite(tr):
            return np.eye(d) / d
        return mat / tr

    def objective(x: np.ndarray) -> float:
        mat = to_rho(x)
        return entropy(channel.apply(mat)) - entropy(mat)

    evals = 0
    results = []
    starts = [np.concatenate([np.eye(d).reshape(-1), np.zeros(d * d)])]
    for _ in range(max(0, budget.restarts - 1)):
        starts.append(rng.standard_normal(2 * d * d))
    for x0 in starts[: budget.restarts]:
        res = optimize.minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxfev": budget.max_evals, "xatol": 1e-9, "fatol": 1e-12},
        )
        evals += int(res.nfev)
        results.append((float(res.fun), np.asarray(res.x)))
    best_val, best_x = min(results, key=lambda r: r[0])
    near_best = sum(1 for v, _ in results if v <= best_val + 1e-6)
    lower = math.inf
    for _, x in results:
        mat = to_rho(x)
        lower = min(lower, rel_entropy(mat, _adjoint_compose_apply(channel, mat)).value)
    return MinimalEntropyGainResult(
        value=best_val,
        argmin=to_rho(best_x),
        lower_bound=lower,
        converged=near_best >= 2,
        evals=evals,
    )


def check_cond_entropy_gain(
    rho_ab: DensityOperator, channel: Channel, on: str | None = None, tol: float = 1e-8, seed=None
) -> CheckReport:
    """Conditional-entropy gain under a local map on one factor:

    H(A'|B)_sigma - H(A|B)_rho >= D(rho_AB || ((N^dag o N) (x) id)(rho_AB)).
    """
    _require_tp(channel)
    on = rho_ab.labels[0] if on is None else on
    out_label = on + "'"
    sigma_mat, out_systems = apply_on(
        channel, rho_ab.matrix, rho_ab.systems, on, out_systems=((out_label, channel.out_dim),)
    )
    nn_mat, _ = apply_on(
        adjoint(channel), sigma_mat, out_systems, out_label, out_systems=((on, channel.in_dim),)
    )

    cond_labels = tuple(label for label in rho_ab.labels if label != on)
    sigma = DensityOperator(out_systems, sigma_mat)
    lhs = cond_entropy(sigma, cond_labels) - cond_entropy(rho_ab, cond_labels)
    d = rel_entropy(rho_ab.matrix, nn_mat)
    return CheckReport(
        name="cond-entropy-gain",
        lhs=lhs,
        rhs=d.value,
        tol=tol,
        seed=seed,
        dims=rho_ab.dims,
        aux={"support_violation": d.support_violation},
    )


# ---------------------------------------------------------------------------
# information gain


def _post_measurement(instr: Instrument, rho_mat: np.ndarray):
    """Outcome probabilities and normalized post-measurement matrices."""
    probs, posts = [], []
    for i in range(instr.n_outcomes):
        out = instr.outcome_map(i).apply(rho_mat)
        p = float(np.real(np.trace(out)))
        probs.append(max(p, 0.0))
        posts.append(out / p if p > PROB_FLOOR else None)
    return np.array(probs), posts


def groenewold_gain(instr: Instrument, rho, prob_floor: float = PROB_FLOOR) -> float:
    """Entropy reduction H(rho) - sum_x p(x) H(rho^x).

    Negative values occur only for inefficient instruments; outcomes with
    probability below ``prob_floor`` are dropped from the sum.
    """
    mat = as_matrix(rho)
    probs, posts = _post_measurement(instr, mat)
    reduction = entropy(mat)
    for p, post in zip(probs, posts):
        if p > prob_floor and post is not None:
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
    phi = purify(rho, "R")
    a_label = rho.labels[0]
    proj = phi.projector()
    dims = (phi.reference_dim, instr.out_dim) + rho.dims[1:]
    keep = [i for i in range(len(dims)) if i != 1]
    probs, posts, reduced = [], [], []
    for i in range(instr.n_outcomes):
        out, _ = apply_on(
            instr.outcome_map(i), proj, phi.systems, a_label, out_systems=((a_label + "'", instr.out_dim),)
        )
        p = float(np.real(np.trace(out)))
        probs.append(max(p, 0.0))
        if p > PROB_FLOOR:
            norm = out / p
            posts.append(norm)
            reduced.append(ptrace(norm, dims, keep))
        else:
            posts.append(None)
            reduced.append(None)
    return phi, np.array(probs), posts, reduced


def _cq_assemble(weights, blocks, block_dim: int) -> np.ndarray:
    """sum_x w_x block_x (x) |x><x| as one matrix (classical factor last)."""
    n = len(weights)
    out = np.zeros((block_dim * n, block_dim * n), dtype=complex)
    for x, (w, b) in enumerate(zip(weights, blocks)):
        if b is None or w <= PROB_FLOOR:
            continue
        e = np.zeros((n, n))
        e[x, x] = 1.0
        out += w * np.kron(b, e)
    return out


def _avg(blocks, weights, dim: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=complex)
    for w, b in zip(weights, blocks):
        if b is not None and w > PROB_FLOOR:
            out += w * b
    return out


def check_info_gain_upper(instr: Instrument, rho, tol: float = 1e-8, seed=None) -> CheckReport:
    """General information-gain bound, valid for any quantum instrument:

    H(X)_sigma - D(rho || (N^dag o N)(rho)) >= I_G, with N the
    quantum-classical instrument channel.
    """
    mat = as_matrix(rho)
    channel = instrument_channel(instr)
    probs = instr.outcome_probabilities(mat)
    d = rel_entropy(mat, _adjoint_compose_apply(channel, mat))
    h_x = _shannon(probs)
    gain = groenewold_gain(instr, mat)
    return CheckReport(
        name="info-gain-upper",
        lhs=h_x - d.value,
        rhs=gain,
        tol=tol,
        seed=seed,
        dims=(instr.in_dim,),
        aux={"h_x": h_x, "d_term": d.value, "groenewold_gain": gain, "efficient": instr.efficient},
    )


def check_efficient_second_law(
    instr: Instrument, rho: DensityOperator, completion_state=None, tol: float = 1e-8, seed=None
) -> CheckReport:
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
    rec = adjoint_recovery(channel, completion_state)
    rhs = rel_entropy(rho.matrix, rec.apply(channel.apply(rho.matrix))).value
    return CheckReport(
        name="efficient-second-law",
        lhs=lhs,
        rhs=rhs,
        tol=tol,
        seed=seed,
        dims=(instr.in_dim,),
        aux={"outcome_probs_min": float(probs.min()), "n_outcomes": instr.n_outcomes},
    )


def check_info_gain_no_qsi(
    instr: Instrument, rho: DensityOperator, tol: float = 1e-8, seed=None
) -> CheckReport:
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

    product = _cq_assemble(probs, [sigma_r] * len(probs), r_dim)
    rhs_direct = -math.log2(fidelity(sigma_rx, product))
    sqrt_fids = [
        root_fidelity(block, sigma_r) if (p > PROB_FLOOR and block is not None) else 0.0
        for p, block in zip(probs, posts_r)
    ]
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
        uhlmann_sqrt = []
        max_dev = 0.0
        for p, post, block_r in zip(probs, posts_ra, posts_r):
            if p <= PROB_FLOOR or post is None:
                uhlmann_sqrt.append(0.0)
                continue
            vec = _pure_vector(post)
            phi_rho = Purification(out_label, (("R", r_dim), (out_label, instr.out_dim)), vec)
            res = uhlmann_isometry(phi_rho, phi_sigma)
            uhlmann_sqrt.append(math.sqrt(max(res.achieved, 0.0)))
            max_dev = max(max_dev, abs(res.achieved - fidelity(block_r, sigma_r)))
        avg_u = float(np.sum(probs * np.array(uhlmann_sqrt)))
        rhs = -2.0 * math.log2(max(avg_u, 1e-300))
        aux["per_outcome_sqrt_fid_uhlmann"] = [float(s) for s in uhlmann_sqrt]
        aux["uhlmann_vs_fidelity_max_dev"] = max_dev
    return CheckReport(
        name="info-gain-no-qsi",
        lhs=lhs,
        rhs=rhs,
        tol=tol,
        seed=seed,
        dims=(instr.in_dim,),
        aux=aux,
    )


def _pure_vector(density: np.ndarray) -> np.ndarray:
    spec = eig_hermitian(density)
    return spec.eigenvectors[:, -1] * math.sqrt(max(float(spec.eigenvalues[-1]), 0.0))


def check_info_gain_qsi(
    instr: Instrument,
    rho_ab: DensityOperator,
    quad: QuadratureSpec = QuadratureSpec(),
    tol: float = 1e-5,
    seed=None,
) -> CheckReport:
    """Information gain with quantum side information versus B-side recovery.

    Builds omega_RBX from a purification of rho_AB, measures the first factor,
    and checks

        I(R;X|B) >= -2 sum_t w_t log[ sum_x p(x) sqrtF(omega^x_RB,
                                        R_B^{x,t/2}(omega_RB)) ],

    where {p(x) R_B^{x,t/2}} is the B-side recovery instrument built from
    modular powers of omega_B^x and omega_B.  The report records how far that
    family is from summing to a trace-preserving map, and for efficient
    instruments the per-node Uhlmann-achieved fidelities are cross-checked.
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
    spec_b = eig_hermitian(omega_b)
    support_b = spec_b.eigenvectors[:, spec_b.eigenvalues > spec_b.cutoff]
    proj_b = support_b @ support_b.conj().T
    spectra_x = [eig_hermitian(block) if block is not None else None for block in omega_bx]

    rb_systems = (("R", r_dim), (b_label, d_b))
    integral = 0.0
    tp_dev = 0.0
    low_confidence = False
    min_node_sum = math.inf
    uhlmann_dev = 0.0
    for t_node, w in zip(nodes, weights):
        right = spec_b.power((-1.0 + 1j * t_node) / 2.0)
        tp_acc = np.zeros((d_b, d_b), dtype=complex)
        node_sum = 0.0
        for x in range(instr.n_outcomes):
            if probs[x] <= PROB_FLOOR or posts_rb[x] is None:
                continue
            left = spectra_x[x].power((1.0 - 1j * t_node) / 2.0)
            g = left @ right
            tp_acc += probs[x] * (g.conj().T @ g)
            recovered, _ = apply_on(KrausMap((g,)), omega_rb, rb_systems, b_label)
            f = fidelity(posts_rb[x], recovered)
            if f < 1e-14:
                low_confidence = True
            node_sum += probs[x] * math.sqrt(max(f, 0.0))
            if instr.efficient:
                # g on B, the last factor of the purification (R, A, B)
                phi_rec = Purification(a_label, phi.systems, (phi.vector.reshape(-1, d_b) @ g.T).reshape(-1))
                phi_post = Purification(
                    out_label,
                    (("R", r_dim), (out_label, instr.out_dim), (b_label, d_b)),
                    _pure_vector(posts_rab[x]),
                )
                res = uhlmann_isometry(phi_rec, phi_post)
                uhlmann_dev = max(uhlmann_dev, abs(res.achieved - f))
        min_node_sum = min(min_node_sum, node_sum)
        tp_dev = max(tp_dev, float(np.abs(tp_acc - proj_b).max()))
        integral += w * math.log2(max(node_sum, 1e-300))
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
    return CheckReport(
        name="info-gain-qsi",
        lhs=lhs,
        rhs=rhs,
        tol=tol,
        seed=seed,
        dims=rho_ab.dims,
        aux=aux,
    )


def check_entropic_disturbance(
    ens: Ensemble,
    channel: Channel,
    completion_state=None,
    tol: float = 1e-6,
    seed=None,
) -> CheckReport:
    """Holevo-information loss versus average recoverability:

    chi(E) - chi(N(E)) >= -2 log sum_x p(x) sqrtF(rho^x, (R o N)(rho^x)),

    with R the integrated recovery map for the ensemble-average state (the
    block structure of the joint cq problem collapses onto the average).
    """
    avg = ens.average()
    out_systems = ((ens.states[0].labels[0] + "'", channel.out_dim),)
    chi_in = holevo_chi(ens)
    chi_out = holevo_chi(ens.through(channel, out_systems))
    lhs = chi_in - chi_out
    rec = integrated_recovery(avg.matrix, channel, completion_state)
    sqrt_fids = [
        root_fidelity(state.matrix, rec.apply(channel.apply(state.matrix)))
        for state in ens.states
    ]
    avg_sqrt = float(np.sum(ens.probs * np.array(sqrt_fids)))
    rhs = -2.0 * math.log2(max(avg_sqrt, 1e-300))
    return CheckReport(
        name="entropic-disturbance",
        lhs=lhs,
        rhs=rhs,
        tol=tol,
        seed=seed,
        dims=(ens.states[0].dim, channel.out_dim),
        aux={
            "chi_in": chi_in,
            "chi_out": chi_out,
            "avg_sqrt_fid": avg_sqrt,
            "min_sqrt_fid": float(min(sqrt_fids)),
        },
    )
