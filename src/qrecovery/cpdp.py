"""System-environment configurations, approximate data processing, and
approximate complete positivity of reduced dynamics (both directions).

A configuration is one tripartite state over a reference R, a system Q, and an
environment E.  The forward pipeline builds the recovery map Q -> QE from the
(Q, E) marginal, conjugates by the interaction isometry, and discards the
output environment, producing a CPTP candidate for the reduced dynamics whose
recovery fidelity is controlled by I(R;E|Q).  The converse direction bounds
the data-processing violation of any candidate via the
Alicki-Fannes-Winter inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .entropy import _cmi_stack, _mutual_info, binary_entropy, root_fidelity, trace_norm
from .matfun import _require_finite
from .qcore import (
    Channel,
    DensityOperator,
    DimensionMismatchError,
    KrausMap,
    _apply_block,
    _apply_kraus,
    _apply_ragged,
    _derived,
    _grouped,
    apply_on,
    partial_trace,
    partial_trace_channel,
    ptrace,
)
from .recovery import _integrated_recovery_stack
from .reports import CheckReport

__all__ = [
    "TripartiteConfiguration",
    "Interaction",
    "identity_embedding",
    "dp_slack",
    "cmi_bound",
    "ForwardResult",
    "reduced_dynamics",
    "converse_bound",
    "afw_bound",
]


@dataclass(frozen=True)
class TripartiteConfiguration:
    """One tripartite state over the reference R, the system Q and the
    environment E, its factors in that order."""

    state: DensityOperator

    def __post_init__(self):
        if self.state.labels != ("R", "Q", "E"):
            raise ValueError(
                f"state factors {self.state.labels!r} must be ordered ('R', 'Q', 'E')"
            )

    @property
    def dims(self):
        return self.state.dims

    def marginal(self, labels) -> DensityOperator:
        drop = tuple(l for l in self.state.labels if l not in labels)
        return partial_trace(self.state, drop)


@dataclass(frozen=True)
class Interaction:
    """Isometry V: QE -> Q'E' with explicit output dimensions."""

    matrix: np.ndarray
    in_dims: tuple  # (dim_Q, dim_E)
    out_dims: tuple  # (dim_Q', dim_E')

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "in_dims", tuple(int(d) for d in self.in_dims))
        object.__setattr__(self, "out_dims", tuple(int(d) for d in self.out_dims))
        _require_finite(mat, "interaction")
        d_in = self.in_dims[0] * self.in_dims[1]
        d_out = self.out_dims[0] * self.out_dims[1]
        if mat.shape != (d_out, d_in):
            raise DimensionMismatchError(
                f"isometry shape {mat.shape} does not match dims {self.in_dims}->{self.out_dims}"
            )
        defect = float(np.abs(mat.conj().T @ mat - np.eye(d_in)).max())
        if defect > 1e-10:
            raise ValueError(f"V is not an isometry: max |V^dag V - I| = {defect:.3e}")


def identity_embedding(dim_q: int, dim_e: int) -> Interaction:
    """The special evolution Q' = QE with a trivial output environment."""
    d = dim_q * dim_e
    return Interaction(np.eye(d), (dim_q, dim_e), (d, 1))


def _evolved(state: np.ndarray, vs: np.ndarray, d_r: int) -> np.ndarray:
    """sigma_RQ'E' = (I_R (x) V) rho_RQE (I_R (x) V)^dag for each state of a
    (N, D, D) stack and isometry of a (N, d_out, d_in) stack."""
    return _apply_block(vs[:, None], state, d_r, 1)


def _check_dims(config: TripartiteConfiguration, v: Interaction) -> None:
    if v.in_dims != config.dims[1:]:
        raise DimensionMismatchError("interaction input dims do not match the configuration")


def dp_slack(config: TripartiteConfiguration, v: Interaction) -> float:
    """I(R;Q')_sigma - I(R;Q)_rho; may take either sign for correlated environments."""
    _check_dims(config, v)
    return float(_dp_slacks(config.state.matrix[None], v.matrix[None], config.dims, v.out_dims)[0])


def _dp_slacks(state: np.ndarray, vs: np.ndarray, dims: tuple, out_dims: tuple) -> np.ndarray:
    """:func:`dp_slack` for each state of a (N, D, D) stack on factors R, Q, E
    of sizes ``dims`` and each V: QE -> Q'E' of a (N, d_out, d_in) stack,
    Q'E' of sizes ``out_dims``."""
    d_r, d_q, d_e = dims
    q_out, e_out = out_dims
    sigma = _evolved(state, vs, d_r)
    i_out = _mutual_info(ptrace(sigma, (d_r, q_out, e_out), (0, 1)), (d_r, q_out), (0,), (1,))
    return i_out - _mutual_info(ptrace(state, dims, (0, 1)), (d_r, d_q), (0,), (1,))


def cmi_bound(config: TripartiteConfiguration) -> float:
    """I(R;E|Q), the data-processing slack of the embedding evolution Q' = QE."""
    return float(_cmi_stack(config.state.matrix[None], config.dims, (0,), (2,), (1,))[0])


class ForwardResult(NamedTuple):
    """What :func:`reduced_dynamics` derives for one (configuration, V): the
    candidate E and its report (lhs I(R;E|Q)_rho), and the states and the
    Q -> QE recovery that :func:`converse_bound` reuses."""

    channel: Channel
    report: CheckReport
    config: TripartiteConfiguration
    sigma_rqp: DensityOperator  # sigma_RQ'
    rho_rq: DensityOperator
    candidate: np.ndarray  # E(rho_RQ)
    recovery: Channel  # R_{Q->QE}


def reduced_dynamics(config: TripartiteConfiguration, v: Interaction) -> ForwardResult:
    """CPTP candidate for the reduced dynamics plus its fidelity certificate.

    Builds E(.) = Tr_{E'}{ V R_{Q->QE}(.) V^dag } with R the integrated
    recovery of the (Q, E) marginal, and checks

        I(R;E|Q)_rho >= -log F(sigma_RQ', E(rho_RQ)).
    """
    _check_dims(config, v)
    kraus, reports, candidates, sigma_rqp, rho_rq, recs = _reduced_dynamics_stack(
        config.state.matrix[None], v.matrix[None], config.dims, v.out_dims)
    return ForwardResult(
        _derived(Channel, kraus[0]), reports[0], config,
        _derived(DensityOperator, (("R", config.dims[0]), ("Q'", v.out_dims[0])), sigma_rqp[0]),
        _derived(DensityOperator, config.state.systems[:2], rho_rq[0]),
        candidates[0], _derived(Channel, recs[0]),
    )


def _reduced_dynamics_stack(state: np.ndarray, vs: np.ndarray, dims: tuple, out_dims: tuple):
    """:func:`reduced_dynamics` for each state of a (N, D, D) stack on factors
    R, Q, E of sizes ``dims`` and each V: QE -> Q'E' of a (N, d_out, d_in)
    stack, Q'E' of sizes ``out_dims``.

    Returns the list of each candidate's (K_i, q_out, d_q) Kraus operators,
    the list of reports, the (N, ., .) stacks of candidate outputs E(rho_RQ),
    of sigma_RQ' and of rho_RQ, and the list of each Q -> QE recovery's
    Kraus operators.  The recoveries differ in Kraus count, so the
    candidates are composed per group of equal counts.
    """
    d_r, d_q, d_e = dims
    q_out, e_out = out_dims
    # integrated recovery Q -> QE of each (Q, E) marginal
    rho_qe = ptrace(state, dims, (1, 2))
    trace_e = partial_trace_channel((("Q", d_q), ("E", d_e)), "E").stack
    trace_e = np.broadcast_to(trace_e, (len(state),) + trace_e.shape)
    recs = _integrated_recovery_stack(rho_qe, trace_e, _apply_kraus(trace_e, rho_qe))
    trace_eprime = partial_trace_channel((("Q'", q_out), ("E'", e_out)), "E'").stack

    sigma_rqp = ptrace(_evolved(state, vs, d_r), (d_r, q_out, e_out), (0, 1))
    rho_rq = ptrace(state, dims, (0, 1))

    def composed(idx):
        # compose(trace_E', compose(V, R)), as compose orders the Kraus products
        inner = vs[idx, None, None] @ np.stack([recs[i] for i in idx])[:, None]
        return list((trace_eprime[None, :, None] @ inner).reshape(len(idx), -1, q_out, d_q))

    kraus = _grouped([len(k) for k in recs], composed)
    candidates = _apply_ragged(kraus, rho_rq, d_r, 1)
    sqrt_fids = root_fidelity(sigma_rqp, candidates)
    lhs = _cmi_stack(state, dims, (0,), (2,), (1,))  # I(R;E|Q)
    reports = []
    for i, ks in enumerate(kraus):
        fid = float(sqrt_fids[i]) ** 2
        aux = {"fidelity": fid, "channel_kraus": len(ks)}
        rhs = -math.log2(max(fid, 1e-300))
        reports.append(CheckReport("cpdp-forward", lhs[i], rhs, dims=dims, aux=aux))
    return kraus, reports, candidates, sigma_rqp, rho_rq, recs


def afw_bound(eps: float, dim_r: int) -> float:
    """Alicki-Fannes-Winter continuity term 2 eps log2|R| + (1+eps) h2(eps/(1+eps))."""
    if eps <= 0.0:
        return 0.0
    return 2.0 * eps * math.log2(dim_r) + (1.0 + eps) * binary_entropy(eps / (1.0 + eps))


def converse_bound(forward: ForwardResult, eps: float, channel=None) -> CheckReport:
    """Approximate data processing from approximately CPTP reduced dynamics.

    Given a CPTP candidate E with (1/2)||sigma_RQ' - E(rho_RQ)||_1 <= eps,
    verifies I(R;Q')_sigma <= I(R;Q)_rho + AFW(eps_measured), and bounds
    I(R;E|Q)_rho by AFW of the embedding evolution's own measured distance
    (the per-V distance does not control the conditional mutual information;
    the embedding Q' = QE is the evolution the converse argument uses).

    ``forward`` is :func:`reduced_dynamics`' result for the configuration and
    V, whose states, recovery and I(R;E|Q) are used as they are; E is its
    candidate unless another Kraus-form ``channel`` is given.

    The report is marked vacuous when the measured distance exceeds ``eps``.
    """
    if channel is None:
        candidate = forward.candidate
    elif isinstance(channel, KrausMap):
        rho_rq = forward.rho_rq
        candidate, _ = apply_on(
            channel, rho_rq.matrix, rho_rq.systems, "Q", out_systems=(("Q'", channel.out_dim),)
        )
    else:
        raise TypeError("converse_bound requires a Kraus-form channel")
    config = forward.config
    return _converse_stack(
        config.state.matrix[None], config.dims, [forward.report], candidate[None],
        forward.sigma_rqp.matrix[None], forward.rho_rq.matrix[None], [forward.recovery.stack], eps,
    )[0]


def _converse_stack(state: np.ndarray, dims: tuple, reports, candidates: np.ndarray,
                    sigma_rqp: np.ndarray, rho_rq: np.ndarray, recs, eps: float) -> list:
    """:func:`converse_bound` for each state of a (N, D, D) stack on factors
    R, Q, E of sizes ``dims``, given what :func:`_reduced_dynamics_stack`
    returns for the stack (the forward reports, sigma_RQ', rho_RQ and the
    Q -> QE recoveries) and each state's candidate output E(rho_RQ) from a
    (N, ., .) stack."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps!r}")
    d_r, d_q, d_e = dims
    eps_measured = 0.5 * trace_norm(sigma_rqp - candidates)
    i_out = _mutual_info(sigma_rqp, (d_r, sigma_rqp.shape[-1] // d_r), (0,), (1,))
    i_in = _mutual_info(rho_rq, (d_r, d_q), (0,), (1,))
    # embedding evolution: its recovery candidate controls I(R;E|Q)
    eps_embed = 0.5 * trace_norm(state - _apply_ragged(recs, rho_rq, d_r, 1))
    out = []
    for i, rep in enumerate(reports):
        measured, embed = float(eps_measured[i]), float(eps_embed[i])
        lhs_dp = float(i_in[i]) + afw_bound(measured, d_r)
        cmi_val = rep.lhs
        cmi_budget = afw_bound(embed, d_r)
        out.append(CheckReport(
            name="cpdp-converse",
            lhs=min(lhs_dp - float(i_out[i]), cmi_budget - cmi_val),
            rhs=0.0,
            dims=dims,
            aux={
                "eps_given": eps,
                "eps_measured": measured,
                "vacuous": measured > eps + 1e-12,
                "dp_lhs_mutual_info": float(i_out[i]),
                "dp_budget": lhs_dp,
                "cmi": cmi_val,
                "eps_embedding": embed,
                "cmi_budget": cmi_budget,
            },
        ))
    return out
