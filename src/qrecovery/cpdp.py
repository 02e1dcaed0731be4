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
        self._hold(self.matrix, self.in_dims, self.out_dims)
        self._validate()

    def _hold(self, matrix, in_dims, out_dims) -> None:
        mat = np.array(matrix, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "in_dims", tuple(int(d) for d in in_dims))
        object.__setattr__(self, "out_dims", tuple(int(d) for d in out_dims))

    def _validate(self) -> None:
        mat = self.matrix
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


def _check_dims(configs, interactions) -> None:
    """Each V must take its configuration's (Q, E), and every pair must have
    the first pair's dimensions, which the stacked forms read from it."""
    dims, out_dims = configs[0].dims, interactions[0].out_dims
    for config, v in zip(configs, interactions):
        if v.in_dims != config.dims[1:]:
            raise DimensionMismatchError("interaction input dims do not match the configuration")
        if config.dims != dims or v.out_dims != out_dims:
            raise DimensionMismatchError("a stack of configurations and interactions must share dimensions")


def dp_slack(config: TripartiteConfiguration, v: Interaction) -> float:
    """I(R;Q')_sigma - I(R;Q)_rho; may take either sign for correlated environments."""
    return float(_dp_slacks([config], [v])[0])


def _dp_slacks(configs, interactions) -> np.ndarray:
    """:func:`dp_slack` of each (configuration, V) of two lists of one shape."""
    _check_dims(configs, interactions)
    state = np.stack([c.state.matrix for c in configs])
    d_r, d_q, d_e = configs[0].dims
    q_out, e_out = interactions[0].out_dims
    sigma = _evolved(state, np.stack([v.matrix for v in interactions]), d_r)
    i_out = _mutual_info(ptrace(sigma, (d_r, q_out, e_out), (0, 1)), (d_r, q_out), (0,), (1,))
    return i_out - _mutual_info(ptrace(state, (d_r, d_q, d_e), (0, 1)), (d_r, d_q), (0,), (1,))


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
    return _reduced_dynamics_stack([config], [v])[0]


def _reduced_dynamics_stack(configs, interactions) -> list:
    """:func:`reduced_dynamics` for each (configuration, V) of two lists of
    one shape.  The recoveries differ in Kraus count, and the candidate acts
    on Q through :func:`~qrecovery.qcore.apply_on`'s product, which adds
    the Kraus terms by ``sum``; so it is built per group of equal counts."""
    _check_dims(configs, interactions)
    state = np.stack([c.state.matrix for c in configs])
    vs = np.stack([v.matrix for v in interactions])
    dims = configs[0].dims
    d_r, d_q, d_e = dims
    q_out, e_out = interactions[0].out_dims
    # integrated recovery Q -> QE of each (Q, E) marginal
    rho_qe = ptrace(state, dims, (1, 2))
    trace_e = partial_trace_channel((("Q", d_q), ("E", d_e)), "E").stack
    trace_e = np.broadcast_to(trace_e, (len(state),) + trace_e.shape)
    recs = _integrated_recovery_stack(rho_qe, trace_e, _apply_kraus(trace_e, rho_qe))
    trace_eprime = partial_trace_channel((("Q'", q_out), ("E'", e_out)), "E'").stack

    sigma_rqp = ptrace(_evolved(state, vs, d_r), (d_r, q_out, e_out), (0, 1))
    rho_rq = ptrace(state, dims, (0, 1))

    def group(idx):
        # compose(trace_E', compose(V, R)), as compose orders the Kraus products
        inner = vs[idx, None, None] @ np.stack([recs[i] for i in idx])[:, None]
        ks = (trace_eprime[None, :, None] @ inner).reshape(len(idx), -1, q_out, d_q)
        return list(zip(ks, _apply_block(ks, rho_rq[idx], d_r, 1)))

    built = _grouped([len(k) for k in recs], group)
    candidates = np.stack([c for _, c in built])
    sqrt_fids = root_fidelity(sigma_rqp, candidates)
    lhs = _cmi_stack(state, dims, (0,), (2,), (1,))  # I(R;E|Q)
    results = []
    for i, config in enumerate(configs):
        fid = float(sqrt_fids[i]) ** 2
        channel = _derived(Channel, built[i][0])
        aux = {"fidelity": fid, "channel_kraus": len(channel.kraus)}
        report = CheckReport("cpdp-forward", lhs[i], -math.log2(max(fid, 1e-300)), dims=dims, aux=aux)
        results.append(ForwardResult(
            channel, report, config,
            _derived(DensityOperator, (("R", d_r), ("Q'", q_out)), sigma_rqp[i]),
            _derived(DensityOperator, config.state.systems[:2], rho_rq[i]),
            built[i][1], _derived(Channel, recs[i]),
        ))
    return results


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
    return _converse_stack([forward], candidate[None], eps)[0]


def _converse_stack(forwards, candidates: np.ndarray, eps: float) -> list:
    """:func:`converse_bound` for each forward result of a list of one shape
    with its candidate output from a (N, D, D) stack."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps!r}")
    d_r, d_q, d_e = forwards[0].config.dims
    sigma_rqp = np.stack([f.sigma_rqp.matrix for f in forwards])
    rho_rq = np.stack([f.rho_rq.matrix for f in forwards])
    state = np.stack([f.config.state.matrix for f in forwards])
    eps_measured = 0.5 * trace_norm(sigma_rqp - candidates)
    i_out = _mutual_info(sigma_rqp, (d_r, sigma_rqp.shape[-1] // d_r), (0,), (1,))
    i_in = _mutual_info(rho_rq, (d_r, d_q), (0,), (1,))
    # embedding evolution: its recovery candidate controls I(R;E|Q); the
    # recoveries differ in Kraus count, which apply_on's product adds by sum
    recovered = np.stack(_grouped(
        [len(f.recovery.kraus) for f in forwards],
        lambda idx: _apply_block(
            np.stack([forwards[i].recovery.stack for i in idx]), rho_rq[idx], d_r, 1),
    ))
    eps_embed = 0.5 * trace_norm(state - recovered)
    reports = []
    for i, forward in enumerate(forwards):
        measured, embed = float(eps_measured[i]), float(eps_embed[i])
        lhs_dp = float(i_in[i]) + afw_bound(measured, d_r)
        cmi_val = forward.report.lhs
        cmi_budget = afw_bound(embed, d_r)
        reports.append(CheckReport(
            name="cpdp-converse",
            lhs=min(lhs_dp - float(i_out[i]), cmi_budget - cmi_val),
            rhs=0.0,
            dims=forward.config.dims,
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
    return reports
