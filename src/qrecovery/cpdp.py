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

import numpy as np

from .entropy import binary_entropy, fidelity, mutual_info, cmi, trace_distance
from .matfun import _require_finite
from .qcore import (
    Channel,
    DensityOperator,
    DimensionMismatchError,
    KrausMap,
    _derived,
    apply_on,
    compose,
    partial_trace,
    partial_trace_channel,
)
from .recovery import integrated_recovery
from .reports import CheckReport

__all__ = [
    "TripartiteConfiguration",
    "Interaction",
    "identity_embedding",
    "dp_slack",
    "cmi_bound",
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
        _require_finite(mat, "interaction")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "in_dims", tuple(int(d) for d in self.in_dims))
        object.__setattr__(self, "out_dims", tuple(int(d) for d in self.out_dims))
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


def _evolved(config: TripartiteConfiguration, v: Interaction) -> DensityOperator:
    """sigma_RQ'E' = (I_R (x) V) rho_RQE (I_R (x) V)^dag.

    A checked isometry applied to a checked state gives a state, so it is
    held without revalidation.
    """
    if v.in_dims != config.dims[1:]:
        raise DimensionMismatchError("interaction input dims do not match the configuration")
    mat, out_systems = apply_on(
        KrausMap((v.matrix,)),
        config.state.matrix,
        config.state.systems,
        ("Q", "E"),
        out_systems=(("Q'", v.out_dims[0]), ("E'", v.out_dims[1])),
    )
    return _derived(DensityOperator, out_systems, mat)


def dp_slack(config: TripartiteConfiguration, v: Interaction) -> float:
    """I(R;Q')_sigma - I(R;Q)_rho; may take either sign for correlated environments."""
    sigma = _evolved(config, v)
    i_out = mutual_info(partial_trace(sigma, "E'"), "R", "Q'")
    i_in = mutual_info(config.marginal(("R", "Q")), "R", "Q")
    return i_out - i_in


def cmi_bound(config: TripartiteConfiguration) -> float:
    """I(R;E|Q), the data-processing slack of the embedding evolution Q' = QE."""
    return cmi(config.state, "R", "E", "Q")


def _recovery_q_to_qe(config: TripartiteConfiguration) -> Channel:
    """Integrated recovery map Q -> QE built from the (Q, E) marginal."""
    rho_qe = config.marginal(("Q", "E"))
    trace_e = partial_trace_channel(rho_qe.systems, "E")
    return integrated_recovery(rho_qe.matrix, trace_e)


def reduced_dynamics(config: TripartiteConfiguration, v: Interaction):
    """CPTP candidate for the reduced dynamics plus its fidelity certificate.

    Builds E(.) = Tr_{E'}{ V R_{Q->QE}(.) V^dag } with R the integrated
    recovery of the (Q, E) marginal, and checks

        I(R;E|Q)_rho >= -log F(sigma_RQ', E(rho_RQ)).

    Returns ``(channel, report)``.
    """
    rec = _recovery_q_to_qe(config)
    v_out_systems = (("Q'", v.out_dims[0]), ("E'", v.out_dims[1]))
    trace_eprime = partial_trace_channel(v_out_systems, "E'")
    channel = compose(trace_eprime, compose(Channel((v.matrix,)), rec))

    sigma = _evolved(config, v)
    sigma_rqp = partial_trace(sigma, "E'")
    rho_rq = config.marginal(("R", "Q"))
    candidate, _ = apply_on(
        channel, rho_rq.matrix, rho_rq.systems, "Q", out_systems=(("Q'", v.out_dims[0]),)
    )
    fid = fidelity(sigma_rqp.matrix, candidate)
    lhs = cmi_bound(config)
    rhs = -math.log2(max(fid, 1e-300))
    aux = {"fidelity": fid, "channel_kraus": len(channel.kraus)}
    return channel, CheckReport("cpdp-forward", lhs, rhs, dims=config.dims, aux=aux)


def afw_bound(eps: float, dim_r: int) -> float:
    """Alicki-Fannes-Winter continuity term 2 eps log2|R| + (1+eps) h2(eps/(1+eps))."""
    if eps <= 0.0:
        return 0.0
    return 2.0 * eps * math.log2(dim_r) + (1.0 + eps) * binary_entropy(eps / (1.0 + eps))


def converse_bound(
    config: TripartiteConfiguration, v: Interaction, channel, eps: float
) -> CheckReport:
    """Approximate data processing from approximately CPTP reduced dynamics.

    Given a CPTP candidate E with (1/2)||sigma_RQ' - E(rho_RQ)||_1 <= eps,
    verifies I(R;Q')_sigma <= I(R;Q)_rho + AFW(eps_measured), and bounds
    I(R;E|Q)_rho by AFW of the embedding evolution's own measured distance
    (the per-V distance does not control the conditional mutual information;
    the embedding Q' = QE is the evolution the converse argument uses).

    The report is marked vacuous when the measured distance exceeds ``eps``.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps!r}")
    d_r, d_q, d_e = config.dims
    sigma = _evolved(config, v)
    sigma_rqp = partial_trace(sigma, "E'")
    rho_rq = config.marginal(("R", "Q"))
    if isinstance(channel, KrausMap):
        candidate, _ = apply_on(
            channel, rho_rq.matrix, rho_rq.systems, "Q", out_systems=(("Q'", channel.out_dim),)
        )
    else:
        raise TypeError("converse_bound requires a Kraus-form channel")
    eps_measured = 0.5 * trace_distance(sigma_rqp.matrix, candidate)
    vacuous = eps_measured > eps + 1e-12

    i_out = mutual_info(sigma_rqp, "R", "Q'")
    i_in = mutual_info(rho_rq, "R", "Q")
    lhs_dp = i_in + afw_bound(eps_measured, d_r)

    # embedding evolution: its recovery candidate controls I(R;E|Q)
    rec = _recovery_q_to_qe(config)
    recovered, _ = apply_on(
        rec, rho_rq.matrix, rho_rq.systems, "Q", out_systems=(("Q", d_q), ("E", d_e))
    )
    eps_embed = 0.5 * trace_distance(config.state.matrix, recovered)
    cmi_val = cmi_bound(config)
    cmi_budget = afw_bound(eps_embed, d_r)

    return CheckReport(
        name="cpdp-converse",
        lhs=min(lhs_dp - i_out, cmi_budget - cmi_val),
        rhs=0.0,
        dims=config.dims,
        aux={
            "eps_given": eps,
            "eps_measured": eps_measured,
            "vacuous": vacuous,
            "dp_lhs_mutual_info": i_out,
            "dp_budget": lhs_dp,
            "cmi": cmi_val,
            "eps_embedding": eps_embed,
            "cmi_budget": cmi_budget,
        },
    )
