"""Numerical toolkit and verification harness for quantum recovery maps,
entropy/information-gain inequalities, and approximate complete positivity."""

from .matfun import (
    MatrixDomainError,
    NonFiniteError,
    NonHermitianError,
    Spectrum,
    complex_power,
    eig_hermitian,
)
from .qcore import (
    Channel,
    DensityOperator,
    Ensemble,
    Instrument,
    KrausMap,
    Purification,
    TransferMap,
    adjoint,
    compose,
    instrument_channel,
    partial_trace,
    permute,
    purify,
    random_channel,
    random_density,
    random_instrument,
    random_unitary,
    stream,
)
from .entropy import (
    RelEntropyResult,
    binary_entropy,
    cmi,
    cond_entropy,
    entropy,
    fidelity,
    holevo_chi,
    mutual_info,
    rel_entropy,
    root_fidelity,
    trace_distance,
)
from .recovery import (
    QuadratureSpec,
    UhlmannResult,
    adjoint_recovery,
    integrated_recovery,
    p_weight,
    petz_map,
    quadrature,
    rotated_petz,
    uhlmann_isometry,
)
from .reports import CheckReport
from .theorems import (
    MinimalEntropyGainResult,
    OptimizerBudget,
    check_cmi_recovery,
    check_cond_entropy_gain,
    check_efficient_second_law,
    check_entropic_disturbance,
    check_entropy_gain,
    check_entropy_gain_recovery,
    check_info_gain_no_qsi,
    check_info_gain_qsi,
    check_info_gain_upper,
    check_recovery_fid,
    check_recovery_stronger,
    groenewold_gain,
    minimal_entropy_gain,
)
from .cpdp import (
    Interaction,
    TripartiteConfiguration,
    cmi_bound,
    converse_bound,
    dp_slack,
    identity_embedding,
    reduced_dynamics,
)

__version__ = "0.1.0"
