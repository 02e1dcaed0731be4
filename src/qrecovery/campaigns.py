"""Deterministic check campaigns for the CLI runner.

Every row is a pure function of the campaign config: trial instances are
drawn from ``stream(master_seed, suite_index, check_index, trial)``, so a
rerun with the same config reproduces the report byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bosonic as bos
from .cpdp import (
    Interaction,
    TripartiteConfiguration,
    cmi_bound,
    converse_bound,
    dp_slack,
    identity_embedding,
    reduced_dynamics,
)
from .entropy import cmi, fidelity, rel_entropy, trace_norm
from .matfun import eig_hermitian
from .qcore import (
    Channel,
    DensityOperator,
    Ensemble,
    apply_on,
    partial_trace,
    partial_trace_channel,
    permute,
    random_channel,
    random_density,
    random_instrument,
    random_isometry,
    random_subunital_channel,
    random_unitary,
    stream,
)
from .recovery import (
    QuadratureSpec,
    RotatedPetzSpec,
    integrated_recovery,
    petz_map,
    quadrature,
    rotated_petz,
)
from .reports import CheckReport, report_row
from .theorems import (
    check_cond_entropy_gain,
    check_entropic_disturbance,
    check_entropy_gain,
    check_entropy_gain_recovery,
    check_efficient_second_law,
    check_info_gain_no_qsi,
    check_info_gain_qsi,
    check_info_gain_upper,
    groenewold_gain,
)

__all__ = ["SUITES", "CampaignConfig", "ConfigError", "run_suite", "run_campaign"]

SUITES = (
    "entropy-gain",
    "recovery",
    "info-gain",
    "info-gain-qsi",
    "disturbance",
    "cpdp",
    "bosonic",
)

DEFAULT_TRIALS = {
    "entropy-gain": 200,
    "recovery": 100,
    "info-gain": 100,
    "info-gain-qsi": 50,
    "disturbance": 100,
    "cpdp": 50,
    "bosonic": 1,
}

BOSONIC_ETAS = (0.7, 0.8, 0.9, 0.99)
BOSONIC_GAINS = (1.01, 1.1, 1.25)
BOSONIC_ADJOINT_COMPOSE_PAIRS = ((0.8, 1.1), (0.9, 1.25), (0.99, 1.01))
MAX_TOTAL_DIM = 64
# The bosonic suite checks the single-photon state inside the default guard
# band, which keeps n_max - DEFAULT_GUARD + 1 levels; Fock level 1 needs two.
BOSONIC_MIN_N_MAX = bos.DEFAULT_GUARD + 1


class ConfigError(ValueError):
    pass


# Accepted types of the scalar config fields; a bool is not a number here.
_FIELD_TYPES = {
    "master_seed": ((int,), "an integer"),
    "tol_override": ((int, float, type(None)), "a number or null"),
    "quad_nodes": ((int,), "an integer"),
    "quad_halfwidth": ((int, float), "a number"),
    "bosonic_n_max": ((int,), "an integer"),
    "bosonic_guard": ((int, type(None)), "an integer or null"),
    "cpdp_isometric": ((bool,), "a boolean"),
}


@dataclass(frozen=True)
class CampaignConfig:
    suites: tuple = SUITES
    master_seed: int = 1234
    trials: dict = field(default_factory=dict)  # per-suite overrides
    dims: tuple = (2, 4)
    tol_override: float | None = None
    quad_nodes: int = 101  # rule of recovery-stronger and info-gain-qsi only
    quad_halfwidth: float = 10.0
    bosonic_n_max: int = 40
    bosonic_guard: int | None = None  # None = recommended guard per parameter
    cpdp_isometric: bool = False  # draw isometric V: QE -> Q'E' with a larger E'

    def __post_init__(self):
        for name, (types, expected) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
                raise ConfigError(f"{name} must be {expected}, got {value!r}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be a non-negative integer, got {self.master_seed!r}")
        suites = tuple(self.suites)
        for s in suites:
            if s not in SUITES:
                raise ConfigError(f"unknown suite {s!r}; valid: {', '.join(SUITES)}")
        object.__setattr__(self, "suites", suites)
        trials = dict(self.trials)
        for k, v in trials.items():
            if k not in SUITES:
                raise ConfigError(f"trials given for unknown suite {k!r}")
            if int(v) < 1:
                raise ConfigError("trials must be at least 1")
        object.__setattr__(self, "trials", trials)
        lo, hi = (int(d) for d in self.dims)
        if not (2 <= lo <= hi):
            raise ConfigError(f"dims range must satisfy 2 <= lo <= hi, got {self.dims!r}")
        if hi > MAX_TOTAL_DIM:
            raise ConfigError(f"dims exceed the supported total dimension {MAX_TOTAL_DIM}")
        object.__setattr__(self, "dims", (lo, hi))
        if self.tol_override is not None and self.tol_override <= 0:
            raise ConfigError(f"tol must be positive, got {self.tol_override!r}")
        self.quad()  # validates
        if not BOSONIC_MIN_N_MAX <= self.bosonic_n_max < MAX_TOTAL_DIM:
            raise ConfigError(
                f"bosonic_n_max must lie in [{BOSONIC_MIN_N_MAX}, {MAX_TOTAL_DIM - 1}], "
                f"got {self.bosonic_n_max!r}"
            )
        if self.bosonic_guard is not None and not 0 <= self.bosonic_guard < self.bosonic_n_max:
            raise ConfigError("bosonic_guard out of range")

    def n_trials(self, suite: str) -> int:
        return int(self.trials.get(suite, DEFAULT_TRIALS[suite]))

    def quad(self) -> QuadratureSpec:
        return QuadratureSpec(nodes=self.quad_nodes, halfwidth=self.quad_halfwidth)

    def to_dict(self) -> dict:
        return {
            "suites": list(self.suites),
            "master_seed": self.master_seed,
            "trials": {s: self.n_trials(s) for s in self.suites},
            "dims": list(self.dims),
            "tol_override": self.tol_override,
            "quad_nodes": self.quad_nodes,
            "quad_halfwidth": self.quad_halfwidth,
            "bosonic_n_max": self.bosonic_n_max,
            "bosonic_guard": self.bosonic_guard,
            "cpdp_isometric": self.cpdp_isometric,
        }


def _retol(report: CheckReport, cfg: CampaignConfig) -> CheckReport:
    if cfg.tol_override is None:
        return report
    return replace(report, tol=cfg.tol_override)


def _state(systems, rank, rng) -> DensityOperator:
    dim = 1
    for _, d in systems:
        dim *= d
    raw = random_density(dim, rank, rng)
    return DensityOperator(tuple(systems), raw.matrix)


def _deviation_report(name, deviation, tol, seed, dims, aux=None) -> CheckReport:
    return CheckReport(
        name=name, lhs=0.0, rhs=float(deviation), tol=tol, seed=seed, dims=dims, aux=aux or {}
    )


# ---------------------------------------------------------------------------
# suite runners


def _run_entropy_gain(cfg: CampaignConfig):
    suite_idx = SUITES.index("entropy-gain")
    seed = cfg.master_seed
    lo, hi = cfg.dims[0], min(cfg.dims[1], 4)
    rows = []
    for trial in range(cfg.n_trials("entropy-gain")):
        rng = stream(seed, suite_idx, 0, trial)
        d = int(rng.integers(lo, hi + 1))
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        channel = random_channel(d, d, int(rng.integers(1, 5)), rng)
        rep = check_entropy_gain(rho, channel, seed=seed, dims=(d,))
        rows.append(report_row(_retol(rep, cfg), "entropy-gain", trial))

    # dephasing equality witness: N self-adjoint idempotent, rho = |+><+|
    plus = np.full((2, 2), 0.5, dtype=complex)
    z = np.diag([1.0, -1.0])
    dephasing = Channel((np.eye(2) / math.sqrt(2), z / math.sqrt(2)))
    rep = check_entropy_gain(plus, dephasing, seed=seed, dims=(2,))
    rows.append(report_row(_retol(rep, cfg), "entropy-gain", 0) | {"check": "entropy-gain-equality"})

    for trial in range(min(cfg.n_trials("entropy-gain"), 50)):
        rng = stream(seed, suite_idx, 2, trial)
        d = int(rng.integers(lo, min(hi, 3) + 1))
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        channel = random_subunital_channel(d, d + 1, 3, rng)
        rep = check_entropy_gain_recovery(rho, channel, seed=seed, dims=(d, d + 1))
        rows.append(report_row(_retol(rep, cfg), "entropy-gain", trial))

    for trial in range(min(cfg.n_trials("entropy-gain"), 50)):
        rng = stream(seed, suite_idx, 3, trial)
        rho_ab = _state((("A", 2), ("B", 2)), int(rng.integers(1, 5)), rng)
        channel = random_channel(2, 2, int(rng.integers(1, 5)), rng)
        rep = check_cond_entropy_gain(rho_ab, channel, seed=seed)
        rows.append(report_row(_retol(rep, cfg), "entropy-gain", trial))
    return rows


def _recovery_instance(rng, lo, hi):
    """(rho, sigma, channel) with supp(rho) inside supp(sigma)."""
    d = int(rng.integers(lo, hi + 1))
    rank_sigma = d if rng.integers(4) else max(1, d - 1)
    sigma = random_density(d, rank_sigma, rng)
    if rank_sigma == d:
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
    else:
        small = random_density(rank_sigma, int(rng.integers(1, rank_sigma + 1)), rng)
        spec = eig_hermitian(sigma.matrix)
        support = spec.eigenvectors[:, spec.eigenvalues > 1e-12]
        rho = DensityOperator((("A", d),), support @ small.matrix @ support.conj().T)
    d_out = int(rng.integers(lo, hi + 1))
    env_min = -(-d // d_out)  # Stinespring needs out * env >= in
    channel = random_channel(d, d_out, int(rng.integers(env_min, env_min + 4)), rng)
    return rho, sigma, channel


def _run_recovery(cfg: CampaignConfig):
    suite_idx = SUITES.index("recovery")
    seed = cfg.master_seed
    lo, hi = cfg.dims[0], min(cfg.dims[1], 3)
    rows = []
    n = cfg.n_trials("recovery")

    for trial in range(n):
        rng = stream(seed, suite_idx, 0, trial)
        rho, sigma, channel = _recovery_instance(rng, lo, hi)
        rec = integrated_recovery(sigma.matrix, channel)
        lhs = (
            rel_entropy(rho.matrix, sigma.matrix).value
            - rel_entropy(channel.apply(rho.matrix), channel.apply(sigma.matrix)).value
        )
        recovered = rec.apply(channel.apply(rho.matrix))
        rhs = -math.log2(max(fidelity(rho.matrix, recovered), 1e-300))
        rep = CheckReport(
            "recovery-fid", lhs, rhs, tol=1e-6, seed=seed, dims=(rho.dim, channel.out_dim)
        )
        rows.append(report_row(_retol(rep, cfg), "recovery", trial))

    nodes, weights = quadrature(cfg.quad())
    for trial in range(min(n, 50)):
        rng = stream(seed, suite_idx, 1, trial)
        rho, sigma, channel = _recovery_instance(rng, lo, hi)
        lhs = (
            rel_entropy(rho.matrix, sigma.matrix).value
            - rel_entropy(channel.apply(rho.matrix), channel.apply(sigma.matrix)).value
        )
        out = channel.apply(rho.matrix)
        acc = 0.0
        for t, w in zip(nodes, weights):
            rot = rotated_petz(RotatedPetzSpec(sigma.matrix, channel, t / 2.0))
            acc += w * math.log2(max(fidelity(rho.matrix, rot.apply(out)), 1e-300))
        rep = CheckReport(
            "recovery-stronger", lhs, -acc, tol=1e-5, seed=seed, dims=(rho.dim, channel.out_dim)
        )
        rows.append(report_row(_retol(rep, cfg), "recovery", trial))

    for trial in range(n):
        rng = stream(seed, suite_idx, 2, trial)
        rho, sigma, channel = _recovery_instance(rng, lo, hi)
        pm = petz_map(sigma.matrix, channel)
        dev = trace_norm(pm.apply(channel.apply(sigma.matrix)) - sigma.matrix)
        rep = _deviation_report(
            "petz-fixed-point", dev, 1e-9, seed, (sigma.dim, channel.out_dim)
        )
        rows.append(report_row(_retol(rep, cfg), "recovery", trial))

    for trial in range(n):
        rng = stream(seed, suite_idx, 3, trial)
        rep = _cmi_recovery_trial(rng, (2, 2, 2), seed)
        rows.append(report_row(_retol(rep, cfg), "recovery", trial))

    for trial in range(min(n, 20)):
        rng = stream(seed, suite_idx, 4, trial)
        rep = _markov_recovery_trial(rng, seed)
        rows.append(report_row(_retol(rep, cfg), "recovery", trial))
    return rows


def _recover_abc(rho: DensityOperator) -> float:
    """Fidelity of the A-factor recovery R_{C->AC}(rho_BC) against rho_ABC."""
    rho_ac = partial_trace(rho, "B")
    rho_bc = partial_trace(rho, "A")
    trace_a = partial_trace_channel(rho_ac.systems, "A")
    rec = integrated_recovery(rho_ac.matrix, trace_a)
    d_a = rho.system_dim("A")
    d_c = rho.system_dim("C")
    mat, out_systems = apply_on(
        rec, rho_bc.matrix, rho_bc.systems, "C", out_systems=(("A", d_a), ("C", d_c))
    )
    recovered = DensityOperator(out_systems, mat)
    recovered = permute(recovered, ("A", "B", "C"))
    return fidelity(rho.matrix, recovered.matrix)


def _cmi_recovery_trial(rng, dims, seed) -> CheckReport:
    d_a, d_b, d_c = dims
    rho = _state((("A", d_a), ("B", d_b), ("C", d_c)), int(rng.integers(2, d_a * d_b * d_c + 1)), rng)
    lhs = cmi(rho, "A", "B", "C")
    fid = _recover_abc(rho)
    return CheckReport(
        "cmi-recovery", lhs, -math.log2(max(fid, 1e-300)), tol=1e-6, seed=seed, dims=dims
    )


def _markov_recovery_trial(rng, seed) -> CheckReport:
    """cq Markov chain: a classical channel on C of a B-C correlated cq state
    writes the A factor, so I(A;B|C) = 0 and recovery from C is exact."""
    p = rng.dirichlet(np.ones(2))
    mat = np.zeros((8, 8), dtype=complex)
    for c in range(2):
        rho_a = random_density(2, int(rng.integers(1, 3)), rng).matrix
        rho_b = random_density(2, int(rng.integers(1, 3)), rng).matrix
        block = np.zeros((2, 2))
        block[c, c] = 1.0
        mat += p[c] * np.kron(np.kron(rho_a, rho_b), block)
    rho = DensityOperator((("A", 2), ("B", 2), ("C", 2)), mat)
    fid = _recover_abc(rho)
    return _deviation_report(
        "cmi-recovery-markov", 1.0 - fid, 1e-6, seed, (2, 2, 2), {"fidelity": fid}
    )


def _run_info_gain(cfg: CampaignConfig):
    suite_idx = SUITES.index("info-gain")
    seed = cfg.master_seed
    lo, hi = cfg.dims[0], min(cfg.dims[1], 3)
    rows = []
    n = cfg.n_trials("info-gain")

    for trial in range(n):
        rng = stream(seed, suite_idx, 0, trial)
        d = int(rng.integers(lo, hi + 1))
        instr = random_instrument(d, int(rng.integers(2, 5)), True, rng)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        rep = check_info_gain_no_qsi(instr, rho, seed=seed)
        rows.append(report_row(_retol(rep, cfg), "info-gain", trial))
        gain = groenewold_gain(instr, rho)
        dev = abs(gain - rep.lhs)
        dev_rep = _deviation_report(
            "groenewold-vs-mutual-info", dev, 1e-8, seed, (d,), {"groenewold_gain": gain}
        )
        rows.append(report_row(_retol(dev_rep, cfg), "info-gain", trial))

    for trial in range(n):
        rng = stream(seed, suite_idx, 1, trial)
        d = int(rng.integers(lo, hi + 1))
        efficient = bool(rng.integers(2))
        instr = random_instrument(d, int(rng.integers(2, 5)), efficient, rng)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        rep = check_info_gain_upper(instr, rho, seed=seed)
        rows.append(report_row(_retol(rep, cfg), "info-gain", trial))

    # a pure input through a two-Kraus instrument yields mixed post states,
    # so the entropy reduction is strictly negative while the bound still holds
    rng = stream(seed, suite_idx, 4, 0)
    instr = random_instrument(2, 2, False, rng)
    rho = random_density(2, 1, rng)
    rep = check_info_gain_upper(instr, rho, seed=seed)
    rows.append(report_row(_retol(rep, cfg), "info-gain", n))
    gain = rep.aux["groenewold_gain"]
    witness = CheckReport(
        "negative-groenewold-witness",
        lhs=-gain,
        rhs=0.0,
        tol=0.0,
        seed=seed,
        dims=(2,),
        aux={"groenewold_gain": gain},
    )
    rows.append(report_row(_retol(witness, cfg), "info-gain", 0))

    for trial in range(n):
        rng = stream(seed, suite_idx, 2, trial)
        d = int(rng.integers(lo, hi + 1))
        instr = random_instrument(d, int(rng.integers(2, 5)), True, rng)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        rep = check_efficient_second_law(instr, rho, seed=seed)
        rows.append(report_row(_retol(rep, cfg), "info-gain", trial))
    return rows


def _run_info_gain_qsi(cfg: CampaignConfig):
    suite_idx = SUITES.index("info-gain-qsi")
    seed = cfg.master_seed
    quad = cfg.quad()
    rows = []
    for trial in range(cfg.n_trials("info-gain-qsi")):
        rng = stream(seed, suite_idx, 0, trial)
        rho_ab = _state((("A", 2), ("B", 2)), int(rng.integers(2, 5)), rng)
        instr = random_instrument(2, int(rng.integers(2, 4)), True, rng)
        rep = check_info_gain_qsi(instr, rho_ab, quad=quad, seed=seed)
        rows.append(report_row(_retol(rep, cfg), "info-gain-qsi", trial))
        tp_rep = _deviation_report(
            "qsi-recovery-instrument-tp",
            rep.aux["recovery_instrument_tp_dev"],
            1e-8,
            seed,
            (2, 2),
        )
        rows.append(report_row(_retol(tp_rep, cfg), "info-gain-qsi", trial))
    return rows


def _run_disturbance(cfg: CampaignConfig):
    suite_idx = SUITES.index("disturbance")
    seed = cfg.master_seed
    lo, hi = cfg.dims[0], min(cfg.dims[1], 3)
    rows = []
    n = cfg.n_trials("disturbance")

    for trial in range(n):
        rng = stream(seed, suite_idx, 0, trial)
        d = int(rng.integers(lo, hi + 1))
        m = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(m))
        states = tuple(random_density(d, int(rng.integers(1, d + 1)), rng) for _ in range(m))
        ens = Ensemble(probs, states)
        channel = random_channel(d, d, int(rng.integers(1, 5)), rng)
        rep = check_entropic_disturbance(ens, channel, seed=seed)
        rows.append(report_row(_retol(rep, cfg), "disturbance", trial))

    for trial in range(min(n, 20)):
        rng = stream(seed, suite_idx, 1, trial)
        d = int(rng.integers(lo, hi + 1))
        basis = random_unitary(d, rng)
        m = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(m))
        states = tuple(
            DensityOperator(
                (("A", d),), basis @ np.diag(rng.dirichlet(np.ones(d))) @ basis.conj().T
            )
            for _ in range(m)
        )
        ens = Ensemble(probs, states)
        projs = [np.outer(basis[:, i], basis[:, i].conj()) for i in range(d)]
        dephasing = Channel(tuple(projs))
        rep = check_entropic_disturbance(ens, dephasing, seed=seed)
        rows.append(
            report_row(_retol(rep, cfg), "disturbance", trial) | {"check": "disturbance-commuting"}
        )
        chi_rep = _deviation_report(
            "disturbance-commuting-chi", abs(rep.lhs), 1e-9, seed, (d,)
        )
        rows.append(report_row(_retol(chi_rep, cfg), "disturbance", trial))
        fid_rep = _deviation_report(
            "disturbance-commuting-fidelity",
            1.0 - rep.aux["avg_sqrt_fid"],
            1e-8,
            seed,
            (d,),
        )
        rows.append(report_row(_retol(fid_rep, cfg), "disturbance", trial))
    return rows


def _random_config(rng) -> TripartiteConfiguration:
    state = _state((("R", 2), ("Q", 2), ("E", 2)), int(rng.integers(2, 9)), rng)
    return TripartiteConfiguration(state)


def _draw_interaction(cfg: CampaignConfig, rng) -> Interaction:
    if cfg.cpdp_isometric:
        return Interaction(random_isometry(4, 8, rng), (2, 2), (2, 4))
    return Interaction(random_unitary(4, rng), (2, 2), (2, 2))


def _run_cpdp(cfg: CampaignConfig):
    suite_idx = SUITES.index("cpdp")
    seed = cfg.master_seed
    rows = []
    n = cfg.n_trials("cpdp")

    for trial in range(n):
        rng = stream(seed, suite_idx, 0, trial)
        config = _random_config(rng)
        v = _draw_interaction(cfg, rng)
        channel, rep = reduced_dynamics(config, v, seed=seed)
        rows.append(report_row(_retol(rep, cfg), "cpdp", trial))
        conv = converse_bound(config, v, channel, eps=1.0, seed=seed)
        rows.append(report_row(_retol(conv, cfg), "cpdp", trial))

    for trial in range(min(n, 10)):
        rng = stream(seed, suite_idx, 1, trial)
        rho_rq = _state((("R", 2), ("Q", 2)), int(rng.integers(2, 5)), rng)
        rho_e = random_density(2, int(rng.integers(1, 3)), rng)
        mat = np.kron(rho_rq.matrix, rho_e.matrix)
        config = TripartiteConfiguration(
            DensityOperator((("R", 2), ("Q", 2), ("E", 2)), mat)
        )
        v = _draw_interaction(cfg, rng)
        _, rep = reduced_dynamics(config, v, seed=seed)
        fid_rep = _deviation_report(
            "cpdp-forward-product", 1.0 - rep.aux["fidelity"], 1e-6, seed, (2, 2, 2)
        )
        rows.append(report_row(_retol(fid_rep, cfg), "cpdp", trial))

    for trial in range(min(n, 20)):
        rng = stream(seed, suite_idx, 2, trial)
        config = _random_config(rng)
        embed = identity_embedding(2, 2)
        dev = abs(dp_slack(config, embed) - cmi_bound(config))
        rep = _deviation_report("cpdp-embedding-consistency", dev, 1e-9, seed, (2, 2, 2))
        rows.append(report_row(_retol(rep, cfg), "cpdp", trial))
    return rows


def _run_bosonic(cfg: CampaignConfig):
    seed = cfg.master_seed
    trunc = bos.FockTruncation(cfg.bosonic_n_max)
    guard = cfg.bosonic_guard
    rows = []

    def emit(rep):
        rows.append(report_row(_retol(rep, cfg), "bosonic", len(rows)))

    for spec in bosonic_specs(trunc, BOSONIC_ETAS, BOSONIC_GAINS, BOSONIC_ADJOINT_COMPOSE_PAIRS):
        emit(bos.check_almost_unital(spec, n_guard=guard, seed=seed))
        emit(bos.check_adjoint_relation(spec, seed=seed))

    states = bosonic_states(trunc, bos.DEFAULT_GUARD)
    for spec in bosonic_specs(trunc, BOSONIC_ETAS, BOSONIC_GAINS):
        for name, rho in states:
            emit(bos.check_bosonic_entropy_gain(spec, rho, seed=seed, state_name=name))

    emit(bos.check_loss_semigroup(0.9, 0.8, trunc, seed=seed))
    emit(bos.check_loss_semigroup(0.7, 0.99, trunc, seed=seed))
    return rows


def bosonic_states(trunc: bos.FockTruncation, guard: int):
    """Named entropy-gain inputs of the bosonic suite and sweep, all inside the guard band."""
    return (
        ("vacuum", bos.vacuum_state(trunc)),
        ("single-photon", bos.fock_state(1, trunc)),
        ("geometric-mean-1", bos.geometric_state(1.0, trunc, support_max=trunc.n_max - guard)),
    )


def bosonic_specs(trunc: bos.FockTruncation, etas, gains, pairs=None):
    """Loss specs per eta, amplifier specs per gain, then compositions per (eta, gain) pair.

    ``pairs=None`` composes every eta with every gain.
    """
    pairs = [(e, g) for e in etas for g in gains] if pairs is None else pairs
    specs = [bos.GaussianChannelSpec("loss", trunc, eta=e) for e in etas]
    specs += [bos.GaussianChannelSpec("amp", trunc, gain=g) for g in gains]
    return specs + [bos.GaussianChannelSpec("compose", trunc, eta=e, gain=g) for e, g in pairs]


_RUNNERS = {
    "entropy-gain": _run_entropy_gain,
    "recovery": _run_recovery,
    "info-gain": _run_info_gain,
    "info-gain-qsi": _run_info_gain_qsi,
    "disturbance": _run_disturbance,
    "cpdp": _run_cpdp,
    "bosonic": _run_bosonic,
}


def run_suite(cfg: CampaignConfig, suite: str):
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}")
    return _RUNNERS[suite](cfg)


def run_campaign(cfg: CampaignConfig):
    rows = []
    for suite in cfg.suites:
        rows.extend(run_suite(cfg, suite))
    return rows
