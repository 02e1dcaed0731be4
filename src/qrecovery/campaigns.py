"""Deterministic check campaigns for the CLI runner.

Every row is a pure function of the campaign config: trial instances are
drawn from ``stream(master_seed, suite_index, check_index, trial)``, so a
rerun with the same config reproduces the report byte for byte.  Suite
runners draw instances and yield ``(trial, CheckReport)`` pairs.  Every
inequality row comes from a ``check_*`` function of ``theorems`` or
``cpdp``, called through this module's name for it (so a tracer that patches
module bindings sees the call); the deviation and witness rows are built
here from check outputs.  Every row's tolerance comes from
``reports.TOLERANCES``.  ``_trials`` is the one place the stream path is
set, and ``run_suite`` the one place each row gets its seed and, when set,
the tolerance override.
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
from .entropy import fidelity, trace_norm
from .matfun import eig_hermitian
from .qcore import (
    Channel,
    DensityOperator,
    Ensemble,
    random_channel,
    random_density,
    random_instrument,
    random_isometry,
    random_subunital_channel,
    random_unitary,
    stream,
)
from .recovery import QuadratureSpec, petz_map
from .reports import TOLERANCES, CheckReport, report_row
from .theorems import (
    _recover_abc,
    check_cmi_recovery,
    check_cond_entropy_gain,
    check_entropic_disturbance,
    check_entropy_gain,
    check_entropy_gain_recovery,
    check_efficient_second_law,
    check_info_gain_no_qsi,
    check_info_gain_qsi,
    check_info_gain_upper,
    check_recovery_fid,
    check_recovery_stronger,
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


def _has_type(value, types) -> bool:
    """isinstance, except that a bool is not a number."""
    return isinstance(value, types) and (bool in types or not isinstance(value, bool))


# Accepted types of the scalar config fields; a float must also be finite.
_FIELD_TYPES = {
    "master_seed": ((int,), "an integer"),
    "tol_override": ((int, float, type(None)), "a finite number or null"),
    "quad_nodes": ((int,), "an integer"),
    "quad_halfwidth": ((int, float), "a finite number"),
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
            finite = not isinstance(value, float) or math.isfinite(value)
            if not (_has_type(value, types) and finite):
                raise ConfigError(f"{name} must be {expected}, got {value!r}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be a non-negative integer, got {self.master_seed!r}")
        if not isinstance(self.suites, (list, tuple)):
            raise ConfigError(f"suites must be a list of suite names, got {self.suites!r}")
        for s in self.suites:
            if s not in SUITES:
                raise ConfigError(f"unknown suite {s!r}; valid: {', '.join(SUITES)}")
        object.__setattr__(self, "suites", tuple(self.suites))
        if not isinstance(self.trials, dict):
            raise ConfigError(f"trials must map suite names to integers, got {self.trials!r}")
        for k, v in self.trials.items():
            if k not in SUITES:
                raise ConfigError(f"trials given for unknown suite {k!r}")
            if not _has_type(v, (int,)):
                raise ConfigError(f"trials for {k!r} must be an integer, got {v!r}")
            if v < 1:
                raise ConfigError("trials must be at least 1")
        if self.trials.get("bosonic", 1) != 1:
            raise ConfigError("trials for 'bosonic' must be 1: the suite is one deterministic round")
        object.__setattr__(self, "trials", dict(self.trials))
        if not isinstance(self.dims, (list, tuple)) or len(self.dims) != 2 or not all(
            _has_type(d, (int,)) for d in self.dims
        ):
            raise ConfigError(f"dims must be two integers lo, hi, got {self.dims!r}")
        lo, hi = self.dims
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
        return self.trials.get(suite, DEFAULT_TRIALS[suite])

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


def _trials(cfg: CampaignConfig, suite: str, family: int, n: int):
    """(trial, rng) for trials 0..n-1 of one check family of a suite.

    The only place a stream path is set: trial instances come from
    ``stream(master_seed, suite_index, family, trial)``.
    """
    suite_idx = SUITES.index(suite)
    for trial in range(n):
        yield trial, stream(cfg.master_seed, suite_idx, family, trial)


def _state(systems, rank, rng) -> DensityOperator:
    raw = random_density(math.prod(d for _, d in systems), rank, rng)
    return DensityOperator(tuple(systems), raw.matrix)


def _deviation_report(name, deviation, dims, aux=None) -> CheckReport:
    return CheckReport(name=name, lhs=0.0, rhs=float(deviation), dims=dims, aux=aux or {})


def _renamed(rep: CheckReport, name: str) -> CheckReport:
    """``rep`` as a row of another name, with that name's tolerance."""
    return replace(rep, name=name, tol=TOLERANCES[name])


# ---------------------------------------------------------------------------
# suite runners: each yields (trial, CheckReport) pairs in row order


def _run_entropy_gain(cfg: CampaignConfig):
    lo, hi = cfg.dims[0], min(cfg.dims[1], 4)
    n = cfg.n_trials("entropy-gain")
    for trial, rng in _trials(cfg, "entropy-gain", 0, n):
        d = int(rng.integers(lo, hi + 1))
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        channel = random_channel(d, d, int(rng.integers(1, 5)), rng)
        yield trial, check_entropy_gain(rho, channel)

    # dephasing equality witness: N self-adjoint idempotent, rho = |+><+|
    plus = np.full((2, 2), 0.5, dtype=complex)
    z = np.diag([1.0, -1.0])
    dephasing = Channel((np.eye(2) / math.sqrt(2), z / math.sqrt(2)))
    yield 0, _renamed(check_entropy_gain(plus, dephasing), "entropy-gain-equality")

    for trial, rng in _trials(cfg, "entropy-gain", 2, min(n, 50)):
        d = int(rng.integers(lo, min(hi, 3) + 1))
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        channel = random_subunital_channel(d, d + 1, rng)
        yield trial, check_entropy_gain_recovery(rho, channel)

    for trial, rng in _trials(cfg, "entropy-gain", 3, min(n, 50)):
        rho_ab = _state((("A", 2), ("B", 2)), int(rng.integers(1, 5)), rng)
        channel = random_channel(2, 2, int(rng.integers(1, 5)), rng)
        yield trial, check_cond_entropy_gain(rho_ab, channel)


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
    lo, hi = cfg.dims[0], min(cfg.dims[1], 3)
    n = cfg.n_trials("recovery")

    for trial, rng in _trials(cfg, "recovery", 0, n):
        yield trial, check_recovery_fid(*_recovery_instance(rng, lo, hi))

    quad = cfg.quad()
    for trial, rng in _trials(cfg, "recovery", 1, min(n, 50)):
        yield trial, check_recovery_stronger(*_recovery_instance(rng, lo, hi), quad)

    for trial, rng in _trials(cfg, "recovery", 2, n):
        rho, sigma, channel = _recovery_instance(rng, lo, hi)
        pm = petz_map(sigma.matrix, channel)
        dev = trace_norm(pm.apply(channel.apply(sigma.matrix)) - sigma.matrix)
        yield trial, _deviation_report("petz-fixed-point", dev, (sigma.dim, channel.out_dim))

    for trial, rng in _trials(cfg, "recovery", 3, n):
        rho = _state((("A", 2), ("B", 2), ("C", 2)), int(rng.integers(2, 9)), rng)
        yield trial, check_cmi_recovery(rho)

    for trial, rng in _trials(cfg, "recovery", 4, min(n, 20)):
        yield trial, _markov_recovery_trial(rng)


def _markov_recovery_trial(rng) -> CheckReport:
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
    fid = fidelity(rho.matrix, _recover_abc(rho).matrix)
    return _deviation_report("cmi-recovery-markov", 1.0 - fid, (2, 2, 2), {"fidelity": fid})


def _run_info_gain(cfg: CampaignConfig):
    lo, hi = cfg.dims[0], min(cfg.dims[1], 3)
    n = cfg.n_trials("info-gain")

    for trial, rng in _trials(cfg, "info-gain", 0, n):
        d = int(rng.integers(lo, hi + 1))
        instr = random_instrument(d, int(rng.integers(2, 5)), True, rng)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        rep = check_info_gain_no_qsi(instr, rho)
        yield trial, rep
        gain = groenewold_gain(instr, rho)
        yield trial, _deviation_report(
            "groenewold-vs-mutual-info", abs(gain - rep.lhs), (d,), {"groenewold_gain": gain}
        )

    for trial, rng in _trials(cfg, "info-gain", 1, n):
        d = int(rng.integers(lo, hi + 1))
        efficient = bool(rng.integers(2))
        instr = random_instrument(d, int(rng.integers(2, 5)), efficient, rng)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        yield trial, check_info_gain_upper(instr, rho)

    # a pure input through a two-Kraus instrument yields mixed post states,
    # so the entropy reduction is strictly negative while the bound still holds
    _, rng = next(_trials(cfg, "info-gain", 4, 1))
    instr = random_instrument(2, 2, False, rng)
    rho = random_density(2, 1, rng)
    rep = check_info_gain_upper(instr, rho)
    yield n, rep
    gain = rep.aux["groenewold_gain"]
    yield 0, CheckReport(
        "negative-groenewold-witness", lhs=-gain, rhs=0.0, dims=(2,),
        aux={"groenewold_gain": gain},
    )

    for trial, rng in _trials(cfg, "info-gain", 2, n):
        d = int(rng.integers(lo, hi + 1))
        instr = random_instrument(d, int(rng.integers(2, 5)), True, rng)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        yield trial, check_efficient_second_law(instr, rho)


def _run_info_gain_qsi(cfg: CampaignConfig):
    quad = cfg.quad()
    for trial, rng in _trials(cfg, "info-gain-qsi", 0, cfg.n_trials("info-gain-qsi")):
        rho_ab = _state((("A", 2), ("B", 2)), int(rng.integers(2, 5)), rng)
        instr = random_instrument(2, int(rng.integers(2, 4)), True, rng)
        rep = check_info_gain_qsi(instr, rho_ab, quad=quad)
        yield trial, rep
        yield trial, _deviation_report(
            "qsi-recovery-instrument-tp", rep.aux["recovery_instrument_tp_dev"], (2, 2)
        )


def _run_disturbance(cfg: CampaignConfig):
    lo, hi = cfg.dims[0], min(cfg.dims[1], 3)
    n = cfg.n_trials("disturbance")

    for trial, rng in _trials(cfg, "disturbance", 0, n):
        d = int(rng.integers(lo, hi + 1))
        m = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(m))
        states = tuple(random_density(d, int(rng.integers(1, d + 1)), rng) for _ in range(m))
        ens = Ensemble(probs, states)
        channel = random_channel(d, d, int(rng.integers(1, 5)), rng)
        yield trial, check_entropic_disturbance(ens, channel)

    for trial, rng in _trials(cfg, "disturbance", 1, min(n, 20)):
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
        rep = check_entropic_disturbance(ens, Channel(tuple(projs)))
        yield trial, _renamed(rep, "disturbance-commuting")
        yield trial, _deviation_report("disturbance-commuting-chi", abs(rep.lhs), (d,))
        yield trial, _deviation_report(
            "disturbance-commuting-fidelity", 1.0 - rep.aux["avg_sqrt_fid"], (d,)
        )


def _random_config(rng) -> TripartiteConfiguration:
    state = _state((("R", 2), ("Q", 2), ("E", 2)), int(rng.integers(2, 9)), rng)
    return TripartiteConfiguration(state)


def _draw_interaction(cfg: CampaignConfig, rng) -> Interaction:
    if cfg.cpdp_isometric:
        return Interaction(random_isometry(4, 8, rng), (2, 2), (2, 4))
    return Interaction(random_unitary(4, rng), (2, 2), (2, 2))


def _run_cpdp(cfg: CampaignConfig):
    n = cfg.n_trials("cpdp")

    for trial, rng in _trials(cfg, "cpdp", 0, n):
        config = _random_config(rng)
        v = _draw_interaction(cfg, rng)
        forward = reduced_dynamics(config, v)
        yield trial, forward.report
        yield trial, converse_bound(forward, eps=1.0)

    for trial, rng in _trials(cfg, "cpdp", 1, min(n, 10)):
        rho_rq = _state((("R", 2), ("Q", 2)), int(rng.integers(2, 5)), rng)
        rho_e = random_density(2, int(rng.integers(1, 3)), rng)
        mat = np.kron(rho_rq.matrix, rho_e.matrix)
        config = TripartiteConfiguration(
            DensityOperator((("R", 2), ("Q", 2), ("E", 2)), mat)
        )
        v = _draw_interaction(cfg, rng)
        rep = reduced_dynamics(config, v).report
        yield trial, _deviation_report(
            "cpdp-forward-product", 1.0 - rep.aux["fidelity"], (2, 2, 2)
        )

    for trial, rng in _trials(cfg, "cpdp", 2, min(n, 20)):
        config = _random_config(rng)
        dev = abs(dp_slack(config, identity_embedding(2, 2)) - cmi_bound(config))
        yield trial, _deviation_report("cpdp-embedding-consistency", dev, (2, 2, 2))


def _bosonic_reports(cfg: CampaignConfig):
    trunc = bos.FockTruncation(cfg.bosonic_n_max)
    for spec in bosonic_specs(trunc, BOSONIC_ETAS, BOSONIC_GAINS, BOSONIC_ADJOINT_COMPOSE_PAIRS):
        yield bos.check_almost_unital(spec, n_guard=cfg.bosonic_guard)
        yield bos.check_adjoint_relation(spec)

    states = bosonic_states(trunc, bos.DEFAULT_GUARD)
    for spec in bosonic_specs(trunc, BOSONIC_ETAS, BOSONIC_GAINS):
        for name, pops in states:
            yield bos.check_bosonic_entropy_gain(spec, pops, state_name=name)

    yield bos.check_loss_semigroup(0.9, 0.8, trunc)
    yield bos.check_loss_semigroup(0.7, 0.99, trunc)


def _run_bosonic(cfg: CampaignConfig):
    """No randomness: the rows are numbered in order."""
    return enumerate(_bosonic_reports(cfg))


def bosonic_states(trunc: bos.FockTruncation, guard: int):
    """Named entropy-gain inputs of the bosonic suite and sweep, as photon-number
    vectors, all inside the guard band."""
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
    """Report rows of one suite.

    The only place a row gets its seed and its trial number: every report a
    runner yields is stamped with ``cfg.master_seed`` and, when set,
    ``cfg.tol_override`` in place of its table tolerance.
    """
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}")
    stamp = {"seed": cfg.master_seed}
    if cfg.tol_override is not None:
        stamp["tol"] = cfg.tol_override
    return [report_row(replace(rep, **stamp), suite, trial) for trial, rep in _RUNNERS[suite](cfg)]


def run_campaign(cfg: CampaignConfig):
    rows = []
    for suite in cfg.suites:
        rows.extend(run_suite(cfg, suite))
    return rows
