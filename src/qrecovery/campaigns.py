"""Deterministic check campaigns for the CLI runner.

Every row is a pure function of the campaign config: trial instances are
drawn from ``stream(master_seed, suite_index, check_index, trial)``, so a
rerun with the same config reproduces the report byte for byte.  ``_trials``
is the one place the stream path is set, and ``run_suite`` the one place
each row gets its seed and, when set, the tolerance override.

Each check family is a draw, a finish and a core (``_family``).  The draw
takes one trial's raw numbers (integers, Dirichlet vectors and Ginibre
blocks) from that trial's own stream, in the order a per-trial construction
draws them.  The finish runs the linear algebra that turns them into the
family's instances, tuples of arrays, once per group of draws of equal
shapes (``_each``), through the ``qcore`` helpers that each public
``random_*`` calls on its one draw, so a finished instance has the bits of
the per-trial construction.  No library object is built on the way.  The
instances are then grouped by shape, and each group's stacks go to the
stacked core of its ``theorems`` or ``cpdp`` check: every primitive takes
the group's stack with a leading trial axis and gives each trial the bits
its own ``check_*`` call would give it, so a row depends only on its own
trial.  The cores split a group further where a spectrum fixes a shape
(support sizes, ranks, Kraus counts); info-gain-qsi runs its quadrature
once per group of (trial, outcome) pairs of equal support sizes.  The
witness rows call their ``check_*`` directly.
Deviation and witness rows are built here from check outputs, and every
row's tolerance comes from ``reports.TOLERANCES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bosonic as bos
from .cpdp import _converse_stack, _dp_slacks, _reduced_dynamics_stack
from .entropy import _cmi_stack, root_fidelity, trace_norm
from .matfun import eig_hermitian
from .qcore import (
    Channel,
    _apply_kraus,
    _channel_draw,
    _channel_kraus,
    _densities,
    _ginibre,
    _grouped,
    _haar_isometries,
    _instrument_draw,
    _instrument_outcomes,
    _subunital_draw,
    _subunital_kraus,
    random_density,
    random_instrument,
    stream,
)
from .recovery import QuadratureSpec, _petz_stack
from .reports import TOLERANCES, CheckReport, report_row
from .theorems import (
    _cmi_recovery_stack,
    _cond_entropy_gain_stack,
    _efficient_second_law_stack,
    _entropic_disturbance_stack,
    _entropy_gain_recovery_stack,
    _entropy_gain_stack,
    _groenewold_gains,
    _info_gain_no_qsi_stack,
    _info_gain_qsi_stack,
    _info_gain_upper_stack,
    _recover_abc_stack,
    _recovery_fid_stack,
    _recovery_stronger_stack,
    check_entropy_gain,
    check_info_gain_upper,
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


def _deviation_report(name, deviation, dims, aux=None) -> CheckReport:
    return CheckReport(name=name, lhs=0.0, rhs=float(deviation), dims=dims, aux=aux or {})


def _renamed(rep: CheckReport, name: str) -> CheckReport:
    """``rep`` as a row of another name, with that name's tolerance."""
    return replace(rep, name=name, tol=TOLERANCES[name])


# ---------------------------------------------------------------------------
# suite runners: each yields (trial, CheckReport) pairs in row order


def _family(cfg: CampaignConfig, suite: str, family: int, n: int, draw, finish, core):
    """(trial, report) pairs of one check family, in row order.

    ``draw(rng)`` takes one trial's raw numbers (integers, Dirichlet vectors
    and Ginibre blocks) from that trial's own stream; ``finish(draws)`` turns
    them into instances, tuples of arrays, with one stacked call per group of
    equal shapes; ``core`` takes the stacks of the arrays of each group of
    instances of equal shapes and returns each instance's report, or its
    list of reports.
    """
    instances = finish([draw(rng) for _, rng in _trials(cfg, suite, family, n)])
    return [(trial, rep) for trial, reps in enumerate(_each(core, instances))
            for rep in (reps if isinstance(reps, list) else [reps])]


def _each(fn, items) -> list:
    """``fn`` once per group of items of equal shapes, on their stack; an
    item is an array, or a tuple of arrays and ``fn`` takes one stack per
    array.  ``fn`` returns one result per item of its group, and the results
    come back in item order."""

    def shape(item):
        return tuple(map(np.shape, item)) if isinstance(item, tuple) else np.shape(item)

    def group(idx):
        picked = [items[i] for i in idx]
        if isinstance(picked[0], tuple):
            return fn(*(np.stack(part) for part in zip(*picked)))
        return fn(np.stack(picked))

    return _grouped([shape(item) for item in items], group)


def _parts(*fns):
    """The finish of draws whose part j is finished by ``fns[j]`` through
    :func:`_each`, or kept as drawn where it is None.  An instance is its
    finished parts in order, a part that finishes as a tuple giving each of
    its arrays."""

    def finish(draws):
        cols = [col if fn is None else _each(fn, col) for fn, col in zip(fns, zip(*draws))]
        return [tuple(a for part in inst for a in (part if isinstance(part, tuple) else (part,)))
                for inst in zip(*cols)]

    return finish


def _member_states(members) -> list:
    """The (m, d, d) stack of states of each draw's tuple of m Ginibre
    matrices, every member finished with those of its shape across the draws."""
    states = iter(_each(_densities, [g for gs in members for g in gs]))
    return [np.stack([next(states) for _ in gs]) for gs in members]


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the last two axes of ``a`` and ``b``, leading axes broadcast."""
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def _run_entropy_gain(cfg: CampaignConfig):
    lo, hi = cfg.dims[0], min(cfg.dims[1], 4)
    n = cfg.n_trials("entropy-gain")
    states_and_channels = _parts(_densities, _channel_kraus)

    def random_channel_draw(rng):
        d = int(rng.integers(lo, hi + 1))
        g_rho = _ginibre(rng, (d, int(rng.integers(1, d + 1))))
        return g_rho, _channel_draw(rng, d, d, int(rng.integers(1, 5)))

    yield from _family(cfg, "entropy-gain", 0, n, random_channel_draw, states_and_channels,
                       _entropy_gain_stack)

    # dephasing equality witness: N self-adjoint idempotent, rho = |+><+|
    plus = np.full((2, 2), 0.5, dtype=complex)
    z = np.diag([1.0, -1.0])
    dephasing = Channel((np.eye(2) / math.sqrt(2), z / math.sqrt(2)))
    yield 0, _renamed(check_entropy_gain(plus, dephasing), "entropy-gain-equality")

    def subunital_draw(rng):
        d = int(rng.integers(lo, min(hi, 3) + 1))
        g_rho = _ginibre(rng, (d, int(rng.integers(1, d + 1))))
        return g_rho, _subunital_draw(rng, d, d + 1)

    yield from _family(cfg, "entropy-gain", 2, min(n, 50), subunital_draw,
                       _parts(_densities, _subunital_kraus), _entropy_gain_recovery_stack)

    def conditional_draw(rng):
        g_rho = _ginibre(rng, (4, int(rng.integers(1, 5))))
        return g_rho, _channel_draw(rng, 2, 2, int(rng.integers(1, 5)))

    yield from _family(cfg, "entropy-gain", 3, min(n, 50), conditional_draw, states_and_channels,
                       lambda rho, ks: _cond_entropy_gain_stack(rho, ks, (2, 2)))


def _recovery_draw(rng, lo, hi):
    """The raw numbers of one recovery instance: the Ginibre matrices of
    sigma and of rho, and of N's Stinespring isometry.  A quarter of the
    sigmas are rank-deficient, and then rho's matrix is drawn on the support
    of sigma."""
    d = int(rng.integers(lo, hi + 1))
    rank_sigma = d if rng.integers(4) else max(1, d - 1)
    g_sigma = _ginibre(rng, (d, rank_sigma))
    g_rho = _ginibre(rng, (rank_sigma, int(rng.integers(1, rank_sigma + 1))))
    d_out = int(rng.integers(lo, hi + 1))
    env_min = -(-d // d_out)  # Stinespring needs out * env >= in
    return (g_sigma, g_rho), _channel_draw(rng, d, d_out, int(rng.integers(env_min, env_min + 4)))


def _recovery_states(g_sigma: np.ndarray, g_rho: np.ndarray) -> list:
    """(rho, sigma) of each :func:`_recovery_draw` of a group: a rho drawn on
    a rank-deficient sigma's support is carried there by sigma's support
    eigenvectors, so supp(rho) lies inside supp(sigma)."""
    sigma, rho = _densities(g_sigma), _densities(g_rho)
    d, rank_sigma = g_sigma.shape[-2:]
    if rank_sigma < d:
        support = eig_hermitian(sigma).eigenvectors[..., d - rank_sigma :]
        rho = support @ rho @ support.conj().swapaxes(-1, -2)
    return list(zip(rho, sigma))


def _petz_fixed_point_rows(rho, sigma, ks) -> list:
    """||(P o N)(sigma) - sigma||_1 of the Petz map P of (sigma, N) for each
    map of a (N, K, out, in) Kraus stack."""
    n_sigma = _apply_kraus(ks, sigma)
    dev = trace_norm(_apply_kraus(_petz_stack(sigma, ks, n_sigma), n_sigma) - sigma)
    dims = (sigma.shape[-1], ks.shape[-2])
    return [_deviation_report("petz-fixed-point", x, dims) for x in dev]


def _run_recovery(cfg: CampaignConfig):
    lo, hi = cfg.dims[0], min(cfg.dims[1], 3)
    n = cfg.n_trials("recovery")

    def draw(rng):
        return _recovery_draw(rng, lo, hi)

    finish = _parts(_recovery_states, _channel_kraus)
    yield from _family(cfg, "recovery", 0, n, draw, finish, _recovery_fid_stack)
    quad = cfg.quad()
    yield from _family(cfg, "recovery", 1, min(n, 50), draw, finish,
                       lambda rho, sigma, ks: _recovery_stronger_stack(rho, sigma, ks, quad))
    yield from _family(cfg, "recovery", 2, n, draw, finish, _petz_fixed_point_rows)

    def tripartite(rng):
        return (_ginibre(rng, (8, int(rng.integers(2, 9)))),)

    yield from _family(cfg, "recovery", 3, n, tripartite, _parts(_densities),
                       lambda rho: _cmi_recovery_stack(rho, (2, 2, 2)))
    yield from _family(cfg, "recovery", 4, min(n, 20), _markov_draw, _markov_states, _markov_rows)


def _markov_draw(rng):
    """Mixture weights of C, and per value of C the Ginibre matrices of its
    A and B factors."""
    p = rng.dirichlet(np.ones(2))
    return p, tuple(_ginibre(rng, (2, int(rng.integers(1, 3)))) for _ in range(4))


def _markov_states(draws) -> list:
    """cq Markov chains sum_c p_c rho_A^c (x) rho_B^c (x) |c><c|: a classical
    channel on C of a B-C correlated cq state writes the A factor, so
    I(A;B|C) = 0 and recovery from C is exact."""
    probs, members = zip(*draws)
    rho, p = np.stack(_member_states(members)), np.stack(probs)
    mat = np.zeros((len(draws), 8, 8), dtype=complex)
    for c in range(2):
        block = np.zeros((2, 2))
        block[c, c] = 1.0
        mat += p[:, c, None, None] * _kron(_kron(rho[:, 2 * c], rho[:, 2 * c + 1]), block)
    return [(m,) for m in mat]


def _markov_rows(rho) -> list:
    fids = root_fidelity(rho, _recover_abc_stack(rho, (2, 2, 2)))
    rows = []
    for f in fids:
        fid = float(f) ** 2
        rows.append(_deviation_report("cmi-recovery-markov", 1.0 - fid, (2, 2, 2), {"fidelity": fid}))
    return rows


def _run_info_gain(cfg: CampaignConfig):
    lo, hi = cfg.dims[0], min(cfg.dims[1], 3)
    n = cfg.n_trials("info-gain")
    finish = _parts(_densities, _instrument_outcomes)

    def draw(rng, efficient=True):
        d = int(rng.integers(lo, hi + 1))
        if efficient is None:
            efficient = bool(rng.integers(2))
        g_instr = _instrument_draw(rng, d, int(rng.integers(2, 5)), efficient)
        return _ginibre(rng, (d, int(rng.integers(1, d + 1)))), g_instr

    def no_qsi_rows(rho, kx):
        gains = _groenewold_gains(rho, kx)
        return [
            [rep, _deviation_report("groenewold-vs-mutual-info", abs(float(gain) - rep.lhs),
                                    (rho.shape[-1],), {"groenewold_gain": float(gain)})]
            for rep, gain in zip(_info_gain_no_qsi_stack(rho, kx), gains)
        ]

    yield from _family(cfg, "info-gain", 0, n, draw, finish, no_qsi_rows)
    yield from _family(cfg, "info-gain", 1, n, lambda rng: draw(rng, None), finish,
                       _info_gain_upper_stack)

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

    yield from _family(cfg, "info-gain", 2, n, draw, finish, _efficient_second_law_stack)


def _run_info_gain_qsi(cfg: CampaignConfig):
    quad = cfg.quad()

    def draw(rng):
        g_rho = _ginibre(rng, (4, int(rng.integers(2, 5))))
        return g_rho, _instrument_draw(rng, 2, int(rng.integers(2, 4)), True)

    def rows(rho, kx):
        tp = "qsi-recovery-instrument-tp"
        return [[rep, _deviation_report(tp, rep.aux["recovery_instrument_tp_dev"], (2, 2))]
                for rep in _info_gain_qsi_stack(rho, kx, (2, 2), quad)]

    n = cfg.n_trials("info-gain-qsi")
    yield from _family(cfg, "info-gain-qsi", 0, n, draw, _parts(_densities, _instrument_outcomes), rows)


def _ensembles(draws) -> list:
    """(probs, member states, Kraus stack of N) of each random-ensemble draw."""
    probs, members, g_channels = zip(*draws)
    return list(zip(probs, _member_states(members), _each(_channel_kraus, g_channels)))


def _commuting_ensembles(g_basis: np.ndarray, eigenvalues: np.ndarray) -> list:
    """(member states, Kraus stack of the dephasing channel) of each
    commuting-ensemble draw of a group: the members are diagonal in one Haar
    basis, and the channel's Kraus operators are that basis' projectors."""
    basis = _haar_isometries(g_basis)
    diagonal = eigenvalues[..., :, None] * np.eye(eigenvalues.shape[-1])
    states = basis[..., None, :, :] @ diagonal @ basis.conj().swapaxes(-1, -2)[..., None, :, :]
    columns = basis.swapaxes(-1, -2)
    projectors = columns[..., :, :, None] * columns.conj()[..., :, None, :]
    return list(zip(states, projectors))


def _run_disturbance(cfg: CampaignConfig):
    lo, hi = cfg.dims[0], min(cfg.dims[1], 3)
    n = cfg.n_trials("disturbance")

    def random_ensemble_draw(rng):
        d = int(rng.integers(lo, hi + 1))
        m = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(m))
        members = tuple(_ginibre(rng, (d, int(rng.integers(1, d + 1)))) for _ in range(m))
        return probs, members, _channel_draw(rng, d, d, int(rng.integers(1, 5)))

    yield from _family(cfg, "disturbance", 0, n, random_ensemble_draw, _ensembles,
                       _entropic_disturbance_stack)

    def commuting_draw(rng):
        d = int(rng.integers(lo, hi + 1))
        g_basis = _ginibre(rng, (d, d))
        m = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(m))
        return probs, (g_basis, np.stack([rng.dirichlet(np.ones(d)) for _ in range(m)]))

    def commuting_rows(probs, states, ks):
        d = (states.shape[-1],)
        return [
            [_renamed(rep, "disturbance-commuting"),
             _deviation_report("disturbance-commuting-chi", abs(rep.lhs), d),
             _deviation_report("disturbance-commuting-fidelity", 1.0 - rep.aux["avg_sqrt_fid"], d)]
            for rep in _entropic_disturbance_stack(probs, states, ks)
        ]

    yield from _family(cfg, "disturbance", 1, min(n, 20), commuting_draw,
                       _parts(None, _commuting_ensembles), commuting_rows)


def _run_cpdp(cfg: CampaignConfig):
    n = cfg.n_trials("cpdp")
    dims = (2, 2, 2)  # (R, Q, E)
    # V: QE -> Q'E', unitary on QE, or isometric into a larger E'
    out_dims = (2, 4) if cfg.cpdp_isometric else (2, 2)
    configured = _parts(_densities, _haar_isometries)

    def config_draw(rng):
        return _ginibre(rng, (8, int(rng.integers(2, 9))))

    def interaction_draw(rng):
        return _ginibre(rng, (math.prod(out_dims), 4))

    def forward_rows(state, vs):
        _, reports, *forward = _reduced_dynamics_stack(state, vs, dims, out_dims)
        return [[f, c] for f, c in zip(reports, _converse_stack(state, dims, reports, *forward, 1.0))]

    yield from _family(cfg, "cpdp", 0, n, lambda rng: (config_draw(rng), interaction_draw(rng)),
                       configured, forward_rows)

    def product_draw(rng):
        g_rq = _ginibre(rng, (4, int(rng.integers(2, 5))))
        g_e = _ginibre(rng, (2, int(rng.integers(1, 3))))
        return g_rq, g_e, interaction_draw(rng)

    def product_configured(draws):
        return [(_kron(rq, e), v) for rq, e, v in _parts(_densities, _densities, _haar_isometries)(draws)]

    def product_rows(state, vs):
        return [_deviation_report("cpdp-forward-product", 1.0 - rep.aux["fidelity"], dims)
                for rep in _reduced_dynamics_stack(state, vs, dims, out_dims)[1]]

    yield from _family(cfg, "cpdp", 1, min(n, 10), product_draw, product_configured, product_rows)

    def embedding_rows(state):
        # the embedding Q' = QE, with a trivial output environment
        slack = _dp_slacks(state, np.broadcast_to(np.eye(4), (len(state), 4, 4)), dims, (4, 1))
        cmi = _cmi_stack(state, dims, (0,), (2,), (1,))
        return [_deviation_report("cpdp-embedding-consistency", abs(float(s) - float(c)), dims)
                for s, c in zip(slack, cmi)]

    yield from _family(cfg, "cpdp", 2, min(n, 20), lambda rng: (config_draw(rng),), _parts(_densities),
                       embedding_rows)


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
