"""Deterministic check campaigns for the CLI runner.

Every row is a pure function of the campaign config.  ``FAMILIES`` is the
ordered table of the finite suites' check families, each a draw, a finish
and a core on arrays (:class:`Family`), and ``run_suite`` runs a suite's
entries in table order; it is the one place a row gets its seed, its trial
number and, when set, the tolerance override.  Trial t of a family draws
its raw numbers (integers, Dirichlet vectors and Ginibre blocks) from its
own ``stream(master_seed, suite_index, family_index, t)``, in the order a
per-trial construction draws them.  The finish turns all trials' draws
into instances, tuples of arrays, once per group of equal shapes
(``_each``), through the ``qcore`` helpers each public ``random_*`` calls
on its one draw, so an instance has the bits of the per-trial
construction; no library object is built.  The core takes each shape
group's stacks, with a leading trial axis, and gives each trial the bits
its own ``check_*`` call would give it: a stacked core of ``theorems`` or
``cpdp``, or one here that builds deviation and witness rows from their
outputs.  A row therefore depends only on its own trial.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import bosonic as bos
from .cpdp import _converse_stack, _dp_slacks, _reduced_dynamics_stack
from .entropy import _cmi_stack, root_fidelity, trace_norm
from .matfun import eig_hermitian
from .qcore import (
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
        cap = min((f.dims for f in FAMILIES if f.suite in self.suites and f.dims), default=hi)
        if lo > cap:
            raise ConfigError(f"dims lo must be at most {cap}, the largest dimension some family of the "
                              f"selected suites draws, got {self.dims!r}")
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


def _deviation_report(name, deviation, dims, aux=None) -> CheckReport:
    return CheckReport(name=name, lhs=0.0, rhs=float(deviation), dims=dims, aux=aux or {})


def _renamed(rep: CheckReport, name: str) -> CheckReport:
    """``rep`` as a row of another name, with that name's tolerance."""
    return replace(rep, name=name, tol=TOLERANCES[name])


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


def _product_states(draws) -> list:
    """(rho_RQ (x) rho_E, V) of each draw of the G_RQ, G_E and V Ginibre blocks."""
    return [(_kron(rq, e), v) for rq, e, v in _parts(_densities, _densities, _haar_isometries)(draws)]


def _dim(rng, cfg) -> int:
    lo, hi = cfg.dims
    return int(rng.integers(lo, hi + 1))


def _state_draw(rng, d: int) -> np.ndarray:
    """The Ginibre matrix of a d-dimensional state of uniformly drawn rank."""
    return _ginibre(rng, (d, int(rng.integers(1, d + 1))))


def _channel_on(rng, d: int) -> np.ndarray:
    """The Ginibre blocks of a d -> d channel of 1 to 4 Kraus operators."""
    return _channel_draw(rng, d, d, int(rng.integers(1, 5)))


def _tripartite_draw(rng) -> np.ndarray:
    """The Ginibre matrix of a three-qubit state of rank 2 to 8."""
    return _ginibre(rng, (8, int(rng.integers(2, 9))))


def _entropy_gain_draw(rng, cfg):
    d = _dim(rng, cfg)
    return _state_draw(rng, d), _channel_on(rng, d)


def _subunital_pair_draw(rng, cfg):
    d = _dim(rng, cfg)
    return _state_draw(rng, d), _subunital_draw(rng, d, d + 1)


def _recovery_draw(rng, cfg):
    """The raw numbers of one recovery instance: the Ginibre matrices of
    sigma and of rho, and of N's Stinespring isometry.  A quarter of the
    sigmas are rank-deficient, and then rho's matrix is drawn on the support
    of sigma."""
    d = _dim(rng, cfg)
    rank_sigma = d if rng.integers(4) else max(1, d - 1)
    g_sigma = _ginibre(rng, (d, rank_sigma))
    g_rho = _state_draw(rng, rank_sigma)
    d_out = _dim(rng, cfg)
    env_min = -(-d // d_out)  # Stinespring needs out * env >= in
    return (g_sigma, g_rho), _channel_draw(rng, d, d_out, int(rng.integers(env_min, env_min + 4)))


def _markov_draw(rng, cfg):
    """Mixture weights of C, and per value of C the Ginibre matrices of its
    A and B factors."""
    return rng.dirichlet(np.ones(2)), tuple(_state_draw(rng, 2) for _ in range(4))


def _instrument_pair_draw(rng, cfg, efficient=True):
    """A state and an instrument on it; ``efficient=None`` draws whether the
    instrument is efficient."""
    d = _dim(rng, cfg)
    if efficient is None:
        efficient = bool(rng.integers(2))
    g_instr = _instrument_draw(rng, d, int(rng.integers(2, 5)), efficient)
    return _state_draw(rng, d), g_instr


def _pure_input_draw(rng, cfg):
    """A two-outcome instrument of two Kraus operators per outcome, then a
    pure qubit input: the post states are mixed, so the entropy reduction is
    strictly negative while the information-gain bound still holds."""
    g_instr = _instrument_draw(rng, 2, 2, False)
    return _ginibre(rng, (2, 1)), g_instr


def _ensemble_draw(rng, cfg):
    d, m = _dim(rng, cfg), int(rng.integers(2, 5))
    probs = rng.dirichlet(np.ones(m))
    members = tuple(_state_draw(rng, d) for _ in range(m))
    return probs, members, _channel_on(rng, d)


def _commuting_draw(rng, cfg):
    d = _dim(rng, cfg)
    g_basis = _ginibre(rng, (d, d))
    m = int(rng.integers(2, 5))
    probs = rng.dirichlet(np.ones(m))
    return probs, (g_basis, np.stack([rng.dirichlet(np.ones(d)) for _ in range(m)]))


def _interaction_draw(rng, cfg):
    """V: QE -> Q'E', unitary on QE, or isometric into a larger E'."""
    return _ginibre(rng, (8 if cfg.cpdp_isometric else 4, 4))


def _petz_fixed_point_rows(rho, sigma, ks) -> list:
    """||(P o N)(sigma) - sigma||_1 of the Petz map P of (sigma, N) for each
    map of a (N, K, out, in) Kraus stack."""
    n_sigma = _apply_kraus(ks, sigma)
    dev = trace_norm(_apply_kraus(_petz_stack(sigma, ks, n_sigma), n_sigma) - sigma)
    dims = (sigma.shape[-1], ks.shape[-2])
    return [_deviation_report("petz-fixed-point", x, dims) for x in dev]


def _markov_rows(rho) -> list:
    fids = root_fidelity(rho, _recover_abc_stack(rho, (2, 2, 2)))
    rows = []
    for f in fids:
        fid = float(f) ** 2
        rows.append(_deviation_report("cmi-recovery-markov", 1.0 - fid, (2, 2, 2), {"fidelity": fid}))
    return rows


def _no_qsi_rows(rho, kx) -> list:
    gains = _groenewold_gains(rho, kx)
    return [
        [rep, _deviation_report("groenewold-vs-mutual-info", abs(float(gain) - rep.lhs),
                                (rho.shape[-1],), {"groenewold_gain": float(gain)})]
        for rep, gain in zip(_info_gain_no_qsi_stack(rho, kx), gains)
    ]


def _pure_input_rows(rho, kx) -> list:
    rows = []
    for rep in _info_gain_upper_stack(rho, kx):
        gain = rep.aux["groenewold_gain"]
        rows.append([rep, CheckReport("negative-groenewold-witness", lhs=-gain, rhs=0.0, dims=(2,),
                                      aux={"groenewold_gain": gain})])
    return rows


def _qsi_rows(rho, kx, quad) -> list:
    tp = "qsi-recovery-instrument-tp"
    return [[rep, _deviation_report(tp, rep.aux["recovery_instrument_tp_dev"], (2, 2))]
            for rep in _info_gain_qsi_stack(rho, kx, (2, 2), quad)]


def _commuting_rows(probs, states, ks) -> list:
    d = (states.shape[-1],)
    return [
        [_renamed(rep, "disturbance-commuting"),
         _deviation_report("disturbance-commuting-chi", abs(rep.lhs), d),
         _deviation_report("disturbance-commuting-fidelity", 1.0 - rep.aux["avg_sqrt_fid"], d)]
        for rep in _entropic_disturbance_stack(probs, states, ks)
    ]


_RQE = (2, 2, 2)  # (R, Q, E); V: QE -> Q'E' with Q' a qubit, and E' what is left of V's output


def _forward_rows(state, vs) -> list:
    _, reports, *forward = _reduced_dynamics_stack(state, vs, _RQE, (2, vs.shape[-2] // 2))
    return [[f, c] for f, c in zip(reports, _converse_stack(state, _RQE, reports, *forward, 1.0))]


def _product_rows(state, vs) -> list:
    return [_deviation_report("cpdp-forward-product", 1.0 - rep.aux["fidelity"], _RQE)
            for rep in _reduced_dynamics_stack(state, vs, _RQE, (2, vs.shape[-2] // 2))[1]]


def _embedding_rows(state) -> list:
    # the embedding Q' = QE, with a trivial output environment
    slack = _dp_slacks(state, np.broadcast_to(np.eye(4), (len(state), 4, 4)), _RQE, (4, 1))
    cmi = _cmi_stack(state, _RQE, (0,), (2,), (1,))
    return [_deviation_report("cpdp-embedding-consistency", abs(float(s) - float(c)), _RQE)
            for s, c in zip(slack, cmi)]


@dataclass(frozen=True)
class Family:
    """One check family: trial t draws ``draw(rng, cfg)`` from ``stream(
    master_seed, SUITES.index(suite), index, t)``, ``finish`` turns the list
    of all trials' draws into instances, and ``core`` takes the stacks of
    each group of instances of equal shapes and returns each instance's
    report, or its list of reports.  ``trials`` caps the suite's trial
    count.  ``dims`` caps the dimensions drawn: the draw sees ``cfg.dims``
    cut to ``(lo, min(hi, dims))``, and a family of fixed dimensions has
    None.  With ``quad`` set the core takes the quadrature rule last."""

    name: str
    suite: str
    index: int
    draw: Callable
    finish: Callable
    core: Callable
    trials: int | None = None
    dims: int | None = None
    quad: bool = False


_PLUS = np.full((2, 2), 0.5, dtype=complex)
# the dephasing channel, self-adjoint and idempotent: equality at |+><+|
_DEPHASING = (np.array([np.eye(2), np.diag([1.0, -1.0])]) / math.sqrt(2)).astype(complex)
_STATE_CHANNEL = _parts(_densities, _channel_kraus)
_RECOVERY = _parts(_recovery_states, _channel_kraus)
_STATE_INSTRUMENT = _parts(_densities, _instrument_outcomes)
_STATE = _parts(_densities)

FAMILIES = (
    Family("entropy-gain", "entropy-gain", 0, _entropy_gain_draw, _STATE_CHANNEL,
           _entropy_gain_stack, dims=4),
    Family("entropy-gain-equality", "entropy-gain", 1, lambda rng, cfg: (_PLUS, _DEPHASING), list,
           lambda rho, ks: [_renamed(r, "entropy-gain-equality") for r in _entropy_gain_stack(rho, ks)],
           trials=1),
    Family("entropy-gain-recovery", "entropy-gain", 2, _subunital_pair_draw,
           _parts(_densities, _subunital_kraus), _entropy_gain_recovery_stack, trials=50, dims=3),
    Family("cond-entropy-gain", "entropy-gain", 3,
           lambda rng, cfg: (_state_draw(rng, 4), _channel_on(rng, 2)), _STATE_CHANNEL,
           lambda rho, ks: _cond_entropy_gain_stack(rho, ks, (2, 2)), trials=50),
    Family("recovery-fid", "recovery", 0, _recovery_draw, _RECOVERY, _recovery_fid_stack, dims=3),
    Family("recovery-stronger", "recovery", 1, _recovery_draw, _RECOVERY, _recovery_stronger_stack,
           trials=50, dims=3, quad=True),
    Family("petz-fixed-point", "recovery", 2, _recovery_draw, _RECOVERY, _petz_fixed_point_rows, dims=3),
    Family("cmi-recovery", "recovery", 3, lambda rng, cfg: (_tripartite_draw(rng),), _STATE,
           lambda rho: _cmi_recovery_stack(rho, (2, 2, 2))),
    Family("cmi-recovery-markov", "recovery", 4, _markov_draw, _markov_states, _markov_rows, trials=20),
    Family("info-gain-no-qsi", "info-gain", 0, _instrument_pair_draw, _STATE_INSTRUMENT, _no_qsi_rows,
           dims=3),
    Family("info-gain-upper", "info-gain", 1, lambda rng, cfg: _instrument_pair_draw(rng, cfg, None),
           _STATE_INSTRUMENT, _info_gain_upper_stack, dims=3),
    Family("negative-groenewold-witness", "info-gain", 4, _pure_input_draw, _STATE_INSTRUMENT,
           _pure_input_rows, trials=1),
    Family("efficient-second-law", "info-gain", 2, _instrument_pair_draw, _STATE_INSTRUMENT,
           _efficient_second_law_stack, dims=3),
    Family("info-gain-qsi", "info-gain-qsi", 0,
           lambda rng, cfg: (_ginibre(rng, (4, int(rng.integers(2, 5)))),
                             _instrument_draw(rng, 2, int(rng.integers(2, 4)), True)),
           _STATE_INSTRUMENT, _qsi_rows, quad=True),
    Family("entropic-disturbance", "disturbance", 0, _ensemble_draw, _ensembles,
           _entropic_disturbance_stack, dims=3),
    Family("disturbance-commuting", "disturbance", 1, _commuting_draw, _parts(None, _commuting_ensembles),
           _commuting_rows, trials=20, dims=3),
    Family("cpdp-forward", "cpdp", 0, lambda rng, cfg: (_tripartite_draw(rng), _interaction_draw(rng, cfg)),
           _parts(_densities, _haar_isometries), _forward_rows),
    Family("cpdp-forward-product", "cpdp", 1,
           lambda rng, cfg: (_ginibre(rng, (4, int(rng.integers(2, 5)))), _state_draw(rng, 2),
                             _interaction_draw(rng, cfg)),
           _product_states, _product_rows, trials=10),
    Family("cpdp-embedding-consistency", "cpdp", 2, lambda rng, cfg: (_tripartite_draw(rng),), _STATE,
           _embedding_rows, trials=20),
)


def _family_reports(cfg: CampaignConfig, fam: Family) -> list:
    """Each trial's list of reports of one family, in trial order."""
    n = cfg.n_trials(fam.suite) if fam.trials is None else min(cfg.n_trials(fam.suite), fam.trials)
    if fam.dims is not None:
        cfg = replace(cfg, dims=(cfg.dims[0], min(cfg.dims[1], fam.dims)))
    suite = SUITES.index(fam.suite)
    instances = fam.finish([fam.draw(stream(cfg.master_seed, suite, fam.index, t), cfg) for t in range(n)])
    extra = (cfg.quad(),) if fam.quad else ()
    return [reps if isinstance(reps, list) else [reps]
            for reps in _each(lambda *stacks: fam.core(*stacks, *extra), instances)]


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


def run_suite(cfg: CampaignConfig, suite: str):
    """Report rows of one suite, family by family in ``FAMILIES`` order.

    The only place a row gets its seed and its trial number: every report is
    stamped with ``cfg.master_seed`` and, when set, ``cfg.tol_override`` in
    place of its table tolerance.  A row's trial is its stream's, except
    that a check's trials run on from the rows earlier families of the suite
    gave it, so (suite, check, trial) names one row.
    """
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}")
    stamp = {"seed": cfg.master_seed}
    if cfg.tol_override is not None:
        stamp["tol"] = cfg.tol_override
    if suite == "bosonic":  # no randomness: the rows are numbered in order
        pairs = enumerate(_bosonic_reports(cfg))
    else:
        pairs, done = [], Counter()
        for fam in FAMILIES:
            if fam.suite == suite:
                reports = _family_reports(cfg, fam)
                pairs += [(t + done[rep.name], rep) for t, reps in enumerate(reports) for rep in reps]
                done.update(rep.name for reps in reports for rep in reps)
    return [report_row(replace(rep, **stamp), suite, trial) for trial, rep in pairs]


def run_campaign(cfg: CampaignConfig):
    rows = []
    for suite in cfg.suites:
        rows.extend(run_suite(cfg, suite))
    return rows
