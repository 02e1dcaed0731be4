"""Truncated-Fock pure-loss and quantum-limited amplifier channels and the
entropy-gain / adjoint-relation checks built on them.

Truncation policy: channels act on the span of Fock levels 0..n_max.  The
loss channel is exactly trace-preserving there (it only moves photons down);
the amplifier leaks probability above the cutoff and is trace-non-increasing.
Every Kraus operator of either channel has one nonzero diagonal, so both are
held as a :class:`Ladder` of (shift, diagonal) pairs.  A ladder keeps the
coherence order Delta = n - m, so it acts on the Delta-diagonal of a matrix by
one block (``_block``), which serves both to apply a ladder and to compose a
chain of them (``_sectors``); the dense :class:`~qrecovery.qcore.Channel`
forms are kept as the reference.
Identity claims inherited from the infinite-dimensional channels are asserted
only on a guard-banded subspace ``n <= n_max - n_guard``, and each report
carries an analytic estimate of the truncation tail so a failure can be
attributed to truncation rather than to a construction error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .entropy import entropy, rel_entropy
from .qcore import TRACE_TOL, Channel, DimensionMismatchError
from .reports import CheckReport

__all__ = [
    "FockTruncation",
    "GaussianChannelSpec",
    "Ladder",
    "loss_ladder",
    "amp_ladder",
    "loss_channel",
    "amp_channel",
    "vacuum_state",
    "fock_state",
    "geometric_state",
    "mean_photon",
    "loss_identity_tail",
    "recommended_guard",
    "check_almost_unital",
    "check_adjoint_relation",
    "check_bosonic_entropy_gain",
    "check_loss_semigroup",
    "DEFAULT_GUARD",
    "DEFAULT_TRUNC_TOL",
]

DEFAULT_GUARD = 15
DEFAULT_TRUNC_TOL = 1e-6


@dataclass(frozen=True)
class FockTruncation:
    """Highest occupied Fock level retained; matrix dimension is n_max + 1."""

    n_max: int = 40

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class GaussianChannelSpec:
    """Loss (transmissivity eta), amplifier (gain), or their composition."""

    kind: str
    truncation: FockTruncation = FockTruncation()
    eta: float | None = None
    gain: float | None = None

    def __post_init__(self):
        if self.kind not in ("loss", "amp", "compose"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.kind in ("loss", "compose"):
            # every check reverses the loss by the amplifier of gain 1/eta
            if self.eta is None or not 0.0 < self.eta <= 1.0:
                raise ValueError(f"loss transmissivity must lie in (0, 1], got {self.eta!r}")
        if self.kind in ("amp", "compose"):
            if self.gain is None or self.gain < 1.0:
                raise ValueError(f"amplifier gain must be >= 1, got {self.gain!r}")

    def parameter(self) -> float:
        if self.kind == "loss":
            return float(self.eta)
        if self.kind == "amp":
            return float(self.gain)
        return float(self.eta * self.gain)


# log n! - [(n + 1/2) log n - n + log sqrt(2 pi)] for n = 0..15, as
# gammaln(n + 1) - (n + 0.5) log n + n - log sqrt(2 pi) evaluates it in
# double precision.  The remainder diverges at n = 0, which the saddle-point
# terms never reach; its entry is a placeholder.
_STIRLERR_SMALL = np.array([
    0.0,
    0.08106146679532733,
    0.041340695955409235,
    0.02767792568499816,
    0.020790672103765395,
    0.016644691189821703,
    0.013876128823070655,
    0.011896709945891981,
    0.010411265261975,
    0.009255462182710783,
    0.008330563433360805,
    0.00757367548795207,
    0.006942840107208692,
    0.00640899418800478,
    0.005951370112766252,
    0.005554733551965452,
])


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """log n! - [(n + 1/2) log n - n + log sqrt(2 pi)] for integer n >= 1: the
    Stirling remainder, from a table below 16 and by its asymptotic series above."""
    small = _STIRLERR_SMALL[np.minimum(n, 15).astype(np.intp)]
    with np.errstate(all="ignore"):
        nn = n * n
        series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n
    return np.where(n < 16, small, series)


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Deviance x log(x/m) + m - x, by its atanh series where |x - m| < (x + m)/10."""
    with np.errstate(all="ignore"):
        direct = x * np.log(x / m) + m - x
        v = (x - m) / (x + m)
        series, term = (x - m) * v, 2.0 * x * v
        for j in range(1, 12):
            term = term * v * v
            series = series + term / (2 * j + 1)
    return np.where(np.abs(x - m) < 0.1 * (x + m), series, direct)


def _log_binom_pmf(k: np.ndarray, n: np.ndarray, p: float, q: float) -> np.ndarray:
    """log [C(n, k) p^k q^(n-k)] for integer arrays 0 <= k <= n, with q = 1 - p.

    Built in log space, so nothing overflows at any n, by Loader's saddle-point
    split (C. Loader, "Fast and accurate computation of binomial
    probabilities", 2000): Stirling remainders plus two deviances, none of
    which grows with n.  Near the mode the error stays at the 1e-15 scale: the
    loss ladder's column sums at n_max = 1100 are 1 within 1e-14, where
    gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1) misses by 1.2e-12.
    """
    k, n = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(n, dtype=float))
    inner = (0 < k) & (k < n)
    ki, ni = np.where(inner, k, 1.0), np.where(inner, n, 2.0)
    saddle = (
        _stirlerr(ni) - _stirlerr(ki) - _stirlerr(ni - ki)
        - _bd0(ki, ni * p) - _bd0(ni - ki, ni * q)
        + 0.5 * np.log(ni / (2.0 * np.pi * ki * (ni - ki)))
    )
    # k = 0 or k = n: n log q or n log p, with 0 log 0 = 0.  math.log is the C
    # library's log; numpy's vectorised log differs from it in the last bit
    # for a few inputs in a thousand.
    log_p, log_q = (math.log(v) if v > 0 else -math.inf for v in (p, q))
    with np.errstate(invalid="ignore"):
        edge = np.where(n == 0, 0.0, n * np.where(k == 0, log_q, log_p))
    return np.where(inner, saddle, edge)


@dataclass(frozen=True, eq=False)
class Ladder:
    """Kraus map on Fock levels 0..dim-1 whose every operator has one nonzero
    diagonal: K_j = sum_b diags[j, b] |b + shifts[j]><b|.

    ``diags[j, b]`` is zero wherever b + shifts[j] falls outside the levels.
    Every operator keeps the coherence order Delta = n - m, so the map takes
    the Delta-diagonal of X to the Delta-diagonal of sum_j K_j X K_j^dag by
    one block (``_block``): :meth:`apply` makes one matrix-vector product per
    order present in X, so a diagonal X costs one dim x dim block.  The gram
    sum_j K_j^dag K_j is diagonal with entries sum_j |diags[j, b]|^2; a column
    sum above 1 + TRACE_TOL raises as :class:`~qrecovery.qcore.Channel` does.
    """

    shifts: tuple
    diags: np.ndarray

    def __post_init__(self):
        diags = np.array(self.diags, ndmin=2)
        diags.setflags(write=False)
        if len(self.shifts) != diags.shape[0]:
            raise ValueError("one shift per diagonal is required")
        excess = float((np.abs(diags) ** 2).sum(axis=0).max() - 1.0)
        if excess > TRACE_TOL:
            raise ValueError(f"ladder is trace-increasing: max column sum of |diag|^2 - 1 is {excess!r}")
        object.__setattr__(self, "shifts", tuple(int(s) for s in self.shifts))
        object.__setattr__(self, "diags", diags)

    @property
    def dim(self) -> int:
        return self.diags.shape[1]

    @classmethod
    def from_kraus(cls, kraus) -> "Ladder":
        """Ladder of dense square Kraus operators, each with at most one nonzero
        diagonal; zero operators are dropped, any other raises ValueError."""
        shifts, diags = [], []
        for k in map(np.asarray, kraus):
            rows, cols = np.nonzero(k)
            offsets = np.unique(rows - cols)
            if offsets.size > 1:
                raise ValueError("Kraus operator mixes coherence orders; no ladder form")
            if offsets.size:
                diag = np.zeros(k.shape[1], dtype=k.dtype)
                diag[cols] = k[rows, cols]
                shifts.append(int(offsets[0]))
                diags.append(diag)
        return cls(tuple(shifts), np.array(diags))

    def kraus(self) -> tuple:
        """The dense Kraus operators: diags[j] on the diagonal -shifts[j]."""
        d = self.dim
        return tuple(np.diag(diag[max(0, -s) : d - max(0, s)], -s) for s, diag in zip(self.shifts, self.diags))

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        d = self.dim
        if x.shape != (d, d):
            raise DimensionMismatchError(f"input shape {x.shape} does not match ladder dimension {d}")
        out = np.zeros((d, d), dtype=complex)
        flat_x, flat_out = x.reshape(-1), out.reshape(-1)
        rows, cols = np.nonzero(x)
        for delta in set((rows - cols).tolist()):
            # entries (a, a - Delta), a ascending from max(Delta, 0) as in _block
            start, size = max(delta, 0) * (d + 1) - delta, d - abs(delta)
            diagonal = slice(start, start + size * (d + 1), d + 1)
            block, x_delta = _block(self, delta, size), flat_x[diagonal]
            if np.iscomplexobj(block):
                flat_out[diagonal] = block @ x_delta
            else:
                flat_out.real[diagonal] = block @ x_delta.real
                flat_out.imag[diagonal] = block @ x_delta.imag
        return out


def _block(ladder: Ladder, delta: int, size: int) -> np.ndarray:
    """Leading ``size`` x ``size`` window of a ladder's coherence-order block Delta.

    The block maps the Delta-diagonal of X to that of sum_k K_k X K_k^dag: its
    entry (a, b), with levels counted from max(Delta, 0), is
    sum_k K_k[a, b] conj(K_k[a - Delta, b - Delta]).  Operator k puts
    diags[k, b] conj(diags[k, b - Delta]) at (b + shifts[k], b); one bincount
    sums the operators that share an entry, in operator order, on rows padded
    by dim on both sides so that entries outside the window need no mask.
    """
    lo, d = max(delta, 0), ladder.dim
    values = ladder.diags[:, lo : lo + size] * ladder.diags[:, lo - delta : lo - delta + size].conj()
    cols = np.arange(size)
    flat = ((np.array(ladder.shifts)[:, None] + d + cols) * size + cols).reshape(-1)
    n, window = (size + 2 * d) * size, slice(d * size, (d + size) * size)
    if np.iscomplexobj(values):
        re, im = (np.bincount(flat, part.reshape(-1), n)[window] for part in (values.real, values.imag))
        block = re + 1j * im
    else:
        # copied, so that a block kept by the caller does not hold the padding
        block = np.bincount(flat, values.reshape(-1), n)[window].copy()
    return block.reshape(size, size)


@functools.lru_cache(maxsize=32)
def loss_ladder(eta: float, trunc: FockTruncation = FockTruncation()) -> Ladder:
    """Beamsplitter with vacuum environment: <n-k|K_k|n> = sqrt(C(n,k) eta^(n-k) (1-eta)^k)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta!r}")
    k, n = np.ogrid[: trunc.dim, : trunc.dim]
    log_sq = _log_binom_pmf(np.minimum(k, n), n, 1.0 - eta, eta)
    return _nonzero_rows(-np.arange(trunc.dim), np.where(k <= n, np.exp(0.5 * log_sq), 0.0))


@functools.lru_cache(maxsize=32)
def amp_ladder(gain: float, trunc: FockTruncation = FockTruncation()) -> Ladder:
    """Two-mode squeezer with vacuum environment, truncated at n_max:

    <n+k|A_k|n> = sqrt(C(n+k, k) (1 - 1/G)^k (1/G)^(n+1)).
    """
    if gain < 1.0:
        raise ValueError(f"gain must be >= 1, got {gain!r}")
    k, n = np.ogrid[: trunc.dim, : trunc.dim]
    inv = 1.0 / gain
    log_sq = math.log(inv) + _log_binom_pmf(k, n + k, 1.0 - inv, inv)
    return _nonzero_rows(np.arange(trunc.dim), np.where(n + k < trunc.dim, np.exp(0.5 * log_sq), 0.0))


def _nonzero_rows(shifts: np.ndarray, diags: np.ndarray) -> Ladder:
    keep = diags.any(axis=1)
    return Ladder(tuple(shifts[keep]), diags[keep])


@functools.lru_cache(maxsize=32)
def loss_channel(eta: float, trunc: FockTruncation = FockTruncation()) -> Channel:
    """Dense :class:`Channel` of :func:`loss_ladder`, the reference form."""
    return Channel(loss_ladder(eta, trunc).kraus())


@functools.lru_cache(maxsize=32)
def amp_channel(gain: float, trunc: FockTruncation = FockTruncation()) -> Channel:
    """Dense :class:`Channel` of :func:`amp_ladder`, the reference form."""
    return Channel(amp_ladder(gain, trunc).kraus())


def _spec_ladders(spec: GaussianChannelSpec):
    """Forward channel stages (applied left to right) and the reversal stages."""
    trunc = spec.truncation
    if spec.kind == "loss":
        return [loss_ladder(spec.eta, trunc)], [amp_ladder(1.0 / spec.eta, trunc)]
    if spec.kind == "amp":
        return [amp_ladder(spec.gain, trunc)], [loss_ladder(1.0 / spec.gain, trunc)]
    forward = [loss_ladder(spec.eta, trunc), amp_ladder(spec.gain, trunc)]
    reverse = [loss_ladder(1.0 / spec.gain, trunc), amp_ladder(1.0 / spec.eta, trunc)]
    return forward, reverse


def _apply_stages(stages, mat: np.ndarray) -> np.ndarray:
    for ladder in stages:
        mat = ladder.apply(mat)
    return mat


def _sectors(stages, keep: int | None = None) -> dict:
    """Coherence-order blocks of the transfer matrix of a ladder chain (applied left to right).

    Ladder operators each shift n by a fixed s, so the row-major transfer
    matrix couples output (a, a - Delta) only to input (b, b - Delta).  Block
    Delta holds sum_k K_k[a, b] conj(K_k[a - Delta, b - Delta]) over levels
    a, b in [max(Delta, 0), dim + min(Delta, 0)) (see ``_block``), and the
    stage blocks of one order are multiplied on their own.

    ``keep`` (default dim) keeps the orders |Delta| < keep, each cut to its
    leading keep - |Delta| levels, the guard-banded window.  Every block is
    built and multiplied at full size and then cut.  For loss stages
    (shifts <= 0, upper-triangular blocks) followed by amplifier stages
    (shifts >= 0, lower-triangular blocks) the product of the stage windows is
    the same window in exact arithmetic, as (L U)[:w, :w] = L[:w, :w] U[:w, :w];
    but OpenBLAS rounds the smaller product differently, by one ulp at
    n_max = 40.
    """
    dim = stages[0].dim
    keep = dim if keep is None else keep
    blocks = {}
    for delta in range(1 - keep, keep):
        n = dim - abs(delta)
        block = _block(stages[0], delta, n)
        for ladder in stages[1:]:
            block = _block(ladder, delta, n) @ block
        w = keep - abs(delta)
        blocks[delta] = block[:w, :w]
    return blocks


def _keep_levels(n_max: int, n_guard: int) -> int:
    """Number of Fock levels below the guard band; requires 0 <= n_guard <= n_max."""
    if not 0 <= n_guard <= n_max:
        raise ValueError(f"guard band must satisfy 0 <= n_guard <= n_max = {n_max}, got {n_guard!r}")
    return n_max - n_guard + 1


def vacuum_state(trunc: FockTruncation = FockTruncation()) -> np.ndarray:
    return fock_state(0, trunc)


def fock_state(n: int, trunc: FockTruncation = FockTruncation()) -> np.ndarray:
    if not 0 <= n <= trunc.n_max:
        raise ValueError(f"Fock level {n} outside truncation 0..{trunc.n_max}")
    mat = np.zeros((trunc.dim, trunc.dim))
    mat[n, n] = 1.0
    return mat


def geometric_state(mean: float, trunc: FockTruncation = FockTruncation(), support_max: int | None = None) -> np.ndarray:
    """Thermal-like diagonal state with geometric populations, renormalized
    after truncating to ``support_max`` (default: the full truncated space)."""
    if mean <= 0:
        raise ValueError("mean must be positive")
    top = trunc.n_max if support_max is None else int(support_max)
    r = mean / (1.0 + mean)
    pops = np.array([r**n for n in range(top + 1)])
    pops /= pops.sum()
    mat = np.zeros((trunc.dim, trunc.dim))
    mat[: top + 1, : top + 1] = np.diag(pops)
    return mat


def mean_photon(mat: np.ndarray) -> float:
    d = mat.shape[0]
    return float(np.real(np.sum(np.arange(d) * np.diag(mat))))


def loss_identity_tail(eta: float, level: int, n_max: int) -> float:
    """Analytic truncation deficit of <m|B_eta(I)|m> at m = level:

    eta^m * sum_{k > n_max - m} C(m+k, k) (1-eta)^k, the negative-binomial
    tail lost to the cutoff.  This is exactly how far the truncated channel
    must deviate from the infinite-dimensional identity B_eta(I) = I/eta.
    The first term is taken in log space, so no n_max overflows.
    """
    if eta >= 1.0:
        return 0.0
    m = int(level)
    x = 1.0 - eta
    k = n_max - m + 1
    term = float(np.exp(_log_binom_pmf(k, m + k, x, eta)))
    total = 0.0
    while True:
        total += term
        k += 1
        term *= x * (m + k) / k
        if term < total * 1e-16 or k > 100 * (n_max + 1):
            break
    return total


def recommended_guard(spec: GaussianChannelSpec) -> int:
    """Smallest guard band making the almost-unital identity testable at
    ``DEFAULT_TRUNC_TOL``.

    Only the loss part contributes: amplifier output level m receives only
    from levels n <= m, so A_G(I) = I/G holds on every truncated level and
    a pure amplifier needs no guard band.
    """
    if spec.kind == "amp":
        return 0
    n_max = spec.truncation.n_max
    for guard in range(0, n_max):
        if loss_identity_tail(spec.eta, n_max - guard, n_max) <= DEFAULT_TRUNC_TOL:
            return guard
    return n_max - 1


def check_almost_unital(
    spec: GaussianChannelSpec,
    n_guard: int | None = DEFAULT_GUARD,
) -> CheckReport:
    """Deviation of N(I) from c^{-1} I on the guard-banded subspace.

    ``n_guard=None`` selects the recommended (parameter-dependent) guard.  The
    report's aux payload carries the analytic truncation tail at the band
    edge; when that tail alone exceeds ``DEFAULT_TRUNC_TOL`` the guard band
    is too small for this parameter and the report is flagged
    truncation-dominated.
    """
    if n_guard is None:
        n_guard = recommended_guard(spec)
    n_max = spec.truncation.n_max
    keep = _keep_levels(n_max, n_guard)
    forward, _ = _spec_ladders(spec)
    out = _apply_stages(forward, np.eye(spec.truncation.dim))
    target = np.eye(spec.truncation.dim) / spec.parameter()
    deviation = float(np.abs((out - target)[:keep, :keep]).max())
    if spec.kind == "amp":
        tail = 0.0
    else:
        tail = loss_identity_tail(spec.eta, keep - 1, n_max)
        if spec.kind == "compose":
            tail /= spec.gain
    return CheckReport(
        name=f"bosonic-almost-unital-{spec.kind}",
        lhs=0.0,
        rhs=deviation,
        dims=(spec.truncation.dim,),
        aux={
            "parameter": spec.parameter(),
            "guard": n_guard,
            "analytic_tail": tail,
            "truncation_dominated": tail > DEFAULT_TRUNC_TOL,
        },
    )


def check_adjoint_relation(
    spec: GaussianChannelSpec,
    n_guard: int = DEFAULT_GUARD,
) -> CheckReport:
    """Adjoint duality between loss and amplification:

    B_eta^dag = eta^{-1} A_{1/eta},  A_G^dag = G^{-1} B_{1/G}, and
    (A_G o B_eta)^dag = (eta G)^{-1} A_{1/eta} o B_{1/G}.

    Both sides are compared as Choi matrices restricted to the guard-banded
    subspace.  With the Kraus conventions used here the single-channel
    relations hold to machine precision on the whole truncated space.

    Both chains are held as coherence-order blocks (see ``_sectors``).  The
    adjoint of block Delta is its conjugate transpose, and the guard band keeps
    the orders |Delta| < keep and the leading (keep - |Delta|)^2 window of each
    block, the only part ``_sectors`` returns.
    """
    d = spec.truncation.dim
    keep = _keep_levels(spec.truncation.n_max, n_guard)
    forward, reverse = _spec_ladders(spec)
    # reversal stages compose in the adjoint order
    t_forward, t_reverse = _sectors(forward, keep), _sectors(reverse, keep)
    scale = 1.0 / spec.parameter()
    deviation = 0.0
    for delta, block in t_forward.items():
        diff = block.conj().T - scale * t_reverse[delta]
        deviation = max(deviation, float(np.abs(diff).max()))
    return CheckReport(
        name=f"bosonic-adjoint-{spec.kind}",
        lhs=0.0,
        rhs=deviation,
        dims=(d,),
        aux={"parameter": spec.parameter(), "guard": n_guard, "scale": scale},
    )


def check_bosonic_entropy_gain(
    spec: GaussianChannelSpec,
    rho: np.ndarray,
    n_guard: int = DEFAULT_GUARD,
    state_name: str = "state",
) -> CheckReport:
    """Entropy-gain inequality with the log-parameter shift, e.g. for loss:

    H(B_eta(rho)) - H(rho) >= D(rho || (A_{1/eta} o B_eta)(rho)) + log2(eta),

    and the gain/composition analogues with log2(G) and log2(eta G).  Inputs
    must be low-energy: supported inside the guard band with mean photon
    number at most n_max / 4.
    """
    n_max = spec.truncation.n_max
    keep = _keep_levels(n_max, n_guard)
    rho = np.asarray(rho, dtype=complex)
    leakage = float(np.real(np.trace(rho[keep:, keep:])))
    if leakage > 1e-12:
        raise ValueError(
            f"input state leaks {leakage:.3e} probability above the guard band (n >= {keep})"
        )
    mean = mean_photon(rho)
    if mean > n_max / 4:
        raise ValueError(f"mean photon number {mean:.2f} exceeds n_max/4 = {n_max / 4}")
    forward, reverse = _spec_ladders(spec)
    out = _apply_stages(forward, rho)
    reversed_out = _apply_stages(reverse, out)
    lhs = entropy(out) - entropy(rho)
    d = rel_entropy(rho, reversed_out)
    rhs = d.value + math.log2(spec.parameter())
    return CheckReport(
        name=f"bosonic-entropy-gain-{spec.kind}",
        lhs=lhs,
        rhs=rhs,
        dims=(spec.truncation.dim,),
        aux={
            "parameter": spec.parameter(),
            "state": state_name,
            "mean_photon": mean,
            "guard_leakage": leakage,
            "output_trace_deficit": 1.0 - float(np.real(np.trace(out))),
            "support_violation": d.support_violation,
        },
    )


def check_loss_semigroup(
    eta1: float,
    eta2: float,
    trunc: FockTruncation = FockTruncation(),
) -> CheckReport:
    """B_eta1 o B_eta2 = B_(eta1 eta2): exact under truncation since loss only
    moves photons down the ladder.

    Loss keeps the coherence order Delta = n - m, so both maps are held as
    sector blocks (see ``_sectors``) and compared on every block entry.
    """
    t_comp = _sectors([loss_ladder(eta2, trunc), loss_ladder(eta1, trunc)])
    t_direct = _sectors([loss_ladder(eta1 * eta2, trunc)])
    deviation = max(float(np.abs(t_comp[delta] - t_direct[delta]).max()) for delta in t_comp)
    return CheckReport(
        name="bosonic-loss-semigroup",
        lhs=0.0,
        rhs=deviation,
        dims=(trunc.dim,),
        aux={"eta1": eta1, "eta2": eta2},
    )
