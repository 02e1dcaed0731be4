"""Truncated-Fock pure-loss and quantum-limited amplifier channels and the
entropy-gain / adjoint-relation checks built on them.

Truncation policy: channels act on the span of Fock levels 0..n_max.  The
loss channel is exactly trace-preserving there (it only moves photons down);
the amplifier leaks probability above the cutoff and is trace-non-increasing.
Every Kraus operator of either channel has one nonzero diagonal, so both are
held as a :class:`Ladder` of (shift, diagonal) pairs with distinct shifts, and
with their operator sum D = sum_k K_k, in which each entry comes from exactly
one operator.  A ladder keeps the coherence order Delta = n - m, so it acts on
the Delta-diagonal of a matrix by one block (``_block``), the product of two
windows of D.  The blocks of every order compose a chain of ladders
(``_sectors``) for the adjoint and semigroup checks.  The channels are
phase-covariant, so a Fock-diagonal state stays Fock-diagonal: the
almost-unital and entropy-gain checks hold it as its photon-number vector,
moved by the Delta = 0 block |D|^2 of each stage, and take Shannon entropies
(:func:`~qrecovery.entropy.shannon_entropy`,
:func:`~qrecovery.entropy.classical_rel_entropy`).  The dense
:class:`~qrecovery.qcore.Channel` forms are kept as the reference.
Identity claims inherited from the infinite-dimensional channels are asserted
only on a guard-banded subspace ``n <= n_max - n_guard``, and each report
carries an analytic estimate of the truncation tail so a failure can be
attributed to truncation rather than to a construction error.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .entropy import classical_rel_entropy, shannon_entropy
from .matfun import HERM_TOL, _require_finite
from .qcore import PSD_TOL, TRACE_TOL, Channel, DimensionMismatchError
from .reports import CheckReport

__all__ = [
    "FockTruncation",
    "GaussianChannelSpec",
    "Ladder",
    "NotFockDiagonalError",
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


class NotFockDiagonalError(ValueError):
    """Raised when a state given to a check that holds it as photon-number
    populations is not real and diagonal in the Fock basis."""


@dataclass(frozen=True)
class FockTruncation:
    """Highest occupied Fock level retained; matrix dimension is n_max + 1."""

    n_max: int = 40

    def __post_init__(self):
        if not isinstance(self.n_max, numbers.Integral) or self.n_max < 1:
            raise ValueError(f"n_max must be an integer of at least 1, got {self.n_max!r}")

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
            if self.eta is None or not 0.0 < self.eta <= 1.0 or 1.0 / self.eta == math.inf:
                raise ValueError(
                    f"loss transmissivity must lie in (0, 1] with a finite reciprocal, got {self.eta!r}"
                )
        if self.kind in ("amp", "compose"):
            if self.gain is None or not 1.0 <= self.gain < math.inf:
                raise ValueError(f"amplifier gain must be finite and >= 1, got {self.gain!r}")

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

    ``diags[j, b]`` must be finite, and zero wherever b + shifts[j] falls
    outside the levels.  The shifts must be distinct, so that each entry of
    ``operator_sum``, the read-only sum_j K_j, is one operator's entry:
    (b + shifts[j], b) holds diags[j, b].
    Every operator keeps the coherence order Delta = n - m, so the map takes
    the Delta-diagonal of X to the Delta-diagonal of sum_j K_j X K_j^dag by
    one block (``_block``).  The gram sum_j K_j^dag K_j is diagonal with
    entries sum_j |diags[j, b]|^2; a column sum above 1 + TRACE_TOL raises as
    :class:`~qrecovery.qcore.Channel` does.
    """

    shifts: tuple
    diags: np.ndarray
    operator_sum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        diags = np.array(self.diags, ndmin=2)
        diags.setflags(write=False)
        if len(self.shifts) != diags.shape[0]:
            raise ValueError("one shift per diagonal is required")
        shifts = tuple(int(s) for s in self.shifts)
        if len(set(shifts)) != len(shifts):
            raise ValueError(f"ladder shifts must be distinct, got {shifts!r}")
        _require_finite(diags, "ladder diagonal")
        excess = float((np.abs(diags) ** 2).sum(axis=0).max() - 1.0)
        if excess > TRACE_TOL:
            raise ValueError(f"ladder is trace-increasing: max column sum of |diag|^2 - 1 is {excess!r}")
        d = diags.shape[1]
        targets = np.array(shifts, dtype=int).reshape(-1, 1) + np.arange(d)
        inside = (targets >= 0) & (targets < d)
        if diags[~inside].any():
            raise ValueError("ladder has a nonzero entry whose target level lies outside the levels")
        total = np.zeros((d, d), dtype=np.result_type(diags, float))
        total[targets[inside], np.nonzero(inside)[1]] = diags[inside]
        total.setflags(write=False)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "diags", diags)
        object.__setattr__(self, "operator_sum", total)

    @property
    def dim(self) -> int:
        return self.diags.shape[1]

    def kraus(self) -> tuple:
        """The dense Kraus operators: diags[j] on the diagonal -shifts[j]."""
        d = self.dim
        return tuple(np.diag(diag[max(0, -s) : d - max(0, s)], -s) for s, diag in zip(self.shifts, self.diags))


def _block(ladder: Ladder, delta: int, size: int) -> np.ndarray:
    """Leading ``size`` x ``size`` window of a ladder's coherence-order block Delta.

    The block maps the Delta-diagonal of X to that of sum_k K_k X K_k^dag: its
    entry (a, b), with levels counted from max(Delta, 0), is
    sum_k K_k[a, b] conj(K_k[a - Delta, b - Delta]).  Both factors belong to
    the one operator of shift a - b, so the sum is one product of two windows
    of the operator sum D: D[a, b] conj(D[a - Delta, b - Delta]).
    """
    lo, total = max(delta, 0), ladder.operator_sum
    window, shifted = slice(lo, lo + size), slice(lo - delta, lo - delta + size)
    return total[window, window] * total[shifted, shifted].conj()


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
    if not 1.0 <= gain < math.inf:
        raise ValueError(f"gain must be finite and >= 1, got {gain!r}")
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


def _propagate(stages, pops: np.ndarray) -> np.ndarray:
    """Photon-number populations after a ladder chain (applied left to right):
    the Delta = 0 block of each stage, one matrix-vector product each."""
    for ladder in stages:
        pops = _block(ladder, 0, ladder.dim) @ pops
    return pops


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
    after truncating to ``support_max`` (default: the full truncated space),
    an integer level 0 <= support_max <= n_max."""
    if not 0 < mean < math.inf:
        raise ValueError(f"mean must be finite and positive, got {mean!r}")
    top = trunc.n_max if support_max is None else support_max
    if not isinstance(top, numbers.Integral) or not 0 <= top <= trunc.n_max:
        raise ValueError(f"support_max must be an integer level in 0..{trunc.n_max}, got {top!r}")
    r = mean / (1.0 + mean)
    pops = np.array([r**n for n in range(top + 1)])
    pops /= pops.sum()
    mat = np.zeros((trunc.dim, trunc.dim))
    mat[: top + 1, : top + 1] = np.diag(pops)
    return mat


def _populations(rho, dim: int) -> np.ndarray:
    """Photon-number populations of a state given as a Fock-diagonal matrix.

    The entries must be finite (else :class:`~qrecovery.matfun.NonFiniteError`),
    every entry off the real diagonal within ``HERM_TOL`` of 0 relative to the
    largest entry (else :class:`NotFockDiagonalError`), the populations at least
    -PSD_TOL and their sum within TRACE_TOL of 1, as for
    :class:`~qrecovery.qcore.DensityOperator`.
    """
    rho = np.asarray(rho)
    if rho.shape != (dim, dim):
        raise DimensionMismatchError(f"state shape {rho.shape} does not match truncation dimension {dim}")
    _require_finite(rho, "state")
    pops = np.real(np.diagonal(rho)).copy()
    defect = float(np.abs(rho - np.diag(pops)).max()) / max(float(np.abs(rho).max()), 1.0)
    if defect > HERM_TOL:
        raise NotFockDiagonalError(
            f"state is not real and Fock-diagonal: relative off-diagonal or imaginary entry {defect:.3e}"
        )
    tr = float(pops.sum())
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
    if pops.min() < -PSD_TOL:
        raise ValueError(f"state is not PSD: minimum population {float(pops.min())!r}")
    return pops


def mean_photon(mat: np.ndarray) -> float:
    # summed as complex whatever the dtype, so that a real and a complex copy
    # of one state give the same bits
    diag = np.diag(np.asarray(mat, dtype=complex))
    return float(np.real(np.sum(np.arange(diag.size) * diag)))


def loss_identity_tail(eta: float, level: int, n_max: int) -> float:
    """Analytic truncation deficit of <m|B_eta(I)|m> at m = level:

    eta^m * sum_{k > n_max - m} C(m+k, k) (1-eta)^k, the negative-binomial
    tail lost to the cutoff.  This is exactly how far the truncated channel
    must deviate from the infinite-dimensional identity B_eta(I) = I/eta.

    The terms rise while their ratio x (m + k + 1) / (k + 1), x = 1 - eta,
    exceeds 1 and fall after.  Where they fall from the first tail term on,
    the tail is summed upward from it; where they still rise, the tail holds
    the bulk of the full sum 1/eta, and it is 1/eta less the head
    k <= n_max - m, summed downward from its largest term.  The term a sum
    starts from is taken in log space, so no n_max overflows.
    """
    if eta >= 1.0:
        return 0.0
    m = int(level)
    x = 1.0 - eta
    k = n_max - m + 1
    if x * (m + k + 1) > k + 1:
        k -= 1
        term = float(np.exp(_log_binom_pmf(k, m + k, x, eta)))
        head = 0.0
        while True:
            head += term
            if k == 0 or term < head * 1e-16:
                return 1.0 / eta - head
            term *= k / (x * (m + k))
            k -= 1
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
    # the tail falls as the guard grows: bisect for the first guard below the
    # tolerance, or n_max - 1 when none up to there is
    lo, hi = 0, n_max - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if loss_identity_tail(spec.eta, n_max - mid, n_max) <= DEFAULT_TRUNC_TOL:
            hi = mid
        else:
            lo = mid + 1
    return lo


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
    # N(I) is Fock-diagonal: the populations of I, moved stage by stage
    out = _propagate(forward, np.ones(spec.truncation.dim))
    deviation = float(np.abs(out[:keep] - 1.0 / spec.parameter()).max())
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
    must be states diagonal in the Fock basis (see ``_populations``; a
    non-diagonal one raises :class:`NotFockDiagonalError`), and low-energy:
    supported inside the guard band with mean photon number at most n_max / 4.

    Every stage is phase-covariant, so the output and reversed output are
    Fock-diagonal too: all three are held as photon-number vectors and their
    entropies are Shannon entropies, equal to the matrix forms'.
    """
    n_max = spec.truncation.n_max
    keep = _keep_levels(n_max, n_guard)
    pops = _populations(rho, spec.truncation.dim)
    leakage = float(pops[keep:].sum())
    if leakage > 1e-12:
        raise ValueError(
            f"input state leaks {leakage:.3e} probability above the guard band (n >= {keep})"
        )
    mean = mean_photon(rho)
    if mean > n_max / 4:
        raise ValueError(f"mean photon number {mean:.2f} exceeds n_max/4 = {n_max / 4}")
    forward, reverse = _spec_ladders(spec)
    out = _propagate(forward, pops)
    reversed_out = _propagate(reverse, out)
    lhs = shannon_entropy(out) - shannon_entropy(pops)
    d = classical_rel_entropy(pops, reversed_out)
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
            "output_trace_deficit": 1.0 - float(out.sum()),
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
