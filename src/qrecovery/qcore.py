"""States, channels, instruments, ensembles, and seeded random instances.

Tensor-factor bookkeeping: a multipartite operator carries an ordered tuple of
``(label, dimension)`` pairs and its matrix acts on the Kronecker product of
the factors in declaration order.  Partial traces and channel applications
never reorder the remaining factors; any reordering is an explicit
:func:`permute`.

All types are immutable after construction (backing arrays are marked
read-only), so everything here is safe to share across threads; randomized
instances derive per-trial generators via :func:`stream`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from typing import Sequence

import numpy as np

from .matfun import assert_hermitian, complex_power, eig_hermitian, rank_cutoff

__all__ = [
    "Systems",
    "DimensionMismatchError",
    "LabelError",
    "DensityOperator",
    "Purification",
    "KrausMap",
    "Channel",
    "Instrument",
    "Ensemble",
    "ClassicalQuantumState",
    "TransferMap",
    "stream",
    "as_matrix",
    "tensor",
    "ptrace",
    "partial_trace",
    "permute",
    "purify",
    "apply",
    "adjoint",
    "compose",
    "choi",
    "transfer_matrix",
    "is_trace_preserving",
    "is_cptp",
    "is_unital",
    "is_subunital",
    "apply_on",
    "lift",
    "partial_trace_channel",
    "transpose_map",
    "instrument_channel",
    "random_density",
    "random_unitary",
    "random_isometry",
    "random_channel",
    "random_povm",
    "random_instrument",
    "random_mixed_unitary_channel",
    "random_subunital_channel",
]

Systems = tuple  # tuple[tuple[str, int], ...]

TRACE_TOL = 1e-10
PSD_TOL = 1e-10


class DimensionMismatchError(ValueError):
    pass


class LabelError(ValueError):
    pass


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Deterministic generator for (master seed, derivation path).

    Distinct paths give statistically independent streams; the mapping is
    stable across platforms and runs (PCG64 seeded via ``SeedSequence``).
    """
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(seq))


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _freeze(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


def _norm_systems(systems) -> Systems:
    out = []
    seen = set()
    for label, dim in systems:
        label = str(label)
        dim = int(dim)
        if dim < 1:
            raise DimensionMismatchError(f"system {label!r} has non-positive dimension {dim}")
        if label in seen:
            raise LabelError(f"duplicate system label {label!r}")
        seen.add(label)
        out.append((label, dim))
    return tuple(out)


def _dims(systems: Systems) -> tuple:
    return tuple(d for _, d in systems)


def _labels(systems: Systems) -> tuple:
    return tuple(l for l, _ in systems)


def _total_dim(systems: Systems) -> int:
    return math.prod(_dims(systems))


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class DensityOperator:
    """Unit-trace positive semi-definite operator on labeled tensor factors."""

    systems: Systems
    matrix: np.ndarray

    def __post_init__(self):
        systems = _norm_systems(self.systems)
        matrix = _freeze(self.matrix)
        object.__setattr__(self, "systems", systems)
        object.__setattr__(self, "matrix", matrix)
        d = _total_dim(systems)
        if matrix.shape != (d, d):
            raise DimensionMismatchError(
                f"matrix shape {matrix.shape} does not match total dimension {d} of {systems}"
            )
        assert_hermitian(matrix)
        tr = float(np.real(np.trace(matrix)))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
        min_eig = float(np.linalg.eigvalsh(matrix)[0])
        if min_eig < -PSD_TOL:
            raise ValueError(f"matrix is not PSD: minimum eigenvalue {min_eig!r}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def labels(self) -> tuple:
        return _labels(self.systems)

    @property
    def dims(self) -> tuple:
        return _dims(self.systems)

    def system_dim(self, label: str) -> int:
        for l, d in self.systems:
            if l == label:
                return d
        raise LabelError(f"unknown system label {label!r}")


@dataclass(frozen=True)
class Purification:
    """Pure state vector purifying a density operator over a reference factor."""

    reference_label: str
    systems: Systems
    vector: np.ndarray

    def __post_init__(self):
        systems = _norm_systems(self.systems)
        vector = _freeze(np.asarray(self.vector).reshape(-1))
        object.__setattr__(self, "systems", systems)
        object.__setattr__(self, "vector", vector)
        if self.reference_label not in _labels(systems):
            raise LabelError(f"reference label {self.reference_label!r} not among {systems}")
        if vector.shape[0] != _total_dim(systems):
            raise DimensionMismatchError("vector length does not match system dimensions")

    @property
    def reference_dim(self) -> int:
        for l, d in self.systems:
            if l == self.reference_label:
                return d
        raise AssertionError

    def projector(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())

    def reduced(self) -> DensityOperator:
        """Partial trace over the reference, i.e. the state this purifies."""
        keep = [l for l in _labels(self.systems) if l != self.reference_label]
        mat = ptrace(self.projector(), _dims(self.systems), _keep_indices(self.systems, keep))
        return DensityOperator(tuple(s for s in self.systems if s[0] != self.reference_label), mat)

    def amplitude_matrix(self) -> np.ndarray:
        """Reshape into a (reference_dim x rest_dim) matrix, reference first.

        Row index runs over the reference basis, column index over the
        remaining factors in declaration order.
        """
        dims = _dims(self.systems)
        ref_pos = _labels(self.systems).index(self.reference_label)
        arr = self.vector.reshape(dims)
        arr = np.moveaxis(arr, ref_pos, 0)
        return arr.reshape(dims[ref_pos], -1)


def as_matrix(x) -> np.ndarray:
    """The matrix of a :class:`DensityOperator`, or ``x`` as a complex array."""
    if isinstance(x, DensityOperator):
        return x.matrix
    return np.asarray(x, dtype=complex)


def _keep_indices(systems: Systems, keep_labels: Sequence[str]) -> list:
    labels = _labels(systems)
    return [labels.index(l) for l in keep_labels]


def ptrace(matrix: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace of a square matrix on factors of sizes ``dims`` over the
    factors whose indices are not in ``keep``; kept factors stay in order."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    t = np.asarray(matrix).reshape(dims + dims)
    for ax in sorted((i for i in range(n) if i not in keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    dk = int(np.prod([dims[i] for i in keep], dtype=np.int64)) if keep else 1
    return np.asarray(t).reshape(dk, dk)


def tensor(a, b):
    """Kronecker product; concatenates system lists for labeled operands."""
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        systems = _norm_systems(a.systems + b.systems)  # rejects duplicate labels
        return DensityOperator(systems, np.kron(a.matrix, b.matrix))
    return np.kron(np.asarray(a), np.asarray(b))


def partial_trace(rho: DensityOperator, discard) -> DensityOperator:
    """Trace out the listed labels, preserving the order of remaining factors."""
    if isinstance(discard, str):
        discard = (discard,)
    discard = tuple(discard)
    labels = rho.labels
    for l in discard:
        if l not in labels:
            raise LabelError(f"unknown system label {l!r}")
    keep = [l for l in labels if l not in discard]
    mat = ptrace(rho.matrix, rho.dims, _keep_indices(rho.systems, keep))
    return DensityOperator(tuple(s for s in rho.systems if s[0] in keep), mat)


def permute(rho: DensityOperator, order: Sequence[str]) -> DensityOperator:
    """Reorder tensor factors into the given label order."""
    order = tuple(order)
    if sorted(order) != sorted(rho.labels):
        raise LabelError(f"order {order!r} is not a permutation of {rho.labels!r}")
    perm = [rho.labels.index(l) for l in order]
    dims = rho.dims
    n = len(dims)
    t = rho.matrix.reshape(dims + dims)
    t = t.transpose(perm + [p + n for p in perm])
    systems = tuple(rho.systems[p] for p in perm)
    return DensityOperator(systems, t.reshape(rho.dim, rho.dim))


def purify(rho: DensityOperator, reference_label: str = "R", reference_dim: int | None = None) -> Purification:
    """Purification with the reference factor first.

    The reference dimension defaults to the numerical rank of ``rho`` (the
    smallest valid choice); a larger ``reference_dim`` pads with zero
    amplitudes, which is occasionally needed to hand two purifications with
    matching reference sizes to the Uhlmann maximizer.
    """
    if reference_label in rho.labels:
        raise LabelError(f"reference label {reference_label!r} collides with {rho.labels!r}")
    spec = eig_hermitian(rho.matrix)
    lam = np.clip(spec.eigenvalues, 0.0, None)
    mask = lam > rank_cutoff(spec.eigenvalues)
    lam, vecs = lam[mask], spec.eigenvectors[:, mask]
    rank = int(lam.shape[0])
    ref_dim = rank if reference_dim is None else int(reference_dim)
    if ref_dim < rank:
        raise ValueError(f"reference_dim {ref_dim} is below the state rank {rank}")
    # |phi> = sum_k sqrt(lam_k) |k>_ref |v_k>;  zero rows pad the reference.
    amp = np.zeros((ref_dim, rho.dim), dtype=complex)
    amp[:rank] = np.sqrt(lam)[:, None] * vecs.T
    systems = ((reference_label, ref_dim),) + rho.systems
    return Purification(reference_label, systems, amp.reshape(-1))


# ---------------------------------------------------------------------------
# channels


@dataclass(frozen=True)
class KrausMap:
    """Completely positive map in Kraus form, with no trace constraint."""

    kraus: tuple

    def __post_init__(self):
        ks = tuple(_freeze(k) for k in self.kraus)
        if not ks:
            raise ValueError("at least one Kraus operator is required")
        shape = ks[0].shape
        if len(shape) != 2 or any(k.shape != shape for k in ks):
            raise DimensionMismatchError("all Kraus operators must share one (out, in) shape")
        object.__setattr__(self, "kraus", ks)

    @property
    def in_dim(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus[0].shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.in_dim, self.in_dim):
            raise DimensionMismatchError(
                f"input shape {x.shape} does not match channel input dimension {self.in_dim}"
            )
        out = np.zeros((self.out_dim, self.out_dim), dtype=complex)
        for k in self.kraus:
            out += k @ x @ k.conj().T
        return out

    def kraus_gram(self) -> np.ndarray:
        """sum_i K_i^dag K_i (the adjoint's action on the identity)."""
        out = np.zeros((self.in_dim, self.in_dim), dtype=complex)
        for k in self.kraus:
            out += k.conj().T @ k
        return out

    def on_identity(self) -> np.ndarray:
        return self.apply(np.eye(self.in_dim))


@dataclass(frozen=True)
class Channel(KrausMap):
    """CP trace-non-increasing map; flags are computed lazily and cached."""

    def __post_init__(self):
        super().__post_init__()
        gram = self.kraus_gram()
        excess = float(np.linalg.eigvalsh(gram - np.eye(self.in_dim))[-1])
        if excess > TRACE_TOL:
            raise ValueError(
                f"Kraus operators are trace-increasing: max eig of sum K^dag K - I is {excess!r}"
            )

    @cached_property
    def trace_preserving(self) -> bool:
        return is_trace_preserving(self)

    @cached_property
    def unital(self) -> bool:
        return is_unital(self)

    @cached_property
    def subunital(self) -> bool:
        return is_subunital(self)


def apply(channel, x: np.ndarray) -> np.ndarray:
    """Apply a channel (or any map with ``.apply``) to a matrix."""
    return channel.apply(np.asarray(x))


def adjoint(channel: KrausMap) -> KrausMap:
    """Hilbert-Schmidt adjoint: Kraus operators are conjugate-transposed.

    The adjoint of a channel need not be trace-non-increasing (it is iff the
    channel is subunital), so the result is a plain :class:`KrausMap`.
    """
    if isinstance(channel, TransferMap):
        return channel.adjoint()
    return KrausMap(tuple(k.conj().T for k in channel.kraus))


def compose(after: KrausMap, before: KrausMap):
    """Kraus-form composition ``after(before(.))``."""
    if before.out_dim != after.in_dim:
        raise DimensionMismatchError(
            f"cannot compose: inner output dim {before.out_dim} != outer input dim {after.in_dim}"
        )
    ks = tuple(a @ b for a in after.kraus for b in before.kraus)
    cls = Channel if isinstance(after, Channel) and isinstance(before, Channel) else KrausMap
    return cls(ks)


def choi(channel: KrausMap) -> np.ndarray:
    """Choi matrix with input factor first: C = sum_ij |i><j| (x) N(|i><j|)."""
    vecs = np.stack([k.T.reshape(-1) for k in channel.kraus])
    return vecs.T @ vecs.conj()


def transfer_matrix(channel: KrausMap) -> np.ndarray:
    """Row-major superoperator matrix: vec(N(X)) = T vec(X).

    T[a*d_out + c, b*d_in + d] = sum_k K_k[a, b] conj(K_k[c, d]).  Row block a
    is one GEMM over the stacked Kraus operators, ks[:, a, :].T @ conj(ks)
    reshaped to (k, d_out*d_in), whose (b, (c, d)) result is permuted to
    (c, b, d); no second d_out^2 x d_in^2 buffer is held.
    """
    ks = np.stack(channel.kraus)
    n_kraus, d_out, d_in = ks.shape
    rhs = ks.conj().reshape(n_kraus, d_out * d_in)
    t = np.empty((d_out, d_out, d_in, d_in), dtype=ks.dtype)
    for a in range(d_out):
        t[a] = (ks[:, a, :].T @ rhs).reshape(d_in, d_out, d_in).transpose(1, 0, 2)
    return t.reshape(d_out * d_out, d_in * d_in)


def is_trace_preserving(channel: KrausMap, tol: float = 1e-10) -> bool:
    gram = channel.kraus_gram()
    return float(np.abs(gram - np.eye(channel.in_dim)).max()) <= tol


def is_cptp(channel: KrausMap, tol: float = 1e-9) -> bool:
    """Complete positivity (Choi PSD) plus trace preservation within tol."""
    c = choi(channel)
    scale = max(1.0, float(np.abs(c).max()))
    cp = float(np.linalg.eigvalsh(c)[0]) >= -tol * scale
    return cp and is_trace_preserving(channel, tol)


def is_unital(channel: KrausMap, tol: float = 1e-9) -> bool:
    if channel.in_dim != channel.out_dim:
        return False
    return float(np.abs(channel.on_identity() - np.eye(channel.out_dim)).max()) <= tol


def is_subunital(channel: KrausMap, tol: float = 1e-9) -> bool:
    gap = np.eye(channel.out_dim) - channel.on_identity()
    return float(np.linalg.eigvalsh(gap)[0]) >= -tol


class TransferMap:
    """Linear map given by its row-major superoperator matrix.

    Used for positive-but-not-CP maps (e.g. transpose-composed channels) that
    have no Kraus form.  Supports the same ``apply``/``adjoint`` surface as
    :class:`KrausMap`.
    """

    def __init__(self, matrix: np.ndarray, in_dim: int, out_dim: int):
        matrix = _freeze(matrix)
        if matrix.shape != (out_dim * out_dim, in_dim * in_dim):
            raise DimensionMismatchError("transfer matrix shape mismatch")
        self.matrix = matrix
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        return (self.matrix @ x.reshape(-1)).reshape(self.out_dim, self.out_dim)

    def adjoint(self) -> "TransferMap":
        return TransferMap(self.matrix.conj().T, self.out_dim, self.in_dim)

    @classmethod
    def from_kraus(cls, m: KrausMap) -> "TransferMap":
        return cls(transfer_matrix(m), m.in_dim, m.out_dim)

    def compose(self, before: "TransferMap") -> "TransferMap":
        return TransferMap(self.matrix @ before.matrix, before.in_dim, self.out_dim)


def transpose_map(dim: int) -> TransferMap:
    """The transpose map on dim x dim operators (positive, self-adjoint, not CP)."""
    t = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            t[i * dim + j, j * dim + i] = 1.0
    return TransferMap(t, dim, dim)


def _factor_block(m: KrausMap, systems: Systems, on, out_systems: Systems | None):
    """Check that ``m`` fits the contiguous block ``on`` of ``systems``.

    Returns ``(systems, start, stop, new_systems)``: ``systems`` normalized,
    ``systems[start:stop]`` the block, and ``new_systems`` with the block
    replaced by ``out_systems``.
    """
    systems = _norm_systems(systems)
    if isinstance(on, str):
        on = (on,)
    labels = _labels(systems)
    try:
        start = labels.index(on[0])
    except ValueError:
        raise LabelError(f"unknown system label {on[0]!r}") from None
    stop = start + len(on)
    if labels[start:stop] != tuple(on):
        raise LabelError(f"labels {on!r} are not contiguous in {labels!r}")
    block = systems[start:stop]
    block_dim = _total_dim(block)
    if block_dim != m.in_dim:
        raise DimensionMismatchError(
            f"map input dimension {m.in_dim} does not match block {block!r}"
        )
    if out_systems is None:
        if m.out_dim != block_dim:
            raise DimensionMismatchError("out_systems is required when the map changes dimension")
        out_systems = block
    out_systems = _norm_systems(out_systems)
    if _total_dim(out_systems) != m.out_dim:
        raise DimensionMismatchError("out_systems dimensions do not match the map output")
    return systems, start, stop, systems[:start] + out_systems + systems[stop:]


def apply_on(m: KrausMap, x: np.ndarray, systems: Systems, on, out_systems: Systems | None = None):
    """Apply ``m`` to the contiguous block ``on`` of the operator ``x`` on ``systems``.

    ``on`` and ``out_systems`` are as for :func:`lift`, and the result is what
    the lifted map gives on ``x``; but ``x`` is reshaped to (left, block,
    right) and multiplied by the stacked Kraus operators, so no full-space
    operator is built.  Returns ``(matrix, new_systems)``.
    """
    systems, start, stop, new_systems = _factor_block(m, systems, on, out_systems)
    d_left = _total_dim(systems[:start])
    d_right = _total_dim(systems[stop:])
    d_in = d_left * m.in_dim * d_right
    d_out = d_left * m.out_dim * d_right
    x = np.asarray(x, dtype=complex)
    if x.shape != (d_in, d_in):
        raise DimensionMismatchError(
            f"operator shape {x.shape} does not match dimension {d_in} of {systems}"
        )
    n = len(m.kraus)
    ks = np.stack(m.kraus)[:, None]  # (n, 1, out, in), broadcast over the left factor
    # With K_k acting on the block, Y_k = K_k X and sum_k K_k Y_k^dag = N(X^dag),
    # whose adjoint is N(X): a map in Kraus form commutes with the adjoint.
    y = (ks @ x.reshape(d_left, m.in_dim, d_right * d_in)).reshape(n, d_out, d_in)
    y = y.conj().swapaxes(1, 2).reshape(n, d_left, m.in_dim, d_right * d_out)
    out = (ks @ y).sum(axis=0).reshape(d_out, d_out).conj().T
    return out, new_systems


def lift(m: KrausMap, systems: Systems, on, out_systems: Systems | None = None):
    """Embed a map acting on a contiguous block of factors into the full space.

    ``on`` is a label or tuple of adjacent labels whose combined dimension
    equals ``m.in_dim``.  Returns ``(lifted_map, new_systems)`` where the
    block is replaced by ``out_systems`` (default: unchanged labels, valid
    only when the output dimension matches).  This is the Kraus-form
    reference for :func:`apply_on`, which acts on a factor without building
    the lifted operators.
    """
    systems, start, stop, new_systems = _factor_block(m, systems, on, out_systems)
    eye_l = np.eye(_total_dim(systems[:start]))
    eye_r = np.eye(_total_dim(systems[stop:]))
    ks = tuple(np.kron(np.kron(eye_l, k), eye_r) for k in m.kraus)
    cls = Channel if isinstance(m, Channel) else KrausMap
    return cls(ks), new_systems


def partial_trace_channel(systems: Systems, discard) -> Channel:
    """The partial trace over ``discard`` as a channel in Kraus form."""
    systems = _norm_systems(systems)
    if isinstance(discard, str):
        discard = (discard,)
    discard = tuple(discard)
    labels = _labels(systems)
    for l in discard:
        if l not in labels:
            raise LabelError(f"unknown system label {l!r}")
    factor_bases = []
    for label, dim in systems:
        if label in discard:
            factor_bases.append([np.eye(dim)[i : i + 1, :] for i in range(dim)])
        else:
            factor_bases.append([np.eye(dim)])
    return Channel(tuple(reduce(np.kron, combo) for combo in product(*factor_bases)))


# ---------------------------------------------------------------------------
# instruments and ensembles


@dataclass(frozen=True)
class Instrument:
    """Finite family of CP trace-non-increasing maps summing to a channel."""

    outcomes: tuple  # tuple[tuple[str, tuple[np.ndarray, ...]], ...]

    def __post_init__(self):
        cleaned = []
        seen = set()
        for label, ks in self.outcomes:
            label = str(label)
            if label in seen:
                raise LabelError(f"duplicate outcome label {label!r}")
            seen.add(label)
            cleaned.append((label, tuple(_freeze(k) for k in ks)))
        if not cleaned:
            raise ValueError("an instrument needs at least one outcome")
        object.__setattr__(self, "outcomes", tuple(cleaned))
        d_in, d_out = self.in_dim, self.out_dim
        total = np.zeros((d_in, d_in), dtype=complex)
        for label, ks in self.outcomes:
            gram = sum(k.conj().T @ k for k in ks)
            if float(np.linalg.eigvalsh(gram - np.eye(d_in))[-1]) > TRACE_TOL:
                raise ValueError(f"outcome {label!r} is trace-increasing")
            total += gram
        if float(np.abs(total - np.eye(d_in)).max()) > TRACE_TOL:
            raise ValueError("outcome maps do not sum to a trace-preserving channel")

    @property
    def in_dim(self) -> int:
        return self.outcomes[0][1][0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.outcomes[0][1][0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    @property
    def efficient(self) -> bool:
        return all(len(ks) == 1 for _, ks in self.outcomes)

    def outcome_map(self, index: int) -> KrausMap:
        return KrausMap(self.outcomes[index][1])

    def sum_channel(self) -> Channel:
        return Channel(tuple(k for _, ks in self.outcomes for k in ks))

    def outcome_probabilities(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        return np.array(
            [float(np.real(np.trace(self.outcome_map(i).apply(rho)))) for i in range(self.n_outcomes)]
        )


def instrument_channel(instr: Instrument) -> Channel:
    """The quantum-classical channel P -> sum_x N^x(P) (x) |x><x|.

    Output factors are ordered (quantum, classical): the classical register is
    the minor (last) Kronecker factor, with basis index matching the outcome
    position in ``instr.outcomes``.
    """
    n = instr.n_outcomes
    ks = []
    for x, (_, kraus) in enumerate(instr.outcomes):
        e = np.zeros((n, 1))
        e[x, 0] = 1.0
        for k in kraus:
            ks.append(np.kron(k, e))
    return Channel(tuple(ks))


@dataclass(frozen=True)
class Ensemble:
    """Probability vector paired with density operators on a common system."""

    probs: np.ndarray
    states: tuple

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.states) != probs.shape[0]:
            raise DimensionMismatchError("probability vector and state list lengths differ")
        if probs.min(initial=0.0) < 0:
            raise ValueError("probabilities must be nonnegative")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        first = self.states[0].systems
        if any(s.systems != first for s in self.states):
            raise DimensionMismatchError("ensemble states live on different systems")

    @property
    def size(self) -> int:
        return len(self.states)

    def average(self) -> DensityOperator:
        mat = sum(p * s.matrix for p, s in zip(self.probs, self.states))
        return DensityOperator(self.states[0].systems, mat)

    def through(self, channel: Channel, out_systems: Systems | None = None) -> "Ensemble":
        """The output ensemble {p_x; N(rho^x)}."""
        if out_systems is None:
            out_systems = self.states[0].systems
        outs = tuple(DensityOperator(out_systems, channel.apply(s.matrix)) for s in self.states)
        return Ensemble(self.probs, outs)


@dataclass(frozen=True)
class ClassicalQuantumState:
    """Block-diagonal state sum_x w_x |x><x| (x) rho_x over a classical label."""

    classical_label: str
    blocks: tuple  # tuple[tuple[float, DensityOperator], ...]

    def __post_init__(self):
        blocks = tuple((float(w), s) for w, s in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("at least one block is required")
        weights = np.array([w for w, _ in blocks])
        if weights.min() < -1e-12:
            raise ValueError("block weights must be nonnegative")
        if abs(weights.sum() - 1.0) > 1e-10:
            raise ValueError("block weights must sum to 1")
        first = blocks[0][1].systems
        if any(s.systems != first for _, s in blocks):
            raise DimensionMismatchError("blocks live on different systems")

    def to_density(self, classical_first: bool = True) -> DensityOperator:
        n = len(self.blocks)
        qsys = self.blocks[0][1].systems
        mats = []
        for x, (w, s) in enumerate(self.blocks):
            e = np.zeros((n, n))
            e[x, x] = 1.0
            mats.append(w * (np.kron(e, s.matrix) if classical_first else np.kron(s.matrix, e)))
        systems = ((self.classical_label, n),) + qsys if classical_first else qsys + ((self.classical_label, n),)
        return DensityOperator(systems, sum(mats))


# ---------------------------------------------------------------------------
# random instances


def random_density(dim: int, rank: int | None = None, seed=None) -> DensityOperator:
    """Hilbert-Schmidt (Ginibre) random state: normalized G G^dag, G dim x rank."""
    rng = _rng(seed)
    rank = dim if rank is None else int(rank)
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    mat /= np.real(np.trace(mat))
    return DensityOperator((("A", dim),), mat)


def random_unitary(dim: int, seed=None) -> np.ndarray:
    """Haar-random unitary via phase-fixed QR of a Ginibre matrix."""
    rng = _rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_isometry(in_dim: int, out_dim: int, seed=None) -> np.ndarray:
    """Haar-random isometry (out_dim x in_dim, out_dim >= in_dim)."""
    if out_dim < in_dim:
        raise DimensionMismatchError("an isometry needs out_dim >= in_dim")
    rng = _rng(seed)
    g = rng.standard_normal((out_dim, in_dim)) + 1j * rng.standard_normal((out_dim, in_dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_channel(in_dim: int, out_dim: int, env_dim: int, seed=None) -> Channel:
    """Random CPTP map from a Haar Stinespring isometry, env_dim Kraus operators."""
    if env_dim < 1:
        raise ValueError("env_dim must be at least 1")
    if out_dim * env_dim < in_dim:
        raise DimensionMismatchError("out_dim * env_dim must be at least in_dim")
    v = random_isometry(in_dim, out_dim * env_dim, seed)
    v = v.reshape(out_dim, env_dim, in_dim)
    return Channel(tuple(v[:, e, :] for e in range(env_dim)))


def random_povm(dim: int, n_outcomes: int, seed=None) -> tuple:
    """Random POVM: Gaussian positive parts conjugated to sum to the identity."""
    rng = _rng(seed)
    parts = []
    for _ in range(n_outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        parts.append(g @ g.conj().T)
    total = sum(parts)
    s = complex_power(total, -0.5)
    return tuple(s @ p @ s for p in parts)


def random_instrument(dim: int, n_outcomes: int, efficient: bool, seed=None) -> Instrument:
    """Seeded random instrument.

    Efficient: single Kraus ``A_x = V_x sqrt(Lambda_x)`` with a random POVM
    ``{Lambda_x}`` and independent Haar unitaries ``V_x``.  Non-efficient:
    two-Kraus CP maps per outcome, jointly normalized to a channel.
    """
    rng = _rng(seed)
    if efficient:
        povm = random_povm(dim, n_outcomes, rng)
        outcomes = []
        for x, lam in enumerate(povm):
            v = random_unitary(dim, rng)
            outcomes.append((str(x), (v @ complex_power(lam, 0.5),)))
        return Instrument(tuple(outcomes))
    raw = []
    for _ in range(n_outcomes):
        ks = [
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for _ in range(2)
        ]
        raw.append(ks)
    total = sum(k.conj().T @ k for ks in raw for k in ks)
    s = complex_power(total, -0.5)
    outcomes = tuple((str(x), tuple(k @ s for k in ks)) for x, ks in enumerate(raw))
    return Instrument(outcomes)


def random_mixed_unitary_channel(dim: int, n_unitaries: int, seed=None) -> Channel:
    """Random mixture of Haar unitaries (unital and trace-preserving)."""
    rng = _rng(seed)
    probs = rng.dirichlet(np.ones(n_unitaries))
    ks = tuple(np.sqrt(p) * random_unitary(dim, rng) for p in probs)
    return Channel(ks)


def random_subunital_channel(in_dim: int, out_dim: int, n_unitaries: int = 3, seed=None) -> Channel:
    """Random subunital positive TP map: mixed-unitary followed by an isometry.

    With out_dim > in_dim the result is strictly subunital; with equal
    dimensions it is unital.
    """
    rng = _rng(seed)
    mixed = random_mixed_unitary_channel(in_dim, n_unitaries, rng)
    v = random_isometry(in_dim, out_dim, rng)
    return compose(Channel((v,)), mixed)
