"""States, channels, instruments, ensembles, and seeded random instances.

Tensor-factor bookkeeping: a multipartite operator carries an ordered tuple of
``(label, dimension)`` pairs and its matrix acts on the Kronecker product of
the factors in declaration order.  Partial traces and channel applications
never reorder the remaining factors; any reordering is an explicit
:func:`permute`.

Validation happens once, at the boundary: every public constructor runs its
class's ``_validate``, and :func:`_derived` skips it only where validity
follows from inputs that were already checked (partial traces, permutations
and averages of states, compositions and liftings of channels, and the random
constructions).  Backing arrays are read-only, so
every object is immutable and safe to share across threads; randomized
instances derive per-trial generators via :func:`stream`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from typing import Sequence

import numpy as np
import numpy.random  # loaded lazily by numpy; every suite draws from it, so load it at import

from .matfun import _require_finite, assert_hermitian, complex_power, eig_hermitian

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
    "TransferMap",
    "stream",
    "as_matrix",
    "ptrace",
    "partial_trace",
    "permute",
    "purify",
    "adjoint",
    "compose",
    "transfer_matrix",
    "tp_deviation",
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
PROB_FLOOR = 1e-12  # outcomes this unlikely get no post-measurement state


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


def _freeze(array: np.ndarray, order: str = "K") -> np.ndarray:
    out = np.array(array, dtype=complex, order=order)
    out.setflags(write=False)
    return out


def _derived(cls, *fields):
    """An instance of ``cls`` held from ``fields`` exactly as its public
    constructor holds them, without ``_validate``.

    Only for objects whose validity follows by construction from inputs that
    were already checked; everything else goes through the constructor.
    """
    obj = object.__new__(cls)
    obj._hold(*fields)
    return obj


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """The matrices of a (..., K, m, n) stack summed over the Kraus axis K, in
    Kraus order.

    ``sum(axis=-3)`` adds them slice by slice, but pairs the terms up when
    each has a single entry; ``cumsum`` never does.  The final ``+= 0.0``
    turns a -0 entry into 0, as a loop that starts from zeros does.
    """
    if terms.shape[-2:] == (1, 1):
        total = np.cumsum(terms, axis=-3)[..., -1, :, :]
    else:
        total = terms.sum(axis=-3)
    total += 0.0
    return total


def _apply_kraus(ks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k K_k x K_k^dag for a (..., K, out, in) Kraus stack and a
    (..., in, in) operator stack whose leading axes broadcast, summed in Kraus
    order by :func:`_ordered_sum`; a zero operator adds exact zeros, so a
    Kraus stack may be padded with zero operators."""
    return _ordered_sum(ks @ x[..., None, :, :] @ ks.conj().swapaxes(-1, -2))


def _adjoint_stack(ks: np.ndarray) -> np.ndarray:
    """The Kraus operators K_k^dag of the adjoint map, C-ordered as
    :func:`adjoint` holds them."""
    return np.ascontiguousarray(ks.conj().swapaxes(-1, -2))


def _tp_deviations(ks: np.ndarray) -> np.ndarray:
    """Largest entry of |N^dag(I) - I| for each map of a (..., K, out, in) Kraus stack."""
    eye_in = np.eye(ks.shape[-1])
    gram = _apply_kraus(_adjoint_stack(ks), np.eye(ks.shape[-2]))
    return np.abs(gram - eye_in).max(axis=(-2, -1))


def _grouped(keys, fn) -> list:
    """``fn(index)`` once per distinct key, ``index`` the array of positions
    holding that key; ``fn`` returns one item per position, and the items come
    back in position order."""
    out = [None] * len(keys)
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    for idx in groups.values():
        for i, item in zip(idx, fn(np.array(idx))):
            out[i] = item
    return out


def _padded(kraus) -> np.ndarray:
    """The (K_i, out, in) Kraus arrays of several maps as one (N, K, out, in)
    stack, zero-padded at the end; only :func:`_apply_kraus` may take it."""
    stack = np.zeros((len(kraus), max(len(k) for k in kraus)) + kraus[0].shape[1:], dtype=complex)
    for i, k in enumerate(kraus):
        stack[i, : len(k)] = k
    return stack


def _kraus_stack(kraus) -> np.ndarray:
    """Kraus operators as one (K, out, in) complex array, once they are
    checked to be at least one, to share one shape and to be finite."""
    ks = tuple(kraus)
    if not ks:
        raise ValueError("at least one Kraus operator is required")
    shape = np.shape(ks[0])
    if len(shape) != 2 or any(np.shape(k) != shape for k in ks):
        raise DimensionMismatchError("all Kraus operators must share one (out, in) shape")
    stack = np.array(ks, dtype=complex)
    _require_finite(stack, "Kraus operator")
    return stack


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
        self._hold(_norm_systems(self.systems), self.matrix)
        self._validate()

    def _hold(self, systems: Systems, matrix: np.ndarray) -> None:
        object.__setattr__(self, "systems", systems)
        object.__setattr__(self, "matrix", _freeze(matrix))

    def _validate(self) -> None:
        d = _total_dim(self.systems)
        if self.matrix.shape != (d, d):
            raise DimensionMismatchError(
                f"matrix shape {self.matrix.shape} does not match total dimension {d} "
                f"of {self.systems}"
            )
        assert_hermitian(self.matrix)
        tr = float(np.real(np.trace(self.matrix)))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
        min_eig = float(self.eigenvalues[0])
        if min_eig < -PSD_TOL:
            raise ValueError(f"matrix is not PSD: minimum eigenvalue {min_eig!r}")

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues (read-only), from the one ``eigvalsh`` that
        the PSD check and :func:`~qrecovery.entropy.entropy` share."""
        lam = np.linalg.eigvalsh(self.matrix)
        lam.setflags(write=False)
        return lam

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
    """Partial trace of a square matrix, or of each matrix of a (..., D, D)
    stack, on factors of sizes ``dims`` over the factors whose indices are not
    in ``keep``; kept factors stay in order."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    matrix = np.asarray(matrix)
    lead = matrix.shape[:-2]
    t = matrix.reshape(lead + tuple(dims + dims))
    for ax in sorted((i for i in range(n) if i not in keep), reverse=True):
        half = (t.ndim - len(lead)) // 2
        t = np.trace(t, axis1=len(lead) + ax, axis2=len(lead) + ax + half)
    dk = int(np.prod([dims[i] for i in keep], dtype=np.int64)) if keep else 1
    return np.asarray(t).reshape(lead + (dk, dk))


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
    return _derived(DensityOperator, tuple(s for s in rho.systems if s[0] in keep), mat)


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
    return _derived(DensityOperator, systems, t.reshape(rho.dim, rho.dim))


def purify(rho: DensityOperator) -> Purification:
    """Purification with the reference factor R first, of dimension the
    numerical rank of ``rho`` (the smallest valid choice)."""
    if "R" in rho.labels:
        raise LabelError(f"reference label 'R' collides with {rho.labels!r}")
    spec = eig_hermitian(rho.matrix)
    rank = int(_ranks(spec))
    systems = (("R", rank),) + rho.systems
    return Purification("R", systems, _purification_vectors(spec[None], rank)[0])


def _ranks(spec) -> np.ndarray:
    """Numerical rank of each matrix of a spectrum: the reference dimension
    of its :func:`purify`."""
    return np.count_nonzero(np.clip(spec.eigenvalues, 0.0, None) > spec.cutoff, axis=-1)


def _purification_vectors(spec, rank: int) -> np.ndarray:
    """The :func:`purify` vectors sum_k sqrt(lam_k) |k>_ref |v_k> of a (N, d)
    stack of spectra of rank ``rank``, as (N, rank * d); the support is the
    last ``rank`` eigenpairs."""
    lam = np.clip(spec.eigenvalues[:, spec.dim - rank :], 0.0, None)
    vecs = spec.eigenvectors[:, :, spec.dim - rank :]
    amp = np.sqrt(lam)[:, :, None] * vecs.swapaxes(1, 2)
    return amp.reshape(len(amp), -1)


# ---------------------------------------------------------------------------
# channels


@dataclass(frozen=True)
class KrausMap:
    """Completely positive map in Kraus form, with no trace constraint.

    The operators are held once, as the read-only (K, out, in) array
    ``stack``; ``kraus`` is the tuple of its slices.
    """

    kraus: tuple

    def __post_init__(self):
        self._hold(_kraus_stack(self.kraus))
        self._validate()

    def _hold(self, stack: np.ndarray) -> None:
        stack = _freeze(stack, order="C")
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "kraus", tuple(stack))

    def _validate(self) -> None:
        """Every Kraus form is completely positive (its shapes are checked as
        it is stacked); :class:`Channel` bounds the trace."""

    @property
    def in_dim(self) -> int:
        return self.stack.shape[2]

    @property
    def out_dim(self) -> int:
        return self.stack.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """sum_k K_k x K_k^dag for one operator x, or for each of a
        (..., in, in) stack, as one batched product summed in Kraus order;
        an operator in a stack gets the result it gets on its own."""
        x = np.asarray(x, dtype=complex)
        if x.ndim < 2 or x.shape[-2:] != (self.in_dim, self.in_dim):
            raise DimensionMismatchError(
                f"input shape {x.shape} does not match channel input dimension {self.in_dim}"
            )
        return _apply_kraus(self.stack, x)

    def kraus_gram(self) -> np.ndarray:
        """sum_i K_i^dag K_i (the adjoint's action on the identity)."""
        ks = self.stack
        return _ordered_sum(ks.conj().swapaxes(1, 2) @ ks)

    def on_identity(self) -> np.ndarray:
        return self.apply(np.eye(self.in_dim))


@dataclass(frozen=True)
class Channel(KrausMap):
    """CP trace-non-increasing map."""

    def _validate(self) -> None:
        excess = _trace_excess(self)
        if excess > TRACE_TOL:
            raise ValueError(
                f"Kraus operators are trace-increasing: max eig of sum K^dag K - I is {excess!r}"
            )


def _trace_excess(m: KrausMap) -> float:
    """Largest eigenvalue of sum K^dag K - I: positive iff some input gains trace."""
    return float(np.linalg.eigvalsh(m.kraus_gram() - np.eye(m.in_dim))[-1])


def adjoint(channel: KrausMap) -> KrausMap:
    """Hilbert-Schmidt adjoint: Kraus operators are conjugate-transposed.

    The adjoint of a channel need not be trace-non-increasing (it is iff the
    channel is subunital), so the result is a plain :class:`KrausMap`.
    """
    if isinstance(channel, TransferMap):
        return channel.adjoint()
    return _derived(KrausMap, channel.stack.conj().swapaxes(1, 2))


def compose(after: KrausMap, before: KrausMap):
    """Kraus-form composition ``after(before(.))``."""
    if before.out_dim != after.in_dim:
        raise DimensionMismatchError(
            f"cannot compose: inner output dim {before.out_dim} != outer input dim {after.in_dim}"
        )
    ks = (after.stack[:, None] @ before.stack).reshape(-1, after.out_dim, before.in_dim)
    cls = Channel if isinstance(after, Channel) and isinstance(before, Channel) else KrausMap
    return _derived(cls, ks)


def transfer_matrix(channel: KrausMap) -> np.ndarray:
    """Row-major superoperator matrix: vec(N(X)) = T vec(X).

    T[a*d_out + c, b*d_in + d] = sum_k K_k[a, b] conj(K_k[c, d]).  Row block a
    is one GEMM over the stacked Kraus operators, ks[:, a, :].T @ conj(ks)
    reshaped to (k, d_out*d_in), whose (b, (c, d)) result is permuted to
    (c, b, d); no second d_out^2 x d_in^2 buffer is held.
    """
    ks = channel.stack
    n_kraus, d_out, d_in = ks.shape
    rhs = ks.conj().reshape(n_kraus, d_out * d_in)
    t = np.empty((d_out, d_out, d_in, d_in), dtype=ks.dtype)
    for a in range(d_out):
        t[a] = (ks[:, a, :].T @ rhs).reshape(d_in, d_out, d_in).transpose(1, 0, 2)
    return t.reshape(d_out * d_out, d_in * d_in)


def tp_deviation(channel) -> float:
    """Largest entry of |N^dag(I) - I| for a Kraus or transfer-matrix map;
    0 exactly when the map is trace-preserving."""
    gram = adjoint(channel).apply(np.eye(channel.out_dim))
    return float(np.abs(gram - np.eye(channel.in_dim)).max())


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
        _require_finite(matrix, "transfer matrix")
        self.matrix = matrix
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        return (self.matrix @ x.reshape(-1)).reshape(self.out_dim, self.out_dim)

    def adjoint(self) -> "TransferMap":
        return TransferMap(self.matrix.conj().T, self.out_dim, self.in_dim)


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
    return _apply_block(m.stack, x, d_left, d_right), new_systems


def _apply_block(ks: np.ndarray, x: np.ndarray, d_left: int, d_right: int) -> np.ndarray:
    """:func:`apply_on`'s product: the (..., K, out, in) Kraus stack on the
    middle factor of (d_left, in, d_right) for each operator of a (..., D, D)
    stack, leading axes broadcast.  The Kraus terms are added one at a time
    in Kraus order, as ``sum`` over a leading axis adds them, so a stack holds
    no K-fold product; a zero term would turn a -0 entry into 0, so every map
    of a stack needs its own K operators, unpadded."""
    n, m_out, m_in = ks.shape[-3:]
    d_in, d_out = d_left * m_in * d_right, d_left * m_out * d_right
    x = x.reshape(x.shape[:-2] + (d_left, m_in, d_right * d_in))
    # With K_k acting on the block, Y_k = K_k X and sum_k K_k Y_k^dag = N(X^dag),
    # whose adjoint is N(X): a map in Kraus form commutes with the adjoint.
    out = None
    for k in range(n):
        op = ks[..., k, None, :, :]  # (..., 1, out, in), broadcast over the left factor
        y = op @ x
        lead = y.shape[:-3]
        y = y.reshape(lead + (d_out, d_in)).conj().swapaxes(-1, -2)
        term = op @ y.reshape(lead + (d_left, m_in, d_right * d_out))
        out = term if out is None else out + term
    return out.reshape(lead + (d_out, d_out)).conj().swapaxes(-1, -2)


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
    ks = [np.kron(np.kron(eye_l, k), eye_r) for k in m.kraus]
    cls = Channel if isinstance(m, Channel) else KrausMap
    return _derived(cls, ks), new_systems


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
    return _derived(Channel, [reduce(np.kron, combo) for combo in product(*factor_bases)])


# ---------------------------------------------------------------------------
# instruments and ensembles


@dataclass(frozen=True)
class Instrument:
    """Finite family of CP trace-non-increasing maps summing to a channel.

    Built from one sequence of Kraus operators per outcome, and held as
    ``maps``, one :class:`KrausMap` per outcome in outcome order.
    """

    maps: tuple

    def __post_init__(self):
        self._hold([_kraus_stack(ks) for ks in self.maps])
        self._validate()

    def _hold(self, stacks) -> None:
        """``stacks``: one (K, out, in) Kraus array per outcome."""
        object.__setattr__(self, "maps", tuple(_derived(KrausMap, ks) for ks in stacks))

    def _validate(self) -> None:
        if not self.maps:
            raise ValueError("an instrument needs at least one outcome")
        shape = self.maps[0].stack.shape[1:]
        if any(m.stack.shape[1:] != shape for m in self.maps):
            raise DimensionMismatchError("all outcomes must share one (out, in) shape")
        total = np.zeros((self.in_dim, self.in_dim), dtype=complex)
        for x, m in enumerate(self.maps):
            if _trace_excess(m) > TRACE_TOL:
                raise ValueError(f"outcome {x} is trace-increasing")
            total += m.kraus_gram()
        if float(np.abs(total - np.eye(self.in_dim)).max()) > TRACE_TOL:
            raise ValueError("outcome maps do not sum to a trace-preserving channel")

    @property
    def in_dim(self) -> int:
        return self.maps[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.maps[0].out_dim

    @property
    def n_outcomes(self) -> int:
        return len(self.maps)

    @property
    def efficient(self) -> bool:
        return all(len(m.kraus) == 1 for m in self.maps)

    def measure(self, x: np.ndarray, systems: Systems | None = None, on=None,
                out_systems: Systems | None = None):
        """Outcome probabilities and normalized post-measurement operators.

        Without ``systems`` the outcome maps act on ``x`` itself; with them,
        on the block ``on`` of ``x`` as in :func:`apply_on`.  Probabilities
        are clipped at 0, and an outcome of probability at most
        ``PROB_FLOOR`` gets ``None`` in place of its operator.
        """
        maps = self.maps
        if systems is None:
            x = np.asarray(x, dtype=complex)
            if x.shape != (self.in_dim, self.in_dim):
                raise DimensionMismatchError(
                    f"input shape {x.shape} does not match channel input dimension {self.in_dim}"
                )
            outs = _apply_kraus(_padded([m.stack for m in maps]), x)
        else:
            systems, start, stop, _ = _factor_block(maps[0], systems, on, out_systems)
            d_left, d_right = _total_dim(systems[:start]), _total_dim(systems[stop:])
            x = np.asarray(x, dtype=complex)
            # apply_on adds the Kraus terms by sum, so maps of one count go together
            outs = np.stack(_grouped([len(m.kraus) for m in maps], lambda idx: _apply_block(
                np.stack([maps[i].stack for i in idx]), x, d_left, d_right)))
        probs, seen, posts = _outcomes(outs)
        return probs, [post if s else None for post, s in zip(posts, seen)]


def _mixture(probs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_x p_x rho_x for each row of (N, m) weights and (N, m, d, d)
    matrices, added in member order from 0 as ``sum`` adds them."""
    total = 0
    for x in range(probs.shape[1]):
        total = total + probs[:, x, None, None] * mats[:, x]
    return total


def _outcomes(outs: np.ndarray):
    """Probabilities, the mask of those above ``PROB_FLOOR`` and the
    normalized post-measurement operators of a (..., n, D, D) stack of
    unnormalized outcome operators.  Probabilities are clipped at 0 (a -0.0
    stays, as under ``max``); a post at or below the floor is all zeros."""
    p = np.real(np.trace(outs, axis1=-2, axis2=-1))
    seen = p > PROB_FLOOR
    posts = outs / np.where(seen, p, 1.0)[..., None, None]
    posts[~seen] = 0.0
    return np.where(0.0 > p, 0.0, p), seen, posts


def _instrument_kraus(kx: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Kraus operators K (x) |x> of the quantum-classical channel for the
    outcome maps of a (..., n, K, out, in) stack, ``kets`` the (n, n_total)
    classical basis rows of those outcomes: the (..., n K, out n_total, in)
    stack, ordered by outcome, then by Kraus operator, as ``np.kron`` makes
    each."""
    ops = kx[..., None, :] * kets[:, None, None, :, None]
    return ops.reshape(kx.shape[:-4] + (-1, kx.shape[-2] * kets.shape[-1], kx.shape[-1]))


def instrument_channel(instr: Instrument) -> Channel:
    """The quantum-classical channel P -> sum_x N^x(P) (x) |x><x|.

    Output factors are ordered (quantum, classical): the classical register is
    the minor (last) Kronecker factor, with basis index matching the outcome
    position in ``instr.maps``.
    """
    kets = np.eye(instr.n_outcomes)
    return _derived(Channel, np.concatenate(
        [_instrument_kraus(m.stack[None], kets[x : x + 1]) for x, m in enumerate(instr.maps)]))


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
        _require_finite(probs, "probability vector")
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
        mats = np.stack([s.matrix for s in self.states])
        mat = _mixture(self.probs[None], mats[None])[0]
        return _derived(DensityOperator, self.states[0].systems, mat)

    def through(self, channel: Channel, out_systems: Systems | None = None) -> "Ensemble":
        """The output ensemble {p_x; N(rho^x)}."""
        if out_systems is None:
            out_systems = self.states[0].systems
        outs = tuple(DensityOperator(out_systems, channel.apply(s.matrix)) for s in self.states)
        return Ensemble(self.probs, outs)


# ---------------------------------------------------------------------------
# random instances


def random_density(dim: int, rank: int | None = None, seed=None) -> DensityOperator:
    """Hilbert-Schmidt (Ginibre) random state: normalized G G^dag, G dim x rank."""
    rng = _rng(seed)
    rank = dim if rank is None else int(rank)
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    g = _ginibre(rng, (dim, rank))
    mat = g @ g.conj().T
    mat /= np.real(np.trace(mat))
    return _derived(DensityOperator, (("A", int(dim)),), mat)


def random_unitary(dim: int, seed=None) -> np.ndarray:
    """Haar-random unitary: the square :func:`random_isometry`."""
    return random_isometry(dim, dim, seed)


def random_isometry(in_dim: int, out_dim: int, seed=None) -> np.ndarray:
    """Haar-random isometry (out_dim x in_dim, out_dim >= in_dim) via
    phase-fixed QR of a Ginibre matrix."""
    if out_dim < in_dim:
        raise DimensionMismatchError("an isometry needs out_dim >= in_dim")
    return _haar_isometries(_ginibre(_rng(seed), (out_dim, in_dim)))


def _ginibre(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """A complex Gaussian (..., m, n) array.  Each matrix takes its real
    part, then its imaginary part, from one ``standard_normal`` call, which
    draws the numbers that a call per part would."""
    g = rng.standard_normal(shape[:-2] + (2,) + shape[-2:])
    return g[..., 0, :, :] + 1j * g[..., 1, :, :]


def _haar_isometries(g: np.ndarray) -> np.ndarray:
    """Phase-fixed QR of a Ginibre matrix, or of each of a stack."""
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def random_channel(in_dim: int, out_dim: int, env_dim: int, seed=None) -> Channel:
    """Random CPTP map from a Haar Stinespring isometry, env_dim Kraus operators."""
    if env_dim < 1:
        raise ValueError("env_dim must be at least 1")
    if out_dim * env_dim < in_dim:
        raise DimensionMismatchError("out_dim * env_dim must be at least in_dim")
    v = random_isometry(in_dim, out_dim * env_dim, seed)
    return _derived(Channel, v.reshape(out_dim, env_dim, in_dim).swapaxes(0, 1))


def random_povm(dim: int, n_outcomes: int, seed=None) -> tuple:
    """Random POVM: Gaussian positive parts conjugated to sum to the identity."""
    rng = _rng(seed)
    parts = []
    for _ in range(n_outcomes):
        g = _ginibre(rng, (dim, dim))
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
        roots = complex_power(np.stack(random_povm(dim, n_outcomes, rng)), 0.5)
        unitaries = _haar_isometries(_ginibre(rng, (n_outcomes, dim, dim)))
        return _derived(Instrument, [(u @ root,) for u, root in zip(unitaries, roots)])
    raw = []
    for _ in range(n_outcomes):
        raw.append([_ginibre(rng, (dim, dim)) for _ in range(2)])
    total = sum(k.conj().T @ k for ks in raw for k in ks)
    s = complex_power(total, -0.5)
    return _derived(Instrument, [[k @ s for k in ks] for ks in raw])


def random_mixed_unitary_channel(dim: int, n_unitaries: int, seed=None) -> Channel:
    """Random mixture of Haar unitaries (unital and trace-preserving)."""
    rng = _rng(seed)
    probs = rng.dirichlet(np.ones(n_unitaries))
    ks = [np.sqrt(p) * random_unitary(dim, rng) for p in probs]
    return _derived(Channel, ks)


def random_subunital_channel(in_dim: int, out_dim: int, seed=None) -> Channel:
    """Random subunital positive TP map: a mixture of 3 Haar unitaries followed
    by an isometry.

    With out_dim > in_dim the result is strictly subunital; with equal
    dimensions it is unital.
    """
    rng = _rng(seed)
    mixed = random_mixed_unitary_channel(in_dim, 3, rng)
    v = random_isometry(in_dim, out_dim, rng)
    return compose(Channel((v,)), mixed)
