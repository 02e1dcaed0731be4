"""Reference computations that the tests check the library against.

None of these is needed by the library itself; each is the direct formula for
a property that tests assert about channels and matrix functions.
"""

import math

import numpy as np

from qrecovery.bosonic import _block, _checked_ladder, amp_channel, loss_channel
from qrecovery.entropy import entropy, rel_entropy
from qrecovery.matfun import rank_cutoff
from qrecovery.qcore import DimensionMismatchError, TransferMap, tp_deviation, transfer_matrix


def choi(channel) -> np.ndarray:
    """Choi matrix with input factor first: C = sum_ij |i><j| (x) N(|i><j|)."""
    vecs = channel.stack.swapaxes(1, 2).reshape(len(channel.kraus), -1)
    return vecs.T @ vecs.conj()


def is_cptp(channel, tol: float = 1e-9) -> bool:
    """Complete positivity (Choi PSD) plus trace preservation within tol."""
    c = choi(channel)
    scale = max(1.0, float(np.abs(c).max()))
    return float(np.linalg.eigvalsh(c)[0]) >= -tol * scale and tp_deviation(channel) <= tol


def is_subunital(channel, tol: float = 1e-9) -> bool:
    """N(I) <= I within tol."""
    gap = np.eye(channel.out_dim) - channel.on_identity()
    return float(np.linalg.eigvalsh(gap)[0]) >= -tol


def _on_support(matrix: np.ndarray, f) -> np.ndarray:
    """f applied to the eigenvalues of a Hermitian matrix above the rank cutoff; 0 elsewhere."""
    lam, u = np.linalg.eigh(matrix)
    support = np.abs(lam) > rank_cutoff(lam)
    values = np.zeros(lam.shape)
    values[support] = f(lam[support])
    return (u * values) @ u.conj().T


def mat_inv(matrix: np.ndarray) -> np.ndarray:
    """Generalized inverse: support eigenvalues inverted, the kernel kept at 0."""
    return _on_support(matrix, lambda x: 1.0 / x)


def mat_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix."""
    return _on_support(matrix, np.sqrt)


def transfer_map(channel) -> TransferMap:
    """The transfer-matrix form of a Kraus map."""
    return TransferMap(transfer_matrix(channel), channel.in_dim, channel.out_dim)


def transfer_compose(after: TransferMap, before: TransferMap) -> TransferMap:
    """after(before(.)) as one transfer matrix."""
    return TransferMap(after.matrix @ before.matrix, before.in_dim, after.out_dim)


def ladder_from_kraus(kraus) -> np.ndarray:
    """Operator sum D = sum_k K_k of dense square Kraus operators, each with at
    most one nonzero diagonal, no two on the same one; checked as the
    library's ladders are."""
    total = np.zeros(np.shape(kraus[0]), dtype=np.result_type(*kraus, float))
    for k in map(np.asarray, kraus):
        rows, cols = np.nonzero(k)
        assert not total[rows, cols].any() and np.unique(rows - cols).size <= 1
        total[rows, cols] = k[rows, cols]
    return _checked_ladder(total)


def ladder_kraus(total: np.ndarray) -> tuple:
    """The dense Kraus operators of a ladder: every nonzero diagonal of its
    operator sum D, as one operator."""
    d = len(total)
    offsets = [s for s in range(1 - d, d) if np.diagonal(total, s).any()]
    return tuple(np.diag(np.diagonal(total, s), s) for s in offsets)


def block_by_bincount(total: np.ndarray, delta: int, size: int) -> np.ndarray:
    """Leading ``size`` x ``size`` window of a ladder's coherence-order block
    Delta, built operator by operator: the operator of shift s, with diagonal
    diag[b] = D[b + s, b], puts diag[b] conj(diag[b - Delta]) at (b + s, b),
    and one bincount scatters every operator's entries, on rows padded by dim
    on both sides so that entries outside the window need no mask."""
    lo, d = max(delta, 0), len(total)
    shifts = np.arange(1 - d, d)
    # diags[j, b] = D[b + shifts[j], b], 0 where the target is off the levels
    b = np.arange(d)
    rows = shifts[:, None] + b
    inside = (rows >= 0) & (rows < d)
    diags = np.where(inside, total[np.clip(rows, 0, d - 1), b], 0)
    values = diags[:, lo : lo + size] * diags[:, lo - delta : lo - delta + size].conj()
    cols = np.arange(size)
    flat = ((shifts[:, None] + d + cols) * size + cols).reshape(-1)
    n, window = (size + 2 * d) * size, slice(d * size, (d + size) * size)
    if np.iscomplexobj(values):
        re, im = (np.bincount(flat, part.reshape(-1), n)[window] for part in (values.real, values.imag))
        block = re + 1j * im
    else:
        block = np.bincount(flat, values.reshape(-1), n)[window].copy()
    return block.reshape(size, size)


def ladder_apply(total: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k K_k X K_k^dag for any matrix X, with the ladder given by its
    operator sum D: one block product per coherence order present in X."""
    x = np.asarray(x, dtype=complex)
    d = len(total)
    if x.shape != (d, d):
        raise DimensionMismatchError(f"input shape {x.shape} does not match ladder dimension {d}")
    out = np.zeros((d, d), dtype=complex)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    rows, cols = np.nonzero(x)
    for delta in set((rows - cols).tolist()):
        # entries (a, a - Delta), a ascending from max(Delta, 0) as in _block
        start, size = max(delta, 0) * (d + 1) - delta, d - abs(delta)
        diagonal = slice(start, start + size * (d + 1), d + 1)
        block, x_delta = _block(total, delta, size), flat_x[diagonal]
        if np.iscomplexobj(block):
            flat_out[diagonal] = block @ x_delta
        else:
            flat_out.real[diagonal] = block @ x_delta.real
            flat_out.imag[diagonal] = block @ x_delta.imag
    return out


def apply_stages(stages, x: np.ndarray) -> np.ndarray:
    """A ladder chain (operator sums, applied left to right) on any matrix X."""
    for total in stages:
        x = ladder_apply(total, x)
    return x


def dense_entropy_gain(spec, rho: np.ndarray):
    """(lhs, rhs, support_violation) of the bosonic entropy-gain row from
    dense channels and matrix entropies, for any input matrix rho."""
    trunc = spec.truncation
    if spec.kind == "loss":
        forward, reverse = [loss_channel(spec.eta, trunc)], [amp_channel(1.0 / spec.eta, trunc)]
    elif spec.kind == "amp":
        forward, reverse = [amp_channel(spec.gain, trunc)], [loss_channel(1.0 / spec.gain, trunc)]
    else:
        forward = [loss_channel(spec.eta, trunc), amp_channel(spec.gain, trunc)]
        reverse = [loss_channel(1.0 / spec.gain, trunc), amp_channel(1.0 / spec.eta, trunc)]
    out = rho
    for channel in forward:
        out = channel.apply(out)
    reversed_out = out
    for channel in reverse:
        reversed_out = channel.apply(reversed_out)
    d = rel_entropy(rho, reversed_out)
    return entropy(out) - entropy(rho), d.value + math.log2(spec.parameter()), d.support_violation
