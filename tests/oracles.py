"""Reference computations that the tests check the library against.

None of these is needed by the library itself; each is the direct formula for
a property that tests assert about channels and matrix functions.
"""

import numpy as np

from qrecovery.bosonic import Ladder
from qrecovery.matfun import rank_cutoff
from qrecovery.qcore import TransferMap, tp_deviation, transfer_matrix


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


def ladder_from_kraus(kraus) -> Ladder:
    """Ladder of dense square Kraus operators, each with at most one nonzero
    diagonal; zero operators are dropped."""
    shifts, diags = [], []
    for k in map(np.asarray, kraus):
        rows, cols = np.nonzero(k)
        if rows.size:
            diag = np.zeros(k.shape[1], dtype=k.dtype)
            diag[cols] = k[rows, cols]
            shifts.append(int(rows[0] - cols[0]))
            diags.append(diag)
    return Ladder(tuple(shifts), np.array(diags))
