"""Reference computations that the tests check the library against.

None of these is needed by the library itself; each is the direct formula for
a property that tests assert about channels and matrix functions.
"""

import math

import numpy as np

from qrecovery.bosonic import _block, _checked_ladder, amp_channel, loss_channel
from qrecovery.cpdp import ForwardResult, Interaction, TripartiteConfiguration, afw_bound
from qrecovery.entropy import (
    cmi,
    cond_entropy,
    entropy,
    fidelity,
    holevo_chi,
    mutual_info,
    rel_entropy,
    root_fidelity,
    shannon_entropy,
    trace_distance,
    trace_norm,
)
from qrecovery.matfun import complex_power, eig_hermitian, rank_cutoff
from qrecovery.qcore import (
    PROB_FLOOR,
    Channel,
    DensityOperator,
    DimensionMismatchError,
    Ensemble,
    Instrument,
    KrausMap,
    LabelError,
    Purification,
    TransferMap,
    _apply_block,
    _apply_kraus,
    _derived,
    _factor_block,
    _ginibre,
    _grouped,
    _outcomes,
    _padded,
    _total_dim,
    adjoint,
    apply_on,
    as_matrix,
    compose,
    partial_trace,
    partial_trace_channel,
    permute,
    ptrace,
    random_isometry,
    random_unitary,
    tp_deviation,
    transfer_matrix,
)
from qrecovery.recovery import (
    NotCompletelyPositiveError,
    _root_factors,
    QuadratureSpec,
    quadrature,
    stacked_root_fidelity,
    swiveled_kraus,
    swiveled_root_fidelities,
    uhlmann_isometry,
)
from qrecovery.reports import CheckReport
from qrecovery.theorems import _outcome_stack


def system_dim(rho: DensityOperator, label: str) -> int:
    """The dimension of the factor ``label`` of ``rho``."""
    for l, d in rho.systems:
        if l == label:
            return d
    raise LabelError(f"unknown system label {label!r}")


def on_identity(m: KrausMap) -> np.ndarray:
    """N(I) for a map in Kraus form."""
    return m.apply(np.eye(m.in_dim))


def instrument_measure(instr: Instrument, x, systems=None, on=None, out_systems=None):
    """Outcome probabilities and normalized post-measurement operators, all
    outcomes at once through the stacked primitives.

    Without ``systems`` the outcome maps act on ``x`` itself; with them, on
    the block ``on`` of ``x`` as in :func:`~qrecovery.qcore.apply_on`.
    Probabilities are clipped at 0, and an outcome of probability at most
    ``PROB_FLOOR`` gets ``None`` in place of its operator.
    """
    maps = instr.maps
    x = np.asarray(x, dtype=complex)
    if systems is None:
        if x.shape != (instr.in_dim, instr.in_dim):
            raise DimensionMismatchError(
                f"input shape {x.shape} does not match channel input dimension {instr.in_dim}"
            )
        outs = _apply_kraus(_padded([m.stack for m in maps]), x)
    else:
        systems, start, stop, _ = _factor_block(maps[0], systems, on, out_systems)
        d_left, d_right = _total_dim(systems[:start]), _total_dim(systems[stop:])
        # apply_on adds the Kraus terms by sum, so maps of one count go together
        outs = np.stack(_grouped([len(m.kraus) for m in maps], lambda idx: _apply_block(
            np.stack([maps[i].stack for i in idx]), x, d_left, d_right)))
    probs, seen, posts = _outcomes(outs)
    return probs, [post if s else None for post, s in zip(posts, seen)]


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
    gap = np.eye(channel.out_dim) - on_identity(channel)
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


# ---------------------------------------------------------------------------
# per-instance primitives: the loops over outcomes, Kraus operators and
# directions that the library now runs on stacks


def measure_oracle(instr: Instrument, x, systems=None, on=None, out_systems=None):
    """:func:`instrument_measure` one outcome map at a time: probabilities
    clipped at 0, and ``None`` for a post at or below ``PROB_FLOOR``."""
    probs, posts = [], []
    for m in instr.maps:
        out = m.apply(x) if systems is None else apply_on(m, x, systems, on, out_systems)[0]
        p = float(np.real(np.trace(out)))
        probs.append(max(p, 0.0))
        posts.append(out / p if p > PROB_FLOOR else None)
    return np.array(probs), posts


def instrument_channel_oracle(instr: Instrument) -> Channel:
    """The quantum-classical channel with Kraus operators K (x) |x>, built
    with ``np.kron`` per outcome and Kraus operator."""
    n = instr.n_outcomes
    ks = []
    for x, m in enumerate(instr.maps):
        e = np.zeros((n, 1))
        e[x, 0] = 1.0
        for k in m.kraus:
            ks.append(np.kron(k, e))
    return _derived(Channel, ks)


def purify_oracle(rho: DensityOperator) -> Purification:
    """sum_k sqrt(lam_k) |k>_R |v_k> over the eigenpairs that a mask keeps
    above the rank cutoff."""
    spec = eig_hermitian(rho.matrix)
    lam = np.clip(spec.eigenvalues, 0.0, None)
    mask = lam > rank_cutoff(spec.eigenvalues)
    lam, vecs = lam[mask], spec.eigenvectors[:, mask]
    amp = np.sqrt(lam)[:, None] * vecs.T
    return Purification("R", (("R", lam.shape[0]),) + rho.systems, amp.reshape(-1))


def completion_kraus_oracle(directions: np.ndarray, weights, dim: int) -> list:
    """sqrt(w_j / d) |k><d_j| by an outer product per direction and basis
    vector, ordered by direction, then by k."""
    basis = np.eye(dim, dtype=complex)
    lam = 1.0 / dim
    ks = []
    for j in range(directions.shape[1]):
        bra = directions[:, j].conj()
        for k in range(dim):
            ks.append(np.sqrt(weights[j] * lam) * np.outer(basis[:, k], bra))
    return ks


def petz_core_oracle(spec_sig, spec_out, kraus):
    """Support eigenbases u, v by mask, their eigenvalues lam, mu, and the
    Petz Kraus operators lam^{1/2} u^dag K_k^dag v mu^{-1/2}, one per K_k."""
    in_supp = spec_sig.eigenvalues > spec_sig.cutoff
    out_supp = spec_out.eigenvalues > spec_out.cutoff
    u = spec_sig.eigenvectors[:, in_supp]
    v = spec_out.eigenvectors[:, out_supp]
    lam = spec_sig.eigenvalues[in_supp]
    mu = spec_out.eigenvalues[out_supp]
    scale = np.sqrt(lam)[:, None] / np.sqrt(mu)[None, :]
    core = np.stack([scale * (u.conj().T @ k.conj().T @ v) for k in kraus])
    return u, lam, v, mu, core


def integrated_recovery_oracle(sigma, channel: KrausMap) -> Channel:
    """The integrated recovery of (sigma, N) for one pair: one Kraus operator
    per positive eigenvalue of the weighted Petz Choi matrix, then the
    completion on ker N(sigma)."""
    sig = as_matrix(sigma)
    n_sig = channel.apply(sig)
    if sig.shape == n_sig.shape:
        pair = eig_hermitian(np.stack([sig, n_sig]))
        spec_sig, spec_out = pair[0], pair[1]
    else:
        spec_sig, spec_out = eig_hermitian(sig), eig_hermitian(n_sig)
    u, lam, v, mu, core = petz_core_oracle(spec_sig, spec_out, channel.kraus)
    petz = core.reshape(len(channel.kraus), -1)
    half_log = ((np.log(mu)[None, :] - np.log(lam)[:, None]) / 2.0).reshape(-1)
    w = half_log[:, None] - half_log[None, :]
    with np.errstate(invalid="ignore"):
        char = np.where(w == 0.0, 1.0, w / np.sinh(w))
    spec = eig_hermitian((petz.T @ petz.conj()) * char)
    ks = [
        np.sqrt(e) * (u @ vec.reshape(len(lam), len(mu)) @ v.conj().T)
        for e, vec in zip(spec.eigenvalues, spec.eigenvectors.T)
        if e > 0.0
    ]
    kernel = spec_out.eigenvectors[:, spec_out.eigenvalues <= spec_out.cutoff]
    ks.extend(completion_kraus_oracle(kernel, np.ones(kernel.shape[1]), channel.in_dim))
    return Channel(tuple(ks))


def adjoint_recovery_oracle(channel: KrausMap) -> Channel:
    """R(Y) = N^dag(Y) + Tr{(id - N^dag)(Y)} I/d for one map: the adjoint's
    Kraus operators, then one completion block per gap direction above 1e-12."""
    gap = np.eye(channel.out_dim) - on_identity(channel)
    spec = eig_hermitian(gap)
    if spec.eigenvalues[0] < -1e-10:
        witness = np.outer(spec.eigenvectors[:, 0], spec.eigenvectors[:, 0].conj())
        raise NotCompletelyPositiveError("channel is superunital", witness)
    ks = [k.conj().T for k in channel.kraus]
    gap_dirs = spec.eigenvalues > 1e-12
    ks.extend(completion_kraus_oracle(spec.eigenvectors[:, gap_dirs], spec.eigenvalues[gap_dirs],
                                      channel.in_dim))
    return Channel(tuple(ks))


def petz_fixed_point_oracle(sigma, channel: Channel) -> float:
    """||(P o N)(sigma) - sigma||_1 for the Petz map P of (sigma, N), built
    one Kraus operator at a time."""
    sig = as_matrix(sigma)
    n_sig = channel.apply(sig)
    left, right = complex_power(sig, 0.5), complex_power(n_sig, -0.5)
    petz = Channel(tuple(left @ k.conj().T @ right for k in channel.kraus))
    return trace_norm(petz.apply(n_sig) - sig)


# ---------------------------------------------------------------------------
# per-instance check bodies: each theorem row computed for one instance with
# the single-instance primitives, as the checks did before they ran on stacks


def entropy_gain_recovery_oracle(rho, channel: Channel) -> CheckReport:
    """Entropy gain bound with the adjoint-based recovery channel.

    For subunital N: H(N(rho)) - H(rho) >= D(rho || (R o N)(rho)) with
    R(Y) = N^dag(Y) + Tr{(id - N^dag)(Y)} tau.  The report also carries the
    plain adjoint bound D(rho || (N^dag o N)(rho)), which dominates the
    recovery bound because (R o N)(rho) >= (N^dag o N)(rho).
    """
    assert tp_deviation(channel) <= 1e-9
    mat = as_matrix(rho)
    rec = adjoint_recovery_oracle(channel)
    out = channel.apply(mat)
    lhs = entropy(out) - entropy(mat)
    rhs = rel_entropy(mat, rec.apply(out)).value
    rhs_adjoint = rel_entropy(mat, adjoint(channel).apply(out)).value
    aux = {"rhs_adjoint_only": rhs_adjoint, "dominance_slack": rhs_adjoint - rhs}
    dims = (mat.shape[0], channel.out_dim)
    return CheckReport("entropy-gain-recovery", lhs, rhs, dims=dims, aux=aux)


def cond_entropy_gain_oracle(rho_ab: DensityOperator, channel: Channel) -> CheckReport:
    """Conditional-entropy gain under a local map on the first factor (A here):

    H(A'|B)_sigma - H(A|B)_rho >= D(rho_AB || ((N^dag o N) (x) id)(rho_AB)).
    """
    assert tp_deviation(channel) <= 1e-9
    on = rho_ab.labels[0]
    out_label = on + "'"
    sigma_mat, out_systems = apply_on(
        channel, rho_ab.matrix, rho_ab.systems, on, out_systems=((out_label, channel.out_dim),)
    )
    nn_mat, _ = apply_on(
        adjoint(channel), sigma_mat, out_systems, out_label, out_systems=((on, channel.in_dim),)
    )

    cond_labels = tuple(label for label in rho_ab.labels if label != on)
    # a checked trace-preserving channel on one factor of a checked state
    sigma = _derived(DensityOperator, out_systems, sigma_mat)
    lhs = cond_entropy(sigma, cond_labels) - cond_entropy(rho_ab, cond_labels)
    d = rel_entropy(rho_ab.matrix, nn_mat)
    aux = {"support_violation": d.support_violation}
    return CheckReport("cond-entropy-gain", lhs, d.value, dims=rho_ab.dims, aux=aux)


def recovery_fid_oracle(rho, sigma, channel: Channel) -> CheckReport:
    """Recoverability refinement of data processing (Junge, Renner, Sutter,
    Wilde and Winter 2018):

    D(rho || sigma) - D(N(rho) || N(sigma)) >= -log F(rho, (R o N)(rho)),

    with R the integrated recovery map of (sigma, N); supp(rho) must lie in
    supp(sigma).
    """
    rho, sigma = as_matrix(rho), as_matrix(sigma)
    rec = integrated_recovery_oracle(sigma, channel)
    out = channel.apply(rho)
    lhs = rel_entropy(rho, sigma).value - rel_entropy(out, channel.apply(sigma)).value
    fid = fidelity(rho, rec.apply(out))
    rhs = -math.log2(max(fid, 1e-300))
    return CheckReport("recovery-fid", lhs, rhs, dims=(rho.shape[0], channel.out_dim))


def recovery_stronger_oracle(
    rho, sigma, channel: Channel, quad: QuadratureSpec = QuadratureSpec()
) -> CheckReport:
    """The same bound with the average over ``p_weight`` outside the logarithm:

    D(rho || sigma) - D(N(rho) || N(sigma)) >= -int dt p(t) log F(rho, R^{t/2}(N(rho))),

    R^{t/2} the swiveled Petz map of (sigma, N); the integral is the ``quad``
    rule over :func:`swiveled_root_fidelities`.
    """
    rho, sigma = as_matrix(rho), as_matrix(sigma)
    n_rho, n_sigma = channel.apply(rho), channel.apply(sigma)
    lhs = rel_entropy(rho, sigma).value - rel_entropy(n_rho, n_sigma).value
    nodes, weights = quadrature(quad)
    sqrt_fids = swiveled_root_fidelities(rho, sigma, channel, nodes, n_rho, n_sigma)
    acc = float(weights @ np.log2(np.maximum(sqrt_fids**2, 1e-300)))
    return CheckReport("recovery-stronger", lhs, -acc, dims=(rho.shape[0], channel.out_dim))


def recover_abc_oracle(rho: DensityOperator) -> DensityOperator:
    """The A-factor recovery R_{C->AC}(rho_BC) of rho_ABC, factors in the order A, B, C.

    A trace-preserving recovery channel on one factor of a partial trace of a
    checked state gives a state, so it is held without revalidation.
    """
    rho_ac, rho_bc = partial_trace(rho, "B"), partial_trace(rho, "A")
    rec = integrated_recovery_oracle(rho_ac.matrix, partial_trace_channel(rho_ac.systems, "A"))
    out = (("A", system_dim(rho, "A")), ("C", system_dim(rho, "C")))
    mat, out_systems = apply_on(rec, rho_bc.matrix, rho_bc.systems, "C", out_systems=out)
    return permute(_derived(DensityOperator, out_systems, mat), ("A", "B", "C"))


def cmi_recovery_oracle(rho_abc: DensityOperator) -> CheckReport:
    """Conditional mutual information versus recovery of A from C:

    I(A;B|C) >= -log F(rho_ABC, R_{C->AC}(rho_BC)),

    with R the integrated recovery map of (rho_AC, Tr_A).  The factors are
    labeled A, B and C.
    """
    lhs = cmi(rho_abc, "A", "B", "C")
    fid = fidelity(rho_abc.matrix, recover_abc_oracle(rho_abc).matrix)
    return CheckReport("cmi-recovery", lhs, -math.log2(max(fid, 1e-300)), dims=rho_abc.dims)


def groenewold_gain_oracle(instr: Instrument, rho) -> float:
    """Entropy reduction H(rho) - sum_x p(x) H(rho^x).

    Negative values occur only for inefficient instruments; outcomes with
    probability at or below ``PROB_FLOOR`` are dropped from the sum.
    """
    mat = as_matrix(rho)
    return _entropy_reduction(mat, *measure_oracle(instr, mat))


def _entropy_reduction(mat: np.ndarray, probs, posts) -> float:
    """H(rho) - sum_x p(x) H(rho^x) from :func:`measure_oracle`'s outcomes,
    whose post is ``None`` at or below ``PROB_FLOOR``."""
    reduction = entropy(mat)
    for p, post in zip(probs, posts):
        if post is not None:
            reduction -= p * entropy(post)
    return reduction


def _reference_instrument_state(instr: Instrument, rho: DensityOperator):
    """Purify rho and run the instrument on its first factor A.

    Returns the purification (factors R, A, rest), outcome probabilities, the
    normalized post-measurement operators on (R, A', rest) (pure for
    efficient instruments), and their reductions on (R, rest).
    """
    phi = purify_oracle(rho)
    a_label = rho.labels[0]
    probs, posts = measure_oracle(
        instr, phi.projector(), phi.systems, a_label, out_systems=((a_label + "'", instr.out_dim),)
    )
    dims = (phi.reference_dim, instr.out_dim) + rho.dims[1:]
    keep = [i for i in range(len(dims)) if i != 1]
    reduced = [None if post is None else ptrace(post, dims, keep) for post in posts]
    return phi, probs, posts, reduced


def _cq_assemble(weights, blocks, block_dim: int) -> np.ndarray:
    """sum_x w_x block_x (x) |x><x| as one matrix (classical factor last):
    w_x block_x fills the (x, x) slot of a (d, n, d, n) array, and a block
    that is ``None`` (an outcome at or below ``PROB_FLOOR``) leaves it 0."""
    n = len(weights)
    out = np.zeros((block_dim, n, block_dim, n), dtype=complex)
    for x, (w, b) in enumerate(zip(weights, blocks)):
        if b is not None:
            out[:, x, :, x] += w * b
    return out.reshape(block_dim * n, block_dim * n)


def _avg(blocks, weights, dim: int) -> np.ndarray:
    """sum_x w_x block_x over the blocks that are not ``None``."""
    out = np.zeros((dim, dim), dtype=complex)
    for w, b in zip(weights, blocks):
        if b is not None:
            out += w * b
    return out


def info_gain_upper_oracle(instr: Instrument, rho) -> CheckReport:
    """General information-gain bound, valid for any quantum instrument:

    H(X)_sigma - D(rho || (N^dag o N)(rho)) >= I_G, with N the
    quantum-classical instrument channel.
    """
    mat = as_matrix(rho)
    channel = instrument_channel_oracle(instr)
    probs, posts = measure_oracle(instr, mat)
    d = rel_entropy(mat, adjoint(channel).apply(channel.apply(mat)))
    h_x = shannon_entropy(probs)
    gain = _entropy_reduction(mat, probs, posts)
    aux = {"h_x": h_x, "d_term": d.value, "groenewold_gain": gain, "efficient": instr.efficient}
    return CheckReport("info-gain-upper", h_x - d.value, gain, dims=(instr.in_dim,), aux=aux)


def efficient_second_law_oracle(instr: Instrument, rho: DensityOperator) -> CheckReport:
    """Second-law strengthening for efficient instruments:

    H(X|R)_sigma >= D(rho || (R o N)(rho)), with sigma_RX the joint state of
    the classical outcome and the purifying reference, and R the adjoint-based
    recovery of the (subunital) instrument channel.
    """
    if not instr.efficient:
        raise ValueError("check_efficient_second_law requires an efficient instrument")
    phi, probs, _, posts_r = _reference_instrument_state(instr, rho)
    r_dim = phi.reference_dim
    sigma_rx = _cq_assemble(probs, posts_r, r_dim)
    sigma_r = _avg(posts_r, probs, r_dim)
    lhs = entropy(sigma_rx) - entropy(sigma_r)
    channel = instrument_channel_oracle(instr)
    rec = adjoint_recovery_oracle(channel)
    rhs = rel_entropy(rho.matrix, rec.apply(channel.apply(rho.matrix))).value
    aux = {"outcome_probs_min": float(probs.min()), "n_outcomes": instr.n_outcomes}
    return CheckReport("efficient-second-law", lhs, rhs, dims=(instr.in_dim,), aux=aux)


def info_gain_no_qsi_oracle(instr: Instrument, rho: DensityOperator) -> CheckReport:
    """Information gain of a measurement versus recoverability (no side info).

    Always checks I(R;X) >= -log F(sigma_RX, sigma_R (x) sigma_X); for
    efficient instruments the bound is rebuilt from per-outcome Uhlmann
    isometries carrying the post-measurement purifications back to the input
    space, and the per-outcome root fidelities are reported.
    """
    phi, probs, posts_ra, posts_r = _reference_instrument_state(instr, rho)
    r_dim = phi.reference_dim
    sigma_rx = _cq_assemble(probs, posts_r, r_dim)
    sigma_r = _avg(posts_r, probs, r_dim)
    h_x = shannon_entropy(probs)
    lhs = entropy(sigma_r) + h_x - entropy(sigma_rx)

    product = _cq_assemble(probs, [None if b is None else sigma_r for b in posts_r], r_dim)
    rhs_direct = -math.log2(fidelity(sigma_rx, product))
    seen = _seen_outcomes(posts_r)
    blocks = np.stack([posts_r[x] for x in seen])
    sqrt_fids = [0.0] * len(probs)
    for x, fid in zip(seen, root_fidelity(blocks, np.broadcast_to(sigma_r, blocks.shape))):
        sqrt_fids[x] = float(fid)
    avg_sqrt = float(np.sum(probs * np.array(sqrt_fids)))
    rhs_direct_sum = -2.0 * math.log2(max(avg_sqrt, 1e-300))

    aux = {
        "rhs_fid_direct": rhs_direct,
        "rhs_fid_direct_sum": rhs_direct_sum,
        "efficient": instr.efficient,
        "per_outcome_sqrt_fid": [float(s) for s in sqrt_fids],
    }
    rhs = rhs_direct
    if instr.efficient:
        a_label = rho.labels[0]
        out_label = a_label + "'"
        phi_sigma = Purification(a_label, phi.systems, phi.vector)
        uhlmann_sqrt = [0.0] * len(probs)
        max_dev = 0.0
        for x, vec in zip(seen, _pure_vectors([posts_ra[x] for x in seen])):
            phi_rho = Purification(out_label, (("R", r_dim), (out_label, instr.out_dim)), vec)
            res = uhlmann_isometry(phi_rho, phi_sigma)
            uhlmann_sqrt[x] = math.sqrt(max(res.achieved, 0.0))
            max_dev = max(max_dev, abs(res.achieved - sqrt_fids[x]**2))
        avg_u = float(np.sum(probs * np.array(uhlmann_sqrt)))
        rhs = -2.0 * math.log2(max(avg_u, 1e-300))
        aux["per_outcome_sqrt_fid_uhlmann"] = [float(s) for s in uhlmann_sqrt]
        aux["uhlmann_vs_fidelity_max_dev"] = max_dev
    return CheckReport("info-gain-no-qsi", lhs, rhs, dims=(instr.in_dim,), aux=aux)


def _seen_outcomes(posts) -> list:
    """Indices of the outcomes that get a post-measurement operator: those of
    probability above ``PROB_FLOOR`` (at least one, as the probabilities sum to 1)."""
    return [x for x, post in enumerate(posts) if post is not None]


def _pure_vectors(densities) -> np.ndarray:
    """sqrt(lam_max) times the top eigenvector of each density operator, for
    rank-one inputs the vector whose projector each one is; one stacked call."""
    spec = eig_hermitian(np.stack(densities))
    top = np.sqrt(np.maximum(spec.eigenvalues[:, -1], 0.0))
    return spec.eigenvectors[:, :, -1] * top[:, None]


def b_rotated_overlaps_oracle(phi: Purification, a_label: str, g: np.ndarray, phi_post: Purification):
    """Uhlmann overlaps of (I_RA (x) g_t)|phi> with ``phi_post`` for every g_t
    of a (T, d_B, d_B) stack, from the purifications' amplitude matrices with
    A and A' as references: the overlap at node t is
    sum_{b, c} g_t[b, c] C[c, b], C[c, b] = sum_r M_in[:, (r, c)] M_post[:, (r, b)]^dag."""
    m_in = Purification(a_label, phi.systems, phi.vector).amplitude_matrix()
    m_post = phi_post.amplitude_matrix()
    d_a, d_out, d_b = m_in.shape[0], m_post.shape[0], g.shape[-1]
    blocks_in = m_in.reshape(d_a, -1, d_b)  # (a, r, c)
    blocks_post = m_post.reshape(d_out, -1, d_b)  # (a', r, b)
    rows_in = blocks_in.transpose(0, 2, 1).reshape(d_a * d_b, -1)  # rows (a, c)
    rows_post = blocks_post.transpose(0, 2, 1).reshape(d_out * d_b, -1)  # rows (a', b)
    c = (rows_in @ rows_post.conj().T).reshape(d_a, d_b, d_out, d_b)  # (a, c, a', b)
    c = c.transpose(0, 2, 3, 1).reshape(d_a * d_out, d_b * d_b)  # ((a, a'), (b, c))
    overlap = (g.reshape(len(g), -1) @ c.T).reshape(len(g), d_a, d_out)
    return np.linalg.svd(overlap, compute_uv=False).sum(axis=-1) ** 2


def info_gain_qsi_oracle(
    instr: Instrument, rho_ab: DensityOperator, quad: QuadratureSpec = QuadratureSpec()
) -> CheckReport:
    """Information gain with quantum side information versus B-side recovery,
    I(R;X|B) >= -2 sum_t w_t log[sum_x p(x) sqrtF(omega^x_RB, R_B^{x,t/2}(omega_RB))],
    for one instance, outcome by outcome, each node's root fidelity taken on
    the support factors of omega^x_RB and omega_RB."""
    a_label, b_label = rho_ab.labels
    d_b = system_dim(rho_ab, b_label)
    out_label = a_label + "'"
    # purification factors (R, A, B); posts on (R, A', B), reductions on (R, B)
    phi, probs, posts_rab, posts_rb = _reference_instrument_state(instr, rho_ab)
    r_dim = phi.reference_dim

    omega_rb = _avg(posts_rb, probs, r_dim * d_b)
    omega_b = ptrace(omega_rb, (r_dim, d_b), (1,))
    omega_bx = [
        ptrace(block, (r_dim, d_b), (1,)) if block is not None else None for block in posts_rb
    ]
    omega_rbx = _cq_assemble(probs, posts_rb, r_dim * d_b)
    lhs = (
        entropy(omega_rb)
        + entropy(_cq_assemble(probs, omega_bx, d_b))
        - entropy(omega_rbx)
        - entropy(omega_b)
    )

    nodes, weights = quadrature(quad)
    seen = _seen_outcomes(posts_rb)
    spec_bx = eig_hermitian(np.stack([omega_b] + [omega_bx[x] for x in seen]))
    spec_rbx = eig_hermitian(np.stack([omega_rb] + [posts_rb[x] for x in seen]))
    # support factors L = diag(sqrt(lam_s)) U_s^dag of omega_RB and of each omega^x_RB
    factors = [_root_factors(spec_rbx[j]) for j in range(len(seen) + 1)]
    spec_b, right = spec_bx[0], factors[0].conj().T
    support_b = spec_b.eigenvectors[:, spec_b.eigenvalues > spec_b.cutoff]
    proj_b = support_b @ support_b.conj().T
    if instr.efficient:
        post_vecs = _pure_vectors([posts_rab[x] for x in seen])

    node_sum = np.zeros(len(nodes))
    tp_acc = np.zeros((len(nodes), d_b, d_b), dtype=complex)
    low_confidence = False
    uhlmann_dev = 0.0
    for j, x in enumerate(seen):
        g = swiveled_kraus(spec_bx[j + 1], spec_b, (np.eye(d_b),), nodes)
        tp_acc += probs[x] * (g[:, 0].conj().swapaxes(1, 2) @ g[:, 0])
        sqrt_f = stacked_root_fidelity(factors[j + 1], g, right, lead=r_dim)
        f = sqrt_f**2
        low_confidence = low_confidence or bool((f < 1e-14).any())
        node_sum += probs[x] * sqrt_f
        if instr.efficient:
            phi_post = Purification(
                out_label,
                (("R", r_dim), (out_label, instr.out_dim), (b_label, d_b)),
                post_vecs[j],
            )
            achieved = b_rotated_overlaps_oracle(phi, a_label, g[:, 0], phi_post)
            uhlmann_dev = max(uhlmann_dev, float(np.abs(achieved - f).max()))
    aux = {
        "recovery_instrument_tp_dev": float(np.abs(tp_acc - proj_b).max()),
        "min_node_avg_sqrt_fid": float(node_sum.min()),
        "low_confidence": low_confidence,
        "n_outcomes": instr.n_outcomes,
        "efficient": instr.efficient,
    }
    if instr.efficient:
        aux["uhlmann_vs_fidelity_max_dev"] = uhlmann_dev
    rhs = -2.0 * float(weights @ np.log2(np.maximum(node_sum, 1e-300)))
    return CheckReport("info-gain-qsi", lhs, rhs, dims=rho_ab.dims, aux=aux)


def entropic_disturbance_oracle(ens: Ensemble, channel: Channel) -> CheckReport:
    """Holevo-information loss versus average recoverability:

    chi(E) - chi(N(E)) >= -2 log sum_x p(x) sqrtF(rho^x, (R o N)(rho^x)),

    with R the integrated recovery map for the ensemble-average state (the
    block structure of the joint cq problem collapses onto the average).
    """
    avg = ens.average()
    out_systems = ((ens.states[0].labels[0] + "'", channel.out_dim),)
    out = ens.through(channel, out_systems)
    chi_in = holevo_chi(ens)
    chi_out = holevo_chi(out)
    lhs = chi_in - chi_out
    rec = integrated_recovery_oracle(avg.matrix, channel)
    recovered = rec.apply(np.stack([state.matrix for state in out.states]))
    sqrt_fids = root_fidelity(np.stack([state.matrix for state in ens.states]), recovered)
    avg_sqrt = float(np.sum(ens.probs * sqrt_fids))
    rhs = -2.0 * math.log2(max(avg_sqrt, 1e-300))
    aux = {"chi_in": chi_in, "chi_out": chi_out, "avg_sqrt_fid": avg_sqrt,
           "min_sqrt_fid": float(sqrt_fids.min())}
    dims = (ens.states[0].dim, channel.out_dim)
    return CheckReport("entropic-disturbance", lhs, rhs, dims=dims, aux=aux)


def evolved_oracle(config: TripartiteConfiguration, v: Interaction) -> DensityOperator:
    """sigma_RQ'E' = (I_R (x) V) rho_RQE (I_R (x) V)^dag.

    A checked isometry applied to a checked state gives a state, so it is
    held without revalidation.
    """
    if v.in_dims != config.dims[1:]:
        raise DimensionMismatchError("interaction input dims do not match the configuration")
    mat, out_systems = apply_on(
        KrausMap((v.matrix,)),
        config.state.matrix,
        config.state.systems,
        ("Q", "E"),
        out_systems=(("Q'", v.out_dims[0]), ("E'", v.out_dims[1])),
    )
    return _derived(DensityOperator, out_systems, mat)


def dp_slack_oracle(config: TripartiteConfiguration, v: Interaction) -> float:
    """I(R;Q')_sigma - I(R;Q)_rho from the evolved state and the marginals as
    checked objects."""
    sigma = evolved_oracle(config, v)
    i_out = mutual_info(partial_trace(sigma, "E'"), "R", "Q'")
    return i_out - mutual_info(config.marginal(("R", "Q")), "R", "Q")


def recovery_q_to_qe_oracle(config: TripartiteConfiguration) -> Channel:
    """Integrated recovery map Q -> QE built from the (Q, E) marginal."""
    rho_qe = config.marginal(("Q", "E"))
    trace_e = partial_trace_channel(rho_qe.systems, "E")
    return integrated_recovery_oracle(rho_qe.matrix, trace_e)


def reduced_dynamics_oracle(config: TripartiteConfiguration, v: Interaction) -> ForwardResult:
    """CPTP candidate for the reduced dynamics plus its fidelity certificate.

    Builds E(.) = Tr_{E'}{ V R_{Q->QE}(.) V^dag } with R the integrated
    recovery of the (Q, E) marginal, and checks

        I(R;E|Q)_rho >= -log F(sigma_RQ', E(rho_RQ)).
    """
    rec = recovery_q_to_qe_oracle(config)
    v_out_systems = (("Q'", v.out_dims[0]), ("E'", v.out_dims[1]))
    trace_eprime = partial_trace_channel(v_out_systems, "E'")
    channel = compose(trace_eprime, compose(Channel((v.matrix,)), rec))

    sigma = evolved_oracle(config, v)
    sigma_rqp = partial_trace(sigma, "E'")
    rho_rq = config.marginal(("R", "Q"))
    candidate, _ = apply_on(
        channel, rho_rq.matrix, rho_rq.systems, "Q", out_systems=(("Q'", v.out_dims[0]),)
    )
    fid = fidelity(sigma_rqp.matrix, candidate)
    lhs = cmi(config.state, "R", "E", "Q")
    rhs = -math.log2(max(fid, 1e-300))
    aux = {"fidelity": fid, "channel_kraus": len(channel.kraus)}
    report = CheckReport("cpdp-forward", lhs, rhs, dims=config.dims, aux=aux)
    return ForwardResult(channel, report, config, sigma_rqp, rho_rq, candidate, rec)


def converse_bound_oracle(forward: ForwardResult, eps: float, channel=None) -> CheckReport:
    """Approximate data processing from approximately CPTP reduced dynamics.

    Given a CPTP candidate E with (1/2)||sigma_RQ' - E(rho_RQ)||_1 <= eps,
    verifies I(R;Q')_sigma <= I(R;Q)_rho + AFW(eps_measured), and bounds
    I(R;E|Q)_rho by AFW of the embedding evolution's own measured distance
    (the per-V distance does not control the conditional mutual information;
    the embedding Q' = QE is the evolution the converse argument uses).

    ``forward`` is :func:`reduced_dynamics`' result for the configuration and
    V, whose states, recovery and I(R;E|Q) are used as they are; E is its
    candidate unless another Kraus-form ``channel`` is given.

    The report is marked vacuous when the measured distance exceeds ``eps``.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps!r}")
    config, sigma_rqp, rho_rq = forward.config, forward.sigma_rqp, forward.rho_rq
    d_r, d_q, d_e = config.dims
    if channel is None:
        candidate = forward.candidate
    elif isinstance(channel, KrausMap):
        candidate, _ = apply_on(
            channel, rho_rq.matrix, rho_rq.systems, "Q", out_systems=(("Q'", channel.out_dim),)
        )
    else:
        raise TypeError("converse_bound requires a Kraus-form channel")
    eps_measured = 0.5 * trace_distance(sigma_rqp.matrix, candidate)
    vacuous = eps_measured > eps + 1e-12

    i_out = mutual_info(sigma_rqp, "R", "Q'")
    i_in = mutual_info(rho_rq, "R", "Q")
    lhs_dp = i_in + afw_bound(eps_measured, d_r)

    # embedding evolution: its recovery candidate controls I(R;E|Q)
    recovered, _ = apply_on(
        forward.recovery, rho_rq.matrix, rho_rq.systems, "Q", out_systems=(("Q", d_q), ("E", d_e))
    )
    eps_embed = 0.5 * trace_distance(config.state.matrix, recovered)
    cmi_val = forward.report.lhs
    cmi_budget = afw_bound(eps_embed, d_r)

    return CheckReport(
        name="cpdp-converse",
        lhs=min(lhs_dp - i_out, cmi_budget - cmi_val),
        rhs=0.0,
        dims=config.dims,
        aux={
            "eps_given": eps,
            "eps_measured": eps_measured,
            "vacuous": vacuous,
            "dp_lhs_mutual_info": i_out,
            "dp_budget": lhs_dp,
            "cmi": cmi_val,
            "eps_embedding": eps_embed,
            "cmi_budget": cmi_budget,
        },
    )


# ---------------------------------------------------------------------------
# per-trial draws: the random constructions one object at a time, and each
# campaign family's instance built from them trial by trial, as the library
# drew them before its draws were finished per shape group


def random_density_oracle(dim: int, rank: int, rng) -> DensityOperator:
    """Normalized G G^dag for one dim x rank Ginibre matrix G."""
    g = _ginibre(rng, (dim, rank))
    mat = g @ g.conj().T
    mat /= np.real(np.trace(mat))
    return _derived(DensityOperator, (("A", dim),), mat)


def random_channel_oracle(in_dim: int, out_dim: int, env_dim: int, rng) -> Channel:
    """The Kraus operators of one Haar Stinespring isometry."""
    v = random_isometry(in_dim, out_dim * env_dim, rng)
    return _derived(Channel, v.reshape(out_dim, env_dim, in_dim).swapaxes(0, 1))


def random_povm_oracle(dim: int, n_outcomes: int, rng) -> tuple:
    """S G_x G_x^dag S, S = (sum_x G_x G_x^dag)^{-1/2}, one Ginibre draw per outcome."""
    parts = []
    for _ in range(n_outcomes):
        g = _ginibre(rng, (dim, dim))
        parts.append(g @ g.conj().T)
    s = complex_power(sum(parts), -0.5)
    return tuple(s @ p @ s for p in parts)


def random_instrument_oracle(dim: int, n_outcomes: int, efficient: bool, rng) -> Instrument:
    """V_x sqrt(Lambda_x) with one Haar unitary per outcome, or two Ginibre
    Kraus operators per outcome normalized by (sum K^dag K)^{-1/2}."""
    if efficient:
        roots = complex_power(np.stack(random_povm_oracle(dim, n_outcomes, rng)), 0.5)
        unitaries = [random_unitary(dim, rng) for _ in range(n_outcomes)]
        return _derived(Instrument, [(u @ root,) for u, root in zip(unitaries, roots)])
    raw = [[_ginibre(rng, (dim, dim)) for _ in range(2)] for _ in range(n_outcomes)]
    s = complex_power(sum(k.conj().T @ k for ks in raw for k in ks), -0.5)
    return _derived(Instrument, [[k @ s for k in ks] for ks in raw])


def random_mixed_unitary_channel_oracle(dim: int, n_unitaries: int, rng) -> Channel:
    """sqrt(p_k) U_k, one Haar unitary at a time."""
    probs = rng.dirichlet(np.ones(n_unitaries))
    return _derived(Channel, [np.sqrt(p) * random_unitary(dim, rng) for p in probs])


def random_subunital_channel_oracle(in_dim: int, out_dim: int, rng) -> Channel:
    """A mixture of three Haar unitaries followed by a Haar isometry."""
    mixed = random_mixed_unitary_channel_oracle(in_dim, 3, rng)
    return compose(Channel((random_isometry(in_dim, out_dim, rng),)), mixed)


def _state_oracle(systems, rank: int, rng) -> DensityOperator:
    raw = random_density_oracle(math.prod(d for _, d in systems), rank, rng)
    return DensityOperator(tuple(systems), raw.matrix)


def entropy_gain_draw_oracle(cfg, rng):
    lo, hi = cfg.dims[0], min(cfg.dims[1], 4)
    d = int(rng.integers(lo, hi + 1))
    rho = random_density_oracle(d, int(rng.integers(1, d + 1)), rng)
    return rho.matrix, random_channel_oracle(d, d, int(rng.integers(1, 5)), rng).stack


def subunital_draw_oracle(cfg, rng):
    lo, hi = cfg.dims[0], min(cfg.dims[1], 4)
    d = int(rng.integers(lo, min(hi, 3) + 1))
    rho = random_density_oracle(d, int(rng.integers(1, d + 1)), rng)
    return rho.matrix, random_subunital_channel_oracle(d, d + 1, rng).stack


def conditional_draw_oracle(cfg, rng):
    rho_ab = random_density_oracle(4, int(rng.integers(1, 5)), rng)
    return rho_ab.matrix, random_channel_oracle(2, 2, int(rng.integers(1, 5)), rng).stack


def recovery_instance_oracle(rng, lo: int, hi: int):
    """(rho, sigma, Kraus stack of N) with supp(rho) inside supp(sigma)."""
    d = int(rng.integers(lo, hi + 1))
    rank_sigma = d if rng.integers(4) else max(1, d - 1)
    sigma = random_density_oracle(d, rank_sigma, rng)
    if rank_sigma == d:
        rho = random_density_oracle(d, int(rng.integers(1, d + 1)), rng)
    else:
        small = random_density_oracle(rank_sigma, int(rng.integers(1, rank_sigma + 1)), rng)
        spec = eig_hermitian(sigma.matrix)
        support = spec.eigenvectors[:, spec.support_mask()]
        rho = DensityOperator((("A", d),), support @ small.matrix @ support.conj().T)
    d_out = int(rng.integers(lo, hi + 1))
    env_min = -(-d // d_out)
    channel = random_channel_oracle(d, d_out, int(rng.integers(env_min, env_min + 4)), rng)
    return rho.matrix, sigma.matrix, channel.stack


def markov_state_oracle(rng):
    """cq Markov chain: a classical channel on C of a B-C correlated cq state
    writes the A factor, so I(A;B|C) = 0."""
    p = rng.dirichlet(np.ones(2))
    mat = np.zeros((8, 8), dtype=complex)
    for c in range(2):
        rho_a = random_density_oracle(2, int(rng.integers(1, 3)), rng).matrix
        rho_b = random_density_oracle(2, int(rng.integers(1, 3)), rng).matrix
        block = np.zeros((2, 2))
        block[c, c] = 1.0
        mat += p[c] * np.kron(np.kron(rho_a, rho_b), block)
    return (DensityOperator((("A", 2), ("B", 2), ("C", 2)), mat).matrix,)


def info_gain_draw_oracle(cfg, rng, efficient=True):
    lo, hi = cfg.dims[0], min(cfg.dims[1], 3)
    d = int(rng.integers(lo, hi + 1))
    if efficient is None:
        efficient = bool(rng.integers(2))
    instr = random_instrument_oracle(d, int(rng.integers(2, 5)), efficient, rng)
    rho = random_density_oracle(d, int(rng.integers(1, d + 1)), rng)
    return rho.matrix, _outcome_stack(instr)


def qsi_draw_oracle(cfg, rng):
    rho_ab = _state_oracle((("A", 2), ("B", 2)), int(rng.integers(2, 5)), rng)
    instr = random_instrument_oracle(2, int(rng.integers(2, 4)), True, rng)
    return rho_ab.matrix, _outcome_stack(instr)


def ensemble_draw_oracle(cfg, rng):
    lo, hi = cfg.dims[0], min(cfg.dims[1], 3)
    d = int(rng.integers(lo, hi + 1))
    m = int(rng.integers(2, 5))
    probs = rng.dirichlet(np.ones(m))
    states = tuple(random_density_oracle(d, int(rng.integers(1, d + 1)), rng) for _ in range(m))
    ens = Ensemble(probs, states)
    channel = random_channel_oracle(d, d, int(rng.integers(1, 5)), rng)
    return ens.probs, np.stack([s.matrix for s in ens.states]), channel.stack


def commuting_draw_oracle(cfg, rng):
    lo, hi = cfg.dims[0], min(cfg.dims[1], 3)
    d = int(rng.integers(lo, hi + 1))
    basis = random_unitary(d, rng)
    m = int(rng.integers(2, 5))
    probs = rng.dirichlet(np.ones(m))
    states = tuple(
        DensityOperator((("A", d),), basis @ np.diag(rng.dirichlet(np.ones(d))) @ basis.conj().T)
        for _ in range(m)
    )
    ens = Ensemble(probs, states)
    projs = [np.outer(basis[:, i], basis[:, i].conj()) for i in range(d)]
    return ens.probs, np.stack([s.matrix for s in ens.states]), Channel(tuple(projs)).stack


def random_config_oracle(rng) -> TripartiteConfiguration:
    return TripartiteConfiguration(_state_oracle((("R", 2), ("Q", 2), ("E", 2)), int(rng.integers(2, 9)), rng))


def draw_interaction_oracle(cfg, rng) -> Interaction:
    if cfg.cpdp_isometric:
        return Interaction(random_isometry(4, 8, rng), (2, 2), (2, 4))
    return Interaction(random_unitary(4, rng), (2, 2), (2, 2))


def product_instance_oracle(cfg, rng):
    rho_rq = _state_oracle((("R", 2), ("Q", 2)), int(rng.integers(2, 5)), rng)
    rho_e = random_density_oracle(2, int(rng.integers(1, 3)), rng)
    mat = np.kron(rho_rq.matrix, rho_e.matrix)
    config = TripartiteConfiguration(DensityOperator((("R", 2), ("Q", 2), ("E", 2)), mat))
    return config.state.matrix, draw_interaction_oracle(cfg, rng).matrix


def _recovery_draw_oracle(cfg, rng):
    return recovery_instance_oracle(rng, cfg.dims[0], min(cfg.dims[1], 3))


# (suite, family) -> the per-trial draw oracle(cfg, rng) of that campaign family
FAMILY_DRAW_ORACLES = {
    ("entropy-gain", 0): entropy_gain_draw_oracle,
    ("entropy-gain", 2): subunital_draw_oracle,
    ("entropy-gain", 3): conditional_draw_oracle,
    ("recovery", 0): _recovery_draw_oracle,
    ("recovery", 1): _recovery_draw_oracle,
    ("recovery", 2): _recovery_draw_oracle,
    ("recovery", 3): lambda cfg, rng: (random_density_oracle(8, int(rng.integers(2, 9)), rng).matrix,),
    ("recovery", 4): lambda cfg, rng: markov_state_oracle(rng),
    ("info-gain", 0): info_gain_draw_oracle,
    ("info-gain", 1): lambda cfg, rng: info_gain_draw_oracle(cfg, rng, None),
    ("info-gain", 2): info_gain_draw_oracle,
    ("info-gain-qsi", 0): qsi_draw_oracle,
    ("disturbance", 0): ensemble_draw_oracle,
    ("disturbance", 1): commuting_draw_oracle,
    ("cpdp", 0): lambda cfg, rng: (random_config_oracle(rng).state.matrix,
                                   draw_interaction_oracle(cfg, rng).matrix),
    ("cpdp", 1): product_instance_oracle,
    ("cpdp", 2): lambda cfg, rng: (random_config_oracle(rng).state.matrix,),
}
