import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from qrecovery.entropy import trace_distance
from qrecovery.qcore import (
    Channel,
    DensityOperator,
    DimensionMismatchError,
    Ensemble,
    Instrument,
    KrausMap,
    LabelError,
    adjoint,
    apply_on,
    compose,
    instrument_channel,
    lift,
    partial_trace,
    partial_trace_channel,
    permute,
    ptrace,
    purify,
    random_channel,
    random_density,
    random_instrument,
    random_unitary,
    stream,
    tp_deviation,
    transfer_matrix,
)

from oracles import choi, instrument_measure, is_cptp, is_subunital, on_identity, transfer_map

BELL = np.zeros((4, 4), dtype=complex)
BELL[np.ix_([0, 3], [0, 3])] = 0.5


def qubit(label="A"):
    return DensityOperator(((label, 2),), np.eye(2) / 2)


def test_tensor_then_partial_trace_is_inverse():
    rho = random_density(3, 2, stream(7, 0))
    joint = DensityOperator(rho.systems + (("B", 2),), np.kron(rho.matrix, np.diag([1.0, 0.0])))
    npt.assert_allclose(partial_trace(joint, "B").matrix, rho.matrix, atol=1e-12)


def test_partial_trace_maximally_entangled():
    rho = DensityOperator((("A", 2), ("B", 2)), BELL)
    npt.assert_allclose(partial_trace(rho, "B").matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_everything_gives_scalar_one():
    rho = DensityOperator((("A", 2), ("B", 2)), random_density(4, 3, stream(7, 1)).matrix)
    out = partial_trace(partial_trace(rho, "B"), "A")
    assert out.systems == ()
    npt.assert_allclose(out.matrix, [[1.0]], atol=1e-12)


def test_partial_trace_unknown_label():
    with pytest.raises(LabelError):
        partial_trace(qubit(), "Z")


def test_duplicate_labels_rejected():
    with pytest.raises(LabelError, match="duplicate"):
        DensityOperator((("A", 2), ("A", 2)), np.eye(4) / 4)


def test_permute_round_trip():
    rho = DensityOperator((("A", 2), ("B", 3)), random_density(6, 4, stream(7, 2)).matrix)
    back = permute(permute(rho, ("B", "A")), ("A", "B"))
    npt.assert_allclose(back.matrix, rho.matrix, atol=1e-14)
    swapped = permute(rho, ("B", "A"))
    npt.assert_allclose(
        partial_trace(swapped, "A").matrix, partial_trace(rho, "A").matrix, atol=1e-14
    )


def _purified(phi):
    """The state a purification purifies: its reference traced out."""
    return partial_trace(DensityOperator(phi.systems, phi.projector()), phi.reference_label)


class TestPurify:
    def test_pure_state_gets_trivial_reference(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        rho = DensityOperator((("A", 2),), np.outer(v, v))
        phi = purify(rho)
        assert phi.reference_dim == 1
        npt.assert_allclose(_purified(phi).matrix, rho.matrix, atol=1e-12)

    def test_maximally_mixed_qubit(self):
        phi = purify(qubit())
        assert phi.reference_dim == 2
        red = _purified(phi)
        npt.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_rank3_state_reference_dim(self):
        rho = random_density(4, 3, stream(8, 0))
        phi = purify(rho)
        assert phi.reference_dim == 3
        assert trace_distance(_purified(phi).matrix, rho.matrix) < 1e-9

    def test_round_trip_trace_distance(self):
        for seed in range(5):
            rho = random_density(3, 3, stream(8, 1, seed))
            phi = purify(rho)
            assert trace_distance(_purified(phi).matrix, rho.matrix) <= 1e-9


def test_apply_identity_channel():
    rho = random_density(3, 3, stream(9, 0))
    ident = Channel((np.eye(3),))
    npt.assert_allclose(ident.apply(rho.matrix), rho.matrix, atol=1e-14)


def test_apply_full_dephasing_on_plus():
    # hand computation: (|+><+| + Z|+><+|Z) / 2 = I/2
    z = np.diag([1.0, -1.0])
    dephasing = Channel((np.eye(2) / np.sqrt(2), z / np.sqrt(2)))
    plus = np.full((2, 2), 0.5)
    npt.assert_allclose(dephasing.apply(plus), np.eye(2) / 2, atol=1e-14)


def test_cptp_channel_preserves_trace():
    for seed in range(5):
        ch = random_channel(3, 2, 4, stream(9, 1, seed))
        rho = random_density(3, 3, stream(9, 2, seed))
        assert abs(np.trace(ch.apply(rho.matrix)).real - 1.0) < 1e-10


class TestAdjoint:
    def test_unitary_channel(self):
        u = random_unitary(3, stream(10, 0))
        adj = adjoint(Channel((u,)))
        npt.assert_allclose(adj.kraus[0], u.conj().T, atol=1e-14)

    def test_trace_preserving_iff_adjoint_unital(self):
        ch = random_channel(3, 3, 2, stream(10, 1))
        npt.assert_allclose(adjoint(ch).apply(np.eye(3)), np.eye(3), atol=1e-10)

    def test_hilbert_schmidt_pairing(self):
        # oracle: <Y, N(X)> = <N^dag(Y), X> on random pairs
        ch = random_channel(3, 2, 3, stream(10, 2))
        adj = adjoint(ch)
        rng = stream(10, 3)
        for _ in range(20):
            x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = np.trace(y.conj().T @ ch.apply(x))
            rhs = np.trace(adj.apply(y).conj().T @ x)
            assert abs(lhs - rhs) < 1e-10

    def test_double_adjoint_is_identity_on_choi(self):
        ch = random_channel(2, 3, 2, stream(10, 4))
        npt.assert_allclose(choi(adjoint(adjoint(ch))), choi(ch), atol=1e-10)


def test_flags_dephasing():
    # dephasing is trace-preserving and unital
    z = np.diag([1.0, -1.0])
    dephasing = Channel((np.eye(2) / np.sqrt(2), z / np.sqrt(2)))
    assert tp_deviation(dephasing) <= 1e-15
    npt.assert_allclose(on_identity(dephasing), np.eye(2), atol=1e-15)


def test_flags_scaled_isometry():
    half = Channel((np.eye(2) / 2,))
    # N^dag(I) = I/4 in Kraus and in transfer-matrix form
    assert tp_deviation(half) == tp_deviation(transfer_map(half)) == 0.75


def test_trace_increasing_kraus_rejected():
    with pytest.raises(ValueError, match="trace-increasing"):
        Channel((np.eye(2) * 1.5,))


def test_transfer_matrix_matches_apply():
    ch = random_channel(3, 2, 2, stream(11, 0))
    t = transfer_matrix(ch)
    x = stream(11, 1).standard_normal((3, 3)) + 1j * stream(11, 2).standard_normal((3, 3))
    npt.assert_allclose((t @ x.reshape(-1)).reshape(2, 2), ch.apply(x), atol=1e-12)


def _einsum_transfer_matrix(channel):
    """Reference: the direct contraction T[(a,c),(b,d)] = sum_k K_k[a,b] conj(K_k[c,d])."""
    ks = np.stack(channel.kraus)
    t = np.einsum("kab,kcd->acbd", ks, ks.conj())
    return t.reshape(channel.out_dim**2, channel.in_dim**2)


@settings(max_examples=60, deadline=None)
@given(
    in_dim=st.integers(1, 5),
    out_dim=st.integers(1, 5),
    n_kraus=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_transfer_matrix_matches_einsum_reference(in_dim, out_dim, n_kraus, seed):
    rng = np.random.default_rng(seed)
    ks = rng.standard_normal((n_kraus, out_dim, in_dim)) + 1j * rng.standard_normal(
        (n_kraus, out_dim, in_dim)
    )
    ks /= np.linalg.norm(ks)
    ch = KrausMap(tuple(ks))
    t = transfer_matrix(ch)
    assert t.shape == (out_dim**2, in_dim**2)
    npt.assert_allclose(t, _einsum_transfer_matrix(ch), rtol=0, atol=1e-14)


def _einsum_ptrace(matrix, dims, keep):
    """Reference: one einsum contracting the row and column index of each dropped factor."""
    n = len(dims)
    rows = [chr(ord("a") + i) for i in range(n)]
    cols = [rows[i] if i not in keep else chr(ord("n") + i) for i in range(n)]
    out = "".join(rows[i] for i in keep) + "".join(cols[i] for i in keep)
    t = np.einsum("".join(rows) + "".join(cols) + "->" + out, matrix.reshape(dims + dims))
    dk = int(np.prod([dims[i] for i in keep]))
    return t.reshape(dk, dk)


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 4), min_size=2, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_ptrace_matches_einsum_reference(dims, seed):
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for r in range(len(dims) + 1):
        for keep in itertools.combinations(range(len(dims)), r):
            npt.assert_allclose(
                ptrace(m, dims, keep), _einsum_ptrace(m, dims, list(keep)), rtol=0, atol=1e-12
            )


def test_compose_matches_sequential_application():
    a = random_channel(2, 3, 2, stream(11, 3))
    b = random_channel(3, 2, 2, stream(11, 4))
    rho = random_density(2, 2, stream(11, 5))
    npt.assert_allclose(
        compose(b, a).apply(rho.matrix), b.apply(a.apply(rho.matrix)), atol=1e-12
    )


def test_lift_matches_manual_kron():
    ch = random_channel(2, 2, 2, stream(12, 0))
    systems = (("A", 3), ("B", 2), ("C", 2))
    lifted, out_systems = lift(ch, systems, "B")
    assert out_systems == systems
    manual = tuple(np.kron(np.kron(np.eye(3), k), np.eye(2)) for k in ch.kraus)
    for got, want in zip(lifted.kraus, manual):
        npt.assert_allclose(got, want, atol=1e-14)


def test_lift_requires_contiguous_block():
    ch = random_channel(4, 4, 1, stream(12, 1))
    with pytest.raises(LabelError):
        lift(ch, (("A", 2), ("B", 2), ("C", 2)), ("A", "C"))


@settings(max_examples=80, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    out_dims=st.none() | st.lists(st.integers(1, 3), min_size=1, max_size=2),
    n_kraus=st.integers(1, 3),
    use_adjoint=st.booleans(),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_on_matches_lift(dims, out_dims, n_kraus, use_adjoint, data, seed):
    """apply_on equals applying the Kraus-form lift on any contiguous block,
    with or without a change of output dimension, for maps that need not be TP."""
    n = len(dims)
    start = data.draw(st.integers(0, n - 1))
    stop = data.draw(st.integers(start + 1, n))
    systems = tuple((f"S{i}", d) for i, d in enumerate(dims))
    on = tuple(f"S{i}" for i in range(start, stop))
    d_in = int(np.prod(dims[start:stop]))
    out_systems = None if out_dims is None else tuple((f"T{i}", d) for i, d in enumerate(out_dims))
    d_out = d_in if out_dims is None else int(np.prod(out_dims))
    rng = np.random.default_rng(seed)
    shape = (n_kraus, d_in, d_out) if use_adjoint else (n_kraus, d_out, d_in)
    ks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m = KrausMap(tuple(ks / np.linalg.norm(ks)))
    if use_adjoint:
        m = adjoint(m)
    d = int(np.prod(dims))
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x /= np.linalg.norm(x)
    got, got_systems = apply_on(m, x, systems, on, out_systems)
    lifted, want_systems = lift(m, systems, on, out_systems)
    assert got_systems == want_systems
    npt.assert_allclose(got, lifted.apply(x), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "on, out_systems, error",
    [
        ("D", None, LabelError),  # unknown label
        (("A", "C"), None, LabelError),  # not contiguous
        (("A", "B"), None, DimensionMismatchError),  # block dimension 6 != map input 3
        ("B", None, DimensionMismatchError),  # map changes dimension, out_systems missing
        ("B", (("B'", 3),), DimensionMismatchError),  # out_systems do not match the output
    ],
)
def test_apply_on_and_lift_reject_bad_blocks_alike(on, out_systems, error):
    ch = random_channel(3, 2, 2, stream(12, 3))
    systems = (("A", 2), ("B", 3), ("C", 2))
    with pytest.raises(error):
        apply_on(ch, np.eye(12), systems, on, out_systems)
    with pytest.raises(error):
        lift(ch, systems, on, out_systems)


def test_apply_on_rejects_operator_of_wrong_size():
    ch = random_channel(2, 2, 2, stream(12, 4))
    with pytest.raises(DimensionMismatchError):
        apply_on(ch, np.eye(3), (("A", 2), ("B", 2)), "A")


def test_partial_trace_channel_agrees_with_partial_trace():
    systems = (("A", 2), ("B", 3))
    ch = partial_trace_channel(systems, "B")
    rho = DensityOperator(systems, random_density(6, 6, stream(12, 2)).matrix)
    npt.assert_allclose(ch.apply(rho.matrix), partial_trace(rho, "B").matrix, atol=1e-12)


class TestRandomInstances:
    def test_random_density_valid_full_rank(self):
        rho = random_density(4, 4, stream(13, 0))
        assert np.linalg.matrix_rank(rho.matrix, tol=1e-10) == 4

    def test_random_channel_cptp(self):
        assert is_cptp(random_channel(2, 2, 4, stream(13, 1)))

    def test_random_instrument_efficient(self):
        instr = random_instrument(3, 2, True, stream(13, 2))
        assert instr.efficient
        assert all(len(m.kraus) == 1 for m in instr.maps)
        assert tp_deviation(instrument_channel(instr)) <= 1e-10

    def test_random_instrument_inefficient(self):
        instr = random_instrument(3, 2, False, stream(13, 3))
        assert not instr.efficient
        assert tp_deviation(instrument_channel(instr)) <= 1e-10

    @pytest.mark.parametrize("seed", range(100))
    def test_generated_channels_cptp_and_efficient_instruments_subunital(self, seed):
        ch = random_channel(2, 2, 3, stream(14, seed))
        assert is_cptp(ch)
        instr = random_instrument(2, 3, True, stream(15, seed))
        assert is_subunital(instrument_channel(instr))


class TestInstrumentChannel:
    def test_single_outcome_appends_classical_register(self):
        ch = random_channel(2, 2, 2, stream(16, 0))
        instr = Instrument((ch.kraus,))
        rho = random_density(2, 2, stream(16, 1))
        out = instrument_channel(instr).apply(rho.matrix)
        npt.assert_allclose(out, np.kron(ch.apply(rho.matrix), [[1.0]]), atol=1e-12)

    def test_projective_measurement_on_plus(self):
        # hand computation: equal-weight |0><0| and |1><1| blocks
        instr = Instrument(((np.diag([1.0, 0.0]),), (np.diag([0.0, 1.0]),)))
        plus = np.full((2, 2), 0.5)
        out = instrument_channel(instr).apply(plus)
        expected = np.zeros((4, 4))
        expected[0, 0] = 0.5  # |0>_A' |0>_X
        expected[3, 3] = 0.5  # |1>_A' |1>_X
        npt.assert_allclose(out, expected, atol=1e-14)

    def test_block_weights_are_outcome_probabilities(self):
        instr = random_instrument(3, 3, False, stream(16, 2))
        rho = random_density(3, 2, stream(16, 3))
        out = instrument_channel(instr).apply(rho.matrix)
        probs, posts = instrument_measure(instr, rho.matrix)
        blocks = out.reshape(3, 3, 3, 3)
        for x in range(3):
            assert abs(np.trace(blocks[:, x, :, x]).real - probs[x]) < 1e-10
            npt.assert_allclose(probs[x] * posts[x], blocks[:, x, :, x], atol=1e-12)


class TestMeasure:
    def test_on_a_factor_matches_the_lifted_instrument(self):
        instr = random_instrument(2, 3, False, stream(16, 4))
        rho = DensityOperator((("R", 3), ("A", 2)), random_density(6, 4, stream(16, 5)).matrix)
        probs, posts = instrument_measure(instr, rho.matrix, rho.systems, "A")
        lifted = Instrument(tuple(lift(m, rho.systems, "A")[0].kraus for m in instr.maps))
        ref_probs, ref_posts = instrument_measure(lifted, rho.matrix)
        npt.assert_allclose(probs, ref_probs, atol=1e-12)
        for post, ref in zip(posts, ref_posts):
            npt.assert_allclose(post, ref, atol=1e-12)

    def test_improbable_outcome_has_no_post_state(self):
        probs, posts = instrument_measure(
            Instrument(((np.diag([1.0, 0.0]),), (np.diag([0.0, 1.0]),))), np.diag([1.0, 0.0])
        )
        npt.assert_array_equal(probs, [1.0, 0.0])
        npt.assert_allclose(posts[0], np.diag([1.0, 0.0]), atol=0)
        assert posts[1] is None


def test_ensemble_validation_and_average():
    states = (random_density(2, 1, stream(17, 0)), random_density(2, 2, stream(17, 1)))
    ens = Ensemble(np.array([0.25, 0.75]), states)
    npt.assert_allclose(
        ens.average().matrix, 0.25 * states[0].matrix + 0.75 * states[1].matrix, atol=1e-14
    )
    with pytest.raises(ValueError):
        Ensemble(np.array([0.5, 0.6]), states)


def test_stream_is_deterministic_and_path_dependent():
    a = stream(42, 1, 2).standard_normal(4)
    b = stream(42, 1, 2).standard_normal(4)
    c = stream(42, 1, 3).standard_normal(4)
    npt.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_kraus_map_allows_trace_increasing():
    m = KrausMap((np.eye(2) * 2.0,))
    npt.assert_allclose(m.apply(np.eye(2)), 4 * np.eye(2), atol=1e-14)


@settings(max_examples=80, deadline=None)
@given(
    in_dim=st.integers(1, 5),
    out_dim=st.integers(1, 5),
    n_kraus=st.integers(1, 5),
    n_states=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_on_a_stack_matches_single_applications(in_dim, out_dim, n_kraus, n_states, seed):
    rng = np.random.default_rng(seed)
    ks = rng.standard_normal((n_kraus, out_dim, in_dim)) + 1j * rng.standard_normal(
        (n_kraus, out_dim, in_dim)
    )
    xs = rng.standard_normal((n_states, in_dim, in_dim)) + 1j * rng.standard_normal(
        (n_states, in_dim, in_dim)
    )
    m = KrausMap(tuple(ks))
    out = m.apply(xs)
    assert out.shape == (n_states, out_dim, out_dim)
    for x, got in zip(xs, out):
        if out_dim >= 2:
            assert np.array_equal(got, m.apply(x))
        else:
            npt.assert_allclose(got, m.apply(x), rtol=0, atol=1e-15)


@pytest.mark.parametrize("shape", [(2,), (3, 3), (4, 3, 3), (4, 2, 3), (4, 3, 2)])
def test_apply_rejects_wrong_trailing_shape(shape):
    with pytest.raises(DimensionMismatchError):
        random_channel(2, 2, 2, stream(17, 2)).apply(np.zeros(shape))
