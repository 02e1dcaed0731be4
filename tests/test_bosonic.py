import math
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from qrecovery.bosonic import (
    FockTruncation,
    GaussianChannelSpec,
    amp_channel,
    amp_ladder,
    check_adjoint_relation,
    check_almost_unital,
    check_bosonic_entropy_gain,
    check_loss_semigroup,
    fock_state,
    geometric_state,
    loss_channel,
    loss_identity_tail,
    loss_ladder,
    mean_photon,
    recommended_guard,
    vacuum_state,
)
from qrecovery import bosonic
from qrecovery.bosonic import _block, _sectors, _spec_ladders
from qrecovery.campaigns import BOSONIC_ETAS, BOSONIC_GAINS, bosonic_specs
from qrecovery.entropy import rel_entropy
from qrecovery.matfun import NonFiniteError
from qrecovery.qcore import (
    KrausMap,
    DimensionMismatchError,
    compose,
    tp_deviation,
    transfer_matrix,
)

from oracles import (
    apply_stages,
    block_by_bincount,
    dense_entropy_gain,
    is_subunital,
    ladder_apply,
    ladder_from_kraus,
    ladder_kraus,
)

TRUNC = FockTruncation(40)
SMALL = FockTruncation(20)


class TestChannelConstruction:
    def test_lossless_is_identity(self):
        ch = loss_channel(1.0, SMALL)
        rho = np.diag(geometric_state(1.0, SMALL, support_max=12))
        npt.assert_allclose(ch.apply(rho), rho, atol=1e-14)

    def test_unit_gain_is_identity(self):
        ch = amp_channel(1.0, SMALL)
        rho = np.diag(geometric_state(1.0, SMALL, support_max=12))
        npt.assert_allclose(ch.apply(rho), rho, atol=1e-14)

    def test_full_loss_gives_vacuum(self):
        ch = loss_channel(0.0, SMALL)
        rho = np.diag(geometric_state(2.0, SMALL, support_max=15))
        npt.assert_allclose(ch.apply(rho), np.diag(vacuum_state(SMALL)), atol=1e-10)

    def test_loss_exactly_trace_preserving(self):
        assert tp_deviation(loss_channel(0.73, SMALL)) <= 1e-12

    def test_amplifier_subunital_not_unital(self):
        ch = amp_channel(1.2, SMALL)
        assert is_subunital(ch)
        assert np.abs(ch.on_identity() - np.eye(SMALL.dim)).max() > 1e-9

    def test_amplifier_trace_non_increasing_only(self):
        ch = amp_channel(1.25, SMALL)
        assert tp_deviation(ch) > 1e-6

    def test_ladders_cached_and_read_only(self):
        for build, param in ((loss_channel, 0.73), (amp_channel, 1.2)):
            ch = build(param, SMALL)
            assert build(param, SMALL) is ch
            assert build(param, FockTruncation(10)) is not ch
            with pytest.raises(ValueError, match="read-only"):
                ch.kraus[0][0, 0] = 1.0
        for build, param in ((loss_ladder, 0.73), (amp_ladder, 1.2)):
            ladder = build(param, SMALL)
            assert build(param, SMALL) is ladder
            assert build(param, FockTruncation(10)) is not ladder
            with pytest.raises(ValueError, match="read-only"):
                ladder[0, 0] = 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            loss_channel(1.2, SMALL)
        with pytest.raises(ValueError):
            amp_channel(0.9, SMALL)
        with pytest.raises(ValueError):
            loss_ladder(-0.1, SMALL)
        with pytest.raises(ValueError):
            amp_ladder(0.9, SMALL)
        with pytest.raises(ValueError):
            GaussianChannelSpec("loss", SMALL, eta=None)

    @pytest.mark.parametrize("gain", [math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["amp", "compose"])
    def test_non_finite_gain_rejected(self, kind, gain):
        with pytest.raises(ValueError, match="finite"):
            GaussianChannelSpec(kind, SMALL, eta=0.9, gain=gain)
        with pytest.raises(ValueError, match="finite"):
            amp_ladder(gain, SMALL)

    @pytest.mark.parametrize(
        "mean, support_max",
        [(1.0, -1), (1.0, SMALL.n_max + 1), (1.0, 2.5), (math.nan, None), (math.inf, None)],
    )
    def test_geometric_state_rejects_invalid_input(self, mean, support_max):
        with pytest.raises(ValueError):
            geometric_state(mean, SMALL, support_max=support_max)

    def test_truncation_needs_an_integer(self):
        with pytest.raises(ValueError, match="integer"):
            FockTruncation(2.5)

    @pytest.mark.parametrize("eta", [0.0, 5e-324, 5e-309])
    @pytest.mark.parametrize("kind, gain", [("loss", None), ("compose", 1.1)])
    def test_zero_transmissivity_rejected(self, kind, gain, eta):
        # the reversal amplifier of gain 1/eta does not exist at eta = 0, and
        # its gain overflows below 1 / DBL_MAX
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            GaussianChannelSpec(kind, SMALL, eta=eta, gain=gain)


class TestAlmostUnital:
    def test_lossless_exact(self):
        spec = GaussianChannelSpec("loss", TRUNC, eta=1.0)
        rep = check_almost_unital(spec)
        assert rep.rhs <= 1e-12

    def test_amplifier_identity_exact_under_truncation(self):
        # A_G(I) = I/G holds with no truncation error at all
        for gain in (1.01, 1.1, 1.2, 1.25):
            spec = GaussianChannelSpec("amp", TRUNC, gain=gain)
            rep = check_almost_unital(spec)
            assert rep.rhs <= 1e-12
            assert rep.holds

    def test_loss_mild_attenuation_within_tolerance(self):
        for eta in (0.9, 0.99):
            spec = GaussianChannelSpec("loss", TRUNC, eta=eta)
            rep = check_almost_unital(spec)
            assert rep.holds, (eta, rep.rhs)

    def test_loss_strong_attenuation_is_truncation_dominated(self):
        # with n_max=40 and guard 15 the negative-binomial tail dominates:
        # the identity is provably untestable at 1e-6 for eta <= 0.8
        for eta, floor in ((0.7, 1e-2), (0.8, 1e-4)):
            spec = GaussianChannelSpec("loss", TRUNC, eta=eta)
            rep = check_almost_unital(spec, n_guard=15)
            assert not rep.holds
            assert rep.rhs > floor
            assert rep.aux["truncation_dominated"]

    def test_measured_deviation_matches_analytic_tail(self):
        # independent oracle: the band-edge deviation equals the lost
        # negative-binomial tail of the identity expansion
        for eta in (0.7, 0.8, 0.9):
            spec = GaussianChannelSpec("loss", TRUNC, eta=eta)
            rep = check_almost_unital(spec, n_guard=15)
            assert rep.rhs == pytest.approx(rep.aux["analytic_tail"], rel=1e-9)

    @pytest.mark.parametrize("eta", [0.7, 0.8, 0.9, 0.99])
    def test_sweep_deviation_column_is_the_analytic_tail(self, eta):
        # the sweep's default etas at n_max 40 and guard 10
        rep = check_almost_unital(GaussianChannelSpec("loss", TRUNC, eta=eta), n_guard=10)
        assert abs(rep.rhs - rep.aux["analytic_tail"]) <= 1e-12

    def test_recommended_guard_restores_testability(self):
        for eta in (0.7, 0.8, 0.9, 0.99):
            spec = GaussianChannelSpec("loss", TRUNC, eta=eta)
            rep = check_almost_unital(spec, n_guard=None)
            assert rep.holds, (eta, rep.aux)
            assert not rep.aux["truncation_dominated"]

    def test_recommended_guard_values(self):
        assert recommended_guard(GaussianChannelSpec("loss", TRUNC, eta=0.9)) <= 15
        assert recommended_guard(GaussianChannelSpec("loss", TRUNC, eta=0.8)) > 15

    @pytest.mark.parametrize("n_max", [10, 40])
    def test_amplifier_needs_no_guard(self, n_max):
        # output level m receives only from levels <= m, so A_G(I) = I/G on every level
        for gain in (1.01, 1.1, 1.25):
            spec = GaussianChannelSpec("amp", FockTruncation(n_max), gain=gain)
            assert recommended_guard(spec) == 0
            rep = check_almost_unital(spec, n_guard=None)
            assert rep.aux["guard"] == 0
            assert rep.holds and rep.rhs <= 1e-12

    def test_composition_constant(self):
        spec = GaussianChannelSpec("compose", TRUNC, eta=0.99, gain=1.1)
        rep = check_almost_unital(spec)
        assert rep.aux["parameter"] == pytest.approx(0.99 * 1.1)
        assert rep.holds


class TestAdjointRelation:
    @pytest.mark.parametrize("eta", [0.7, 0.8, 0.9, 0.99, 1.0])
    def test_loss_adjoint_is_scaled_amplifier(self, eta):
        spec = GaussianChannelSpec("loss", TRUNC, eta=eta)
        rep = check_adjoint_relation(spec)
        assert rep.rhs <= 1e-12

    @pytest.mark.parametrize("gain", [1.01, 1.1, 1.25])
    def test_amplifier_adjoint_is_scaled_loss(self, gain):
        spec = GaussianChannelSpec("amp", TRUNC, gain=gain)
        rep = check_adjoint_relation(spec)
        assert rep.rhs <= 1e-12

    @pytest.mark.parametrize("eta,gain", [(0.8, 1.25), (0.9, 1.1)])
    def test_composition_adjoint(self, eta, gain):
        spec = GaussianChannelSpec("compose", SMALL, eta=eta, gain=gain)
        rep = check_adjoint_relation(spec, n_guard=8)
        assert rep.rhs <= 1e-12


def _chain_transfer(stages):
    """Dense transfer matrix of a ladder chain (applied left to right) via Kraus composition."""
    channel = KrausMap(ladder_kraus(stages[0]))
    for total in stages[1:]:
        channel = compose(KrausMap(ladder_kraus(total)), channel)
    return transfer_matrix(channel)


def _dense_adjoint_deviation(forward, reverse, scale, dim, keep):
    """Guard-banded Choi-window deviation of the adjoint relation from dense transfer matrices."""

    def window(t):
        return t.reshape(dim, dim, dim, dim).transpose(2, 0, 3, 1)[:keep, :keep, :keep, :keep]

    lhs = window(_chain_transfer(forward).conj().T)
    rhs = scale * window(_chain_transfer(reverse))
    return float(np.abs(lhs - rhs).max())


class TestSectors:
    @pytest.mark.parametrize("n_max", [4, 9])
    @pytest.mark.parametrize(
        "kind,eta,gain", [("loss", 0.7, None), ("amp", None, 1.25), ("compose", 0.8, 1.1)]
    )
    def test_blocks_scatter_to_transfer_matrix(self, n_max, kind, eta, gain):
        trunc = FockTruncation(n_max)
        d = trunc.dim
        forward, reverse = _spec_ladders(GaussianChannelSpec(kind, trunc, eta=eta, gain=gain))
        for stages in (forward, reverse):
            blocks = _sectors(stages)
            assert sorted(blocks) == list(range(1 - d, d))
            dense = np.zeros((d * d, d * d), dtype=complex)
            for delta, block in blocks.items():
                levels = np.arange(max(delta, 0), d + min(delta, 0))
                idx = levels * d + levels - delta
                dense[np.ix_(idx, idx)] = block
            npt.assert_allclose(dense, _chain_transfer(stages), rtol=0, atol=1e-14)


def _apply_by_slices(total, x):
    """sum_k K_k X K_k^dag, one elementwise product on shifted slices per
    operator: the operator of shift s is the diagonal D[b + s, b]."""
    d = len(total)
    out = np.zeros((d, d), dtype=complex)
    for s in range(1 - d, d):
        lo, hi = max(0, -s), min(d, d - s)
        src, dst = slice(lo, hi), slice(lo + s, hi + s)
        w = np.diagonal(total, -s)
        out[dst, dst] += (w[:, None] * x[src, src]) * w.conj()
    return out


def _oracle_input(kind, d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if kind == "dense":
        return z
    if kind == "diagonal":
        return np.diag(rng.random(d))
    if kind == "one-order":
        delta = int(rng.integers(1 - d, d))
        return np.diag(np.diagonal(z, -delta), -delta)
    # Hermitian, band |n - m| <= 2
    band = np.triu(np.tril(z, 2), -2)
    return band + band.conj().T


class TestApplyOracle:
    """Application by coherence-order blocks (``_block``) against the per-operator slice loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(4, 12),
        st.floats(0.0, 1.0, exclude_min=True),
        st.floats(1.0, 3.0),
        st.sampled_from(["dense", "diagonal", "one-order", "banded"]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_slice_loop(self, n_max, eta, gain, kind, seed):
        trunc = FockTruncation(n_max)
        d = trunc.dim
        rng = np.random.default_rng(seed)
        loss, amp = loss_ladder(eta, trunc), amp_ladder(gain, trunc)
        # complex diagonals
        phased = amp * np.exp(1j * rng.uniform(0, 2 * np.pi, amp.shape))
        x = _oracle_input(kind, d, rng)
        # the same input in column-major memory, as x.T or rho.conj().T are
        for x in (x, np.asfortranarray(x)):
            for ladder in (loss, amp, phased):
                npt.assert_allclose(ladder_apply(ladder, x), _apply_by_slices(ladder, x), rtol=0, atol=1e-14)

    def test_zero_input_and_wrong_shape(self):
        ladder = amp_ladder(1.25, FockTruncation(6))
        npt.assert_array_equal(ladder_apply(ladder, np.zeros((7, 7))), np.zeros((7, 7)))
        spec = GaussianChannelSpec("amp", FockTruncation(6), gain=1.25)
        for shape in ((6,), (8,), (7, 7), (49,)):
            with pytest.raises(DimensionMismatchError, match="does not match"):
                check_bosonic_entropy_gain(spec, np.ones(shape), n_guard=2)


def _default_suite_ladders():
    """Every ladder of the default bosonic suite (n_max 40): the forward and
    reversal stages of its specs and the semigroup rows' losses."""
    ladders = {}
    for spec in bosonic_specs(TRUNC, BOSONIC_ETAS, BOSONIC_GAINS):
        for stages in _spec_ladders(spec):
            ladders.update((id(ladder), ladder) for ladder in stages)
    for eta in (0.9, 0.8, 0.9 * 0.8, 0.7, 0.99, 0.7 * 0.99):
        ladder = loss_ladder(eta, TRUNC)
        ladders[id(ladder)] = ladder
    return list(ladders.values())


class TestWindowBlock:
    """``_block`` as one product of two windows of the operator sum, against
    the operator-by-operator bincount builder it replaced."""

    @staticmethod
    def _assert_blocks_equal(ladder):
        d = len(ladder)
        for delta in range(1 - d, d):
            for size in range(1, d - abs(delta) + 1):
                new, old = _block(ladder, delta, size), block_by_bincount(ladder, delta, size)
                assert new.dtype == old.dtype and new.shape == old.shape
                assert new.tobytes() == old.tobytes(), (delta, size)

    def test_default_suite_ladders_byte_for_byte(self):
        ladders = _default_suite_ladders()
        # 12 from the specs (loss 0.8 and amplifier 1.25 reverse each other,
        # as 1 / 1.25 == 0.8), and the semigroup's losses 0.72 and 0.693
        assert len(ladders) == 14
        for ladder in ladders:
            self._assert_blocks_equal(ladder)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 12),
        st.floats(0.0, 1.0, exclude_min=True),
        st.floats(1.0, 3.0),
        st.integers(0, 2**32 - 1),
    )
    def test_real_and_phased_ladders(self, n_max, eta, gain, seed):
        trunc = FockTruncation(n_max)
        rng = np.random.default_rng(seed)
        for ladder in (loss_ladder(eta, trunc), amp_ladder(gain, trunc)):
            self._assert_blocks_equal(ladder)
            phased = ladder * np.exp(1j * rng.uniform(0, 2 * np.pi, ladder.shape))
            # signed zeros aside, the same entries
            d = len(phased)
            for delta in range(1 - d, d):
                for size in range(1, d - abs(delta) + 1):
                    npt.assert_array_equal(_block(phased, delta, size), block_by_bincount(phased, delta, size))


class TestSectorWindow:
    """``_sectors(stages, keep)`` builds only the guard-band windows, and they
    are exactly the leading windows of the full blocks."""

    @staticmethod
    def _assert_windows(stages, keep):
        full, window = _sectors(stages), _sectors(stages, keep)
        assert sorted(window) == list(range(1 - keep, keep))
        for delta, block in window.items():
            w = keep - abs(delta)
            assert block.shape == (w, w)
            assert np.array_equal(block, full[delta][:w, :w]), delta

    @pytest.mark.parametrize("n_max,keep", [(9, 1), (9, None), (40, 1), (40, 26), (40, None)])
    @pytest.mark.parametrize(
        "kind,eta,gain", [("loss", 0.7, None), ("amp", None, 1.25), ("compose", 0.8, 1.1)]
    )
    def test_windows_are_exact(self, n_max, keep, kind, eta, gain):
        trunc = FockTruncation(n_max)
        keep = trunc.dim if keep is None else keep
        forward, reverse = _spec_ladders(GaussianChannelSpec(kind, trunc, eta=eta, gain=gain))
        # an amplifier before a loss: the product of the stage windows is not the window
        for stages in (forward, reverse, forward[::-1]):
            self._assert_windows(stages, keep)


def _comb_loss(eta, n, k):
    return math.sqrt(math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)


def _comb_amp(gain, n, k):
    inv = 1.0 / gain
    return math.sqrt(math.comb(n + k, k) * (1.0 - inv) ** k * inv ** (n + 1))


class TestLadder:
    """The operator sum D against the dense Kraus path it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(4, 12),
        st.floats(0.0, 1.0, exclude_min=True),
        st.floats(1.0, 3.0),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_channel(self, n_max, eta, gain, seed):
        trunc = FockTruncation(n_max)
        d = trunc.dim
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        loss, amp = loss_ladder(eta, trunc), amp_ladder(gain, trunc)
        for ladder, dense in ((loss, loss_channel(eta, trunc)), (amp, amp_channel(gain, trunc))):
            npt.assert_allclose(ladder_apply(ladder, x), dense.apply(x), rtol=0, atol=1e-14)
        for stages in ([loss], [amp], [loss, amp]):
            blocks = _sectors(stages)
            ref = _chain_transfer(stages)
            for delta, block in blocks.items():
                levels = np.arange(max(delta, 0), d + min(delta, 0))
                idx = levels * d + levels - delta
                npt.assert_allclose(block, ref[np.ix_(idx, idx)], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n_max", [5, 40, 60])
    def test_diagonals_match_comb_formula(self, n_max):
        # operator k of the loss is the diagonal D[n - k, n], of the amplifier D[n + k, n]
        trunc = FockTruncation(n_max)
        for eta in (0.05, 0.5, 0.7, 0.99):
            ladder = loss_ladder(eta, trunc)
            npt.assert_array_equal(np.tril(ladder, -1), 0.0)
            for k in range(trunc.dim):
                ref = np.array([_comb_loss(eta, n, k) for n in range(k, trunc.dim)])
                npt.assert_allclose(np.diagonal(ladder, k), ref, rtol=1e-13, atol=0)
        for gain in (1.01, 1.25, 3.0):
            ladder = amp_ladder(gain, trunc)
            npt.assert_array_equal(np.triu(ladder, 1), 0.0)
            for k in range(trunc.dim):
                ref = np.array([_comb_amp(gain, n, k) for n in range(trunc.dim - k)])
                npt.assert_allclose(np.diagonal(ladder, -k), ref, rtol=1e-13, atol=0)

    def test_edge_parameters_drop_zero_operators(self):
        # eta = 1 and G = 1 are the identity; eta = 0 sends every level to vacuum
        npt.assert_array_equal(loss_ladder(1.0, SMALL), np.eye(SMALL.dim))
        npt.assert_array_equal(amp_ladder(1.0, SMALL), np.eye(SMALL.dim))
        vacuum = np.zeros((SMALL.dim, SMALL.dim))
        vacuum[0] = 1.0
        npt.assert_array_equal(loss_ladder(0.0, SMALL), vacuum)
        assert len(loss_channel(1.0, SMALL).kraus) == len(amp_channel(1.0, SMALL).kraus) == 1
        assert len(loss_channel(0.0, SMALL).kraus) == SMALL.dim

    @pytest.mark.parametrize("n_max", [1, 6, 20])
    @pytest.mark.parametrize("param", [0.0, 0.3, 0.7, 1.0, 1.25, 3.0])
    def test_channel_kraus_are_the_ladder_diagonals(self, n_max, param):
        # one operator per nonzero diagonal of D: shift 0 first, then by
        # photon count, and together exactly D
        trunc = FockTruncation(n_max)
        cases = []
        if param <= 1.0:
            cases.append((loss_channel(param, trunc), loss_ladder(param, trunc), 1))
        if param >= 1.0:
            cases.append((amp_channel(param, trunc), amp_ladder(param, trunc), -1))
        for channel, ladder, step in cases:
            offsets = []
            for k in channel.kraus:
                rows, cols = np.nonzero(k)
                assert rows.size and np.unique(cols - rows).size == 1
                offsets.append(int(cols[0] - rows[0]))
            nonzero = [s for s in range(0, step * trunc.dim, step) if np.diagonal(ladder, s).any()]
            assert offsets == nonzero
            npt.assert_array_equal(sum(channel.kraus), ladder)

    def test_from_kraus_round_trip(self):
        ladder = amp_ladder(1.25, FockTruncation(6))
        npt.assert_array_equal(ladder_from_kraus(ladder_kraus(ladder)), ladder)
        # zero operators add nothing
        npt.assert_array_equal(ladder_from_kraus(ladder_kraus(ladder) + (np.zeros((7, 7)),)), ladder)

    def test_rejects_trace_increasing_and_mismatched_input(self):
        with pytest.raises(ValueError, match="trace-increasing"):
            bosonic._checked_ladder(np.eye(4) + np.eye(4, k=-1))
        for bad in (math.nan, math.inf):
            # a NaN column sums to NaN, which a > test would let pass
            total = np.eye(4)
            total[:, 2] = bad
            with pytest.raises(NonFiniteError):
                bosonic._checked_ladder(total)
        with pytest.raises(ValueError, match="does not match"):
            check_bosonic_entropy_gain(
                GaussianChannelSpec("loss", FockTruncation(4), eta=0.5), np.full(4, 0.25), n_guard=0
            )

    def test_stirling_table_matches_gammaln(self):
        # the tabulated remainders are the gammaln expression they replaced, bit for bit
        from scipy.special import gammaln

        n = np.arange(1.0, 16.0)
        direct = gammaln(n + 1.0) - (n + 0.5) * np.log(n) + n - 0.5 * math.log(2.0 * math.pi)
        npt.assert_array_equal(bosonic._STIRLERR_SMALL[1:], direct)
        npt.assert_array_equal(bosonic._stirlerr(n), direct)

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 1.0 / 3.0, 0.7, 0.99, 1.0])
    def test_edge_terms_match_xlogy(self, p):
        # k = 0 and k = n are n log q and n log p, with 0 log 0 = 0
        from scipy.special import xlogy

        q = 1.0 - p
        n = np.arange(0.0, 50.0)
        npt.assert_array_equal(bosonic._log_binom_pmf(np.zeros_like(n), n, p, q), xlogy(n, q))
        npt.assert_array_equal(bosonic._log_binom_pmf(n, n, p, q), xlogy(n, p))

    def test_no_overflow_at_large_n_max(self):
        # math.comb(n, k) * eta**... raises OverflowError near n = 1030; the
        # dense Channel at this size would need ~10.7 GB, so only ladders are built
        trunc = FockTruncation(1100)
        try:
            for eta in (0.3, 0.9):
                sums = (loss_ladder(eta, trunc) ** 2).sum(axis=0)
                assert np.abs(sums - 1.0).max() <= 1e-12
            for gain in (1.01, 1.5):
                sums = (amp_ladder(gain, trunc) ** 2).sum(axis=0)
                assert sums.max() <= 1.0 + 1e-12
                # the vacuum column loses only (1 - 1/G)^(n_max + 1) to the cutoff
                assert sums[0] == pytest.approx(1.0, abs=1e-12)
            assert 0.0 < loss_identity_tail(0.7, 550, trunc.n_max) < 1e-30
        finally:
            loss_ladder.cache_clear()
            amp_ladder.cache_clear()


class TestAdjointDenseReference:
    @pytest.mark.parametrize("guard", [0, 8, SMALL.n_max])
    @pytest.mark.parametrize(
        "kind,eta,gain", [("loss", 0.7, None), ("amp", None, 1.25), ("compose", 0.8, 1.1)]
    )
    def test_matches_dense_choi_window(self, monkeypatch, guard, kind, eta, gain):
        spec = GaussianChannelSpec(kind, SMALL, eta=eta, gain=gain)
        forward, reverse = _spec_ladders(spec)
        keep = SMALL.n_max - guard + 1
        scale = 1.0 / spec.parameter()
        rep = check_adjoint_relation(spec, n_guard=guard)
        ref = _dense_adjoint_deviation(forward, reverse, scale, SMALL.dim, keep)
        assert rep.rhs == pytest.approx(ref, rel=1e-12, abs=1e-15)
        # damping one level after the reversal breaks the relation on that
        # level only: the deviation is large when it is the band edge and
        # round-off when it is the first level above the band
        for level in (keep - 1, keep):
            if level == SMALL.dim:
                continue
            damp = np.eye(SMALL.dim)
            damp[level, level] = 0.5
            skewed = reverse + [ladder_from_kraus((damp,))]
            monkeypatch.setattr(bosonic, "_spec_ladders", lambda _: (forward, skewed))
            rep = check_adjoint_relation(spec, n_guard=guard)
            ref = _dense_adjoint_deviation(forward, skewed, scale, SMALL.dim, keep)
            assert (ref > 1e-3) == (level < keep)
            assert rep.rhs == pytest.approx(ref, rel=1e-12, abs=1e-15)


class TestGuardValidation:
    @staticmethod
    def _checks(n_guard):
        loss = GaussianChannelSpec("loss", SMALL, eta=0.9)
        yield lambda: check_almost_unital(loss, n_guard=n_guard)
        yield lambda: check_adjoint_relation(loss, n_guard=n_guard)
        yield lambda: check_bosonic_entropy_gain(loss, vacuum_state(SMALL), n_guard=n_guard)

    @pytest.mark.parametrize("n_guard", [-1, SMALL.n_max + 1, SMALL.n_max + 5])
    def test_out_of_range_guard_rejected(self, n_guard):
        for check in self._checks(n_guard):
            with pytest.raises(ValueError, match="guard band"):
                check()

    def test_full_guard_band_runs(self):
        # n_guard = n_max keeps only the vacuum level
        for check in self._checks(SMALL.n_max):
            assert check().aux["parameter"] == 0.9


class TestEntropyGain:
    def test_vacuum_through_loss_is_tight(self):
        # closed form: lhs = 0 and D(vac || (A o B)(vac)) = -log2(eta) exactly,
        # so the shifted right side is 0 and the inequality is tight
        eta = 0.8
        spec = GaussianChannelSpec("loss", TRUNC, eta=eta)
        rep = check_bosonic_entropy_gain(spec, vacuum_state(TRUNC))
        assert rep.lhs == pytest.approx(0.0, abs=1e-10)
        assert rep.rhs == pytest.approx(0.0, abs=1e-9)
        amp = amp_channel(1 / eta, TRUNC)
        vac = np.diag(vacuum_state(TRUNC))
        d = rel_entropy(vac, amp.apply(vac)).value
        assert d == pytest.approx(-math.log2(eta), abs=1e-10)

    def test_single_photon_through_mild_loss(self):
        spec = GaussianChannelSpec("loss", FockTruncation(30), eta=0.9)
        rep = check_bosonic_entropy_gain(spec, fock_state(1, FockTruncation(30)), n_guard=10)
        assert rep.holds

    def test_thermal_like_state_through_amplifier(self):
        spec = GaussianChannelSpec("amp", TRUNC, gain=1.1)
        rho = geometric_state(1.0, TRUNC, support_max=25)
        rep = check_bosonic_entropy_gain(spec, rho)
        assert rep.holds
        assert mean_photon(rho) == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("eta", [0.7, 0.8, 0.9, 0.99])
    @pytest.mark.parametrize("gain", [1.01, 1.1, 1.25])
    def test_composition_grid(self, eta, gain):
        spec = GaussianChannelSpec("compose", TRUNC, eta=eta, gain=gain)
        rho = geometric_state(1.0, TRUNC, support_max=25)
        rep = check_bosonic_entropy_gain(spec, rho)
        assert rep.holds, (eta, gain, rep.slack)

    def test_high_energy_input_rejected_with_leakage(self):
        spec = GaussianChannelSpec("loss", TRUNC, eta=0.9)
        hot = fock_state(30, TRUNC)
        with pytest.raises(ValueError, match="leak"):
            check_bosonic_entropy_gain(spec, hot)

    def test_high_mean_photon_rejected(self):
        spec = GaussianChannelSpec("loss", TRUNC, eta=0.9)
        warm = fock_state(12, TRUNC)  # inside the guard band but mean > n_max/4
        with pytest.raises(ValueError, match="mean photon"):
            check_bosonic_entropy_gain(spec, warm)


def _invalid_states():
    nan = vacuum_state(SMALL)
    nan[2] = math.nan
    imag = vacuum_state(SMALL).astype(complex)
    imag[1] = 1e-3j
    negative = np.array([1.5, -0.5] + [0.0] * (SMALL.dim - 2))
    return [
        pytest.param(2 * vacuum_state(SMALL), ValueError, "trace", id="trace-two"),
        pytest.param(negative, ValueError, "PSD", id="negative-population"),
        pytest.param(nan, NonFiniteError, "NaN", id="nan-population"),
        pytest.param(vacuum_state(SMALL)[:-1], DimensionMismatchError, "does not match", id="wrong-length"),
        pytest.param(vacuum_state(SMALL).astype(complex), ValueError, "real", id="complex-dtype"),
        pytest.param(imag, ValueError, "real", id="imaginary-population"),
    ]


class TestPopulationPath:
    """The photon-number path of the entropy-gain and almost-unital checks
    against dense channels and matrix entropies."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(4, 40),
        st.sampled_from(["loss", "amp", "compose"]),
        st.floats(1e-300, 1.0),
        st.floats(1.0, 3.0),
        st.floats(0.0, 1.0),
        st.floats(0.05, 3.0),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_oracle(self, n_max, kind, eta, gain, guard_share, alpha, seed):
        trunc = FockTruncation(n_max)
        spec = GaussianChannelSpec(kind, trunc, eta=eta, gain=gain)
        guard = round(guard_share * n_max)
        # Dirichlet populations on levels 0..top, inside the guard band and
        # with mean photon number at most n_max / 4
        top = min(n_max - guard, n_max // 4)
        pops = np.zeros(trunc.dim)
        pops[: top + 1] = np.random.default_rng(seed).dirichlet(np.full(top + 1, alpha))
        rep = check_bosonic_entropy_gain(spec, pops, n_guard=guard)
        lhs, rhs, violation = dense_entropy_gain(spec, np.diag(pops))
        assert abs(rep.lhs - lhs) <= 1e-12
        assert rep.rhs == rhs or abs(rep.rhs - rhs) <= 1e-12
        assert abs(rep.aux["support_violation"] - violation) <= 1e-12

    @pytest.mark.parametrize("n_guard", [0, 10, 15])
    @pytest.mark.parametrize(
        "kind,eta,gain", [("loss", 0.7, None), ("loss", 0.99, None), ("amp", None, 1.25), ("compose", 0.8, 1.1)]
    )
    def test_almost_unital_matches_dense_identity(self, n_guard, kind, eta, gain):
        spec = GaussianChannelSpec(kind, TRUNC, eta=eta, gain=gain)
        forward, _ = _spec_ladders(spec)
        keep = TRUNC.n_max - n_guard + 1
        out = apply_stages(forward, np.eye(TRUNC.dim))
        ref = float(np.abs((out - np.eye(TRUNC.dim) / spec.parameter())[:keep, :keep]).max())
        assert check_almost_unital(spec, n_guard=n_guard).rhs == ref

    @pytest.mark.parametrize("pops, error, message", _invalid_states())
    def test_rejects_inputs_that_are_not_states(self, pops, error, message):
        spec = GaussianChannelSpec("loss", SMALL, eta=0.8)
        with pytest.raises(error, match=message):
            check_bosonic_entropy_gain(spec, pops, n_guard=5)

    @pytest.mark.parametrize("n_max", [16, 40, 160, 300])
    def test_recommended_guard_equals_linear_scan(self, n_max):
        trunc = FockTruncation(n_max)
        for eta in np.concatenate([np.geomspace(1e-3, 0.05, 10, endpoint=False), np.linspace(0.05, 1.0, 25)]):
            spec = GaussianChannelSpec("loss", trunc, eta=float(eta))
            scan = next(
                (g for g in range(n_max) if loss_identity_tail(spec.eta, n_max - g, n_max) <= bosonic.DEFAULT_TRUNC_TOL),
                n_max - 1,
            )
            assert recommended_guard(spec) == scan, eta


class TestStructure:
    @pytest.mark.parametrize("pair", [(0.9, 0.8), (0.7, 0.99)])
    def test_loss_semigroup(self, pair):
        rep = check_loss_semigroup(*pair, trunc=SMALL)
        assert rep.rhs <= 1e-12

    def test_loss_identity_tail_oracle(self):
        # brute-force partial sums against the recursion
        eta, m, n_max = 0.8, 25, 40
        x = 1.0 - eta
        brute = eta**m * sum(
            math.comb(m + k, k) * x**k for k in range(n_max - m + 1, 400)
        )
        assert loss_identity_tail(eta, m, n_max) == pytest.approx(brute, rel=1e-10)

    @pytest.mark.parametrize(
        "eta, m, n_max",
        [(0.001, 100, 300), (0.002, 50, 300), (0.02, 290, 300), (0.001, 10, 40), (0.7, 290, 300),
         (0.5, 20, 40), (0.7, 25, 40), (0.8, 25, 40), (0.3, 5, 40), (0.9, 10, 40),
         (0.001, 0, 10), (0.0204, 0, 10)]
        + [(eta, m, n_max) for eta in (0.002, 0.005, 0.01, 0.03) for m in range(4) for n_max in (10, 40)],
    )
    def test_loss_identity_tail_matches_exact_sum(self, eta, m, n_max):
        # (1 - eta^(m+1) sum_{k <= n_max - m} C(m+k, k) (1-eta)^k) / eta in
        # exact rationals.  The terms of the first five still rise at the
        # first tail term; summed upward from it, the first four read 3e-21,
        # 449.7, 0 and 3.46 (an underflowed start or the loop's step cap).
        # From (0.001, 0, 10) on the terms fall from the first tail term, but
        # so slowly (their ratio tends to 1 - eta) that the upward sum would
        # still be short at the step cap: (0.001, 0, 10) read 656.7 there
        e = Fraction(eta)
        head = sum(math.comb(m + k, k) * (1 - e) ** k for k in range(n_max - m + 1)) * e ** (m + 1)
        exact = float((1 - head) / e)
        assert loss_identity_tail(eta, m, n_max) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("n_max", [160, 300])
    def test_underflowing_tail_is_not_taken_as_a_difference(self, n_max):
        # the tail (1 - eta)^(n_max + 1) / eta is 1e-322 or underflows to 0;
        # the upward sum must end at its zero terms rather than run to the
        # step cap and fall back to 1/eta less the head, which reads 1e-5 or 1
        assert loss_identity_tail(0.99, 0, n_max) <= 1e-300

    @pytest.mark.parametrize("eta", [0.02, 0.05])
    def test_small_eta_tail_is_the_measured_deviation(self, eta):
        # at n_max 300 and band edge m = 290 the first tail term,
        # C(301, 11) (1 - eta)^11 eta^290, is below the smallest double
        rep = check_almost_unital(GaussianChannelSpec("loss", FockTruncation(300), eta=eta), n_guard=10)
        assert rep.aux["analytic_tail"] == pytest.approx(1.0 / eta, rel=1e-15)
        assert rep.rhs == pytest.approx(rep.aux["analytic_tail"], rel=1e-12)
        assert rep.aux["truncation_dominated"]

    def test_truncation_validation(self):
        with pytest.raises(ValueError):
            FockTruncation(0)
