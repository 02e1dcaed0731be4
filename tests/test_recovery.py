import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from qrecovery.entropy import fidelity, rel_entropy, root_fidelity, trace_distance
from qrecovery.matfun import complex_power, eig_hermitian
from qrecovery.qcore import (
    Channel,
    DensityOperator,
    DimensionMismatchError,
    Purification,
    lift,
    partial_trace,
    partial_trace_channel,
    permute,
    ptrace,
    purify,
    random_channel,
    random_density,
    random_isometry,
    random_unitary,
    stream,
    transfer_matrix,
)
from qrecovery.recovery import (
    NotCompletelyPositiveError,
    QuadratureSpec,
    _root_factors,
    adjoint_recovery,
    integrated_recovery,
    p_weight,
    petz_map,
    quadrature,
    rotated_petz,
    stacked_root_fidelity,
    swiveled_kraus,
    swiveled_root_fidelities,
    uhlmann_isometry,
)
from qrecovery.theorems import check_cmi_recovery, check_recovery_fid, check_recovery_stronger

from oracles import choi, is_cptp, markov_state_oracle, mat_inv, mat_sqrt

NODES, WEIGHTS = quadrature(QuadratureSpec())


def stronger_node_loop(rho, sigma, ch):
    """Per-node oracle of the recovery-stronger integrand: sqrt F(rho,
    R^{t/2}(N(rho))) from one rotated Petz map and one fidelity per node."""
    out = ch.apply(rho)
    return np.array([root_fidelity(rho, rotated_petz(sigma, ch, t / 2).apply(out)) for t in NODES])


class TestPWeight:
    def test_value_at_zero(self):
        assert p_weight(0.0) == pytest.approx(math.pi / 4, abs=1e-14)

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_even_and_positive(self, t):
        assert p_weight(t) == pytest.approx(p_weight(-t), rel=1e-12)
        assert p_weight(t) >= 0.0
        assert p_weight(t) <= p_weight(0.0) + 1e-15

    def test_normalized_density_integrates_to_one(self):
        # numeric integration oracle
        val, _ = integrate.quad(p_weight, -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-9)


class TestQuadrature:
    def test_default_weights_sum_to_one_before_normalization(self):
        _, raw = quadrature(QuadratureSpec(), normalized=False)
        assert abs(raw.sum() - 1.0) < 1e-8

    def test_normalized_weights_sum_exactly(self):
        _, w = quadrature(QuadratureSpec())
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        assert w.min() >= 0.0

    def test_node_count_and_range(self):
        spec = QuadratureSpec(nodes=51, halfwidth=8.0, panels=5)
        t, w = quadrature(spec)
        assert len(t) == 51 and len(w) == 51
        assert np.all(np.abs(t) <= 8.0)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes=100)
        for halfwidth in (-1, math.nan, math.inf):
            with pytest.raises(ValueError):
                QuadratureSpec(halfwidth=halfwidth)

    def test_rule_is_cached_and_read_only(self):
        spec = QuadratureSpec(nodes=51, halfwidth=8.0, panels=5)
        t1, w1 = quadrature(spec)
        t2, w2 = quadrature(QuadratureSpec(nodes=51, halfwidth=8.0, panels=5))
        npt.assert_array_equal(t1, t2)
        npt.assert_array_equal(w1, w2)
        for arr in (t1, w1, t2, w2, *quadrature(spec, normalized=False)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        npt.assert_array_equal(quadrature(spec)[1], w2)

    def test_weighted_integral_matches_quad_oracle(self):
        f = lambda t: np.log1p(0.3 * np.exp(-0.2 * t**2))
        ref, _ = integrate.quad(lambda t: p_weight(t) * f(t), -np.inf, np.inf)
        t, w = quadrature(QuadratureSpec())
        assert float(np.sum(w * f(t))) == pytest.approx(ref, abs=1e-7)


class TestPetz:
    def test_identity_channel_full_rank(self):
        sigma = random_density(3, 3, stream(30, 0))
        pm = petz_map(sigma.matrix, Channel((np.eye(3),)))
        x = stream(30, 1).standard_normal((3, 3))
        x = (x + x.T) / 2
        npt.assert_allclose(pm.apply(x), x, atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_perfect_recovery_of_sigma(self, seed):
        rng = stream(30, 2, seed)
        d = int(rng.integers(2, 4))
        sigma = random_density(d, int(rng.integers(1, d + 1)), rng)
        ch = random_channel(d, d, int(rng.integers(1, 4)), rng)
        pm = petz_map(sigma.matrix, ch)
        assert trace_distance(pm.apply(ch.apply(sigma.matrix)), sigma.matrix) <= 1e-9

    def test_cp_and_trace_non_increasing(self):
        rng = stream(30, 3)
        sigma = random_density(3, 2, rng)
        ch = random_channel(3, 2, 2, rng)
        pm = petz_map(sigma.matrix, ch)
        c = choi(pm)
        assert np.linalg.eigvalsh(c)[0] >= -1e-9
        gram = pm.kraus_gram()
        assert np.linalg.eigvalsh(gram - np.eye(pm.in_dim))[-1] <= 1e-9

    def test_partial_trace_petz_matches_direct_formula(self):
        # independent oracle: rho_AC^{1/2} (I_A x rho_C^{-1/2} w rho_C^{-1/2}) rho_AC^{1/2}
        rng = stream(30, 4)
        rho_ac = DensityOperator((("A", 2), ("C", 3)), random_density(6, 6, rng).matrix)
        trace_a = partial_trace_channel(rho_ac.systems, "A")
        pm = petz_map(rho_ac.matrix, trace_a)
        rho_c = partial_trace(rho_ac, "A").matrix
        omega = random_density(3, 3, rng).matrix
        left = mat_sqrt(rho_ac.matrix)
        inv_root = mat_sqrt(mat_inv(rho_c))
        direct = left @ np.kron(np.eye(2), inv_root @ omega @ inv_root) @ left
        npt.assert_allclose(pm.apply(omega), direct, atol=1e-10)


class TestRotatedPetz:
    def test_zero_rotation_equals_petz(self):
        rng = stream(31, 0)
        sigma = random_density(3, 3, rng)
        ch = random_channel(3, 3, 2, rng)
        rot = rotated_petz(sigma.matrix, ch, 0.0)
        npt.assert_allclose(choi(rot), choi(petz_map(sigma.matrix, ch)), atol=1e-10)

    def test_maximally_mixed_reference_with_unital_channel(self):
        # rotation has no effect: sigma^{it} and N(sigma)^{it} are scalars
        rng = stream(31, 1)
        from qrecovery.qcore import random_mixed_unitary_channel

        ch = random_mixed_unitary_channel(3, 3, rng)
        sigma = np.eye(3) / 3
        base = choi(rotated_petz(sigma, ch, 0.0))
        for t in (-2.0, -0.5, 0.7, 3.1):
            npt.assert_allclose(choi(rotated_petz(sigma, ch, t)), base, atol=1e-10)

    @pytest.mark.parametrize("t", [-1.5, 0.0, 0.4, 2.0])
    def test_sigma_recovered_for_every_rotation(self, t):
        rng = stream(31, 2)
        sigma = random_density(3, 2, rng)
        ch = random_channel(3, 3, 2, rng)
        rot = rotated_petz(sigma.matrix, ch, t)
        assert trace_distance(rot.apply(ch.apply(sigma.matrix)), sigma.matrix) <= 1e-9

    def test_sigma_dimension_checked(self):
        ch = random_channel(3, 3, 2, stream(31, 3))
        with pytest.raises(DimensionMismatchError):
            rotated_petz(np.eye(2) / 2, ch, 0.3)


def _stronger_instance(kind: str, seed: int):
    """(rho, sigma, channel) for the batched-versus-loop comparisons.

    ``full``: full-rank sigma.  ``sigma_rank_deficient``: sigma of rank d-1
    with rho inside its support, as the campaign draws them.
    ``n_sigma_kernel``: an isometric channel, so N(sigma) has a kernel.
    ``rho_off_support``: sigma of rank d-1 and rho of full rank, so the
    recovered state is rank deficient while rho is not."""
    rng = stream(39, ("full", "sigma_rank_deficient", "n_sigma_kernel", "rho_off_support").index(kind), seed)
    d = int(rng.integers(2, 4))
    rank_sigma = d if kind in ("full", "n_sigma_kernel") else d - 1
    sigma = random_density(d, rank_sigma, rng).matrix
    if kind == "sigma_rank_deficient":
        spec = eig_hermitian(sigma)
        support = spec.eigenvectors[:, spec.eigenvalues > spec.cutoff]
        small = random_density(d - 1, int(rng.integers(1, d)), rng).matrix
        rho = support @ small @ support.conj().T
    else:
        rho = random_density(d, d if kind == "rho_off_support" else int(rng.integers(1, d + 1)), rng).matrix
    if kind == "n_sigma_kernel":
        ch = Channel((random_isometry(d, d + 1, rng),))
    else:
        d_out = int(rng.integers(2, 4))
        ch = random_channel(d, d_out, -(-d // d_out) + int(rng.integers(0, 3)), rng)
    return rho, sigma, ch


class TestSwiveledStack:
    """The batched swiveled-Petz kernel against the per-node loop it replaced."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 3), st.integers(2, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_kraus_stack_matches_rotated_petz(self, d_in, d_out, rank, seed):
        rng = stream(39, 9, seed)
        sigma = random_density(d_in, min(rank, d_in), rng).matrix
        ch = random_channel(d_in, d_out, -(-d_in // d_out) + 1, rng)
        nodes = NODES[::10]
        ks = swiveled_kraus(eig_hermitian(sigma), eig_hermitian(ch.apply(sigma)), ch.kraus, nodes)
        assert ks.shape == (len(nodes), len(ch.kraus), d_in, d_out)
        for stack, t in zip(ks, nodes):
            npt.assert_allclose(stack, np.stack(rotated_petz(sigma, ch, t / 2).kraus), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_one_node_identity_stack_is_root_fidelity(self, d):
        # root_fidelity is the kernel's trivial case: one node, A = I
        rng = stream(39, 10, d)
        p = random_density(d, d, rng).matrix
        q = random_density(d, max(1, d - 1), rng).matrix
        sp, sq = eig_hermitian(p).power(0.5), eig_hermitian(q).power(0.5)
        stacked = stacked_root_fidelity(sp, np.eye(d)[None, None], sq)
        assert stacked.shape == (1,)
        assert abs(stacked[0] - root_fidelity(p, q)) <= 1e-14

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 3), st.integers(0, 2**32 - 1))
    def test_support_factors_match_full_roots(self, d_out, d_in, lead, seed):
        # A on (lead, d_out) and X on (lead, d_in) of every rank on both sides,
        # two of each in one stack; rank 0 is the zero post that an outcome at
        # or below PROB_FLOOR leaves
        rng = stream(39, 11, seed)
        g = rng.standard_normal((2, 2, 7, 2, d_out, d_in))
        kraus = g[0] + 1j * g[1]  # (N, T, K, d_out, d_in)
        dims = (lead * d_out, lead * d_in)

        def states(dim, rank):
            if rank == 0:
                return np.zeros((2, dim, dim), dtype=complex)
            return np.stack([random_density(dim, rank, rng).matrix for _ in range(2)])

        for r_a in range(dims[0] + 1):
            spec_a = eig_hermitian(states(dims[0], r_a))
            left = _root_factors(spec_a)
            assert left.shape == (2, r_a, dims[0])
            for r_x in range(dims[1] + 1):
                spec_x = eig_hermitian(states(dims[1], r_x))
                right = _root_factors(spec_x).conj().swapaxes(-1, -2)
                factored = stacked_root_fidelity(left, kraus, right, lead=lead)
                full = stacked_root_fidelity(spec_a.power(0.5), kraus, spec_x.power(0.5), lead=lead)
                assert factored.shape == full.shape == (2, 7)
                assert np.abs(factored - full).max() <= 1e-13, (r_a, r_x)

    @pytest.mark.parametrize("kind", ["full", "sigma_rank_deficient", "n_sigma_kernel"])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_integrand_matches_node_loop(self, kind, seed):
        # measured: at most 7.3e-15 per node over 40 instances of each kind
        rho, sigma, ch = _stronger_instance(kind, seed)
        batched = swiveled_root_fidelities(rho, sigma, ch, NODES, ch.apply(rho), ch.apply(sigma))
        assert np.isfinite(batched).all()
        loop = stronger_node_loop(rho, sigma, ch)
        assert float(np.abs(batched - loop).max()) <= 1e-12
        integral = WEIGHTS @ np.log2(batched**2)
        assert abs(integral - WEIGHTS @ np.log2(loop**2)) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_gap_off_support_is_the_loops_square_root(self, seed):
        # rho outside supp(sigma): the recovered state has a kernel.  A square
        # root that clipped only negative eigenvalues turned its ~1e-16 noise
        # eigenvalues into ~1e-8 (gaps of 1.7e-9 to 1.0e-8 at these seeds);
        # with every root taken on the support the loop agrees to 1e-12.
        rho, sigma, ch = _stronger_instance("rho_off_support", seed)
        batched = swiveled_root_fidelities(rho, sigma, ch, NODES, ch.apply(rho), ch.apply(sigma))
        assert np.isfinite(batched).all()
        assert float(np.abs(batched - stronger_node_loop(rho, sigma, ch)).max()) <= 1e-12


class TestIntegratedRecovery:
    def test_full_rank_output_has_no_completion_term(self):
        rng = stream(32, 0)
        sigma = random_density(3, 3, rng)
        ch = random_channel(3, 3, 2, rng)
        rec = integrated_recovery(sigma.matrix, ch)
        assert len(rec.kraus) <= ch.in_dim * ch.out_dim

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 3),
        st.integers(2, 3),
        st.integers(1, 3),
        st.integers(0, 2),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_high_node_quadrature(self, d_in, d_out, rank, extra_env, seed):
        # reference: the rotation integral by a 1601-node rule, plus the
        # completion term on the kernel of N(sigma); a rank-1 sigma through a
        # single Kraus operator leaves N(sigma) with a kernel
        rng = stream(32, 3, seed)
        sigma = random_density(d_in, min(rank, d_in), rng).matrix
        ch = random_channel(d_in, d_out, -(-d_in // d_out) + extra_env, rng)
        rec = integrated_recovery(sigma, ch)
        exact = transfer_matrix(rec)
        assert np.isfinite(exact).all()
        out = eig_hermitian(ch.apply(sigma))
        kernel = out.eigenvectors[:, out.eigenvalues <= out.cutoff]
        assert len(rec.kraus) <= d_in * d_out + kernel.shape[1] * d_in

        nodes, weights = quadrature(QuadratureSpec(nodes=1601, halfwidth=20.0, panels=80))
        ref = sum(
            w * transfer_matrix(rotated_petz(sigma, ch, t / 2))
            for t, w in zip(nodes, weights)
        )
        tau = np.eye(d_in) / d_in
        for k in kernel.T:
            # Q -> <k|Q|k> tau in the row-major convention of transfer_matrix
            ref = ref + np.outer(tau.reshape(-1), np.outer(k.conj(), k).reshape(-1))
        assert float(np.abs(exact - ref).max()) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_trace_preserving_and_recovers_sigma(self, seed):
        rng = stream(32, 1, seed)
        d = int(rng.integers(2, 4))
        sigma = random_density(d, int(rng.integers(1, d + 1)), rng)
        ch = random_channel(d, int(rng.integers(2, 4)), 2, rng)
        rec = integrated_recovery(sigma.matrix, ch)
        npt.assert_allclose(rec.kraus_gram(), np.eye(rec.in_dim), atol=1e-8)
        assert trace_distance(rec.apply(ch.apply(sigma.matrix)), sigma.matrix) <= 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_markov_chain_recovered_exactly(self, seed):
        # the campaign's cq Markov state has I(A;B|C) = 0, so
        # theorems._recover_abc_stack, the recovery of check_cmi_recovery, rebuilds
        # it exactly from its (B, C) marginal
        from qrecovery.campaigns import _markov_rows

        (rep,) = _markov_rows(markov_state_oracle(stream(32, 4, seed))[0][None])
        assert abs(1.0 - rep.aux["fidelity"]) <= 1e-12

    def test_completion_routes_complement_to_tau(self):
        # N = identity, sigma supported on |0>: input |1><1| must map to tau = I/2
        sigma = np.diag([1.0, 0.0])
        rec = integrated_recovery(sigma, Channel((np.eye(2),)))
        npt.assert_allclose(rec.apply(np.diag([0.0, 1.0])), np.eye(2) / 2, atol=1e-10)

    @pytest.mark.parametrize("d, rank", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)])
    def test_completion_routes_kernel_to_maximally_mixed(self, d, rank):
        # N = U . U^dag: N(sigma) has the kernel U ker(sigma), which R sends to I/d
        rng = stream(32, 5, d, rank)
        u = random_unitary(d, rng)
        sigma = random_density(d, rank, rng).matrix
        rec = integrated_recovery(sigma, Channel((u,)))
        spec = eig_hermitian(sigma)
        for k in spec.eigenvectors[:, ~spec.support_mask()].T:
            y = u @ np.outer(k, k.conj()) @ u.conj().T
            npt.assert_allclose(rec.apply(y), np.eye(d) / d, atol=1e-10)

    def test_sigma_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            integrated_recovery(np.eye(3) / 3, Channel((np.eye(2),)))

    def test_completely_positive(self):
        rng = stream(32, 2)
        sigma = random_density(2, 1, rng)
        ch = random_channel(2, 2, 2, rng)
        rec = integrated_recovery(sigma.matrix, ch)
        assert np.linalg.eigvalsh(choi(rec))[0] >= -1e-9


class TestCmiRecovery:
    """The CMI recovery map omega_C -> rho_AC^{(1-it)/2} [I_A (x) rho_C^{-(1-it)/2}
    omega_C rho_C^{-(1+it)/2}] rho_AC^{(1+it)/2}, which rebuilds A: the
    rotated Petz map R^{t/2} of (rho_AC, Tr_A)."""

    @staticmethod
    def cmi_recovery(rho_ac, t):
        return rotated_petz(rho_ac.matrix, partial_trace_channel(rho_ac.systems, "A"), t / 2)

    @staticmethod
    def explicit_cmi_recovery(rho_ac, t):
        # the formula above, written out: Kraus operators
        # rho_AC^{(1-it)/2} (|i>_A (x) rho_C^{-(1-it)/2})
        d_a, d_c = rho_ac.dims
        rho_c = ptrace(rho_ac.matrix, (d_a, d_c), (1,))
        left = complex_power(rho_ac.matrix, (1.0 - 1j * t) / 2.0)
        right_c = complex_power(rho_c, (-1.0 + 1j * t) / 2.0)
        eye_a = np.eye(d_a)
        return Channel(tuple(left @ np.kron(eye_a[:, i : i + 1], right_c) for i in range(d_a)))

    def test_product_reference(self):
        rng = stream(33, 0)
        rho_a = random_density(2, 2, rng).matrix
        rho_c = random_density(2, 2, rng).matrix
        rho_ac = DensityOperator((("A", 2), ("C", 2)), np.kron(rho_a, rho_c))
        omega = random_density(2, 2, rng).matrix
        rec = self.cmi_recovery(rho_ac, 0.9)
        npt.assert_allclose(rec.apply(omega), np.kron(rho_a, omega), atol=1e-10)

    def test_marginal_is_fixed_point(self):
        rng = stream(33, 1)
        rho_ac = DensityOperator((("A", 2), ("C", 2)), random_density(4, 4, rng).matrix)
        rho_c = partial_trace(rho_ac, "A").matrix
        for t in (0.0, 0.7):
            rec = self.cmi_recovery(rho_ac, t)
            npt.assert_allclose(rec.apply(rho_c), rho_ac.matrix, atol=1e-10)

    def test_matches_generic_rotated_petz(self):
        # cross-implementation oracle at t = 0.7: R^{t/2} with N = Tr_A
        rng = stream(33, 2)
        rho_ac = DensityOperator((("A", 2), ("C", 2)), random_density(4, 4, rng).matrix)
        npt.assert_allclose(
            choi(self.explicit_cmi_recovery(rho_ac, 0.7)), choi(self.cmi_recovery(rho_ac, 0.7)), atol=1e-10
        )


class TestAdjointRecovery:
    def test_unitary_channel_gives_exact_inverse(self):
        u = random_unitary(3, stream(34, 0))
        rec = adjoint_recovery(Channel((u,)))
        assert len(rec.kraus) == 1  # completion weight is zero
        rho = random_density(3, 3, stream(34, 1)).matrix
        npt.assert_allclose(rec.apply(u @ rho @ u.conj().T), rho, atol=1e-12)

    def test_full_dephasing_recovery_reproduces_channel(self):
        # 2x2 oracle: dephasing is self-adjoint and idempotent, so R o N = N
        z = np.diag([1.0, -1.0])
        dephasing = Channel((np.eye(2) / math.sqrt(2), z / math.sqrt(2)))
        rec = adjoint_recovery(dephasing)
        rho = random_density(2, 2, stream(34, 2)).matrix
        npt.assert_allclose(rec.apply(dephasing.apply(rho)), dephasing.apply(rho), atol=1e-10)

    def test_subunital_channel_gives_cptp_recovery(self):
        from qrecovery.qcore import random_subunital_channel

        ch = random_subunital_channel(2, 3, stream(34, 3))
        rec = adjoint_recovery(ch)
        assert is_cptp(rec)
        npt.assert_allclose(rec.kraus_gram(), np.eye(3), atol=1e-10)

    def test_recovery_dominates_plain_adjoint(self):
        from qrecovery.qcore import adjoint, random_subunital_channel

        ch = random_subunital_channel(2, 3, stream(34, 4))
        rec = adjoint_recovery(ch)
        rho = random_density(2, 2, stream(34, 5)).matrix
        gap = rec.apply(ch.apply(rho)) - adjoint(ch).apply(ch.apply(rho))
        assert np.linalg.eigvalsh(gap)[0] >= -1e-10

    @pytest.mark.parametrize("in_dim, out_dim", [(2, 3), (2, 4), (3, 4)])
    def test_completion_is_trace_preserving(self, in_dim, out_dim):
        # N = V . V^dag for an isometry V: an output Y off the range of V has
        # N^dag(Y) = 0 and gap weight Tr Y, so R(Y) = Tr{Y} I/d
        v = random_isometry(in_dim, out_dim, stream(34, 10, in_dim, out_dim))
        rec = adjoint_recovery(Channel((v,)))
        npt.assert_allclose(rec.kraus_gram(), np.eye(out_dim), atol=1e-12)
        off = np.linalg.svd(v)[0][:, in_dim:]
        y = off @ off.conj().T
        npt.assert_allclose(rec.apply(y), (out_dim - in_dim) * np.eye(in_dim) / in_dim,
                            atol=1e-12)

    def test_superunital_channel_rejected_with_witness(self):
        # one Kraus operator of norm > 1 on part of the space
        from qrecovery.qcore import KrausMap

        superunital = KrausMap((np.diag([1.2, 0.4]),))
        with pytest.raises(NotCompletelyPositiveError) as err:
            adjoint_recovery(superunital)
        w = err.value.witness
        assert np.linalg.eigvalsh(np.eye(2) - superunital.apply(np.eye(2)))[0] == pytest.approx(
            float(np.trace(w @ (np.eye(2) - superunital.apply(np.eye(2)))).real), abs=1e-10
        )


class TestUhlmann:
    def test_same_purification(self):
        rho = random_density(3, 3, stream(35, 0))
        phi = purify(rho)
        res = uhlmann_isometry(phi, phi)
        npt.assert_allclose(res.isometry, np.eye(3), atol=1e-8)
        assert res.achieved == pytest.approx(1.0, abs=1e-10)

    def test_gauge_freedom_recovers_reference_unitary(self):
        from qrecovery.qcore import Purification

        rho = random_density(3, 3, stream(35, 1))
        phi = purify(rho)
        v = random_unitary(3, stream(35, 2))
        amp = phi.amplitude_matrix()
        rotated = Purification(phi.reference_label, phi.systems, (v @ amp).reshape(-1))
        res = uhlmann_isometry(rotated, phi)
        npt.assert_allclose(res.isometry, v.conj().T, atol=1e-8)
        assert res.achieved == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_achieved_equals_fidelity(self, seed):
        # oracle: F = ||sqrt(rho) sqrt(sigma)||_1^2
        rng = stream(35, 3, seed)
        rho = random_density(3, 3, rng)
        sigma = random_density(3, 3, rng)
        res = uhlmann_isometry(purify(rho), purify(sigma))
        assert res.achieved == pytest.approx(fidelity(rho, sigma), abs=1e-8)
        u = res.isometry
        npt.assert_allclose(u.conj().T @ u, np.eye(u.shape[1]), atol=1e-10)
        assert res.achieved <= 1.0 + 1e-10

    def test_rank_deficient_pair_with_padded_reference(self):
        rng = stream(35, 4)
        rho = random_density(3, 3, rng)
        sigma = random_density(3, 1, rng)
        phi = purify(sigma)  # a rank-one reference, zero-padded to the source's 3
        padded = np.zeros((3, 3), dtype=complex)
        padded[:1] = phi.amplitude_matrix()
        target = Purification("R", (("R", 3),) + sigma.systems, padded.reshape(-1))
        res = uhlmann_isometry(purify(rho), target)
        assert res.achieved == pytest.approx(fidelity(rho, sigma), abs=1e-8)

    def test_mismatched_shared_systems_rejected(self):
        rho = random_density(2, 2, stream(35, 5))
        sigma = random_density(3, 3, stream(35, 6))
        with pytest.raises(Exception):
            uhlmann_isometry(purify(rho), purify(sigma))


class TestRecoverabilityInequality:
    @pytest.mark.parametrize("seed", range(30))
    def test_integrated_recovery_inequality(self, seed):
        rng = stream(36, seed)
        d = int(rng.integers(2, 4))
        sigma = random_density(d, d, rng)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        ch = random_channel(d, int(rng.integers(2, 4)), 2, rng)
        rec = integrated_recovery(sigma.matrix, ch)
        lhs = (
            rel_entropy(rho.matrix, sigma.matrix).value
            - rel_entropy(ch.apply(rho.matrix), ch.apply(sigma.matrix)).value
        )
        rhs = -math.log2(fidelity(rho.matrix, rec.apply(ch.apply(rho.matrix))))
        assert lhs - rhs >= -1e-6
        rep = check_recovery_fid(rho, sigma, ch)
        assert abs(rep.lhs - lhs) <= 1e-12 and abs(rep.rhs - rhs) <= 1e-12

    @pytest.mark.parametrize("seed", range(15))
    def test_stronger_integrated_form(self, seed):
        rng = stream(37, seed)
        d = 2
        sigma = random_density(d, d, rng)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        ch = random_channel(d, d, 2, rng)
        lhs = (
            rel_entropy(rho.matrix, sigma.matrix).value
            - rel_entropy(ch.apply(rho.matrix), ch.apply(sigma.matrix)).value
        )
        acc = float(WEIGHTS @ np.log2(stronger_node_loop(rho.matrix, sigma.matrix, ch) ** 2))
        assert lhs + acc >= -1e-5
        rep = check_recovery_stronger(rho, sigma, ch)
        assert abs(rep.lhs - lhs) <= 1e-12 and abs(rep.rhs + acc) <= 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_cmi_recovery_inequality_dims_223(self, seed):
        from qrecovery.entropy import cmi

        rng = stream(38, seed)
        dims = (2, 2, 3) if seed % 2 else (2, 2, 2)
        d = dims[0] * dims[1] * dims[2]
        rho = DensityOperator(
            (("A", dims[0]), ("B", dims[1]), ("C", dims[2])),
            random_density(d, d, rng).matrix,
        )
        rho_ac = partial_trace(rho, "B")
        rho_bc = partial_trace(rho, "A")
        trace_a = partial_trace_channel(rho_ac.systems, "A")
        rec = integrated_recovery(rho_ac.matrix, trace_a)
        lifted, out_systems = lift(
            rec, rho_bc.systems, "C", out_systems=(("A", dims[0]), ("C", dims[2]))
        )
        recovered = permute(
            DensityOperator(out_systems, lifted.apply(rho_bc.matrix)), ("A", "B", "C")
        )
        lhs = cmi(rho, "A", "B", "C")
        rhs = -math.log2(fidelity(rho.matrix, recovered.matrix))
        assert lhs - rhs >= -1e-6
        rep = check_cmi_recovery(rho)
        assert abs(rep.lhs - lhs) <= 1e-12 and abs(rep.rhs - rhs) <= 1e-12
