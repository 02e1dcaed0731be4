import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrecovery.entropy import (
    binary_entropy,
    cmi,
    cond_entropy,
    entropy,
    fidelity,
    holevo_chi,
    mutual_info,
    rel_entropy,
    root_fidelity,
    trace_distance,
)
from qrecovery.qcore import (
    DensityOperator,
    Ensemble,
    random_channel,
    random_density,
    random_mixed_unitary_channel,
    stream,
)

BELL = np.zeros((4, 4), dtype=complex)
BELL[np.ix_([0, 3], [0, 3])] = 0.5

KET0 = np.diag([1.0, 0.0])
PLUS = np.full((2, 2), 0.5)


def scalar_h2(x):
    # independent scalar oracle for binary entropy
    if x in (0.0, 1.0):
        return 0.0
    return -(x * math.log2(x) + (1 - x) * math.log2(1 - x))


class TestEntropy:
    def test_pure_state_zero(self):
        assert entropy(KET0) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_matches_scalar_oracle(self):
        assert entropy(np.diag([0.75, 0.25])) == pytest.approx(scalar_h2(0.25), abs=1e-12)

    def test_bounds(self):
        for seed in range(10):
            rho = random_density(4, 3, stream(20, seed))
            h = entropy(rho)
            assert -1e-9 <= h <= 2.0 + 1e-9


class TestRelEntropy:
    def test_self_is_zero(self):
        rho = random_density(3, 3, stream(21, 0))
        assert rel_entropy(rho, rho).value == pytest.approx(0.0, abs=1e-10)

    def test_pure_vs_maximally_mixed(self):
        assert rel_entropy(KET0, np.eye(2) / 2).value == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports_infinite(self):
        res = rel_entropy(KET0, np.diag([0.0, 1.0]))
        assert math.isinf(res.value)
        assert res.support_violation == pytest.approx(1.0, abs=1e-12)

    def test_zero_first_argument_rejected(self):
        with pytest.raises(ValueError):
            rel_entropy(np.zeros((2, 2)), np.eye(2))

    def test_klein_nonnegative_for_states(self):
        for seed in range(20):
            p = random_density(3, 3, stream(21, 1, seed))
            q = random_density(3, 3, stream(21, 2, seed))
            assert rel_entropy(p, q).value >= -1e-10


class TestDerivedQuantities:
    def test_product_state(self):
        rho = DensityOperator(
            (("A", 2), ("B", 2)),
            np.kron(random_density(2, 2, stream(22, 0)).matrix, np.eye(2) / 2),
        )
        assert mutual_info(rho, "A", "B") == pytest.approx(0.0, abs=1e-10)

    def test_maximally_entangled_mutual_info(self):
        rho = DensityOperator((("A", 2), ("B", 2)), BELL)
        assert mutual_info(rho, "A", "B") == pytest.approx(2.0, abs=1e-10)

    def test_mutual_info_equals_rel_entropy_to_product(self):
        for seed in range(10):
            rho = DensityOperator(
                (("A", 2), ("B", 2)), random_density(4, 4, stream(22, 1, seed)).matrix
            )
            from qrecovery.qcore import partial_trace

            prod = np.kron(partial_trace(rho, "B").matrix, partial_trace(rho, "A").matrix)
            assert mutual_info(rho, "A", "B") == pytest.approx(
                rel_entropy(rho.matrix, prod).value, abs=1e-8
            )

    def test_cond_entropy_of_product(self):
        rho = DensityOperator((("A", 2), ("B", 2)), np.kron(np.eye(2) / 2, KET0))
        assert cond_entropy(rho, "B") == pytest.approx(1.0, abs=1e-10)

    def test_ghz_cmi_is_one_bit(self):
        # oracle: H(AC) + H(BC) - H(ABC) - H(C) = 1 + 1 - 0 - 1 for the pure GHZ state
        v = np.zeros(8)
        v[0] = v[7] = 1 / math.sqrt(2)
        rho = DensityOperator((("A", 2), ("B", 2), ("C", 2)), np.outer(v, v))
        assert cmi(rho, "A", "B", "C") == pytest.approx(1.0, abs=1e-10)

    def test_classical_ghz_mixture_cmi_zero(self):
        mat = np.zeros((8, 8))
        mat[0, 0] = mat[7, 7] = 0.5
        rho = DensityOperator((("A", 2), ("B", 2), ("C", 2)), mat)
        assert cmi(rho, "A", "B", "C") == pytest.approx(0.0, abs=1e-10)

    def test_cmi_nonnegative_random(self):
        for seed in range(25):
            rho = DensityOperator(
                (("A", 2), ("B", 2), ("C", 2)), random_density(8, 8, stream(22, 2, seed)).matrix
            )
            assert cmi(rho, "A", "B", "C") >= -1e-9


class TestHolevo:
    def test_identical_states(self):
        rho = random_density(2, 2, stream(23, 0))
        ens = Ensemble(np.array([0.4, 0.6]), (rho, rho))
        assert holevo_chi(ens) == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        ens = Ensemble(
            np.array([0.5, 0.5]),
            (
                DensityOperator((("A", 2),), np.diag([1.0, 0.0])),
                DensityOperator((("A", 2),), np.diag([0.0, 1.0])),
            ),
        )
        assert holevo_chi(ens) == pytest.approx(1.0, abs=1e-12)

    def test_zero_plus_ensemble_matches_eigenvalue_oracle(self):
        # oracle: eigenvalues of (|0><0| + |+><+|)/2 are (1 +/- 1/sqrt(2)) / 2
        ens = Ensemble(
            np.array([0.5, 0.5]),
            (DensityOperator((("A", 2),), KET0), DensityOperator((("A", 2),), PLUS)),
        )
        lam = (1 + 1 / math.sqrt(2)) / 2
        expected = scalar_h2(lam)
        assert holevo_chi(ens) == pytest.approx(expected, abs=1e-12)
        assert holevo_chi(ens) == pytest.approx(0.600876, abs=1e-6)

    def test_bounded_by_shannon(self):
        for seed in range(10):
            rng = stream(23, 1, seed)
            probs = rng.dirichlet(np.ones(3))
            states = tuple(random_density(3, int(rng.integers(1, 4)), rng) for _ in range(3))
            ens = Ensemble(probs, states)
            h_p = -sum(p * math.log2(p) for p in probs if p > 0)
            assert -1e-9 <= holevo_chi(ens) <= h_p + 1e-9


class TestFidelity:
    def test_self_fidelity(self):
        rho = random_density(3, 2, stream(24, 0))
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_zero_plus_overlap(self):
        assert fidelity(KET0, PLUS) == pytest.approx(0.5, abs=1e-12)

    def test_root_fidelity_is_sqrt(self):
        p = random_density(3, 3, stream(24, 1))
        q = random_density(3, 3, stream(24, 2))
        assert root_fidelity(p, q) == pytest.approx(math.sqrt(fidelity(p, q)), abs=1e-12)

    @pytest.mark.parametrize("dim,rank", [(d, r) for d in (2, 3, 5) for r in range(1, d + 1)])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_pure_state_closed_form_at_every_rank(self, dim, rank, seed):
        # sqrtF(|psi><psi|, sigma) = <psi|sigma|psi>^(1/2); both square roots are
        # taken on the support, so the kernel noise of the pure state (and of a
        # rank-deficient sigma) adds nothing
        rng = np.random.default_rng(seed)
        vecs, _ = np.linalg.qr(rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank)))
        lam = rng.uniform(0.05, 1.0, rank)
        sigma = (vecs * (lam / lam.sum())) @ vecs.conj().T
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        pure = np.outer(psi, psi.conj())
        closed = math.sqrt(float(np.real(psi.conj() @ sigma @ psi)))
        assert abs(root_fidelity(pure, sigma) - closed) <= 1e-14
        assert abs(root_fidelity(sigma, pure) - closed) <= 1e-14

    def test_direct_sum_property(self):
        # sqrtF of two cq states = sum_x sqrt(p q) sqrtF of blocks
        rng = stream(24, 3)
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        blocks_p = [random_density(2, 2, rng).matrix for _ in range(3)]
        blocks_q = [random_density(2, 2, rng).matrix for _ in range(3)]
        omega = sum(
            p[x] * np.kron(np.diag(np.eye(3)[x]), blocks_p[x]) for x in range(3)
        )
        tau = sum(q[x] * np.kron(np.diag(np.eye(3)[x]), blocks_q[x]) for x in range(3))
        direct = root_fidelity(omega, tau)
        blockwise = sum(
            math.sqrt(p[x] * q[x]) * root_fidelity(blocks_p[x], blocks_q[x]) for x in range(3)
        )
        assert direct == pytest.approx(blockwise, abs=1e-9)

    def test_trace_distance_orthogonal_pure(self):
        assert trace_distance(KET0, np.diag([0.0, 1.0])) == pytest.approx(2.0, abs=1e-12)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-14)

    def test_quarter_oracle(self):
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_symmetric_and_bounded(self, x):
        h = binary_entropy(x)
        assert 0.0 <= h <= 1.0 + 1e-12
        assert h == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


class TestInequalities:
    @pytest.mark.parametrize("seed", range(100))
    def test_monotonicity_under_channels(self, seed):
        rng = stream(25, seed)
        d = int(rng.integers(2, 4))
        p = random_density(d, int(rng.integers(1, d + 1)), rng)
        q = random_density(d, d, rng)
        ch = random_channel(d, d, int(rng.integers(1, 4)), rng)
        before = rel_entropy(p, q).value
        after = rel_entropy(ch.apply(p.matrix), ch.apply(q.matrix)).value
        assert before >= after - 1e-8

    @pytest.mark.parametrize("seed", range(25))
    def test_dominance(self, seed):
        rng = stream(26, seed)
        p = random_density(3, 3, rng).matrix
        q = random_density(3, 3, rng).matrix
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q_prime = q + 0.5 * (g @ g.conj().T) / np.trace(g @ g.conj().T).real
        assert rel_entropy(p, q).value >= rel_entropy(p, q_prime).value - 1e-8

    @pytest.mark.parametrize("seed", range(25))
    def test_rel_entropy_dominates_log_fidelity(self, seed):
        rng = stream(27, seed)
        p = random_density(3, 3, rng)
        q = random_density(3, 3, rng)
        assert rel_entropy(p, q).value >= -math.log2(fidelity(p, q)) - 1e-8

    @pytest.mark.parametrize("seed", range(25))
    def test_entropy_nondecreasing_under_mixed_unitary(self, seed):
        rng = stream(28, seed)
        d = int(rng.integers(2, 4))
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        ch = random_mixed_unitary_channel(d, int(rng.integers(2, 5)), rng)
        assert entropy(ch.apply(rho.matrix)) >= entropy(rho) - 1e-8
