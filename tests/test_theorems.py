import math

import numpy as np
import numpy.testing as npt
import pytest

from qrecovery.entropy import entropy, fidelity
from qrecovery.qcore import (
    Channel,
    DensityOperator,
    Ensemble,
    Instrument,
    TransferMap,
    random_channel,
    random_density,
    random_instrument,
    random_subunital_channel,
    random_unitary,
    stream,
    transpose_map,
)
from qrecovery.recovery import QuadratureSpec
from qrecovery.theorems import (
    OptimizerBudget,
    check_cond_entropy_gain,
    check_efficient_second_law,
    check_entropic_disturbance,
    check_entropy_gain,
    check_entropy_gain_recovery,
    check_info_gain_no_qsi,
    check_info_gain_qsi,
    check_info_gain_upper,
    groenewold_gain,
    minimal_entropy_gain,
)

PLUS = np.full((2, 2), 0.5)
Z = np.diag([1.0, -1.0])
DEPHASING = Channel((np.eye(2) / math.sqrt(2), Z / math.sqrt(2)))
Z_MEASUREMENT = Instrument((("0", (np.diag([1.0, 0.0]),)), ("1", (np.diag([0.0, 1.0]),))))
IDENTITY_INSTRUMENT = Instrument((("0", (np.eye(2),)),))


def depolarizing(p: float) -> Channel:
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    ks = (
        math.sqrt(1 - 3 * p / 4) * np.eye(2),
        math.sqrt(p / 4) * x,
        math.sqrt(p / 4) * y,
        math.sqrt(p / 4) * Z,
    )
    return Channel(ks)


class TestEntropyGain:
    def test_unitary_equality_at_zero(self):
        u = random_unitary(3, stream(40, 0))
        rho = random_density(3, 2, stream(40, 1))
        rep = check_entropy_gain(rho, Channel((u,)))
        assert rep.lhs == pytest.approx(0.0, abs=1e-10)
        assert rep.rhs == pytest.approx(0.0, abs=1e-10)

    def test_dephasing_on_plus_is_tight(self):
        # closed form: lhs = H(I/2) - H(|+>) = 1; rhs = D(|+><+| || I/2) = 1
        rep = check_entropy_gain(PLUS, DEPHASING)
        assert rep.lhs == pytest.approx(1.0, abs=1e-10)
        assert rep.rhs == pytest.approx(1.0, abs=1e-10)
        assert abs(rep.slack) <= 1e-8

    @pytest.mark.parametrize("seed", range(50))
    def test_random_cptp_campaign(self, seed):
        rng = stream(40, 2, seed)
        d = int(rng.integers(2, 5))
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        ch = random_channel(d, d, int(rng.integers(1, 5)), rng)
        assert check_entropy_gain(rho, ch).slack >= -1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_positive_but_not_cp_map(self, seed):
        # transpose-composed CPTP map: positive and TP but not CP
        rng = stream(40, 3, seed)
        d = int(rng.integers(2, 4))
        ch = random_channel(d, d, 2, rng)
        positive_map = transpose_map(d).compose(TransferMap.from_kraus(ch))
        rho = random_density(d, d, rng)
        rep = check_entropy_gain(rho, positive_map)
        assert rep.slack >= -1e-8

    def test_non_trace_preserving_rejected(self):
        half = Channel((np.eye(2) / 2,))
        with pytest.raises(ValueError, match="trace-preserving"):
            check_entropy_gain(PLUS, half)


class TestEntropyGainRecovery:
    def test_unitary_all_zero(self):
        u = random_unitary(2, stream(41, 0))
        rho = random_density(2, 2, stream(41, 1))
        rep = check_entropy_gain_recovery(rho, Channel((u,)))
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.rhs == pytest.approx(0.0, abs=1e-9)
        assert rep.aux["rhs_adjoint_only"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_subunital_chain(self, seed):
        rng = stream(41, 2, seed)
        d = int(rng.integers(2, 4))
        ch = random_subunital_channel(d, d + 1, 3, rng)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        rep = check_entropy_gain_recovery(rho, ch)
        assert rep.slack >= -1e-8
        assert rep.rhs >= -1e-9  # Klein: (R o N) output is a state
        assert rep.aux["dominance_slack"] >= -1e-8

    def test_superunital_rejected_with_max_eigenvalue(self):
        from qrecovery import bosonic as bos

        loss = bos.loss_channel(0.8, bos.FockTruncation(6))
        with pytest.raises(ValueError, match="subunital"):
            check_entropy_gain_recovery(bos.vacuum_state(bos.FockTruncation(6)), loss)


class TestMinimalEntropyGain:
    def test_unitary_channel_zero(self):
        u = random_unitary(2, stream(42, 0))
        res = minimal_entropy_gain(Channel((u,)), OptimizerBudget(3, 200), seed=1)
        assert abs(res.value) <= 1e-8
        assert res.converged

    def test_depolarizing_to_maximally_mixed(self):
        # closed form: gain = log d - H(rho), minimized (0) at rho = I/d
        d = 2
        eye = np.eye(d) / math.sqrt(d)
        ks = tuple(
            np.outer(np.eye(d)[:, i], np.eye(d)[j]) / math.sqrt(d) for i in range(d) for j in range(d)
        )
        full_depol = Channel(ks)
        npt.assert_allclose(full_depol.apply(np.diag([1.0, 0.0])), np.eye(2) / 2, atol=1e-12)
        res = minimal_entropy_gain(full_depol, OptimizerBudget(4, 400), seed=2)
        assert abs(res.value) <= 1e-8
        npt.assert_allclose(res.argmin, np.eye(2) / 2, atol=1e-3)

    @pytest.mark.parametrize("seed", range(5))
    def test_paper_bounds(self, seed):
        rng = stream(42, 1, seed)
        d = int(rng.integers(2, 4))
        ch = random_channel(d, d, int(rng.integers(1, 4)), rng)
        res = minimal_entropy_gain(ch, OptimizerBudget(5, 500), seed=rng)
        assert -math.log2(d) - 1e-8 <= res.value <= 1e-8
        assert res.lower_bound <= res.value + 1e-9

    def test_rectangular_channel_rejected(self):
        with pytest.raises(ValueError):
            minimal_entropy_gain(random_channel(2, 3, 2, stream(42, 2)))

    @pytest.mark.parametrize("restarts, max_evals", [(0, 100), (1, 0), (-1, 100)])
    def test_empty_budget_rejected(self, restarts, max_evals):
        with pytest.raises(ValueError, match="at least 1"):
            OptimizerBudget(restarts, max_evals)

    def test_smallest_budget_runs(self):
        u = random_unitary(2, stream(42, 3))
        res = minimal_entropy_gain(Channel((u,)), OptimizerBudget(1, 1), seed=1)
        assert res.evals >= 1


class TestCondEntropyGain:
    def test_unitary_on_a_equality(self):
        rng = stream(43, 0)
        rho = DensityOperator((("A", 2), ("B", 2)), random_density(4, 3, rng).matrix)
        u = random_unitary(2, rng)
        rep = check_cond_entropy_gain(rho, Channel((u,)))
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.rhs == pytest.approx(0.0, abs=1e-9)

    def test_product_state_reduces_to_marginal_check(self):
        rng = stream(43, 1)
        rho_a = random_density(2, 2, rng)
        rho_b = random_density(2, 2, rng)
        joint = DensityOperator((("A", 2), ("B", 2)), np.kron(rho_a.matrix, rho_b.matrix))
        ch = random_channel(2, 2, 2, rng)
        rep = check_cond_entropy_gain(joint, ch)
        plain = check_entropy_gain(rho_a, ch)
        assert rep.lhs == pytest.approx(plain.lhs, abs=1e-8)
        assert rep.rhs == pytest.approx(plain.rhs, abs=1e-8)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_campaign(self, seed):
        rng = stream(43, 2, seed)
        rho = DensityOperator(
            (("A", 2), ("B", 2)), random_density(4, int(rng.integers(1, 5)), rng).matrix
        )
        ch = random_channel(2, 2, int(rng.integers(1, 5)), rng)
        assert check_cond_entropy_gain(rho, ch).slack >= -1e-8


class TestGroenewold:
    def test_identity_instrument_zero(self):
        rho = random_density(2, 2, stream(44, 0))
        assert groenewold_gain(IDENTITY_INSTRUMENT, rho) == pytest.approx(0.0, abs=1e-10)

    def test_z_measurement_on_plus(self):
        # pure input, pure outputs: 0 - 0 = 0
        assert groenewold_gain(Z_MEASUREMENT, PLUS) == pytest.approx(0.0, abs=1e-10)

    def test_z_measurement_on_maximally_mixed(self):
        # closed form: H(I/2) - 0 = 1 bit
        assert groenewold_gain(Z_MEASUREMENT, np.eye(2) / 2) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_mutual_info_for_efficient(self, seed):
        rng = stream(44, 1, seed)
        d = int(rng.integers(2, 4))
        instr = random_instrument(d, int(rng.integers(2, 5)), True, rng)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        rep = check_info_gain_no_qsi(instr, rho)
        assert groenewold_gain(instr, rho) == pytest.approx(rep.lhs, abs=1e-8)

    def test_inefficient_can_be_negative(self):
        # pure input through a noisy two-Kraus instrument: entropy increases
        instr = random_instrument(2, 2, False, stream(44, 2))
        rho = random_density(2, 1, stream(44, 3))
        assert groenewold_gain(instr, rho) < 0


class TestInfoGainUpper:
    def test_identity_instrument_both_zero(self):
        rho = random_density(2, 2, stream(45, 0))
        rep = check_info_gain_upper(IDENTITY_INSTRUMENT, rho)
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.rhs == pytest.approx(0.0, abs=1e-9)

    def test_projective_on_maximally_mixed(self):
        rep = check_info_gain_upper(Z_MEASUREMENT, np.eye(2) / 2)
        assert rep.aux["h_x"] == pytest.approx(1.0, abs=1e-10)
        assert rep.slack >= -1e-8

    @pytest.mark.parametrize("seed", range(25))
    def test_inefficient_instruments(self, seed):
        rng = stream(45, 1, seed)
        d = int(rng.integers(2, 4))
        instr = random_instrument(d, int(rng.integers(2, 4)), False, rng)
        rho = random_density(d, 1 if seed % 3 == 0 else d, rng)
        rep = check_info_gain_upper(instr, rho)
        assert rep.slack >= -1e-8
        if rep.aux["groenewold_gain"] < 0:
            assert rep.slack > 0  # negative gain leaves extra room


class TestEfficientSecondLaw:
    def test_pure_aligned_measurement_both_zero(self):
        rho = DensityOperator((("A", 2),), np.diag([1.0, 0.0]))
        rep = check_efficient_second_law(Z_MEASUREMENT, rho)
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.rhs == pytest.approx(0.0, abs=1e-9)

    def test_z_measurement_on_purified_maximally_mixed(self):
        # 4x4 numeric oracle: reference and outcome perfectly correlated
        rho = DensityOperator((("A", 2),), np.eye(2) / 2)
        rep = check_efficient_second_law(Z_MEASUREMENT, rho)
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.slack >= -1e-8

    @pytest.mark.parametrize("seed", range(50))
    def test_random_efficient_campaign(self, seed):
        rng = stream(46, 0, seed)
        d = int(rng.integers(2, 4))
        instr = random_instrument(d, int(rng.integers(2, 5)), True, rng)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        assert check_efficient_second_law(instr, rho).slack >= -1e-8

    def test_inefficient_rejected(self):
        instr = random_instrument(2, 2, False, stream(46, 1))
        with pytest.raises(ValueError, match="efficient"):
            check_efficient_second_law(instr, random_density(2, 2, stream(46, 2)))


class TestInfoGainNoQsi:
    def test_trivial_instrument_no_information(self):
        u = random_unitary(2, stream(47, 0))
        instr = Instrument((("0", (u,)),))
        rho = random_density(2, 2, stream(47, 1))
        rep = check_info_gain_no_qsi(instr, rho)
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.aux["per_outcome_sqrt_fid"][0] == pytest.approx(1.0, abs=1e-9)

    def test_z_measurement_on_pure_zero(self):
        rho = DensityOperator((("A", 2),), np.diag([1.0, 0.0]))
        rep = check_info_gain_no_qsi(Z_MEASUREMENT, rho)
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        # single nonzero outcome, recovered with unit fidelity
        assert max(rep.aux["per_outcome_sqrt_fid_uhlmann"]) == pytest.approx(1.0, abs=1e-8)

    def test_z_measurement_on_purified_maximally_mixed(self):
        # 4x4 oracle: I(R;X) = 1 and -2 log sum p sqrtF = 1 exactly
        rho = DensityOperator((("A", 2),), np.eye(2) / 2)
        rep = check_info_gain_no_qsi(Z_MEASUREMENT, rho)
        assert rep.lhs == pytest.approx(1.0, abs=1e-9)
        assert rep.rhs == pytest.approx(1.0, abs=1e-9)
        assert rep.slack >= -1e-8

    @pytest.mark.parametrize("seed", range(30))
    def test_random_efficient_instruments(self, seed):
        rng = stream(47, 2, seed)
        d = int(rng.integers(2, 4))
        instr = random_instrument(d, int(rng.integers(2, 5)), True, rng)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        rep = check_info_gain_no_qsi(instr, rho)
        assert rep.slack >= -1e-8
        # the two independent evaluations of -log F agree
        assert rep.aux["rhs_fid_direct"] == pytest.approx(
            rep.aux["rhs_fid_direct_sum"], abs=1e-9
        )
        assert rep.aux["uhlmann_vs_fidelity_max_dev"] <= 1e-8

    def test_inefficient_uses_direct_fidelity_bound(self):
        instr = random_instrument(2, 2, False, stream(47, 3))
        rho = random_density(2, 2, stream(47, 4))
        rep = check_info_gain_no_qsi(instr, rho)
        assert rep.slack >= -1e-8
        assert "per_outcome_sqrt_fid_uhlmann" not in rep.aux


class TestInfoGainQsi:
    def test_product_side_information_reduces_to_no_qsi(self):
        rng = stream(48, 0)
        rho_a = random_density(2, 2, rng)
        rho_b = random_density(2, 2, rng)
        joint = DensityOperator((("A", 2), ("B", 2)), np.kron(rho_a.matrix, rho_b.matrix))
        instr = random_instrument(2, 2, True, rng)
        rep = check_info_gain_qsi(instr, joint, quad=QuadratureSpec(nodes=51))
        plain = check_info_gain_no_qsi(instr, rho_a)
        assert rep.lhs == pytest.approx(plain.lhs, abs=1e-8)
        assert rep.slack >= -1e-5

    def test_classically_readable_measurement(self):
        # X is a function of B: I(R;X|B) = 0 and the B-side recovery is exact
        probs = np.array([0.3, 0.7])
        mat = sum(
            probs[x] * np.kron(np.diag(np.eye(2)[x]), np.diag(np.eye(2)[x]))
            for x in range(2)
        )
        rho_ab = DensityOperator((("A", 2), ("B", 2)), mat)
        rep = check_info_gain_qsi(Z_MEASUREMENT, rho_ab, quad=QuadratureSpec(nodes=51))
        assert abs(rep.lhs) <= 1e-6
        assert rep.aux["min_node_avg_sqrt_fid"] >= 1.0 - 1e-6
        assert rep.slack >= -1e-5

    @pytest.mark.parametrize("seed", range(20))
    def test_random_efficient_instruments(self, seed):
        rng = stream(48, 1, seed)
        rho_ab = DensityOperator(
            (("A", 2), ("B", 2)), random_density(4, int(rng.integers(2, 5)), rng).matrix
        )
        instr = random_instrument(2, int(rng.integers(2, 4)), True, rng)
        rep = check_info_gain_qsi(instr, rho_ab)
        assert rep.slack >= -1e-5
        assert rep.aux["recovery_instrument_tp_dev"] <= 1e-8
        assert rep.aux["uhlmann_vs_fidelity_max_dev"] <= 1e-7


class TestEntropicDisturbance:
    def test_unitary_channel_no_disturbance(self):
        rng = stream(49, 0)
        ens = Ensemble(
            np.array([0.5, 0.5]), (random_density(2, 1, rng), random_density(2, 2, rng))
        )
        u = random_unitary(2, rng)
        rep = check_entropic_disturbance(ens, Channel((u,)))
        assert abs(rep.lhs) <= 1e-9
        assert rep.aux["avg_sqrt_fid"] >= 1.0 - 1e-9

    def test_commuting_ensemble_through_matching_dephasing(self):
        rng = stream(49, 1)
        basis = random_unitary(3, rng)
        states = tuple(
            DensityOperator(
                (("A", 3),), basis @ np.diag(rng.dirichlet(np.ones(3))) @ basis.conj().T
            )
            for _ in range(3)
        )
        ens = Ensemble(rng.dirichlet(np.ones(3)), states)
        projs = tuple(np.outer(basis[:, i], basis[:, i].conj()) for i in range(3))
        rep = check_entropic_disturbance(ens, Channel(projs))
        assert abs(rep.lhs) <= 1e-9
        assert rep.aux["avg_sqrt_fid"] >= 1.0 - 1e-8

    def test_zero_plus_through_depolarizing(self):
        # 2x2 numeric oracle: strictly positive Holevo loss, bound still holds
        ens = Ensemble(
            np.array([0.5, 0.5]),
            (
                DensityOperator((("A", 2),), np.diag([1.0, 0.0])),
                DensityOperator((("A", 2),), PLUS),
            ),
        )
        rep = check_entropic_disturbance(ens, depolarizing(0.3))
        assert rep.lhs > 1e-3
        assert rep.slack >= -1e-6

    @pytest.mark.parametrize("seed", range(25))
    def test_random_campaign(self, seed):
        rng = stream(49, 2, seed)
        d = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        ens = Ensemble(
            rng.dirichlet(np.ones(m)),
            tuple(random_density(d, int(rng.integers(1, d + 1)), rng) for _ in range(m)),
        )
        ch = random_channel(d, d, int(rng.integers(1, 4)), rng)
        rep = check_entropic_disturbance(ens, ch)
        assert rep.lhs >= -1e-9
        assert rep.slack >= -1e-6
