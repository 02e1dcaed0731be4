import copy
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from qrecovery import qcore, recovery, theorems
from qrecovery.entropy import binary_entropy, entropy, fidelity
from qrecovery.lbfgs import minimize_stack
from qrecovery.matfun import eig_hermitian
from qrecovery.qcore import (
    Channel,
    DensityOperator,
    Ensemble,
    Instrument,
    KrausMap,
    Purification,
    apply_on,
    ptrace,
    random_channel,
    random_density,
    random_instrument,
    random_subunital_channel,
    random_unitary,
    stream,
    transpose_map,
)
from qrecovery.recovery import (
    NotCompletelyPositiveError,
    QuadratureSpec,
    quadrature,
    swiveled_kraus,
    uhlmann_isometry,
)
from qrecovery.theorems import (
    STATIONARITY_TOL,
    OptimizerBudget,
    check_cond_entropy_gain,
    check_efficient_second_law,
    check_entropic_disturbance,
    check_entropy_gain,
    check_entropy_gain_recovery,
    check_info_gain_no_qsi,
    check_info_gain_qsi,
    check_info_gain_upper,
    check_recovery_fid,
    check_recovery_stronger,
    groenewold_gain,
    minimal_entropy_gain,
)

import oracles
from oracles import transfer_compose, transfer_map

PLUS = np.full((2, 2), 0.5)
Z = np.diag([1.0, -1.0])
DEPHASING = Channel((np.eye(2) / math.sqrt(2), Z / math.sqrt(2)))
Z_MEASUREMENT = Instrument(((np.diag([1.0, 0.0]),), (np.diag([0.0, 1.0]),)))
IDENTITY_INSTRUMENT = Instrument(((np.eye(2),),))


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
        positive_map = transfer_compose(transpose_map(d), transfer_map(ch))
        rho = random_density(d, d, rng)
        rep = check_entropy_gain(rho, positive_map)
        assert rep.slack >= -1e-8

    def test_non_trace_preserving_rejected(self):
        half = Channel((np.eye(2) / 2,))
        with pytest.raises(ValueError, match="trace-preserving"):
            check_entropy_gain(PLUS, half)

    def test_non_trace_preserving_deviation_same_in_both_forms(self):
        # the deviation is max |sum K^dag K - I| in Kraus and transfer form
        half = Channel((np.eye(2) / 2,))
        for channel in (half, transfer_map(half)):
            with pytest.raises(ValueError, match="trace-preserving: max deviation 7.500e-01"):
                check_entropy_gain(PLUS, channel)

    def test_rectangular_transfer_map_accepted(self):
        rng = stream(40, 4)
        ch = random_channel(2, 3, 2, rng)
        rho = random_density(2, 2, rng)
        rep = check_entropy_gain(rho, transfer_map(ch))
        assert rep.lhs == pytest.approx(check_entropy_gain(rho, ch).lhs, abs=1e-12)
        assert rep.holds


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
        ch = random_subunital_channel(d, d + 1, rng)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        rep = check_entropy_gain_recovery(rho, ch)
        assert rep.slack >= -1e-8
        assert rep.rhs >= -1e-9  # Klein: (R o N) output is a state
        assert rep.aux["dominance_slack"] >= -1e-8

    def test_superunital_rejected_with_witness(self):
        # pure loss is trace-preserving but superunital: B_eta(I) reaches 1/eta
        from qrecovery import bosonic as bos

        trunc = bos.FockTruncation(6)
        loss = bos.loss_channel(0.8, trunc)
        with pytest.raises(NotCompletelyPositiveError, match="superunital") as err:
            check_entropy_gain_recovery(bos.vacuum_state(trunc), loss)
        w = err.value.witness
        gap = np.eye(trunc.dim) - oracles.on_identity(loss)
        # the witness is a pure state on which I - N(I) takes its least eigenvalue
        assert np.trace(w).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(w @ gap).real == pytest.approx(np.linalg.eigvalsh(gap)[0], abs=1e-10)
        assert np.trace(w @ gap).real < -1e-10


def test_each_check_takes_the_channel_output_once(monkeypatch):
    # check_entropy_gain: N^dag(I) for the TP test, N(rho), N^dag(N(rho));
    # check_entropy_gain_recovery adds N(I) for the recovery and R(N(rho));
    # check_recovery_stronger takes N(rho) and N(sigma).  Every Kraus
    # application goes through qcore._apply_kraus, so it is counted there;
    # a stack of instances takes the same calls, each on the whole stack
    calls = []
    apply = qcore._apply_kraus

    def counted(ks, x):
        calls.append(np.asarray(x))
        return apply(ks, x)

    for module in (qcore, theorems, recovery):
        monkeypatch.setattr(module, "_apply_kraus", counted)
    rng = stream(41, 3)
    ch = random_subunital_channel(2, 3, rng)
    rho = random_density(2, 2, rng)
    check_entropy_gain(rho, ch)
    assert len(calls) == 3
    calls.clear()
    check_entropy_gain_recovery(rho, ch)
    assert len(calls) == 5
    calls.clear()
    check_recovery_stronger(rho, random_density(2, 2, rng), ch)
    assert len(calls) == 2

    channels = [random_subunital_channel(2, 3, rng) for _ in range(3)]
    states = np.stack([random_density(2, 2, rng).matrix for _ in range(3)])
    ks = np.stack([c.stack for c in channels])
    for stacked, n_calls in ((theorems._entropy_gain_stack, 3), (theorems._entropy_gain_recovery_stack, 5)):
        calls.clear()
        stacked(states, ks)
        assert len(calls) == n_calls
        assert sum(x.shape == states.shape and np.array_equal(x, states) for x in calls) == 1
    calls.clear()
    theorems._recovery_stronger_stack(states, states[::-1], ks, QuadratureSpec())
    assert len(calls) == 2 and all(x.shape == states.shape for x in calls)


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
        assert res.evals == 1

    def test_non_trace_preserving_map_rejected(self):
        # unchecked, 2I gave value -8 and lower_bound -4, outside [-log2 d, 0]
        with pytest.raises(ValueError, match="trace-preserving"):
            minimal_entropy_gain(KrausMap((2 * np.eye(2),)), OptimizerBudget(1, 10), seed=1)

    @pytest.mark.parametrize("trial", range(20))
    def test_certificate_on_criterion_9_channels(self, trial):
        ch, rng = _criterion_9_instance(trial)
        res = minimal_entropy_gain(ch, OptimizerBudget(), seed=rng)
        assert res.converged
        assert 0.0 <= res.stationarity <= STATIONARITY_TOL
        assert res.value == entropy(ch.apply(res.argmin)) - entropy(res.argmin)

    def test_not_converged_at_smallest_budget(self):
        # a non-unital channel moves I/d, so one evaluation leaves a gradient
        ch = random_channel(3, 3, 2, stream(42, 4))
        res = minimal_entropy_gain(ch, OptimizerBudget(1, 1), seed=1)
        assert not res.converged
        assert res.stationarity > STATIONARITY_TOL

    def test_stationarity_reads_the_support_only(self):
        # the kernel entry 5 of the gradient is not part of the certificate
        rho = np.diag([0.5, 0.5, 0.0])
        assert theorems._stationarity(rho, np.diag([1.0, 1.0, 5.0])) == 0.0
        spread = theorems._stationarity(rho, np.diag([1.0, 1.5, 5.0]))
        assert spread == pytest.approx(0.5 / math.log(2.0), abs=1e-14)

    def test_objective_finite_at_degenerate_factors(self):
        # one stack: a rank-one factor, the zero factor, a generic factor and a non-finite one
        d = 3
        rng = stream(42, 5)
        ch = random_channel(d, d, 2, rng)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        rank_one = np.outer(v, rng.standard_normal(d))
        generic = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        factors = np.stack([rank_one, np.zeros((d, d)), generic])
        x = np.concatenate([factors.real.reshape(3, -1), factors.imag.reshape(3, -1)], axis=1)
        x = np.vstack([x, np.full(2 * d * d, np.inf)])
        with np.errstate(invalid="ignore"):
            values, grads = theorems._gain_objective(ch)(x)
        assert np.isfinite(values).all() and np.isfinite(grads).all()
        psi = np.outer(v, v.conj()) / np.vdot(v, v).real
        assert values[0] == pytest.approx(entropy(ch.apply(psi)), abs=1e-10)
        # the I/d fallback, where the gradient in L vanishes with L or is set to 0
        mixed = entropy(ch.apply(np.eye(d) / d)) - math.log2(d)
        assert values[1] == pytest.approx(mixed, abs=1e-12)
        assert values[3] == pytest.approx(mixed, abs=1e-12)
        assert not grads[1].any() and not grads[3].any()
        rho = generic @ generic.conj().T
        rho /= np.trace(rho).real
        assert values[2] == pytest.approx(entropy(ch.apply(rho)) - entropy(rho), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
    def test_objective_gradient_matches_central_differences(self, d, seed):
        rng = np.random.default_rng(seed)
        ch = random_channel(d, d, int(rng.integers(1, 5)), rng)
        objective = theorems._gain_objective(ch)
        x = rng.standard_normal(2 * d * d)
        h = 1e-6
        steps = h * np.eye(2 * d * d)
        central = (objective(x + steps)[0] - objective(x - steps)[0]) / (2 * h)
        grad = objective(x[None])[1][0]
        npt.assert_allclose(grad, central, rtol=0, atol=1e-6 * max(1.0, np.abs(grad).max()))

    @settings(max_examples=10, deadline=None)
    @given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
    def test_each_start_follows_its_own_path(self, d, seed):
        rng = np.random.default_rng(seed)
        ch = random_channel(d, d, int(rng.integers(1, 5)), rng)
        objective = theorems._gain_objective(ch)
        x0 = rng.standard_normal((5, 2 * d * d))
        values, points, evals = minimize_stack(objective, x0, 2000)
        for i in range(5):
            value, point, n = minimize_stack(objective, x0[i : i + 1], 2000)
            assert abs(value[0] - values[i]) <= 1e-12
            npt.assert_allclose(point[0], points[i], rtol=0, atol=1e-12)
            assert n[0] == evals[i]

    @pytest.mark.parametrize("max_evals", [1, 2, 5, 17])
    def test_max_evals_is_an_exact_cap(self, max_evals):
        rng = stream(42, 7)
        ch = random_channel(3, 3, 2, rng)
        objective = theorems._gain_objective(ch)
        _, _, evals = minimize_stack(objective, rng.standard_normal((6, 18)), max_evals)
        assert evals.max() == max_evals


def _criterion_9_instance(trial):
    """Channel and optimizer rng of acceptance criterion 9's trial."""
    rng = stream(1234, 90, trial)
    d = int(rng.integers(2, 4))
    return random_channel(d, d, int(rng.integers(1, 5)), rng), rng


def _nelder_mead_gain(channel, restarts, max_evals, seed):
    """Derivative-free reference: Nelder-Mead over rho = L L^dag / Tr(L L^dag)
    from the maximally mixed state plus random starts."""
    d = channel.in_dim
    rng = np.random.default_rng(seed)

    def to_rho(x):
        factor = (x[: d * d] + 1j * x[d * d :]).reshape(d, d)
        mat = factor @ factor.conj().T
        return mat / np.real(np.trace(mat))

    def objective(x):
        rho = to_rho(x)
        return entropy(channel.apply(rho)) - entropy(rho)

    starts = [np.concatenate([np.eye(d).ravel(), np.zeros(d * d)])]
    starts += [rng.standard_normal(2 * d * d) for _ in range(restarts - 1)]
    return min(
        optimize.minimize(
            objective, x0, method="Nelder-Mead",
            options={"maxfev": max_evals, "xatol": 1e-9, "fatol": 1e-12},
        ).fun
        for x0 in starts
    )


def _lbfgsb_gain(channel, budget, rng):
    """Reference search: SciPy's L-BFGS-B run start by start on the one-row
    objective, from the starts minimal_entropy_gain draws from ``rng``;
    returns the best value in bits."""
    d = channel.in_dim
    objective = theorems._gain_objective(channel)

    def scalar(x):
        value, grad = objective(x[None])
        return value[0], grad[0]

    starts = [np.concatenate([np.eye(d).reshape(-1), np.zeros(d * d)])]
    starts += [rng.standard_normal(2 * d * d) for _ in range(budget.restarts - 1)]
    return min(
        float(optimize.minimize(
            scalar, x0, jac=True, method="L-BFGS-B",
            options={"maxfun": budget.max_evals, "ftol": 1e-15, "gtol": 1e-10},
        ).fun)
        for x0 in starts
    )


def _decay(p):
    return Channel((
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[0.0, math.sqrt(p)], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [0.0, math.sqrt(1.0 - p)]]),
    ))


def _oracle_instances():
    """Criterion 9's 20 channels, a unitary, a replacer and three decays, each
    with the rng of its search."""
    for trial in range(20):
        yield (f"criterion-9-{trial}", *_criterion_9_instance(trial))
    rng = stream(42, 8)
    u = random_unitary(2, rng)
    psi = random_unitary(2, rng)[:, 0]
    yield "unitary", Channel((u,)), rng
    yield "replacer", Channel((np.outer(psi, [1.0, 0.0]), np.outer(psi, [0.0, 1.0]))), rng
    for p in (0.3, 0.6, 0.9):
        yield f"decay-{p}", _decay(p), stream(42, 9, int(10 * p))


class TestMinimalEntropyGainLbfgsbOracle:
    """The lock-step search is no worse than SciPy's L-BFGS-B from the same starts."""

    @pytest.mark.parametrize(
        "ch, rng", [pytest.param(ch, rng, id=name) for name, ch, rng in _oracle_instances()]
    )
    def test_no_worse_than_lbfgsb(self, ch, rng):
        budget = OptimizerBudget()
        oracle = _lbfgsb_gain(ch, budget, copy.deepcopy(rng))
        res = minimal_entropy_gain(ch, budget, seed=rng)
        assert res.value <= oracle + 1e-9
        assert res.converged
        assert res.evals <= budget.restarts * budget.max_evals


class TestMinimalEntropyGainOracle:
    """The gradient search is no worse than the Nelder-Mead reference."""

    @pytest.mark.parametrize("trial", [1, 3, 4, 12])
    def test_criterion_9_channels(self, trial):
        ch, rng = _criterion_9_instance(trial)
        res = minimal_entropy_gain(ch, OptimizerBudget(), seed=rng)
        assert res.value <= _nelder_mead_gain(ch, 2, 1500, seed=trial) + 1e-9

    def test_unitary_and_replacer(self):
        rng = stream(42, 6)
        u = random_unitary(2, rng)
        psi = random_unitary(2, rng)[:, 0]
        replacer = Channel((np.outer(psi, [1.0, 0.0]), np.outer(psi, [0.0, 1.0])))
        for ch, closed_form in ((Channel((u,)), 0.0), (replacer, -1.0)):
            res = minimal_entropy_gain(ch, OptimizerBudget(), seed=rng)
            assert res.value <= _nelder_mead_gain(ch, 2, 1500, seed=0) + 1e-9
            assert res.value == pytest.approx(closed_form, abs=1e-8)

    def test_decay_matches_scalar_minimum(self):
        # the output depends on diag(rho) only, so diagonal inputs attain the minimum
        p = 0.6
        ch = _decay(p)
        scalar = optimize.minimize_scalar(
            lambda q: binary_entropy((1.0 - p) * q) - binary_entropy(q),
            bounds=(0.0, 1.0), method="bounded",
            options={"xatol": 1e-12},
        )
        res = minimal_entropy_gain(ch, OptimizerBudget(), seed=6)
        assert res.value == pytest.approx(scalar.fun, abs=1e-8)
        assert res.value <= _nelder_mead_gain(ch, 2, 1500, seed=6) + 1e-9


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


class TestRecoveryEqualityFamily:
    """A replacer onto tau = diag(0.6, 0.4), rho = |0><0| and sigma = diag(p, 1-p):
    N(rho) = N(sigma) = tau and every swiveled Petz map sends tau to sigma, so
    lhs = D(rho || sigma) = -log2 p = -log2 F(rho, sigma) = rhs."""

    REPLACER = Channel(
        tuple(math.sqrt(t) * np.outer(np.eye(2)[i], np.eye(2)[j])
              for i, t in enumerate((0.6, 0.4)) for j in range(2))
    )
    RHO = np.diag([1.0, 0.0])

    @pytest.mark.parametrize("check", [check_recovery_fid, check_recovery_stronger])
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.45])
    def test_holds_with_equality(self, check, p):
        rep = check(self.RHO, np.diag([p, 1.0 - p]), self.REPLACER)
        assert abs(rep.lhs + math.log2(p)) <= 1e-12
        assert abs(rep.rhs + math.log2(p)) <= 1e-12


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


@pytest.mark.parametrize("check, systems", [
    (check_efficient_second_law, (("R", 2),)),
    (check_info_gain_no_qsi, (("R", 2),)),
    (check_info_gain_qsi, (("R", 2), ("B", 2))),
])
def test_reference_label_collision_rejected(check, systems):
    # the purifying reference is labeled R, as in purify, so an input factor R is rejected
    dim = math.prod(d for _, d in systems)
    rho = DensityOperator(systems, np.eye(dim) / dim)
    with pytest.raises(qcore.LabelError, match="reference label 'R' collides"):
        check(Z_MEASUREMENT, rho)


class TestInfoGainNoQsi:
    def test_trivial_instrument_no_information(self):
        u = random_unitary(2, stream(47, 0))
        instr = Instrument(((u,),))
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


def test_cq_state_assembly():
    # classical factor last: sum_x w_x block_x (x) |x><x|
    blocks = (random_density(2, 2, stream(49, 0)).matrix, np.diag([1.0, 0.0]))
    rho = theorems._cq_assemble(np.array([[0.3, 0.7]]), np.stack(blocks)[None])[0]
    npt.assert_allclose(ptrace(rho, (2, 2), (1,)), np.diag([0.3, 0.7]), atol=1e-12)
    npt.assert_allclose(ptrace(rho, (2, 2), (0,)), 0.3 * blocks[0] + 0.7 * blocks[1], atol=1e-12)


def qsi_node_loop(instr, rho_ab, quad=QuadratureSpec()):
    """Per-node oracle of check_info_gain_qsi's rhs and aux values.

    For each (node, outcome) pair it builds g_t from two complex powers,
    applies I_R (x) g_t to omega_RB, takes one fidelity and, for efficient
    instruments, one ``uhlmann_isometry``.  Returns the rhs, the TP
    deviation, the smallest node sum, the Uhlmann deviation and the
    low-confidence flag.
    """
    a_label, b_label = rho_ab.labels
    d_b = oracles.system_dim(rho_ab, b_label)
    out_label = a_label + "'"
    phi, probs, posts_rab, posts_rb = oracles._reference_instrument_state(instr, rho_ab)
    r_dim = phi.reference_dim
    omega_rb = sum(p * b for p, b in zip(probs, posts_rb) if b is not None)
    spec_b = eig_hermitian(ptrace(omega_rb, (r_dim, d_b), (1,)))
    support_b = spec_b.eigenvectors[:, spec_b.eigenvalues > spec_b.cutoff]
    proj_b = support_b @ support_b.conj().T
    spectra_x = [
        eig_hermitian(ptrace(block, (r_dim, d_b), (1,))) if block is not None else None
        for block in posts_rb
    ]
    rb_systems = (("R", r_dim), (b_label, d_b))
    integral, tp_dev, min_node, uhlmann_dev, low = 0.0, 0.0, math.inf, 0.0, False
    for t, w in zip(*quadrature(quad)):
        right = spec_b.power((-1.0 + 1j * t) / 2.0)
        tp_acc = np.zeros((d_b, d_b), dtype=complex)
        node_sum = 0.0
        for x in range(instr.n_outcomes):
            if probs[x] <= theorems.PROB_FLOOR or posts_rb[x] is None:
                continue
            g = spectra_x[x].power((1.0 - 1j * t) / 2.0) @ right
            tp_acc += probs[x] * (g.conj().T @ g)
            recovered, _ = apply_on(KrausMap((g,)), omega_rb, rb_systems, b_label)
            f = fidelity(posts_rb[x], recovered)
            low = low or f < 1e-14
            node_sum += probs[x] * math.sqrt(max(f, 0.0))
            if instr.efficient:
                phi_rec = Purification(
                    a_label, phi.systems, (phi.vector.reshape(-1, d_b) @ g.T).reshape(-1)
                )
                phi_post = Purification(
                    out_label,
                    (("R", r_dim), (out_label, instr.out_dim), (b_label, d_b)),
                    theorems._pure_vectors([posts_rab[x]])[0],
                )
                achieved = uhlmann_isometry(phi_rec, phi_post).achieved
                uhlmann_dev = max(uhlmann_dev, abs(achieved - f))
        min_node = min(min_node, node_sum)
        tp_dev = max(tp_dev, float(np.abs(tp_acc - proj_b).max()))
        integral += w * math.log2(max(node_sum, 1e-300))
    return -2.0 * integral, tp_dev, min_node, uhlmann_dev, low


def qsi_instance(kind: str, seed: int):
    """(instrument, rho_AB) for the batched-versus-loop QSI comparisons.

    ``full``: a random state of rank 2 to 4, so omega_B is full rank.
    ``bx_kernel``: rho_AB = sum_x q_x |a_x><a_x| (x) |psi_x><psi_x| measured
    in the basis {a_x}, so every omega_B^x is pure.  ``b_kernel``:
    rho_A (x) |psi><psi|, so omega_B itself is pure.
    """
    rng = stream(48, 2, ("full", "bx_kernel", "b_kernel").index(kind), seed)
    if kind == "full":
        mat = random_density(4, int(rng.integers(2, 5)), rng).matrix
        instr = random_instrument(2, int(rng.integers(2, 4)), bool(rng.integers(2)), rng)
    elif kind == "bx_kernel":
        basis = random_unitary(2, rng)
        projs = [np.outer(basis[:, x], basis[:, x].conj()) for x in range(2)]
        q = rng.dirichlet(np.ones(2))
        mat = sum(q[x] * np.kron(projs[x], random_density(2, 1, rng).matrix) for x in range(2))
        instr = Instrument(tuple((random_unitary(2, rng) @ projs[x],) for x in range(2)))
    else:
        rho_a = random_density(2, int(rng.integers(1, 3)), rng).matrix
        mat = np.kron(rho_a, random_density(2, 1, rng).matrix)
        instr = random_instrument(2, int(rng.integers(2, 4)), True, rng)
    return instr, DensityOperator((("A", 2), ("B", 2)), mat)


class TestInfoGainQsiBatched:
    """check_info_gain_qsi's stacked evaluation against the per-node loop."""

    @pytest.mark.parametrize("kind", ["full", "bx_kernel", "b_kernel"])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_node_loop(self, kind, seed):
        # measured: rhs, TP deviation and smallest node sum within 4.2e-15 of
        # the loop over 15 instances of each kind
        instr, rho_ab = qsi_instance(kind, seed)
        rep = check_info_gain_qsi(instr, rho_ab)
        rhs, tp_dev, min_node, uhlmann_dev, low = qsi_node_loop(instr, rho_ab)
        values = [rep.rhs, rep.aux["recovery_instrument_tp_dev"], rep.aux["min_node_avg_sqrt_fid"]]
        assert np.isfinite(values).all()
        assert abs(rep.rhs - rhs) <= 1e-12
        assert abs(rep.aux["recovery_instrument_tp_dev"] - tp_dev) <= 1e-12
        assert abs(rep.aux["min_node_avg_sqrt_fid"] - min_node) <= 1e-12
        assert rep.aux["low_confidence"] == low
        if instr.efficient:
            assert abs(rep.aux["uhlmann_vs_fidelity_max_dev"] - uhlmann_dev) <= 1e-12

    def test_pure_bx_uhlmann_deviation_at_rounding_scale(self):
        # every omega_B^x pure: the support roots keep the Uhlmann overlaps
        # and the fidelities equal to rounding (largest measured: 3.3e-15)
        devs = [
            check_info_gain_qsi(*qsi_instance("bx_kernel", seed)).aux["uhlmann_vs_fidelity_max_dev"]
            for seed in range(15)
        ]
        assert max(devs) <= 1e-13, f"largest Uhlmann deviation {max(devs):.3e}"

    @pytest.mark.parametrize("seed", range(3))
    def test_batched_uhlmann_overlaps_equal_isometry_achieved(self, seed):
        _, rho_ab = qsi_instance("full", seed)
        instr = random_instrument(2, 3, True, stream(48, 3, seed))
        phi, probs, posts_rab, posts_rb = oracles._reference_instrument_state(instr, rho_ab)
        r_dim = phi.reference_dim
        omega_rb = sum(p * b for p, b in zip(probs, posts_rb) if b is not None)
        spec_b = eig_hermitian(ptrace(omega_rb, (r_dim, 2), (1,)))
        nodes = quadrature(QuadratureSpec())[0][::10]
        for x in range(instr.n_outcomes):
            omega_bx = ptrace(posts_rb[x], (r_dim, 2), (1,))
            g = swiveled_kraus(eig_hermitian(omega_bx), spec_b, (np.eye(2),), nodes)[:, 0]
            phi_post = Purification(
                "A'", (("R", r_dim), ("A'", 2), ("B", 2)),
                theorems._pure_vectors([posts_rab[x]])[0],
            )
            m_in = Purification("A", phi.systems, phi.vector).amplitude_matrix()
            batched = theorems._b_rotated_overlaps(m_in, g, phi_post.amplitude_matrix())
            for g_t, value in zip(g, batched):
                phi_rec = Purification("A", phi.systems, (phi.vector.reshape(-1, 2) @ g_t.T))
                assert abs(value - uhlmann_isometry(phi_rec, phi_post).achieved) <= 1e-12


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
