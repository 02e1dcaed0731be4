import math

import numpy as np
import numpy.testing as npt
import pytest

from qrecovery import cpdp
from qrecovery.cpdp import (
    Interaction,
    TripartiteConfiguration,
    afw_bound,
    cmi_bound,
    converse_bound,
    dp_slack,
    identity_embedding,
    reduced_dynamics,
)
from qrecovery.entropy import fidelity
from qrecovery.qcore import (
    Channel,
    DensityOperator,
    random_density,
    random_unitary,
    stream,
)

from oracles import is_cptp

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
)


def config_from(mat) -> TripartiteConfiguration:
    return TripartiteConfiguration(DensityOperator((("R", 2), ("Q", 2), ("E", 2)), mat))


def random_config(rng) -> TripartiteConfiguration:
    return config_from(random_density(8, int(rng.integers(2, 9)), rng).matrix)


def product_env_config(rng) -> TripartiteConfiguration:
    rho_rq = random_density(4, int(rng.integers(2, 5)), rng).matrix
    rho_e = random_density(2, int(rng.integers(1, 3)), rng).matrix
    return config_from(np.kron(rho_rq, rho_e))


def cq_markov_config(rng) -> TripartiteConfiguration:
    # R and E product conditionally on a classical Q register: I(R;E|Q) = 0
    p = rng.dirichlet(np.ones(2))
    mat = np.zeros((8, 8), dtype=complex)
    for c in range(2):
        rho_r = random_density(2, int(rng.integers(1, 3)), rng).matrix
        rho_e = random_density(2, int(rng.integers(1, 3)), rng).matrix
        q_block = np.diag(np.eye(2)[c])
        mat += p[c] * np.kron(np.kron(rho_r, q_block), rho_e)
    return config_from(mat)


def unitary_interaction(rng) -> Interaction:
    return Interaction(random_unitary(4, rng), (2, 2), (2, 2))


class TestInteraction:
    def test_isometry_validation(self):
        with pytest.raises(ValueError, match="isometry"):
            Interaction(np.eye(4) * 1.1, (2, 2), (2, 2))

    def test_rectangular_isometry_allowed(self):
        g = stream(50, 0).standard_normal((8, 4)) + 1j * stream(50, 1).standard_normal((8, 4))
        q, r = np.linalg.qr(g)
        Interaction(q, (2, 2), (4, 2))


class TestDpSlack:
    def test_identity_interaction_zero_slack(self):
        config = random_config(stream(51, 0))
        v = Interaction(np.eye(4), (2, 2), (2, 2))
        assert dp_slack(config, v) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(50))
    def test_product_environment_never_violates(self, seed):
        rng = stream(51, 1, seed)
        config = product_env_config(rng)
        assert dp_slack(config, unitary_interaction(rng)) <= 1e-8

    def test_swap_on_correlated_configuration_violates(self):
        # R classically correlated with E, Q pure: swapping Q and E moves the
        # correlation into Q', so I(R;Q') = 1 > I(R;Q) = 0
        mat = np.zeros((8, 8))
        for c in range(2):
            r_block = np.diag(np.eye(2)[c])
            mat += 0.5 * np.kron(np.kron(r_block, np.diag([1.0, 0.0])), r_block)
        config = config_from(mat)
        v = Interaction(SWAP, (2, 2), (2, 2))
        slack = dp_slack(config, v)
        assert slack == pytest.approx(1.0, abs=1e-10)


class TestCmiBound:
    def test_product_environment_zero(self):
        assert cmi_bound(product_env_config(stream(52, 0))) == pytest.approx(0.0, abs=1e-10)

    def test_classical_markov_chain_zero(self):
        assert cmi_bound(cq_markov_config(stream(52, 1))) == pytest.approx(0.0, abs=1e-8)

    def test_ghz_configuration_positive(self):
        v = np.zeros(8)
        v[0] = v[7] = 1 / math.sqrt(2)
        config = config_from(np.outer(v, v))
        assert cmi_bound(config) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_dp_slack_of_embedding(self, seed):
        config = random_config(stream(52, 2, seed))
        embed = identity_embedding(2, 2)
        assert abs(dp_slack(config, embed) - cmi_bound(config)) <= 1e-9


class TestReducedDynamics:
    def test_product_environment_exact(self):
        rng = stream(53, 0)
        config = product_env_config(rng)
        channel, rep = reduced_dynamics(config, unitary_interaction(rng))[:2]
        assert rep.aux["fidelity"] >= 1.0 - 1e-8
        assert is_cptp(channel, tol=1e-8)

    def test_markov_chain_exact(self):
        rng = stream(53, 1)
        config = cq_markov_config(rng)
        rep = reduced_dynamics(config, unitary_interaction(rng)).report
        assert rep.aux["fidelity"] >= 1.0 - 1e-6

    @pytest.mark.parametrize("seed", range(25))
    def test_random_configurations_bound_holds(self, seed):
        rng = stream(53, 2, seed)
        config = random_config(rng)
        channel, rep = reduced_dynamics(config, unitary_interaction(rng))[:2]
        assert rep.slack >= -1e-6
        assert is_cptp(channel, tol=1e-8)

    def test_independent_of_action_on_output_environment(self):
        # V2 = (I_Q' x W_E') V1 must give the same reduced channel
        rng = stream(53, 3)
        config = random_config(rng)
        v1 = random_unitary(4, rng)
        w = random_unitary(2, rng)
        v2 = np.kron(np.eye(2), w) @ v1
        ch1 = reduced_dynamics(config, Interaction(v1, (2, 2), (2, 2))).channel
        ch2 = reduced_dynamics(config, Interaction(v2, (2, 2), (2, 2))).channel
        x = random_density(2, 2, rng).matrix
        npt.assert_allclose(ch1.apply(x), ch2.apply(x), atol=1e-9)

    def test_exact_case_equivalence(self):
        # cmi <= 1e-8 implies recovery fidelity >= 1 - 1e-6 for every tested V
        rng = stream(53, 4)
        config = cq_markov_config(rng)
        assert cmi_bound(config) <= 1e-8
        for _ in range(5):
            rep = reduced_dynamics(config, unitary_interaction(rng)).report
            assert rep.aux["fidelity"] >= 1.0 - 1e-6


def replace_with_fixed_state(tau: np.ndarray) -> Channel:
    lam, vecs = np.linalg.eigh(tau)
    ks = []
    for k in range(2):
        if lam[k] <= 0:
            continue
        for j in range(2):
            ks.append(math.sqrt(lam[k]) * np.outer(vecs[:, k], np.eye(2)[j]))
    return Channel(tuple(ks))


class TestConverseBound:
    def test_exact_reduced_dynamics_recovers_data_processing(self):
        # identity interaction with E = id: eps = 0, so I(R;Q') <= I(R;Q)
        rng = stream(54, 0)
        config = random_config(rng)
        v = Interaction(np.eye(4), (2, 2), (2, 2))
        rep = converse_bound(reduced_dynamics(config, v), eps=0.0, channel=Channel((np.eye(2),)))
        assert rep.aux["eps_measured"] <= 1e-12
        assert not rep.aux["vacuous"]
        assert rep.aux["dp_budget"] - rep.aux["dp_lhs_mutual_info"] >= -1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_pipeline_bound_holds(self, seed):
        rng = stream(54, 1, seed)
        config = random_config(rng)
        v = unitary_interaction(rng)
        rep = converse_bound(reduced_dynamics(config, v), eps=1.0)
        assert rep.slack >= -1e-8

    def test_poor_candidate_still_bounded(self):
        rng = stream(54, 2)
        config = random_config(rng)
        v = unitary_interaction(rng)
        fixed = replace_with_fixed_state(random_density(2, 2, rng).matrix)
        rep = converse_bound(reduced_dynamics(config, v), eps=1.0, channel=fixed)
        assert rep.slack >= -1e-8
        assert rep.aux["eps_measured"] > 0.05

    def test_vacuous_flag_when_budget_exceeded(self):
        rng = stream(54, 3)
        config = random_config(rng)
        v = unitary_interaction(rng)
        fixed = replace_with_fixed_state(np.eye(2) / 2)
        rep = converse_bound(reduced_dynamics(config, v), eps=1e-6, channel=fixed)
        assert rep.aux["vacuous"]

    def test_reuses_the_forward_derivation(self, monkeypatch):
        # one evolved state, one Q -> QE recovery and one I(R;E|Q) per
        # (configuration, V), shared by the forward and converse rows; the
        # forward candidate given explicitly gives the same report
        rng = stream(54, 5)
        config = random_config(rng)
        v = unitary_interaction(rng)
        calls = []
        for name in ("_evolved", "_integrated_recovery_stack", "_cmi_stack"):
            real = getattr(cpdp, name)
            monkeypatch.setattr(cpdp, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
        forward = reduced_dynamics(config, v)
        rep = converse_bound(forward, eps=1.0)
        assert sorted(calls) == ["_cmi_stack", "_evolved", "_integrated_recovery_stack"]
        assert converse_bound(forward, eps=1.0, channel=forward.channel) == rep

    def test_eps_outside_unit_interval_rejected(self):
        rng = stream(54, 4)
        config = random_config(rng)
        v = unitary_interaction(rng)
        with pytest.raises(ValueError):
            converse_bound(reduced_dynamics(config, v), eps=1.5, channel=Channel((np.eye(2),)))


def test_afw_bound_zero_and_monotone():
    assert afw_bound(0.0, 2) == 0.0
    values = [afw_bound(e, 2) for e in (0.01, 0.1, 0.5, 1.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
