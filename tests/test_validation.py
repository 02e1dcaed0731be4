"""Validation at the boundary: the public constructors' checks, the derived
construction sites that skip them, and the stacked kernels behind both."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from qrecovery import campaigns
from qrecovery.campaigns import CampaignConfig
from qrecovery.cpdp import Interaction, TripartiteConfiguration, reduced_dynamics
from qrecovery.entropy import rel_entropy, root_fidelity
from qrecovery.matfun import NonFiniteError, NonHermitianError, eig_hermitian
from qrecovery.qcore import (
    Channel,
    DensityOperator,
    DimensionMismatchError,
    Ensemble,
    Instrument,
    KrausMap,
    TransferMap,
    _derived,
    adjoint,
    compose,
    instrument_channel,
    lift,
    partial_trace,
    partial_trace_channel,
    permute,
    random_channel,
    random_density,
    random_instrument,
    random_isometry,
    random_mixed_unitary_channel,
    random_subunital_channel,
    stream,
)
from qrecovery.theorems import _recover_abc_stack

import oracles

NON_HERMITIAN = np.array([[0.5, 0.3], [0.0, 0.5]])


def _ginibre(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestPublicChecks:
    """Each public constructor rejects invalid input with its typed error."""

    def test_density_operator_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            DensityOperator((("A", 2),), NON_HERMITIAN)

    @pytest.mark.parametrize("matrix", [np.eye(2), np.eye(2) / 4])
    def test_density_operator_rejects_trace_other_than_one(self, matrix):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator((("A", 2),), matrix)

    def test_density_operator_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="PSD"):
            DensityOperator((("A", 2),), np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("systems", [(("A", 3),), (("A", 2), ("B", 2))])
    def test_density_operator_rejects_wrong_shape(self, systems):
        with pytest.raises(DimensionMismatchError):
            DensityOperator(systems, np.eye(2) / 2)

    def test_instrument_rejects_trace_increasing_outcome(self):
        with pytest.raises(ValueError, match="trace-increasing"):
            Instrument(((1.2 * np.eye(2),), (np.zeros((2, 2)),)))

    def test_instrument_rejects_outcomes_not_summing_to_a_channel(self):
        with pytest.raises(ValueError, match="trace-preserving"):
            Instrument(((np.diag([1.0, 0.0]),), (np.diag([0.0, 0.5]),)))

    def test_ensemble_through_a_trace_halving_channel_raises(self):
        ens = Ensemble(np.array([1.0]), (random_density(2, 2, stream(41, 0)),))
        with pytest.raises(ValueError, match="trace"):
            ens.through(Channel((np.eye(2) / np.sqrt(2),)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda bad: DensityOperator((("A", 2),), np.diag([bad, 1.0])),
            lambda bad: DensityOperator((("A", 2),), [[0.5, bad], [0.0, 0.5]]),
            lambda bad: KrausMap((np.diag([bad, 1.0]),)),
            lambda bad: Channel((np.diag([bad, 1.0]),)),
            lambda bad: Instrument(((np.diag([bad, 1.0]),),)),
            lambda bad: Interaction(np.diag([bad, 1.0, 1.0, 1.0]), (2, 2), (2, 2)),
            lambda bad: eig_hermitian(np.diag([bad, 1.0])),
            lambda bad: eig_hermitian(np.stack([np.eye(2), np.diag([bad, 1.0])])),
            lambda bad: Ensemble([bad, 1.0], (random_density(2, 2, stream(41, 2)),) * 2),
            lambda bad: TransferMap(np.diag([bad, 1.0, 1.0, 1.0]), 2, 2),
        ],
        ids=["state-diagonal", "state-off-diagonal", "kraus-map", "channel", "instrument",
             "interaction", "eig-hermitian", "eig-hermitian-stack", "ensemble", "transfer-map"],
    )
    def test_non_finite_entries_rejected(self, build, bad):
        # RuntimeWarning is an error under pytest, so this also shows that no
        # arithmetic ran on the bad entry before it was rejected
        with pytest.raises(NonFiniteError):
            build(bad)

    @pytest.mark.parametrize("fn", [rel_entropy, root_fidelity])
    def test_entropy_functionals_reject_non_hermitian_operands(self, fn):
        rho = random_density(2, 2, stream(41, 1)).matrix
        with pytest.raises(NonHermitianError):
            fn(NON_HERMITIAN, rho)
        with pytest.raises(NonHermitianError):
            fn(rho, NON_HERMITIAN)


def _revalidate(obj):
    """Run an object through its public constructor, i.e. the full validator."""
    if isinstance(obj, DensityOperator):
        again = DensityOperator(obj.systems, obj.matrix)
        npt.assert_array_equal(again.matrix, obj.matrix)
    elif isinstance(obj, Instrument):
        Instrument([m.kraus for m in obj.maps])
    elif isinstance(obj, Channel):
        Channel(obj.kraus)
    elif isinstance(obj, Interaction):
        Interaction(obj.matrix, obj.in_dims, obj.out_dims)
    else:
        KrausMap(obj.kraus)


class TestDerivedSitesPassTheValidator:
    """Every site that skips ``_validate`` returns what the validator accepts."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d_a=st.integers(1, 4), d_b=st.integers(1, 3))
    def test_states(self, seed, d_a, d_b):
        rng = stream(seed, 0)
        rho_a = random_density(d_a, int(rng.integers(1, d_a + 1)), rng)
        rho = DensityOperator(
            (("A", d_a), ("B", d_b)), random_density(d_a * d_b, None, rng).matrix
        )
        probs = rng.dirichlet(np.ones(3))
        members = tuple(random_density(d_a, None, rng) for _ in range(3))
        rqe = (("R", d_b), ("Q", d_a), ("E", d_b))
        config = TripartiteConfiguration(
            DensityOperator(rqe, random_density(d_a * d_b * d_b, None, rng).matrix)
        )
        d_q_out = int(rng.integers(1, 4))
        d_e_out = -(-d_a * d_b // d_q_out) + int(rng.integers(0, 2))
        v = Interaction(
            random_isometry(d_a * d_b, d_q_out * d_e_out, rng), (d_a, d_b), (d_q_out, d_e_out)
        )
        abc = (("A", d_a), ("B", d_b), ("C", d_b))
        d_abc = d_a * d_b * d_b
        rank = int(rng.integers(1, d_abc + 1))  # a rank-deficient marginal exercises the completion
        rho_abc = DensityOperator(abc, random_density(d_abc, rank, rng).matrix)
        forward = reduced_dynamics(config, v)
        for out in (
            rho_a,
            partial_trace(rho, "A"),
            partial_trace(rho, "B"),
            permute(rho, ("B", "A")),
            Ensemble(probs, members).average(),
            forward.sigma_rqp,
            forward.rho_rq,
            forward.channel,
            forward.recovery,
            _derived(DensityOperator, abc, _recover_abc_stack(rho_abc.matrix[None], (d_a, d_b, d_b))[0]),
        ):
            _revalidate(out)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d_in=st.integers(1, 4),
        d_out=st.integers(1, 4),
        n=st.integers(1, 4),
        efficient=st.booleans(),
    )
    def test_channels_and_instruments(self, seed, d_in, d_out, n, efficient):
        rng = stream(seed, 1)
        env = -(-d_in // d_out) + int(rng.integers(0, 3))
        first = random_channel(d_in, d_out, env, rng)
        second = random_channel(d_out, d_in, -(-d_out // d_in) + n - 1, rng)
        instr = random_instrument(d_in, n + 1, efficient, rng)
        systems = (("L", 2), ("A", d_in), ("R", n))
        for out in (
            first,
            random_mixed_unitary_channel(d_in, n, rng),
            random_subunital_channel(d_in, d_in + n - 1, rng),
            partial_trace_channel(systems, ("L", "R")),
            partial_trace_channel(systems, "A"),
            instrument_channel(instr),
            compose(second, first),
            lift(first, systems, "A", (("A'", d_out),))[0],
            lift(adjoint(first), (("L", 2), ("B", d_out)), "B", (("A", d_in),))[0],
            adjoint(first),
            instr,
            instr.maps[0],
        ):
            _revalidate(out)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), isometric=st.booleans())
    def test_campaign_configurations_and_interactions(self, seed, isometric):
        # the cpdp families finish their draws into arrays that the public
        # constructors accept as states on (R, Q, E) and interactions V: QE -> Q'E'
        cfg = CampaignConfig(master_seed=seed, trials={"cpdp": 4}, cpdp_isometric=isometric)
        out_dims = (2, 4) if isometric else (2, 2)
        finished = []
        for fam in campaigns.FAMILIES:
            if fam.suite == "cpdp":
                trials = range(oracles.family_trials(cfg, fam))
                finished += fam.finish([oracles.family_draw(cfg, fam, t) for t in trials])
        assert len(finished) == 12
        for state, *v in finished:
            DensityOperator((("R", 2), ("Q", 2), ("E", 2)), state)
            for mat in v:
                Interaction(mat, (2, 2), out_dims)


def _loop_apply(ks, x):
    out = np.zeros((ks.shape[1], ks.shape[1]), dtype=complex)
    for k in ks:
        out += k @ x @ k.conj().T
    return out


def _loop_gram(ks):
    out = np.zeros((ks.shape[2], ks.shape[2]), dtype=complex)
    for k in ks:
        out += k.conj().T @ k
    return out


class TestStackedKernels:
    """The stacked kernels give exactly the bits of the per-operator loops."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d_in=st.integers(1, 6),
        d_out=st.integers(1, 6),
        n_kraus=st.integers(1, 5),
    )
    def test_kraus_apply_and_gram_match_the_loop(self, seed, d_in, d_out, n_kraus):
        rng = stream(seed, 2)
        ks = _ginibre(rng, (n_kraus, d_out, d_in))
        x = _ginibre(rng, (d_in, d_in))
        m = KrausMap(tuple(ks))
        assert np.array_equal(m.apply(x), _loop_apply(ks, x))
        assert np.array_equal(m.kraus_gram(), _loop_gram(ks))

    @pytest.mark.parametrize("n_kraus", [8, 9, 40])
    def test_single_entry_terms_add_in_kraus_order(self, n_kraus):
        # 1 x 1 terms are where sum(axis=0) would pair terms up
        ks = _ginibre(stream(42, n_kraus), (n_kraus, 1, 3))
        x = _ginibre(stream(43, n_kraus), (3, 3))
        assert np.array_equal(KrausMap(tuple(ks)).apply(x), _loop_apply(ks, x))
        adj = ks.conj().swapaxes(1, 2)
        assert np.array_equal(adjoint(KrausMap(tuple(ks))).kraus_gram(), _loop_gram(adj))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), n=st.integers(1, 5))
    def test_stacked_eig_hermitian_matches_each_matrix(self, seed, d, n):
        g = _ginibre(stream(seed, 3), (n, d, d))
        stack = g @ g.conj().swapaxes(1, 2)
        spec = eig_hermitian(stack)
        powers = spec.power(0.5)
        for i, h in enumerate(stack):
            one = eig_hermitian(h)
            assert np.array_equal(spec[i].eigenvalues, one.eigenvalues)
            assert np.array_equal(spec[i].eigenvectors, one.eigenvectors)
            assert np.array_equal(powers[i], one.power(0.5))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), n=st.integers(1, 5))
    def test_stacked_root_fidelity_matches_each_pair(self, seed, d, n):
        rng = stream(seed, 4)
        ps = np.stack([random_density(d, None, rng).matrix for _ in range(n)])
        qs = np.stack([random_density(d, None, rng).matrix for _ in range(n)])
        fids = root_fidelity(ps, qs)
        assert fids.shape == (n,)
        for fid, p, q in zip(fids, ps, qs):
            assert fid == root_fidelity(p, q)

    def test_stack_with_one_non_hermitian_matrix_raises(self):
        stack = np.stack([np.eye(2), NON_HERMITIAN])
        with pytest.raises(NonHermitianError):
            eig_hermitian(stack)
