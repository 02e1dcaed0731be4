"""Stacked check cores against the per-instance check bodies in ``oracles``.

Each family's instances are finished from raw draws, and its rows computed,
once per shape group on stacks (see ``campaigns``); every finished instance
must carry the bits of the per-trial draw in ``oracles``, and every row the
bits that the per-instance body gives its instance alone.  The instances mix
shapes and the numerical edge cases that change a core's internal shapes:
rank-deficient sigma, N(sigma) with a kernel, recoveries of different Kraus
counts in one stack, and an outcome below ``PROB_FLOOR``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrecovery import campaigns, cpdp, qcore, recovery, theorems
from qrecovery.campaigns import CampaignConfig, SUITES, run_suite
from qrecovery.entropy import entropy, rel_entropy, root_fidelity
from qrecovery.qcore import (
    Channel,
    DensityOperator,
    Ensemble,
    Instrument,
    _padded,
    instrument_channel,
    purify,
    random_channel,
    random_density,
    random_instrument,
    random_isometry,
    random_mixed_unitary_channel,
    random_povm,
    random_subunital_channel,
    random_unitary,
    stream,
)
from qrecovery.recovery import QuadratureSpec, adjoint_recovery, integrated_recovery
from qrecovery.reports import dumps_json

import oracles

SEEDS = st.integers(0, 2**32 - 1)


def bits(rep) -> str:
    """Name, lhs, rhs, dims and aux of a report, with every float's bits."""
    return dumps_json([rep.name, rep.lhs, rep.rhs, list(rep.dims), rep.aux])


def run(core, instances):
    """A core's first row for every instance, through the campaign's grouping."""
    return [reps[0] if isinstance(reps, list) else reps for reps in campaigns._each(core, instances)]


def assert_same(rows, expected):
    assert [bits(r) for r in rows] == [bits(r) for r in expected]


def two_level_gap_channel(rng) -> Channel:
    """A subunital 2 -> 4 channel of three Kraus operators whose N(I) has
    three gap directions, where a random one of the same shape has two."""
    ks = [np.zeros((4, 2)) for _ in range(3)]
    ks[0][0, 0] = 1.0
    ks[1][1, 1] = ks[2][2, 1] = np.sqrt(0.5)
    u, w = random_unitary(4, rng), random_unitary(2, rng)
    return Channel(tuple(u @ k @ w for k in ks))


def same_arrays(arrays, expected) -> bool:
    """Equal shapes and equal bits, array by array."""
    return len(arrays) == len(expected) and all(
        np.shape(a) == np.shape(e) and np.asarray(a).tobytes() == np.asarray(e).tobytes()
        for a, e in zip(arrays, expected)
    )


def stack_of(instr) -> np.ndarray:
    return _padded([m.stack for m in instr.maps])


# kind -> (raw draw, finishing step, public constructor, per-object oracle),
# each a function of (rng, d, n, k, r, efficient)
RANDOM_KINDS = {
    "density": (lambda rng, d, n, k, r, e: qcore._ginibre(rng, (d, r)), qcore._densities,
                lambda rng, d, n, k, r, e: random_density(d, r, rng).matrix,
                lambda rng, d, n, k, r, e: oracles.random_density_oracle(d, r, rng).matrix),
    "isometry": (lambda rng, d, n, k, r, e: qcore._ginibre(rng, (d + k - 1, d)), qcore._haar_isometries,
                 lambda rng, d, n, k, r, e: random_isometry(d, d + k - 1, rng), None),
    "channel": (lambda rng, d, n, k, r, e: qcore._channel_draw(rng, d, n, k), qcore._channel_kraus,
                lambda rng, d, n, k, r, e: random_channel(d, n, k, rng).stack,
                lambda rng, d, n, k, r, e: oracles.random_channel_oracle(d, n, k, rng).stack),
    "povm": (lambda rng, d, n, k, r, e: qcore._ginibre(rng, (n, d, d)), qcore._povm_elements,
             lambda rng, d, n, k, r, e: np.stack(random_povm(d, n, rng)),
             lambda rng, d, n, k, r, e: np.stack(oracles.random_povm_oracle(d, n, rng))),
    "instrument": (lambda rng, d, n, k, r, e: qcore._instrument_draw(rng, d, n, e), qcore._instrument_outcomes,
                   lambda rng, d, n, k, r, e: stack_of(random_instrument(d, n, e, rng)),
                   lambda rng, d, n, k, r, e: stack_of(oracles.random_instrument_oracle(d, n, e, rng))),
    "mixed-unitary": (lambda rng, d, n, k, r, e: qcore._mixed_unitary_draw(rng, d, n), qcore._mixed_unitary_kraus,
                      lambda rng, d, n, k, r, e: random_mixed_unitary_channel(d, n, rng).stack,
                      lambda rng, d, n, k, r, e: oracles.random_mixed_unitary_channel_oracle(d, n, rng).stack),
    "subunital": (lambda rng, d, n, k, r, e: qcore._subunital_draw(rng, d, d + k - 1), qcore._subunital_kraus,
                  lambda rng, d, n, k, r, e: random_subunital_channel(d, d + k - 1, rng).stack,
                  lambda rng, d, n, k, r, e: oracles.random_subunital_channel_oracle(d, d + k - 1, rng).stack),
}


class TestRandomFinish:
    @pytest.mark.parametrize("kind", list(RANDOM_KINDS))
    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS)
    def test_public_random_is_its_stacked_finish(self, kind, seed):
        # raw draws of mixed shapes finished per shape group, as the campaign
        # finishes them, against the public constructor's one object and the
        # per-object oracle; the three take fresh streams of one path, so all
        # see the same numbers.  d cycles through 1..3, so every kind mixes
        # shapes, and instruments alternate efficient and not
        draw, finish, public, oracle = RANDOM_KINDS[kind]
        rng = stream(74, seed)
        params = []
        for i in range(12):
            d, k = 1 + i % 3, int(rng.integers(1, 4))
            n = max(int(rng.integers(1, 4)), -(-d // k))  # the channel's output needs n k >= d
            params.append((i, (d, n, k, int(rng.integers(1, d + 1)), bool(i % 2))))
        finished = campaigns._each(finish, [draw(stream(75, seed, i), *p) for i, p in params])
        assert same_arrays(finished, [public(stream(75, seed, i), *p) for i, p in params])
        if oracle is not None:
            assert same_arrays(finished, [oracle(stream(75, seed, i), *p) for i, p in params])


def instance_bits(inst) -> list:
    """The shapes and bytes of the arrays of a family instance."""
    return [(np.shape(part), np.asarray(part).tobytes()) for part in inst]


@pytest.mark.parametrize("suite", [s for s in SUITES if s != "bosonic"])
@pytest.mark.parametrize("seed, dims, isometric", [(3, (2, 4), False), (29, (2, 2), True), (41, (3, 3), False)])
def test_family_instances_equal_per_trial_draws(monkeypatch, suite, seed, dims, isometric):
    # every family's instances, drawn raw trial by trial and finished per
    # shape group, equal the per-trial draws of oracles.FAMILY_DRAW_ORACLES
    cfg = CampaignConfig(master_seed=seed, dims=dims, trials={suite: 24}, cpdp_isometric=isometric)
    seen = []

    def checked(cfg_, suite_, family, n, draw, finish, rows):
        streams = list(campaigns._trials(cfg_, suite_, family, n))
        got = finish([draw(rng) for _, rng in streams])
        oracle = oracles.FAMILY_DRAW_ORACLES[(suite_, family)]
        want = [oracle(cfg_, rng) for _, rng in campaigns._trials(cfg_, suite_, family, n)]
        assert [instance_bits(i) for i in got] == [instance_bits(i) for i in want], (suite_, family)
        seen.append(family)
        return []

    monkeypatch.setattr(campaigns, "_family", checked)
    list(campaigns._RUNNERS[suite](cfg))
    assert seen == sorted(k[1] for k in oracles.FAMILY_DRAW_ORACLES if k[0] == suite)


class TestPrimitives:
    @settings(max_examples=15, deadline=None)
    @given(SEEDS, st.sampled_from([2, 9, 70]))
    def test_entropies_row_by_row(self, seed, dim):
        # mixed ranks give each row its own support; 9 and 70 kept terms are
        # summed pairwise, and 70 columns exceed one 64-bit mask word
        rng = stream(71, seed)
        rhos = np.stack([random_density(dim, int(rng.integers(1, dim + 1)), rng).matrix for _ in range(5)])
        sigmas = np.stack([random_density(dim, dim, rng).matrix for _ in range(5)])
        stacked = rel_entropy(rhos, sigmas)
        fids = root_fidelity(rhos, sigmas)
        for i in range(5):
            assert float(entropy(rhos)[i]).hex() == entropy(rhos[i]).hex()
            single = rel_entropy(rhos[i], sigmas[i])
            assert (float(stacked.value[i]).hex(), float(stacked.support_violation[i]).hex()) == (
                single.value.hex(), single.support_violation.hex())
            assert float(fids[i]).hex() == float(root_fidelity(rhos[i], sigmas[i])).hex()

    @settings(max_examples=15, deadline=None)
    @given(SEEDS)
    def test_measure_and_instrument_channel(self, seed):
        for rho, instr in instrument_instances(seed):
            probs, posts = oracles.instrument_measure(instr, rho.matrix)
            want_probs, want_posts = oracles.measure_oracle(instr, rho.matrix)
            assert probs.tobytes() == want_probs.tobytes()
            assert [p is None for p in posts] == [p is None for p in want_posts]
            assert same_arrays([p for p in posts if p is not None], [p for p in want_posts if p is not None])
            assert same_arrays(instrument_channel(instr).kraus, oracles.instrument_channel_oracle(instr).kraus)

    @settings(max_examples=15, deadline=None)
    @given(SEEDS)
    def test_measure_on_a_factor_and_purify(self, seed):
        for rho, instr in instrument_instances(seed):
            phi = purify(rho)
            assert phi.vector.tobytes() == oracles.purify_oracle(rho).vector.tobytes()
            args = (phi.projector(), phi.systems, "A", (("A'", instr.out_dim),))
            probs, posts = oracles.instrument_measure(instr, *args)
            want_probs, want_posts = oracles.measure_oracle(instr, *args)
            assert probs.tobytes() == want_probs.tobytes()
            assert same_arrays([p for p in posts if p is not None], [p for p in want_posts if p is not None])

    @settings(max_examples=15, deadline=None)
    @given(SEEDS)
    def test_integrated_recovery_stack(self, seed):
        # one stack whose pairs differ in the support sizes of sigma and N(sigma)
        instances = recovery_instances(seed)
        two = [inst for inst in instances if inst[1].shape == (2, 2) and inst[2].shape[1] == 3]
        assert two
        expected = [oracles.integrated_recovery_oracle(sigma, Channel(tuple(ks))).kraus for _, sigma, ks in two]
        for (_, sigma, ks), want in zip(two, expected):
            assert same_arrays(integrated_recovery(sigma, Channel(tuple(ks))).kraus, want)
        sigmas = np.stack([sigma for _, sigma, _ in two])
        stack = _padded([ks for _, _, ks in two])
        n_sigmas = np.stack([Channel(tuple(ks)).apply(sigma) for _, sigma, ks in two])
        for got, want in zip(recovery._integrated_recovery_stack(sigmas, stack, n_sigmas), expected):
            assert same_arrays(got, want)

    @settings(max_examples=15, deadline=None)
    @given(SEEDS)
    def test_adjoint_recovery_stack_pads_missing_completions(self, seed):
        rng = stream(68, seed)
        channels = [two_level_gap_channel(rng) if i % 2 else random_subunital_channel(2, 4, rng)
                    for i in range(4)]
        expected = [oracles.adjoint_recovery_oracle(c).kraus for c in channels]
        for c, want in zip(channels, expected):
            assert same_arrays(adjoint_recovery(c).kraus, want)
        # a map with fewer gap directions gets zero operators where the
        # others have their first completion terms
        stacked = recovery._adjoint_recovery_stack(np.stack([c.stack for c in channels]))
        assert len({len(want) for want in expected}) > 1
        for got, want in zip(stacked, expected):
            assert same_arrays([k for k in got if k.any()], want)

    @settings(max_examples=15, deadline=None)
    @given(SEEDS)
    def test_completion_kraus(self, seed):
        rng = stream(69, seed)
        dirs = np.stack([random_unitary(3, rng)[:, :2] for _ in range(3)])
        weights = rng.random((3, 2))
        weights[0, 1] = 0.0
        got = recovery._completion_kraus(dirs, weights, 2)
        for i in range(3):
            assert same_arrays(got[i], oracles.completion_kraus_oracle(dirs[i], weights[i], 2))


class TestEntropyGainFamilies:
    @settings(max_examples=15, deadline=None)
    @given(SEEDS)
    def test_random_channel_rows(self, seed):
        rng = stream(60, seed)
        cases = []
        for _ in range(8):
            d = int(rng.integers(2, 5))
            rho = random_density(d, int(rng.integers(1, d + 1)), rng)
            cases.append((rho, random_channel(d, d, int(rng.integers(1, 5)), rng)))
        instances = [(r.matrix, c.stack) for r, c in cases]
        assert_same(run(theorems._entropy_gain_stack, instances),
                    [theorems.check_entropy_gain(r, c) for r, c in cases])

    @settings(max_examples=15, deadline=None)
    @given(SEEDS)
    def test_recovery_rows_with_padded_completions(self, seed):
        rng = stream(61, seed)
        channels = [two_level_gap_channel(rng) if i % 2 else random_subunital_channel(2, 4, rng)
                    for i in range(6)]
        channels += [random_subunital_channel(3, 4, rng) for _ in range(2)]
        rhos = [random_density(c.in_dim, int(rng.integers(1, c.in_dim + 1)), rng) for c in channels]
        instances = [(r.matrix, c.stack) for r, c in zip(rhos, channels)]
        assert_same(run(theorems._entropy_gain_recovery_stack, instances),
                    [oracles.entropy_gain_recovery_oracle(r, c) for r, c in zip(rhos, channels)])

    @settings(max_examples=15, deadline=None)
    @given(SEEDS)
    def test_conditional_rows(self, seed):
        rng = stream(62, seed)
        rhos = [DensityOperator((("A", 2), ("B", 2)), random_density(4, int(rng.integers(1, 5)), rng).matrix)
                for _ in range(8)]
        channels = [random_channel(2, 2, int(rng.integers(1, 4)), rng) for _ in rhos]
        instances = [(r.matrix, c.stack) for r, c in zip(rhos, channels)]
        assert_same(run(lambda rho, ks: theorems._cond_entropy_gain_stack(rho, ks, (2, 2)), instances),
                    [oracles.cond_entropy_gain_oracle(r, c) for r, c in zip(rhos, channels)])


def recovery_instances(seed):
    """Campaign recovery draws (a quarter with rank-deficient sigma), plus
    isometric 2 -> 3 channels, whose N(sigma) has a kernel."""
    rng = stream(63, seed)
    instances = [oracles.recovery_instance_oracle(rng, 2, 3) for _ in range(10)]
    for _ in range(3):
        sigma = random_density(2, int(rng.integers(1, 3)), rng)
        rho = sigma if sigma.eigenvalues[0] < 1e-12 else random_density(2, 2, rng)
        instances.append((rho.matrix, sigma.matrix, random_channel(2, 3, 1, rng).stack))
    return instances


class TestRecoveryFamilies:
    @settings(max_examples=15, deadline=None)
    @given(SEEDS)
    def test_fidelity_rows(self, seed):
        instances = recovery_instances(seed)
        expected = [oracles.recovery_fid_oracle(rho, sigma, Channel(tuple(ks)))
                    for rho, sigma, ks in instances]
        assert_same(run(theorems._recovery_fid_stack, instances), expected)

    @settings(max_examples=5, deadline=None)
    @given(SEEDS)
    def test_stronger_rows(self, seed):
        quad = QuadratureSpec(nodes=21)
        instances = recovery_instances(seed)
        expected = [oracles.recovery_stronger_oracle(rho, sigma, Channel(tuple(ks)), quad)
                    for rho, sigma, ks in instances]
        core = lambda rho, sigma, ks: theorems._recovery_stronger_stack(rho, sigma, ks, quad)  # noqa: E731
        assert_same(run(core, instances), expected)

    @settings(max_examples=15, deadline=None)
    @given(SEEDS)
    def test_petz_fixed_point_rows(self, seed):
        instances = recovery_instances(seed)
        expected = [
            campaigns._deviation_report("petz-fixed-point",
                                        oracles.petz_fixed_point_oracle(sigma, Channel(tuple(ks))),
                                        (sigma.shape[0], ks.shape[1]))
            for _, sigma, ks in instances
        ]
        assert_same(run(campaigns._petz_fixed_point_rows, instances), expected)

    @settings(max_examples=10, deadline=None)
    @given(SEEDS)
    def test_cmi_rows(self, seed):
        rng = stream(64, seed)
        mats = [random_density(8, int(rng.integers(1, 9)), rng).matrix for _ in range(6)]
        mats += [oracles.markov_state_oracle(rng)[0] for _ in range(3)]
        states = [DensityOperator((("A", 2), ("B", 2), ("C", 2)), m) for m in mats]
        rows = run(lambda rho: theorems._cmi_recovery_stack(rho, (2, 2, 2)), [(m,) for m in mats])
        assert_same(rows, [oracles.cmi_recovery_oracle(s) for s in states])


def instrument_instances(seed, efficient=None):
    """(rho, instrument) pairs of mixed dimension, outcome count, rank and
    efficiency, and one projective measurement with an outcome of
    probability below ``PROB_FLOOR`` on its pure input."""
    rng = stream(65, seed)
    pairs = []
    for _ in range(10):
        d = int(rng.integers(2, 4))
        eff = bool(rng.integers(2)) if efficient is None else efficient
        instr = random_instrument(d, int(rng.integers(2, 4)), eff, rng)
        pairs.append((random_density(d, int(rng.integers(1, d + 1)), rng), instr))
    basis = random_unitary(2, rng)
    projs = [np.outer(basis[:, x], basis[:, x].conj()) for x in range(2)]
    instr = Instrument(tuple((random_unitary(2, rng) @ p,) for p in projs))
    pairs.append((DensityOperator((("A", 2),), projs[0]), instr))
    return pairs


def as_instance(pair):
    rho, instr = pair
    return rho.matrix, theorems._outcome_stack(instr)


class TestInfoGainFamilies:
    @settings(max_examples=15, deadline=None)
    @given(SEEDS)
    def test_upper_rows_and_gains(self, seed):
        pairs = instrument_instances(seed)
        instances = [as_instance(p) for p in pairs]
        assert_same(run(theorems._info_gain_upper_stack, instances),
                    [oracles.info_gain_upper_oracle(i, r) for r, i in pairs])
        gains = run(theorems._groenewold_gains, instances)
        assert [float(g).hex() for g in gains] == [oracles.groenewold_gain_oracle(i, r).hex() for r, i in pairs]

    @settings(max_examples=15, deadline=None)
    @given(SEEDS)
    def test_no_qsi_rows(self, seed):
        pairs = instrument_instances(seed)
        assert_same(run(theorems._info_gain_no_qsi_stack, [as_instance(p) for p in pairs]),
                    [oracles.info_gain_no_qsi_oracle(i, r) for r, i in pairs])

    @settings(max_examples=15, deadline=None)
    @given(SEEDS)
    def test_second_law_rows(self, seed):
        pairs = instrument_instances(seed, efficient=True)
        assert_same(run(theorems._efficient_second_law_stack, [as_instance(p) for p in pairs]),
                    [oracles.efficient_second_law_oracle(i, r) for r, i in pairs])

    def test_below_floor_outcome_is_dropped(self):
        rho, instr = instrument_instances(0)[-1]
        probs, posts = oracles.instrument_measure(instr, rho.matrix)
        assert probs[1] <= theorems.PROB_FLOOR and posts[1] is None


class TestInfoGainQsiFamily:
    @settings(max_examples=5, deadline=None)
    @given(SEEDS)
    def test_rows(self, seed):
        # purification ranks 1 to 4, efficient and inefficient instruments,
        # and a projective measurement with an outcome of probability 0
        quad = QuadratureSpec(nodes=21)
        rng = stream(70, seed)
        pairs = []
        for rank in (1, 2, 3, 4, 4, 2):
            rho_ab = DensityOperator((("A", 2), ("B", 2)), random_density(4, rank, rng).matrix)
            pairs.append((rho_ab, random_instrument(2, int(rng.integers(2, 4)), bool(rank % 2), rng)))
        z = Instrument(((np.diag([1.0, 0.0]),), (np.diag([0.0, 1.0]),)))
        pure_a = np.kron(np.diag([1.0, 0.0]), random_density(2, 2, rng).matrix)
        pairs.append((DensityOperator((("A", 2), ("B", 2)), pure_a), z))
        instances = [(r.matrix, theorems._outcome_stack(i)) for r, i in pairs]
        core = lambda rho, kx: theorems._info_gain_qsi_stack(rho, kx, (2, 2), quad)  # noqa: E731
        assert_same(run(core, instances), [oracles.info_gain_qsi_oracle(i, r, quad) for r, i in pairs])


class TestDisturbanceFamily:
    @settings(max_examples=15, deadline=None)
    @given(SEEDS)
    def test_rows(self, seed):
        rng = stream(66, seed)
        cases = []
        for _ in range(10):
            d, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            # rank-one members make a rank-deficient average, the recovery's sigma
            states = tuple(random_density(d, int(rng.integers(1, d + 1)), rng) for _ in range(m))
            ens = Ensemble(rng.dirichlet(np.ones(m)), states)
            cases.append((ens, random_channel(d, d, int(rng.integers(1, 4)), rng)))
        instances = [(e.probs, np.stack([s.matrix for s in e.states]), c.stack) for e, c in cases]
        assert_same(run(theorems._entropic_disturbance_stack, instances),
                    [oracles.entropic_disturbance_oracle(e, c) for e, c in cases])


@pytest.mark.parametrize("suite", [s for s in SUITES if s != "bosonic"])
def test_row_depends_only_on_its_own_trial(suite):
    # the rows of a 7-trial run are the default run's rows of those trials;
    # the info-gain pure-input witness is numbered by the trial count
    default_cfg, short_cfg = CampaignConfig(master_seed=17), CampaignConfig(master_seed=17, trials={suite: 7})

    def keyed(rows, n):
        out = {}
        for row in rows:
            if (row["check"], row["trial"]) == ("info-gain-upper", n):
                out["witness"] = dumps_json({**row, "trial": None})
            else:
                out[(row["check"], row["trial"])] = dumps_json(row)
        return out

    full = keyed(run_suite(default_cfg, suite), default_cfg.n_trials(suite))
    short = keyed(run_suite(short_cfg, suite), 7)
    assert short and all(full[k] == v for k, v in short.items())


def cpdp_arrays(configs, interactions):
    """The stacks of states and of isometries of lists of configurations and
    interactions, and the dimensions the stacked cores take."""
    state = np.stack([c.state.matrix for c in configs])
    vs = np.stack([v.matrix for v in interactions])
    return state, vs, configs[0].dims, interactions[0].out_dims


class TestCpdpFamily:
    @settings(max_examples=10, deadline=None)
    @given(SEEDS, st.booleans())
    def test_forward_and_converse_rows(self, seed, isometric):
        cfg = CampaignConfig(cpdp_isometric=isometric)
        rng = stream(67, seed)
        configs = [oracles.random_config_oracle(rng) for _ in range(6)]
        interactions = [oracles.draw_interaction_oracle(cfg, rng) for _ in configs]
        state, vs, dims, out_dims = cpdp_arrays(configs, interactions)
        kraus, reports, *forward = cpdp._reduced_dynamics_stack(state, vs, dims, out_dims)
        converse = cpdp._converse_stack(state, dims, reports, *forward, 1.0)
        expected = [oracles.reduced_dynamics_oracle(c, v) for c, v in zip(configs, interactions)]
        assert_same(reports, [f.report for f in expected])
        assert same_arrays(kraus, [f.channel.stack for f in expected])
        assert_same(converse, [oracles.converse_bound_oracle(f, eps=1.0) for f in expected])

    @settings(max_examples=10, deadline=None)
    @given(SEEDS)
    def test_embedding_slacks(self, seed):
        # a stack of the campaign's identity embeddings, and one of random interactions
        rng = stream(72, seed)
        configs = [oracles.random_config_oracle(rng) for _ in range(6)]
        for interactions in ([cpdp.identity_embedding(2, 2)] * 6,
                             [oracles.draw_interaction_oracle(CampaignConfig(), rng) for _ in configs]):
            slacks = cpdp._dp_slacks(*cpdp_arrays(configs, interactions))
            expected = [oracles.dp_slack_oracle(c, v) for c, v in zip(configs, interactions)]
            assert [float(x).hex() for x in slacks] == [x.hex() for x in expected]
