"""Monte Carlo lab: stream discipline, occupancy runs, empirical entropy
concentration, collision curves, recharge sampling, and the two codec-side
experiments."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

import sys

from ehrelay import mclab
from ehrelay import (
    ArrivalModel,
    BatterySpec,
    BinaryChannel,
    BudgetError,
    CodecConfig,
    IntegerPmf,
    JointPmf,
    Pmf,
    RunConfig,
    StatePolicy,
    ValidationError,
    analyze_chain,
    collision_curve,
    collision_experiment,
    empirical_aep,
    markov_entropy_rate,
    pair_chain,
    receiver_smoke_trial,
    relay_codec_trial,
    sample_path,
    simulate_states,
    substream,
    z_empirical,
    z_pmf,
    ZNoise,
)
import conftest
from conftest import (
    WORKED_KERNEL,
    WORKED_PAIR_ENTROPY,
    WORKED_TABLES,
    random_joint_tables,
    relay_codec_oracle,
    sample_path_oracle,
    worked_spec,
    z_empirical_oracle,
)

# sparse-pulse chain whose level sequence reveals every emission: charging is
# sure, the source always fires, and the relay spends only when full
REVEALING_TABLES = [
    np.array([[0.0, 0.0], [1.0, 0.0]]),
    np.array([[0.0, 0.0], [1.0, 0.0]]),
    np.array([[0.0, 0.0], [0.7, 0.3]]),
]
REVEALING_RATE = 0.677916076331302


def worked_chain(ch2=None):
    spec = worked_spec()
    policy = StatePolicy.joint_policy(spec, WORKED_TABLES)
    arrival = ArrivalModel.deterministic()
    analysis = analyze_chain(spec, policy, arrival)
    return pair_chain(spec, policy, arrival, analysis.pi)


def revealing_chain():
    spec = worked_spec()
    policy = StatePolicy.joint_policy(spec, REVEALING_TABLES)
    arrival = ArrivalModel.deterministic()
    analysis = analyze_chain(spec, policy, arrival)
    return pair_chain(spec, policy, arrival, analysis.pi)


class TestSubstream:
    def test_reproducible(self):
        a = substream(7, "alpha", 0).integers(0, 2**32, size=8)
        b = substream(7, "alpha", 0).integers(0, 2**32, size=8)
        assert np.array_equal(a, b)

    def test_index_and_label_decorrelate(self):
        a = substream(7, "alpha", 0).integers(0, 2**32, size=8)
        c = substream(7, "alpha", 1).integers(0, 2**32, size=8)
        d = substream(7, "beta", 0).integers(0, 2**32, size=8)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_wide_seeds_accepted(self):
        gen = substream(2**70 + 5, "alpha", 0)
        assert isinstance(gen, np.random.Generator)

    @pytest.mark.parametrize("seed", [0, 7, -1, 2**63 - 1])
    def test_numpy_integers_draw_the_int_stream(self, seed):
        want = substream(seed, "alpha", 3).random(8)
        for kind in (np.int64, np.uint64) if seed >= 0 else (np.int64,):
            got = substream(kind(seed), "alpha", kind(3)).random(8)
            assert np.array_equal(got, want)


def _lab_runs(cfg: RunConfig) -> dict:
    """Every lab experiment, small, run from ``cfg``."""
    spec = worked_spec()
    policy = StatePolicy.joint_policy(spec, WORKED_TABLES)
    codec = CodecConfig(spec=spec, policy=policy, rate_bits=(0.4,) * 3, slack=0.1)
    ch2 = BinaryChannel(0.9, 0.8)
    return {
        "simulate_states": simulate_states(spec, policy, ArrivalModel.deterministic(), cfg),
        "empirical_aep": empirical_aep(worked_chain(), ch2, cfg),
        "collision_curve": collision_curve(COLLISION_JOINT, 12, (0.2, 0.9), cfg),
        "collision_materialize": collision_curve(COLLISION_JOINT, 12, (0.2, 0.5), cfg,
                                                 method="materialize"),
        "z_empirical": z_empirical(3, 0.3, True, cfg),
        "relay_codec_trial": relay_codec_trial(codec, 2, cfg),
        "receiver_smoke_trial": receiver_smoke_trial(worked_chain(), ch2, 3, cfg),
    }


def _same(a, b) -> bool:
    """Equal field by field, arrays exactly, nested results too."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    return bool(np.array_equal(a, b)) if isinstance(a, np.ndarray) else a == b


def test_numpy_integer_run_configs_give_the_int_results():
    want = _lab_runs(RunConfig(seed=7, n=60, trials=3))
    got = _lab_runs(RunConfig(seed=np.int64(7), n=np.int64(60), trials=np.int64(3)))
    for name, result in want.items():
        assert _same(got[name], result), name


class TestRunConfig:
    def test_step_floor(self):
        with pytest.raises(ValidationError):
            RunConfig(seed=0, n=0)

    def test_step_cap(self):
        with pytest.raises(BudgetError):
            RunConfig(seed=0, n=10**7 + 1)

    def test_trial_floor(self):
        with pytest.raises(ValidationError):
            RunConfig(seed=0, n=10, trials=0)


class TestSimulateStates:
    CHARGE = np.array([[0.0, 0.0], [1.0, 0.0]])

    def test_absorbing_ramp(self):
        spec = worked_spec()
        policy = StatePolicy.joint_policy(spec, [self.CHARGE] * 3)
        occ = simulate_states(spec, policy, ArrivalModel.deterministic(),
                              RunConfig(seed=1, n=50), initial_state=0)
        assert occ.frequencies[2] == pytest.approx(48 / 50, abs=0)
        assert np.allclose(occ.stationary, [0.0, 0.0, 1.0], atol=1e-12)

    def test_single_step_is_an_indicator(self):
        spec = worked_spec()
        policy = StatePolicy.joint_policy(spec, [self.CHARGE] * 3)
        occ = simulate_states(spec, policy, ArrivalModel.deterministic(),
                              RunConfig(seed=1, n=1), initial_state=1)
        assert np.array_equal(occ.frequencies, [0.0, 1.0, 0.0])

    def test_periodic_chain_reports_no_stationary_law(self):
        spec = worked_spec()
        full_spend = np.array([[0.0, 0.0], [0.0, 1.0]])
        policy = StatePolicy.joint_policy(
            spec, [self.CHARGE, self.CHARGE, full_spend])
        occ = simulate_states(spec, policy, ArrivalModel.deterministic(),
                              RunConfig(seed=1, n=100), initial_state=0)
        assert occ.stationary is None
        assert occ.max_deviation is None
        # the two-cycle still splits occupancy evenly across its states
        assert occ.frequencies[1] == pytest.approx(0.5, abs=0.05)

    def test_long_run_tracks_the_stationary_law(self):
        spec = worked_spec()
        policy = StatePolicy.joint_policy(spec, WORKED_TABLES)
        occ = simulate_states(spec, policy, ArrivalModel.deterministic(),
                              RunConfig(seed=3, n=100000))
        assert occ.max_deviation <= 1e-2

    def test_initial_state_bounds(self):
        spec = worked_spec()
        policy = StatePolicy.joint_policy(spec, [self.CHARGE] * 3)
        with pytest.raises(ValidationError):
            simulate_states(spec, policy, ArrivalModel.deterministic(),
                            RunConfig(seed=1, n=10), initial_state=7)


COLLISION_JOINT = JointPmf(np.array([[0.4, 0.1], [0.2, 0.3]]))
COLLISION_RUN = RunConfig(seed=1, n=10, trials=5)
NAN = float("nan")


# (call, error, text its message must hold): each input branch raises its documented error
BAD_INPUTS = {
    "sample-path-non-square": (lambda: sample_path([[0.5, 0.5]], 0, 4, substream(0, "path")),
                               ValidationError, "transition must be a square matrix"),
    "sample-path-zero-steps": (lambda: sample_path(np.eye(2), 0, 0, substream(0, "path")),
                               ValidationError, "path length must be positive"),
    "collision-empty-grid": (lambda: collision_curve(COLLISION_JOINT, 10, (), COLLISION_RUN),
                             ValidationError, "rate grid must be nonempty and nonnegative"),
    "collision-n-over-cap": (
        lambda: collision_curve(COLLISION_JOINT, mclab.MAX_STEPS + 1, (0.5,), COLLISION_RUN),
        BudgetError, "exceeds the desk-scale cap"),
    "collision-nan-rate": (lambda: collision_curve(COLLISION_JOINT, 10, (NAN,), COLLISION_RUN),
                           ValidationError, "codebook rates must be finite, got (nan,)"),
    "collision-nan-rate-materialize": (
        lambda: collision_curve(COLLISION_JOINT, 10, (0.2, NAN), COLLISION_RUN,
                                method="materialize"),
        ValidationError, "codebook rates must be finite, got (0.2, nan)"),
    "collision-infinite-rate": (
        lambda: collision_curve(COLLISION_JOINT, 10, (float("inf"),), COLLISION_RUN),
        ValidationError, "codebook rates must be finite, got (inf,)"),
    "collision-nan-rate-auto": (
        lambda: collision_experiment(COLLISION_JOINT, 10, NAN, COLLISION_RUN),
        ValidationError, "codebook rates must be finite, got (nan,)"),
    "collision-negative-length": (lambda: collision_curve(COLLISION_JOINT, -3, (0.5,), COLLISION_RUN),
                                  ValidationError, "codeword length must be at least 1, got -3"),
    "collision-zero-length": (lambda: collision_curve(COLLISION_JOINT, 0, (0.5,), COLLISION_RUN),
                              ValidationError, "codeword length must be at least 1, got 0"),
    "collision-zero-length-auto": (
        lambda: collision_experiment(COLLISION_JOINT, 0, 0.5, COLLISION_RUN),
        ValidationError, "codeword length must be at least 1, got 0"),
    "codec-policy-other-geometry": (
        lambda: CodecConfig(spec=BatterySpec(capacity=3, cost=2),
                            policy=StatePolicy.joint_policy(worked_spec(), WORKED_TABLES),
                            rate_bits=(0.5,) * 4, slack=0.1),
        ValidationError, "policy was built for a different battery geometry"),
    # each was once used as given: accepted, or a numpy or Python TypeError
    "run-config-fractional-n": (lambda: RunConfig(0, 2.5), ValidationError,
                                "run seed, n and trials must be integers, got 0, 2.5 and 1"),
    "run-config-fractional-trials": (lambda: RunConfig(0, 10, 1.5), ValidationError,
                                     "run seed, n and trials must be integers, got 0, 10 and 1.5"),
    "run-config-bool-seed": (lambda: RunConfig(True, 10), ValidationError,
                             "run seed, n and trials must be integers, got True, 10 and 1"),
    "substream-bool-seed": (lambda: substream(True, "x"), ValidationError,
                            "seeds and stream indices must be integers, got (True, 0)"),
    "substream-fractional-index": (lambda: substream(0, "x", 1.5), ValidationError,
                                   "seeds and stream indices must be integers, got (0, 1.5)"),
    "sample-path-fractional-length": (
        lambda: sample_path(np.eye(2), 0, 2.5, substream(0, "path")),
        ValidationError, "initial state and path length must be integers, got 0 and 2.5"),
    "sample-path-fractional-start": (
        lambda: sample_path(np.eye(2), 0.5, 4, substream(0, "path")),
        ValidationError, "initial state and path length must be integers, got 0.5 and 4"),
    "collision-fractional-length": (
        lambda: collision_curve(COLLISION_JOINT, 2.5, (0.2,), COLLISION_RUN),
        ValidationError, "codeword length must be an integer, got 2.5"),
    "collision-fractional-length-materialize": (
        lambda: collision_curve(COLLISION_JOINT, 2.5, (0.2,), COLLISION_RUN,
                                method="materialize"),
        ValidationError, "codeword length must be an integer, got 2.5"),
    "codec-fractional-blocks": (
        lambda: relay_codec_trial(
            CodecConfig(spec=worked_spec(), rate_bits=(0.5,) * 3, slack=0.1,
                        policy=StatePolicy.joint_policy(worked_spec(), WORKED_TABLES)),
            1.5, RunConfig(seed=0, n=10)),
        ValidationError, "block count must be an integer, got 1.5"),
    "receiver-fractional-bits": (
        lambda: receiver_smoke_trial(worked_chain(), BinaryChannel(0.9, 0.9), 2.5,
                                     RunConfig(seed=0, n=10)),
        ValidationError, "message bits must be an integer, got 2.5"),
    # a fractional pad was once accepted from the API, a string slack or rate
    # Python's TypeError or ValueError, and a string rate such as "0.5" parsed
    "codec-fractional-pad": (
        lambda: CodecConfig(spec=worked_spec(), rate_bits=(0.5,) * 3, slack=0.1, pad=2.5,
                            policy=StatePolicy.joint_policy(worked_spec(), WORKED_TABLES)),
        ValidationError, "pad length must be an integer, got 2.5"),
    "codec-string-slack": (
        lambda: CodecConfig(spec=worked_spec(), rate_bits=(0.5,) * 3, slack="x",
                            policy=StatePolicy.joint_policy(worked_spec(), WORKED_TABLES)),
        ValidationError, "occupancy slack must be a number, got 'x'"),
    "codec-string-rate": (
        lambda: CodecConfig(spec=worked_spec(), rate_bits=(0.5, "0.5", 0.5), slack=0.1,
                            policy=StatePolicy.joint_policy(worked_spec(), WORKED_TABLES)),
        ValidationError, "subcodebook rate must be a number, got '0.5'"),
    "z-empirical-fractional-cost": (
        lambda: z_empirical(2.5, 0.3, False, RunConfig(seed=0, n=10)),
        ValidationError, "cost and zmax must be integers, got 2.5 and None"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_raises_its_documented_error(case):
    call, error, text = BAD_INPUTS[case]
    with pytest.raises(error, match=re.escape(text)):
        call()


class TestSamplePath:
    def test_follows_a_deterministic_kernel(self):
        kernel = np.array([[0.0, 1.0], [1.0, 0.0]])
        path = sample_path(kernel, 0, 6, substream(0, "path", 0))
        assert np.array_equal(path, [0, 1, 0, 1, 0, 1])

    def test_rejects_bad_start(self):
        kernel = np.eye(2)
        with pytest.raises(ValidationError):
            sample_path(kernel, 5, 4, substream(0, "path", 0))

    @pytest.mark.parametrize("capacity", [2, 6])
    def test_matches_the_item_by_item_path(self, capacity):
        # the worked pair chain (7 states) and a 7-level battery's (23)
        spec = BatterySpec(capacity=capacity, cost=2)
        tables = (WORKED_TABLES if capacity == 2
                  else random_joint_tables(spec, np.random.default_rng(41)))
        policy = StatePolicy.joint_policy(spec, tables)
        arrival = ArrivalModel.deterministic()
        chain = pair_chain(spec, policy, arrival, analyze_chain(spec, policy, arrival).pi)
        assert len(chain.states) == (7 if capacity == 2 else 23)
        n = 400_000
        path = sample_path(chain.transition, 1, n, substream(3, "path", capacity))
        want = sample_path_oracle(chain.transition, 1, n, substream(3, "path", capacity))
        assert path.dtype == want.dtype and np.array_equal(path, want)
        # past 1,024 + 2,048 + ... + 32,768 visits a state refills 65,536 draws
        assert np.bincount(path).max() > 64_512


class TestLockstepSampler:
    def test_follows_a_deterministic_kernel(self):
        kernel = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        paths = mclab._sample_paths(kernel, np.array([0, 2, 1]), 5,
                                    substream(0, "paths", 0))
        assert np.array_equal(paths, [[0, 1, 2, 0, 1], [2, 0, 1, 2, 0], [1, 2, 0, 1, 2]])

    def test_one_step_frequencies_match_the_kernel(self):
        kernel = np.array(WORKED_KERNEL)
        rng = substream(0, "paths", 1)
        starts = rng.integers(0, 3, size=4096)
        paths = mclab._sample_paths(kernel, starts, 64, rng)
        assert paths.shape == (4096, 64)
        assert np.array_equal(paths[:, 0], starts)
        pairs = np.zeros((3, 3))
        np.add.at(pairs, (paths[:, :-1].ravel(), paths[:, 1:].ravel()), 1.0)
        freq = pairs / pairs.sum(axis=1, keepdims=True)
        assert np.abs(freq - kernel).max() <= 0.02


class TestEmpiricalAep:
    def test_joint_dominates_marginal(self):
        chain = worked_chain()
        res = empirical_aep(chain, BinaryChannel(0.9, 0.9),
                            RunConfig(seed=5, n=2000, trials=4))
        assert np.all(res.joint_bits >= res.marginal_bits - 1e-12)

    def test_noiseless_channel_adds_nothing(self):
        chain = worked_chain()
        cfg = RunConfig(seed=5, n=2000, trials=4)
        alone = empirical_aep(chain, None, cfg)
        piped = empirical_aep(chain, BinaryChannel(1.0, 1.0), cfg)
        assert np.array_equal(alone.marginal_bits, piped.joint_bits)

    def test_trials_do_not_depend_on_the_batch(self):
        chain = worked_chain()
        for ch2 in (None, BinaryChannel(0.9, 0.8)):
            few = empirical_aep(chain, ch2, RunConfig(seed=11, n=3000, trials=3))
            many = empirical_aep(chain, ch2, RunConfig(seed=11, n=3000, trials=5))
            for got, want in ((few.marginal_bits, many.marginal_bits[:3]),
                              (few.joint_bits, many.joint_bits[:3])):
                assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_deterministic_chain_has_zero_description_length(self):
        spec = worked_spec()
        charge = np.array([[0.0, 0.0], [1.0, 0.0]])
        policy = StatePolicy.joint_policy(spec, [charge] * 3)
        arrival = ArrivalModel.deterministic()
        analysis = analyze_chain(spec, policy, arrival)
        chain = pair_chain(spec, policy, arrival, analysis.pi)
        res = empirical_aep(chain, BinaryChannel(1.0, 1.0),
                            RunConfig(seed=2, n=500, trials=3))
        assert np.all(res.marginal_bits == 0.0)
        assert np.all(res.joint_bits == 0.0)

    def test_revealing_chain_concentrates_on_the_formula(self):
        chain = revealing_chain()
        assert markov_entropy_rate(chain) == pytest.approx(
            REVEALING_RATE, abs=1e-12)
        res = empirical_aep(chain, None, RunConfig(seed=5, n=10000, trials=6))
        assert res.marginal_mean == pytest.approx(REVEALING_RATE, abs=2e-2)

    def test_formula_upper_bounds_the_worked_chain(self):
        chain = worked_chain()
        res = empirical_aep(chain, None, RunConfig(seed=5, n=5000, trials=6))
        assert res.marginal_mean <= WORKED_PAIR_ENTROPY + 0.05
        assert markov_entropy_rate(chain) == pytest.approx(
            WORKED_PAIR_ENTROPY, abs=1e-12)

    def test_spread_shrinks_with_length(self):
        chain = worked_chain()
        short = empirical_aep(chain, None, RunConfig(seed=8, n=500, trials=30))
        long = empirical_aep(chain, None, RunConfig(seed=8, n=5000, trials=30))
        assert long.marginal_std < short.marginal_std


class TestCollision:
    JOINT = JointPmf(np.array([[0.4, 0.1], [0.2, 0.3]]))

    def test_zero_rate_never_collides(self):
        res = collision_experiment(self.JOINT, 20, 0.0,
                                   RunConfig(seed=2, n=20, trials=200))
        assert res.fraction == 0.0

    def test_methods_agree(self):
        cfg = RunConfig(seed=4, n=12, trials=600)
        lo = collision_experiment(self.JOINT, 12, 0.3, cfg,
                                  method="materialize")
        hi = collision_experiment(self.JOINT, 12, 0.3, cfg,
                                  method="conditional")
        assert lo.method == "materialize" and hi.method == "conditional"
        assert lo.fraction == pytest.approx(hi.fraction, abs=0.08)

    def test_curve_is_monotone_by_construction(self):
        res = collision_curve(self.JOINT, 40, [0.0, 0.2, 0.4, 0.6, 0.8],
                              RunConfig(seed=2, n=40, trials=400))
        assert np.all(np.diff(res.fractions) >= 0.0)

    def test_materialize_respects_the_codebook_cap(self):
        cfg = RunConfig(seed=4, n=30, trials=50)
        with pytest.raises(BudgetError):
            collision_experiment(self.JOINT, 30, 1.0, cfg,
                                 method="materialize")
        fallback = collision_experiment(self.JOINT, 30, 1.0, cfg,
                                        method="auto")
        assert fallback.method == "conditional"

    def test_auto_picks_the_conditional_method_past_the_double_range(self):
        # 2^(n R) for n R = 1,200 is past the double range; the choice is
        # made on the exponent, so no overflow escapes
        res = collision_experiment(self.JOINT, 2000, 0.6, RunConfig(seed=1, n=10, trials=5))
        assert res.method == "conditional"

    def test_certain_word_always_collides(self):
        # each row is deterministic, so every other word equals the reference
        res = collision_curve(JointPmf([[0.5, 0.0], [0.0, 0.5]]), 8, (0.5,),
                              RunConfig(seed=0, n=8, trials=20))
        assert res.fraction == 1.0 and res.mean_probability[0] == 1.0

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            collision_experiment(self.JOINT, 10, 0.5,
                                 RunConfig(seed=1, n=10, trials=10),
                                 method="bogus")


class TestZEmpirical:
    def test_tracks_the_exact_law(self):
        res = z_empirical(2, 0.5, False, RunConfig(seed=9, n=100000))
        assert res.tv_distance <= 2e-2
        assert res.mean == pytest.approx(4.0, rel=0.03)
        assert res.samples == 100000

    def test_sure_arrivals_pin_the_recharge_time(self):
        res = z_empirical(3, 1.0, False, RunConfig(seed=9, n=2000))
        seen = res.values[res.counts > 0]
        assert np.array_equal(seen, [3])
        assert res.mean == 3.0

    def test_overlap_reaches_below_the_cost(self):
        res = z_empirical(2, 0.6, True, RunConfig(seed=9, n=50000))
        assert res.values[res.counts > 0].min() == 1

    @pytest.mark.parametrize("case", [(4, 0.3, False), (6, 0.08, True),
                                      (2, 0.6, True), (5, 0.02, True)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_full_matrix_draw(self, case, seed):
        cfg = RunConfig(seed=seed, n=5000)  # four full blocks of rows and a partial one
        res = z_empirical(*case, cfg)
        want = z_empirical_oracle(*case, cfg)
        assert res.values[0] <= want.min() and want.max() <= res.values[-1]
        assert np.array_equal(res.counts,
                              np.bincount(want - res.values[0], minlength=res.values.size))
        assert res.mean == float(want.mean())

    @pytest.mark.parametrize("case", [(4, 0.3, False), (6, 0.08, True),
                                      (2, 0.6, True), (5, 0.02, True)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_hit_counts_carry_across_rounds(self, monkeypatch, case, seed):
        # A reference law cut at cost + 3 puts the horizon at or below cost + 3,
        # far below most of these recharge times, so rows run several rounds;
        # a recharge time past cost + 11 took at least three.
        exact = z_pmf

        def cut(noise):
            law = exact(noise)
            keep = law.values <= noise.cost + 3
            return IntegerPmf(law.values[keep], law.probs[keep] / law.probs[keep].sum())

        monkeypatch.setattr(mclab, "z_pmf", cut)
        monkeypatch.setattr(conftest, "z_pmf", cut)
        cfg = RunConfig(seed=seed, n=5000)
        res = z_empirical(*case, cfg)
        want = z_empirical_oracle(*case, cfg)
        if case[1] < 0.5:
            assert want.max() > case[0] + 11  # some row needed a later round
        assert np.array_equal(res.counts,
                              np.bincount(want - res.values[0], minlength=res.values.size))
        assert res.mean == float(want.mean())

    @staticmethod
    def counted_substream(monkeypatch):
        """Patch ``mclab.substream`` so the uniforms each call draws are summed."""
        drawn = [0]

        class Counted:
            def __init__(self, rng):
                self.rng = rng

            def random(self, size):
                drawn[0] += int(np.prod(size))
                return self.rng.random(size)

        real = mclab.substream
        monkeypatch.setattr(mclab, "substream", lambda *args: Counted(real(*args)))
        return drawn

    @pytest.mark.parametrize("case, cap", [((6, 0.08, True), 3_000_000),
                                           ((4, 0.3, False), 600_000)])
    def test_uniforms_drawn_stay_near_the_quantile_horizon(self, monkeypatch, case, cap):
        # a horizon at the support's last point + 8 draws 10.18M and 2.26M
        drawn = self.counted_substream(monkeypatch)
        z_empirical(*case, RunConfig(seed=0, n=20000))
        assert 0 < drawn[0] <= cap

    @pytest.mark.parametrize("overlap", [False, True])
    def test_sure_arrivals_finish_in_one_round(self, monkeypatch, overlap):
        cost, cfg = 4, RunConfig(seed=5, n=3000)
        drawn = self.counted_substream(monkeypatch)
        res = z_empirical(cost, 1.0, overlap, cfg)
        want = z_empirical_oracle(cost, 1.0, overlap, cfg)
        assert np.array_equal(res.counts,
                              np.bincount(want - res.values[0], minlength=res.values.size))
        # every slot charges, so the horizon is the one recharge time and each
        # row draws it once, after its overlap target draw
        horizon = cost - 1 if overlap else cost
        assert np.array_equal(np.unique(want), [horizon])
        assert drawn[0] == cfg.n * (horizon + overlap)

    def test_memory_is_bounded_by_the_row_block(self):
        tracemalloc.start()
        try:
            z_empirical(6, 0.08, True, RunConfig(seed=0, n=20000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_a_numpy_float_draws_the_python_float_stream(self):
        cfg = RunConfig(seed=0, n=200)
        res = z_empirical(3, 0.3, False, cfg)
        again = z_empirical(3, np.float64(0.3), False, cfg)
        assert np.array_equal(again.values, res.values)
        assert np.array_equal(again.counts, res.counts)
        assert again.mean == res.mean

    def test_reference_is_the_exact_pmf(self):
        res = z_empirical(2, 0.5, False, RunConfig(seed=3, n=500))
        want = z_pmf(ZNoise(cost=2, p1=0.5))
        assert np.array_equal(
            res.reference.values[:3], want.values[:3])


class TestRelayCodec:
    def policy(self):
        return StatePolicy.joint_policy(worked_spec(), WORKED_TABLES)

    def test_plan_arithmetic(self):
        codec = CodecConfig(spec=worked_spec(), policy=self.policy(),
                            rate_bits=(0.5, 0.25, 1.0), slack=0.1)
        lengths, bits = codec.plan(400, np.array([0.2, 0.4, 0.4]))
        assert np.array_equal(lengths, [40, 120, 120])
        assert np.array_equal(bits, [20, 30, 120])

    def test_single_word_books_never_collide(self):
        codec = CodecConfig(spec=worked_spec(), policy=self.policy(),
                            rate_bits=(0.0, 0.0, 0.0), slack=0.1)
        res = relay_codec_trial(codec, 2, RunConfig(seed=3, n=300, trials=50))
        assert np.all(res.p_ambiguous == 0.0)
        assert res.total_bits == 0

    def test_error_events_nest(self):
        codec = CodecConfig(spec=worked_spec(), policy=self.policy(),
                            rate_bits=(0.4, 0.4, 0.4), slack=0.1)
        res = relay_codec_trial(codec, 2, RunConfig(seed=3, n=200, trials=80))
        for block in range(2):
            assert res.p_either[block] <= (res.p_incomplete[block]
                                           + res.p_ambiguous[block] + 1e-12)
            assert res.p_either[block] >= max(res.p_incomplete[block],
                                              res.p_ambiguous[block])

    @staticmethod
    def assert_matches_the_scalar_walk(codec, blocks, cfg):
        res = relay_codec_trial(codec, blocks, cfg)
        got = (res.p_incomplete, res.p_ambiguous, res.p_either)
        for a, b in zip(got, relay_codec_oracle(codec, blocks, cfg)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [50, 200, 400])
    @pytest.mark.parametrize("pad", [None, 0, 8])
    def test_matches_the_scalar_walk(self, n, pad):
        spec = worked_spec()
        for seed in (0, 7):
            for rates in ((0.0, 0.0, 0.0), (0.95, 0.9, 0.97)):
                codec = CodecConfig(spec=spec, policy=self.policy(), rate_bits=rates,
                                    slack=0.1, pad=pad)
                self.assert_matches_the_scalar_walk(
                    codec, 3, RunConfig(seed=seed, n=n, trials=30))

    def test_trial_groups_match_the_scalar_walk(self, monkeypatch):
        spec = BatterySpec(capacity=4, cost=2)
        tables = random_joint_tables(spec, np.random.default_rng(3), eps=0.05)
        policy = StatePolicy.joint_policy(spec, tables)
        codec = CodecConfig(spec=spec, policy=policy, rate_bits=(0.5,) * 5, slack=0.05)
        cfg = RunConfig(seed=4, n=120, trials=11)
        # room for four trials' stock per group: three groups, the last partial
        monkeypatch.setattr(mclab, "_CODEC_STOCK_BUDGET", 4 * 2 * (2 * 120 + 1))
        self.assert_matches_the_scalar_walk(codec, 2, cfg)

    def test_validation(self):
        spec = worked_spec()
        policy = self.policy()
        with pytest.raises(ValidationError):
            CodecConfig(spec=spec, policy=policy, rate_bits=(0.5, 0.5),
                        slack=0.1)
        with pytest.raises(ValidationError):
            CodecConfig(spec=spec, policy=policy,
                        rate_bits=(0.5, 0.5, -0.1), slack=0.1)
        for bad in (math.nan, math.inf, 1e300, 1.0 + 1e-12):
            # a subcodeword is a binary word: at most one bit per symbol
            with pytest.raises(ValidationError, match="must lie in"):
                CodecConfig(spec=spec, policy=policy, rate_bits=(0.5, 0.5, bad), slack=0.1)
        CodecConfig(spec=spec, policy=policy, rate_bits=(0.0, 0.5, 1.0), slack=0.1)
        with pytest.raises(ValidationError):
            CodecConfig(spec=spec, policy=policy,
                        rate_bits=(0.5, 0.5, 0.5), slack=1.5)
        with pytest.raises(ValidationError):
            CodecConfig(spec=spec, policy=policy,
                        rate_bits=(0.5, 0.5, 0.5), slack=0.1, pad=-1)
        parts = StatePolicy.product_policy(
            spec, [0.5, 0.5],
            [np.array([1.0, 0.0])] * 2 + [np.array([0.5, 0.5])])
        with pytest.raises(ValidationError):
            CodecConfig(spec=spec, policy=parts, rate_bits=(0.0, 0.0, 0.0),
                        slack=0.1)
        good = CodecConfig(spec=spec, policy=policy,
                           rate_bits=(0.0, 0.0, 0.0), slack=0.1)
        with pytest.raises(ValidationError):
            relay_codec_trial(good, 0, RunConfig(seed=1, n=100, trials=5))


class TestReceiverSmoke:
    def test_clean_setup_decodes(self):
        spec = worked_spec()
        policy = StatePolicy.joint_policy(spec, WORKED_TABLES)
        arrival = ArrivalModel.deterministic()
        analysis = analyze_chain(spec, policy, arrival)
        chain = pair_chain(spec, policy, arrival, analysis.pi)
        res = receiver_smoke_trial(chain, BinaryChannel(0.9, 0.9), 3,
                                   RunConfig(seed=6, n=400, trials=60))
        assert res.message_bits == 3
        assert res.p_error <= 0.1

    def test_pure_noise_channel_counts_its_errors(self):
        # the destination sees nothing of the relay, so most books decode wrong
        res = receiver_smoke_trial(worked_chain(), BinaryChannel.from_crossover(0.5), 4,
                                   RunConfig(seed=0, n=16, trials=20))
        assert res.p_error == 0.9

    def test_message_budget(self):
        chain = worked_chain()
        with pytest.raises(BudgetError):
            receiver_smoke_trial(chain, BinaryChannel(0.9, 0.9), 13,
                                 RunConfig(seed=6, n=50, trials=5))
