"""Battery dynamics: kernel construction against a hand enumeration,
stationary solves against an eigendecomposition, and the pair chain with
its deterministic relay-symbol emission. The fast forms of the policy
constructors' validation, the transition tensor and the regularity report
are each compared bit for bit with the form they replaced."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrelay import (
    ArrivalModel,
    BatterySpec,
    BinaryChannel,
    ConstraintError,
    JointPmf,
    NumericalError,
    Pmf,
    StatePolicy,
    ValidationError,
    analyze_chain,
    build_kernel,
    check_regularity,
    energy_profile,
    forward_loglik,
    markov_entropy_rate,
    pair_chain,
    stationary,
)
from ehrelay import battery
from ehrelay.battery import (
    _BLOCK,
    _PATTERN_CACHE,
    _PATTERN_STATES,
    _WORD_TABLE_CAP,
    STATIONARY_RESIDUAL,
    _forward_pass,
    _observation_table,
    _tensor_cells,
    _word_length,
)
from ehrelay.mclab import sample_path
from ehrelay.optimize import _ProductProblem
from ehrelay.rates import Model, _scheme
from conftest import (
    WORKED_KERNEL,
    WORKED_PAIR_ENTROPY,
    WORKED_PI,
    WORKED_TABLES,
    exhaustive_observation_loglik,
    joint_policy_oracle,
    pair_chain_oracle,
    product_policy_oracle,
    random_joint_tables,
    regularity_oracle,
    stationary_eig_oracle,
    transition_tensor_oracle,
    worked_policy,
    worked_spec,
)


def kernel_by_enumeration(spec, tensor, profile):
    """Transition kernel from first principles: loop every (arrival, pulse)
    pair and apply the level update min(u + e - cost * x2, capacity)."""
    states = spec.states
    out = np.zeros((states, states))
    for u in range(states):
        for x1 in (0, 1):
            for x2 in (0, 1):
                mass = tensor[u, x1, x2]
                if mass == 0.0:
                    continue
                for e, pe in enumerate(profile[x1]):
                    if pe == 0.0:
                        continue
                    nxt = min(u + e - spec.cost * x2, spec.capacity)
                    assert nxt >= 0, "policy spent from an underfunded level"
                    out[u, nxt] += mass * pe
    return out


class TestBatterySpec:
    def test_fields(self):
        spec = BatterySpec(capacity=3, cost=2)
        assert spec.states == 4

    def test_rejects_cost_below_two(self):
        with pytest.raises(ValidationError):
            BatterySpec(capacity=2, cost=1)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValidationError):
            BatterySpec(capacity=0, cost=2)


def _worked_pair_chain(**kw):
    spec, policy, arrival = worked_spec(), worked_policy(), ArrivalModel.deterministic()
    return pair_chain(spec, policy, arrival, Pmf(WORKED_PI), **kw)


# (call, error, text its message must hold): each input branch raises its documented error
BAD_INPUTS = {
    "capacity-not-an-integer": (lambda: BatterySpec(capacity=2.5, cost=2),
                                ValidationError, "capacity must be an integer"),
    "cost-a-string": (lambda: BatterySpec(capacity=2, cost="2"),
                      ValidationError, "cost must be an integer"),
    "capacity-a-bool": (lambda: BatterySpec(capacity=True, cost=2),
                        ValidationError, "capacity must be an integer"),
    "arrival-unknown-kind": (lambda: ArrivalModel("bogus"),
                             ValidationError, "unknown arrival kind 'bogus'"),
    "arrival-deterministic-with-channel": (
        lambda: ArrivalModel("deterministic", channel=BinaryChannel(0.9, 0.9)),
        ValidationError, "deterministic arrivals take no channel or loss law"),
    "arrival-channel-without-one": (lambda: ArrivalModel("channel"),
                                    ValidationError, "channel arrivals need a channel"),
    "arrival-lossy-without-loss-law": (
        lambda: ArrivalModel("lossy", channel=BinaryChannel(0.9, 0.9)),
        ValidationError, "lossy arrivals need both a channel and a loss law"),
    "build-kernel-other-geometry": (
        lambda: build_kernel(BatterySpec(capacity=3, cost=2), worked_policy(),
                             ArrivalModel.deterministic()),
        ValidationError, "policy was built for a different battery geometry"),
    "regularity-non-square": (lambda: check_regularity([[0.5, 0.5]]),
                              ValidationError, "kernel must be a square matrix"),
    "regularity-negative": (lambda: check_regularity([[1.5, -0.5], [0.5, 0.5]]),
                            ValidationError, "kernel entries must be finite and nonnegative"),
    "pair-chain-disagreeing-kernel": (lambda: _worked_pair_chain(kernel=np.full((3, 3), 1 / 3)),
                                      ValidationError, "supplied kernel disagrees"),
    "pair-chain-pi-wrong-length": (
        lambda: pair_chain(worked_spec(), worked_policy(), ArrivalModel.deterministic(),
                           Pmf([0.5, 0.5])),
        ValidationError, "steady state has the wrong number of levels"),
    "forward-loglik-symbol-two": (lambda: forward_loglik(_worked_pair_chain(), None, [0, 2, 1]),
                                  ValidationError, "observed symbols must be 0 or 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_raises_its_documented_error(case):
    call, error, text = BAD_INPUTS[case]
    with pytest.raises(error, match=re.escape(text)):
        call()


class TestStatePolicy:
    def test_product_x1_row_is_the_source_law_at_every_level(self):
        policy = StatePolicy.product_policy(worked_spec(), [0.3, 0.7], [[1, 0], [1, 0], [0.5, 0.5]])
        for u in range(3):
            assert policy.x1_row(u).tobytes() == policy.x1.probs.tobytes()

    def test_joint_tables_roundtrip(self):
        policy = worked_policy()
        assert policy.mode == "joint"
        assert np.allclose(policy.joint_table(2),
                           [[0.25, 0.25], [0.25, 0.25]], atol=0)
        assert np.allclose(policy.x2_row(0), [1.0, 0.0], atol=0)

    def test_strict_mode_rejects_underfunded_spending(self):
        tables = [[[0.5, 0.1], [0.4, 0.0]],
                  [[0.5, 0.0], [0.5, 0.0]],
                  [[0.25, 0.25], [0.25, 0.25]]]
        with pytest.raises(ConstraintError):
            StatePolicy.joint_policy(worked_spec(), tables)

    def test_product_mode(self):
        spec = worked_spec()
        policy = StatePolicy.product_policy(
            spec, [0.5, 0.5], [[1, 0], [1, 0], [0.5, 0.5]])
        assert policy.mode == "product"
        assert np.allclose(policy.joint_table(2),
                           [[0.25, 0.25], [0.25, 0.25]], atol=1e-15)

    def test_tensor_shape(self):
        # One read-only array per policy, in either mode.
        product = StatePolicy.product_policy(
            worked_spec(), [0.5, 0.5], [[1, 0], [1, 0], [0.5, 0.5]])
        for policy in (worked_policy(), product):
            tensor = policy.tensor()
            assert tensor.shape == (3, 2, 2)
            assert policy.tensor() is tensor
            assert np.array_equal(tensor[2], policy.joint_table(2))
            with pytest.raises(ValueError):
                tensor[0, 0, 0] = 0.0
            with pytest.raises(ValueError):
                policy.joint_table(0)[0, 0] = 0.0


def _policy_outcome(build, *args):
    """The arrays a policy constructor returns, as bytes, or its error
    (numpy's own for a table that is not an array at all), and the warnings
    raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = build(*args)
        except (ValidationError, ConstraintError, ValueError) as exc:
            result = (type(exc).__name__, str(exc))
        else:
            result = [(np.asarray(a).tobytes(), np.shape(a)) for a in out]
    return result, [str(w.message) for w in caught]


def _joint_table_sets(spec: BatterySpec, rng: np.random.Generator) -> list:
    """Valid table sets and sets broken in every way the per-table
    constructor and the shape and count checks can report, some twice."""
    good = random_joint_tables(spec, rng)
    sets = [good, np.array(good), [tuple(map(tuple, t)) for t in good],
            [JointPmf(t) for t in good], [JointPmf(t) if u % 2 else t for u, t in enumerate(good)],
            [[[1.0 - 1e-12, -1e-12], [1e-12, -0.0]]] + good[1:],
            [[[0.5, 0.0], [0.5 + 5e-10, 0.0]]] + good[1:],
            good[:-1], good + [good[-1]], [], [[[1.0]]] * spec.states]
    bad_tables = {
        "nan": [[np.nan, 0.0], [1.0, 0.0]], "inf": [[np.inf, 0.0], [0.0, 0.0]],
        "minus-inf": [[-np.inf, 1.0], [0.0, 0.0]], "negative": [[1.5, -0.5], [0.0, 0.0]],
        "sum": [[0.5, 0.0], [0.6, 0.0]], "three-by-two": [[0.2, 0.0], [0.3, 0.0], [0.5, 0.0]],
        "ragged": [[0.5, 0.0], [0.5]], "flat": [0.5, 0.0, 0.5, 0.0], "empty": [],
        "instance-three-by-one": JointPmf([[0.2], [0.3], [0.5]]),
        "spending": [[0.5, 0.1], [0.4, 0.0]], "overflowing": [[1e308, 1e308], [0.0, 0.0]],
    }
    names = list(bad_tables)
    for name in names:
        for u in (0, spec.states - 1):
            sets.append(good[:u] + [bad_tables[name]] + good[u + 1:])
    # An earlier failure is reported before a later table's sum can overflow.
    sets.append([bad_tables["negative"]] + good[1:-1] + [bad_tables["overflowing"]])
    for _ in range(12):  # two faults: the earlier level's is reported
        first, second = rng.choice(len(names), size=2)
        u, v = sorted(rng.choice(spec.states, size=2, replace=False))
        tables = list(good)
        tables[u], tables[v] = bad_tables[names[first]], bad_tables[names[second]]
        sets.append(tables)
    # a cell that is not a number: alone, and after an earlier level's fault
    sets.append(good[:-1] + [[["a", 0.0], [1.0, 0.0]]])
    sets.append([bad_tables["sum"]] + good[1:-1] + [[["a", 0.0], [1.0, 0.0]]])
    return sets


def _product_row_sets(spec: BatterySpec, rng: np.random.Generator) -> list:
    good = [[1.0, 0.0] if u < spec.cost else [1.0 - b, b]
            for u, b in enumerate(rng.uniform(0.01, 0.99, spec.states))]
    sets = [good, np.array(good), [Pmf(r) for r in good],
            [Pmf(r) if u % 2 else r for u, r in enumerate(good)],
            [[1.0 + 1e-12, -1e-12]] + good[1:], [[-0.0, 1.0]] * spec.states,
            good[:-1], good + [good[-1]], []]
    bad_rows = {"nan": [np.nan, 1.0], "inf": [np.inf, 0.0], "negative": [1.5, -0.5],
                "sum": [0.5, 0.6], "three": [0.2, 0.3, 0.5], "one": [1.0], "nested": [[0.5, 0.5]],
                "instance-three": Pmf([0.2, 0.3, 0.5]), "spending": [0.9, 0.1],
                "overflowing": [1e308, 1e308]}
    names = list(bad_rows)
    for name in names:
        for u in (0, spec.states - 1):
            sets.append(good[:u] + [bad_rows[name]] + good[u + 1:])
    sets.append([bad_rows["negative"]] + good[1:-1] + [bad_rows["overflowing"]])
    for _ in range(12):
        first, second = rng.choice(len(names), size=2)
        u, v = sorted(rng.choice(spec.states, size=2, replace=False))
        rows = list(good)
        rows[u], rows[v] = bad_rows[names[first]], bad_rows[names[second]]
        sets.append(rows)
    sets.append(good[:-1] + [["a", 1.0]])
    sets.append([bad_rows["sum"]] + good[1:-1] + [["a", 1.0]])
    return sets


class TestStatePolicyStackedValidation:
    """The policy constructors check all their tables as one array; every
    tensor and every error must be what per-table validation gives."""

    @pytest.mark.parametrize("capacity,cost", [(1, 2), (2, 2), (4, 2), (6, 3), (8, 6)])
    def test_joint_policy_equals_the_per_table_oracle(self, capacity, cost):
        spec = BatterySpec(capacity=capacity, cost=cost)
        rng = np.random.default_rng(capacity * 10 + cost)
        for tables in _joint_table_sets(spec, rng):
            for tol, strict in ((1e-9, True), (1e-6, False)):
                got = _policy_outcome(
                    lambda: (StatePolicy.joint_policy(spec, tables, tol, strict).tensor(),))
                want = _policy_outcome(
                    lambda: (joint_policy_oracle(spec, tables, tol, strict),))
                assert got == want

    @pytest.mark.parametrize("capacity,cost", [(2, 2), (4, 2), (6, 3), (8, 6)])
    def test_product_policy_equals_the_per_row_oracle(self, capacity, cost):
        spec = BatterySpec(capacity=capacity, cost=cost)
        rng = np.random.default_rng(capacity * 10 + cost)
        sources = [[0.3, 0.7], Pmf([0.5, 0.5]), [0.3, 0.6], [0.5, 0.25, 0.25], [np.nan, 1.0]]
        for rows in _product_row_sets(spec, rng):
            for x1 in sources:
                def build():
                    policy = StatePolicy.product_policy(spec, x1, rows)
                    assert all(isinstance(p, Pmf) and not p.probs.flags.writeable
                               for p in policy.x2)
                    return policy.x1.probs, [p.probs for p in policy.x2], policy.tensor()
                assert _policy_outcome(build) == _policy_outcome(
                    lambda: product_policy_oracle(spec, x1, rows))

    def test_instances_are_kept_as_they_are(self):
        spec = worked_spec()
        tables = [JointPmf(t) for t in WORKED_TABLES]
        policy = StatePolicy.joint_policy(spec, tables)
        for u, table in enumerate(tables):
            assert policy.joint_table(u).tobytes() == table.table.tobytes()
        rows = [Pmf([1.0, 0.0]), [1.0, 0.0], Pmf([0.5, 0.5])]
        product = StatePolicy.product_policy(spec, [0.5, 0.5], rows)
        assert product.x2[0] is rows[0] and product.x2[2] is rows[2]


def _kernel_from_pattern(pattern: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """A stochastic matrix positive exactly on ``pattern`` (diagonal added
    to rows that would be empty)."""
    pattern = pattern | np.diag(~pattern.any(axis=1))
    k = np.where(pattern, weights, 0.0)
    return k / k.sum(axis=1, keepdims=True)


@st.composite
def patterned_kernels(draw):
    n = draw(st.integers(1, 9))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    shape = draw(st.sampled_from(["free", "blocks", "cycle"]))
    pattern = np.array(bits).reshape(n, n)
    if shape == "blocks":  # two closed classes once both blocks are nonempty
        cut = draw(st.integers(0, n))
        pattern[:cut, cut:] = False
        pattern[cut:, :cut] = False
    elif shape == "cycle":  # periodic: no self-loop anywhere
        pattern = np.roll(np.eye(n, dtype=bool), 1, axis=1)
    weights = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.1, 1.0, (n, n))
    return _kernel_from_pattern(pattern, weights)


class TestRegularityMemo:
    @settings(max_examples=300, deadline=None)
    @given(patterned_kernels())
    def test_equals_the_uncached_core(self, kernel):
        assert battery._regularity(kernel) == regularity_oracle(kernel > 0.0)
        assert check_regularity(kernel) == regularity_oracle(kernel > 0.0)

    def test_every_pattern_of_up_to_three_states(self):
        # Patterns with an empty row are no kernel; the graph test still
        # sees them, and check_regularity sees them with that row's loop.
        for n in (1, 2, 3):
            for bits in range(2 ** (n * n)):
                pattern = (bits >> np.arange(n * n) & 1).astype(bool).reshape(n, n)
                assert battery._graph_regularity(pattern) == regularity_oracle(pattern)
                kernel = _kernel_from_pattern(pattern, np.ones((n, n)))
                assert check_regularity(kernel) == regularity_oracle(kernel > 0.0)

    def test_seeded_random_patterns_of_four_to_twelve_states(self):
        rng = np.random.default_rng(20)
        verdicts = set()
        for i in range(6000):
            n = int(rng.integers(4, 13))
            pattern = rng.random((n, n)) < rng.uniform(0.05, 0.6)
            if i % 3 == 1:  # block-diagonal: two closed classes once both blocks are live
                cut = int(rng.integers(1, n))
                pattern[:cut, cut:] = pattern[cut:, :cut] = False
            elif i % 3 == 2:  # periodic: edges only from one group to the next
                group = np.arange(n) % int(rng.integers(2, n + 1))
                pattern &= group[None, :] == (group[:, None] + 1) % (group.max() + 1)
            want = regularity_oracle(pattern)
            assert battery._graph_regularity(pattern) == want
            kernel = _kernel_from_pattern(pattern, rng.uniform(0.1, 1.0, (n, n)))
            report = check_regularity(kernel)
            assert report == regularity_oracle(kernel > 0.0)
            verdicts.add((want.indecomposable, want.self_loop_state is None))
        assert verdicts == {(True, True), (True, False), (False, True), (False, False)}

    def test_same_pattern_same_report_whatever_the_weights(self):
        rng = np.random.default_rng(5)
        pattern = rng.random((6, 6)) < 0.4
        first = battery._regularity(_kernel_from_pattern(pattern, rng.uniform(0.1, 1, (6, 6))))
        hits = battery._pattern_regularity.cache_info().hits
        again = battery._regularity(_kernel_from_pattern(pattern, rng.uniform(0.1, 1, (6, 6))))
        assert again == first
        assert battery._pattern_regularity.cache_info().hits == hits + 1

    def test_cache_stays_within_its_bound(self):
        rng = np.random.default_rng(9)
        assert battery._pattern_regularity.cache_info().maxsize == _PATTERN_CACHE
        for _ in range(_PATTERN_CACHE + 100):
            pattern = rng.random((8, 8)) < 0.5
            kernel = _kernel_from_pattern(pattern, np.ones((8, 8)))
            assert battery._regularity(kernel) == regularity_oracle(kernel > 0.0)
            assert battery._pattern_regularity.cache_info().currsize <= _PATTERN_CACHE

    def test_large_kernels_are_not_kept(self):
        n = _PATTERN_STATES + 1
        cycle_with_loops = np.roll(np.eye(n, dtype=bool), 1, axis=1) | np.eye(n, dtype=bool)
        kernel = _kernel_from_pattern(cycle_with_loops, np.ones((n, n)))
        before = battery._pattern_regularity.cache_info()
        report = check_regularity(kernel)
        assert report.indecomposable and report.self_loop_state == 0
        after = battery._pattern_regularity.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_strict_path_still_refuses_irregular_kernels(self):
        # A memo hit on a regular pattern must not let an irregular kernel through.
        stationary(WORKED_KERNEL)
        with pytest.raises(NumericalError, match="no state with a self-loop"):
            stationary([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="rows must sum to one"):
            stationary([[0.5, 0.4], [0.5, 0.5]])


class TestBuildKernelTensor:
    @staticmethod
    def _arrivals(spec: BatterySpec, rng: np.random.Generator):
        yield ArrivalModel.deterministic()
        for q1, q2 in ((0.9, 0.8), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
            yield ArrivalModel.first_hop(BinaryChannel(q1, q2))
        for _ in range(4):
            laws = rng.random((2, spec.cost))
            laws[rng.random((2, spec.cost)) < 0.3] = 0.0
            laws[:, -1] += 0.05  # the widest charge keeps mass, so it clamps
            laws /= laws.sum(axis=1, keepdims=True)
            yield ArrivalModel.lossy(BinaryChannel(0.9, 0.85), Pmf(laws[0]), Pmf(laws[1]))

    def test_equals_the_loop_bit_for_bit(self):
        rng = np.random.default_rng(17)
        clamped = 0
        for cost in range(2, 7):
            for capacity in sorted({1, cost - 1, cost, cost + 1, cost + 3, 9}):
                spec = BatterySpec(capacity=capacity, cost=cost)
                for arrival in self._arrivals(spec, rng):
                    if arrival.kind != "deterministic" and capacity < cost:
                        continue
                    got = battery.transition_tensor(spec, arrival)
                    want = transition_tensor_oracle(spec, arrival)
                    assert got.tobytes() == want.tobytes()
                    profile = energy_profile(arrival, spec)
                    clamped += arrival.kind == "lossy" and np.count_nonzero(profile[1]) >= 3
        assert clamped > 20  # several energies clamp onto the top level

    def test_schemes_share_one_read_only_tensor(self):
        spec = BatterySpec(capacity=4, cost=2)
        ch1 = BinaryChannel(0.9, 0.9)
        scheme = _scheme(Model.BOTH_HOPS, spec, ch1, BinaryChannel(0.8, 0.8))
        assert not scheme.cells.flags.writeable
        want = _tensor_cells(transition_tensor_oracle(spec, ArrivalModel.first_hop(ch1)))
        assert scheme.cells.tobytes() == want.tobytes()
        assert _ProductProblem(scheme, 1e-6).scheme.cells is scheme.cells


class TestBuildKernel:
    def test_row_sum_check_fails_on_nan_and_inf(self):
        for bad in (np.nan, np.inf, -np.inf):
            assert not battery._rows_sum_to_one(np.array([[bad, 0.0], [0.5, 0.5]]), 1.0)
        assert battery._rows_sum_to_one(np.array([[0.5, 0.5], [1.0, 0.0]]), 0.0)
        assert not battery._rows_sum_to_one(np.array([[0.5, 0.5 + 1e-9], [1.0, 0.0]]), 1e-10)

    def test_worked_instance_rows(self, worked):
        spec, policy, arrival = worked
        kernel = build_kernel(spec, policy, arrival)
        assert np.allclose(kernel, WORKED_KERNEL, atol=1e-15)

    def test_matches_enumeration_for_random_policies(self):
        rng = np.random.default_rng(11)
        for capacity, cost in [(2, 2), (4, 2), (5, 3)]:
            spec = BatterySpec(capacity=capacity, cost=cost)
            for _ in range(5):
                policy = StatePolicy.joint_policy(
                    spec, random_joint_tables(spec, rng))
                for arrival, profile in [
                    (ArrivalModel.deterministic(),
                     np.array([[1.0, 0.0], [0.0, 1.0]])),
                    (ArrivalModel.first_hop(
                        __import__("ehrelay").BinaryChannel(0.95, 0.9)),
                     np.array([[0.95, 0.05], [0.1, 0.9]])),
                ]:
                    kernel = build_kernel(spec, policy, arrival)
                    want = kernel_by_enumeration(spec, policy.tensor(), profile)
                    assert np.allclose(kernel, want, atol=1e-14)
                    assert np.allclose(kernel.sum(axis=1), 1.0, atol=1e-12)

    def test_no_spending_with_sure_arrival_absorbs_at_capacity(self):
        spec = worked_spec()
        tables = [[[0.0, 0.0], [1.0, 0.0]]] * 3
        policy = StatePolicy.joint_policy(spec, tables)
        kernel = build_kernel(spec, policy, ArrivalModel.deterministic())
        assert np.allclose(kernel, [[0, 1, 0], [0, 0, 1], [0, 0, 1]], atol=0)

    def test_total_loss_freezes_the_level(self):
        spec = worked_spec()
        arrival = ArrivalModel.lossy(BinaryChannel(0.95, 0.95),
                                     Pmf([1.0, 0.0]), Pmf([1.0, 0.0]))
        tables = [[[0.25, 0.0], [0.75, 0.0]]] * 3
        policy = StatePolicy.joint_policy(spec, tables)
        kernel = build_kernel(spec, policy, arrival)
        assert np.allclose(kernel, np.eye(3), atol=0)

    def test_lossy_profile_composition(self):
        # p(e | x1) must compose the first hop with the per-output loss law.
        spec = BatterySpec(capacity=2, cost=2)
        ch1 = BinaryChannel(0.95, 0.9)
        zero, one = Pmf([1.0, 0.0]), Pmf([0.1, 0.9])
        arrival = ArrivalModel.lossy(ch1, zero, one)
        profile = energy_profile(arrival, spec)
        want = np.array([
            [0.95 * 1.0 + 0.05 * 0.1, 0.05 * 0.9],
            [0.10 * 1.0 + 0.90 * 0.1, 0.90 * 0.9],
        ])
        assert np.allclose(profile, want, atol=1e-15)

    def test_lossy_rejects_wrong_width(self):
        arrival = ArrivalModel.lossy(BinaryChannel(0.9, 0.9),
                                     Pmf([1.0, 0.0, 0.0]), Pmf([0.1, 0.9, 0.0]))
        spec = BatterySpec(capacity=2, cost=2)
        tables = random_joint_tables(spec, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            build_kernel(spec, StatePolicy.joint_policy(spec, tables), arrival)


class TestRegularity:
    def test_worked_kernel(self):
        report = check_regularity(WORKED_KERNEL)
        assert report.indecomposable
        assert report.self_loop_state == 0

    def test_periodic_swap(self):
        report = check_regularity([[0.0, 1.0], [1.0, 0.0]])
        assert report.indecomposable
        assert report.self_loop_state is None

    def test_block_diagonal(self):
        kernel = [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0],
                  [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]]
        assert not check_regularity(kernel).indecomposable

    def test_interior_policies_are_regular(self):
        rng = np.random.default_rng(7)
        for capacity, cost in [(2, 2), (4, 2), (6, 3)]:
            spec = BatterySpec(capacity=capacity, cost=cost)
            for _ in range(5):
                policy = StatePolicy.joint_policy(
                    spec, random_joint_tables(spec, rng))
                kernel = build_kernel(spec, policy,
                                      ArrivalModel.deterministic())
                report = check_regularity(kernel)
                assert report.indecomposable
                assert report.self_loop_state is not None


class TestStationary:
    def test_worked_instance_against_eig_oracle(self):
        pi = stationary(WORKED_KERNEL)
        oracle = stationary_eig_oracle(WORKED_KERNEL)
        assert np.max(np.abs(pi.probs - oracle)) <= 1e-10
        assert np.max(np.abs(pi.probs - WORKED_PI)) <= 1e-10

    def test_uniform_rows(self):
        kernel = np.full((4, 4), 0.25)
        assert np.allclose(stationary(kernel).probs, 0.25, atol=1e-12)

    def test_symmetric_two_state(self):
        pi = stationary([[0.9, 0.1], [0.1, 0.9]])
        assert np.allclose(pi.probs, [0.5, 0.5], atol=1e-12)

    def test_periodic_chain_has_no_steady_state(self):
        with pytest.raises(NumericalError):
            stationary([[0.0, 1.0], [1.0, 0.0]])

    def test_decomposable_chain_has_no_steady_state(self):
        with pytest.raises(NumericalError):
            stationary(np.eye(2))

    def test_random_kernels_match_eig_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = rng.dirichlet(np.ones(5), size=5)
            pi = stationary(k)
            assert np.max(np.abs(pi.probs - stationary_eig_oracle(k))) <= 1e-10
            assert np.max(np.abs(pi.probs @ k - pi.probs)) <= 1e-10

    def test_power_iteration_fallback_matches_the_direct_solve(self, monkeypatch):
        rng = np.random.default_rng(7)
        kernels = [np.asarray(WORKED_KERNEL)] + [rng.dirichlet(np.ones(5), size=5) for _ in range(5)]
        direct = [battery._solve_stationary(k)[0] for k in kernels]
        # A direct solve that always reports failure leaves power iteration.
        monkeypatch.setattr(battery, "_solve_stationary", lambda k: (np.zeros(k.shape[-1]), False))
        for k, want in zip(kernels, direct):
            pi = stationary(k).probs
            assert np.max(np.abs(pi - want)) <= 1e-10
            assert np.max(np.abs(pi @ k - pi)) <= STATIONARY_RESIDUAL

    def test_power_iteration_that_stops_short_is_a_numerical_error(self, monkeypatch):
        # a failed direct solve and one power step leave the residual unmet
        monkeypatch.setattr(battery, "_solve_stationary", lambda k: (np.zeros(k.shape[-1]), False))
        monkeypatch.setattr(battery, "_POWER_ITER_MAX", 1)
        with pytest.raises(NumericalError,
                           match="stationary solve did not reach the required residual"):
            stationary(WORKED_KERNEL)

    @staticmethod
    def _count_checks(monkeypatch) -> list:
        calls = []
        for name in ("_regularity", "_validate_kernel"):
            real = getattr(battery, name)

            def counted(kernel, name=name, real=real):
                calls.append(name)
                return real(kernel)

            monkeypatch.setattr(battery, name, counted)
        return calls

    def test_analyze_chain_checks_regularity_once(self, worked, monkeypatch):
        # One graph analysis per steady state, and no validation of a kernel
        # that was built from a checked policy.
        calls = self._count_checks(monkeypatch)
        analyze_chain(*worked)
        assert calls == ["_regularity"]

    def test_stationary_validates_a_user_kernel_once(self, monkeypatch):
        calls = self._count_checks(monkeypatch)
        stationary(WORKED_KERNEL)
        assert sorted(calls) == ["_regularity", "_validate_kernel"]

    def test_analyze_chain_bundle(self, worked):
        spec, policy, arrival = worked
        analysis = analyze_chain(spec, policy, arrival)
        assert analysis.indecomposable
        assert np.allclose(analysis.pi.probs, WORKED_PI, atol=1e-10)
        assert np.allclose(analysis.kernel, WORKED_KERNEL, atol=1e-15)


class TestPairChain:
    def build(self):
        spec, policy = worked_spec(), worked_policy()
        arrival = ArrivalModel.deterministic()
        analysis = analyze_chain(spec, policy, arrival)
        return pair_chain(spec, policy, arrival, analysis.pi)

    def test_worked_instance_pairs(self):
        chain = self.build()
        pairs = set(chain.states)
        assert pairs == {(0, 0), (0, 1), (1, 1), (1, 2),
                         (2, 0), (2, 1), (2, 2)}
        emit = dict(zip(chain.states, chain.emissions))
        assert emit[(2, 0)] == 1 and emit[(2, 1)] == 1
        assert emit[(0, 1)] == 0 and emit[(2, 2)] == 0
        assert not chain.refined

    def test_stationary_marginal_matches_battery_chain(self):
        chain = self.build()
        marginal = np.zeros(3)
        for (u, _), p in zip(chain.states, chain.pi):
            marginal[u] += p
        assert np.max(np.abs(marginal - WORKED_PI)) <= 1e-10

    def test_rows_are_stochastic(self):
        chain = self.build()
        assert np.allclose(np.asarray(chain.transition).sum(axis=1), 1.0,
                           atol=1e-12)

    def test_no_spending_emits_all_zeros(self):
        spec = worked_spec()
        tables = [[[0.5, 0.0], [0.5, 0.0]]] * 3
        policy = StatePolicy.joint_policy(spec, tables)
        arrival = ArrivalModel.deterministic()
        analysis = analyze_chain(spec, policy, arrival)
        chain = pair_chain(spec, policy, arrival, analysis.pi)
        assert all(e == 0 for e in chain.emissions)

    def test_shipped_arrivals_never_need_refinement(self):
        # A slot charges at most cost - 1 units and a pulse costs cost, so
        # under every charge law each pair emits 1 exactly when u' < u and
        # the emission map never needs refining. The indexed lift matches
        # the pair-by-pair oracle bit for bit.
        rng = np.random.default_rng(19)
        for capacity in range(1, 9):
            for cost in range(2, 7):
                spec = BatterySpec(capacity=capacity, cost=cost)
                policy = StatePolicy.joint_policy(spec, random_joint_tables(spec, rng))
                hop = BinaryChannel(*(0.5 + 0.5 * rng.random(2)))
                loss = [Pmf(rng.dirichlet(np.ones(cost))) for _ in range(2)]
                for arrival in (ArrivalModel.deterministic(),
                                ArrivalModel.first_hop(hop),
                                ArrivalModel.lossy(hop, *loss)):
                    analysis = analyze_chain(spec, policy, arrival)
                    chain = pair_chain(spec, policy, arrival, analysis.pi)
                    drops = [int(v < u) for (u, v) in chain.states]
                    assert chain.emissions.tolist() == drops
                    assert not chain.refined
                    states, transition, pi, emissions = pair_chain_oracle(
                        spec, policy, arrival, analysis.pi)
                    assert chain.states == states
                    assert np.array_equal(chain.transition, transition)
                    assert np.array_equal(chain.pi, pi)
                    assert np.array_equal(chain.emissions, emissions)


class TestMarkovEntropyRate:
    def test_deterministic_chain_is_zero(self):
        spec = worked_spec()
        tables = [[[0.0, 0.0], [1.0, 0.0]]] * 3
        policy = StatePolicy.joint_policy(spec, tables)
        arrival = ArrivalModel.deterministic()
        analysis = analyze_chain(spec, policy, arrival)
        chain = pair_chain(spec, policy, arrival, analysis.pi)
        assert markov_entropy_rate(chain) == 0.0

    def test_worked_instance_formula(self):
        spec, policy = worked_spec(), worked_policy()
        arrival = ArrivalModel.deterministic()
        analysis = analyze_chain(spec, policy, arrival)
        chain = pair_chain(spec, policy, arrival, analysis.pi)
        got = markov_entropy_rate(chain)
        assert got == pytest.approx(WORKED_PAIR_ENTROPY, abs=1e-12)
        # independent recomputation over the pair transition itself
        t = np.asarray(chain.transition)
        with np.errstate(divide="ignore"):
            logs = np.where(t > 0, np.log2(np.where(t > 0, t, 1.0)), 0.0)
        want = float(-(np.asarray(chain.pi)[:, None] * t * logs).sum())
        assert got == pytest.approx(want, abs=1e-12)


class TestForwardLoglik:
    def build(self):
        spec, policy = worked_spec(), worked_policy()
        arrival = ArrivalModel.deterministic()
        analysis = analyze_chain(spec, policy, arrival)
        return pair_chain(spec, policy, arrival, analysis.pi)

    def test_length_one_identity_channel(self):
        chain = self.build()
        # stationary pulse probability: pi_2 * p(x2 = 1 | u = 2) = 0.2
        assert forward_loglik(chain, None, [1]) == pytest.approx(
            math.log(0.2), abs=1e-12)
        assert forward_loglik(chain, None, [0]) == pytest.approx(
            math.log(0.8), abs=1e-12)

    def test_all_zero_sequence_under_no_spending(self):
        spec = worked_spec()
        tables = [[[0.5, 0.0], [0.5, 0.0]]] * 3
        policy = StatePolicy.joint_policy(spec, tables)
        arrival = ArrivalModel.deterministic()
        analysis = analyze_chain(spec, policy, arrival)
        chain = pair_chain(spec, policy, arrival, analysis.pi)
        assert forward_loglik(chain, None, [0] * 32) == 0.0

    def test_matches_exhaustive_path_sum(self):
        chain = self.build()
        noisy = BinaryChannel(0.9, 0.8)
        rng = np.random.default_rng(23)
        for n in (1, 3, 6, 10):
            for _ in range(2):
                y = rng.integers(0, 2, size=n)
                want = exhaustive_observation_loglik(
                    WORKED_KERNEL, WORKED_PI, noisy.rows, y)
                got = forward_loglik(chain, noisy, y)
                assert got == pytest.approx(want, abs=1e-9)
        # the noiseless case needs sequences the chain can actually emit:
        # pulses cost two units, so ones arrive at least three slots apart
        identity = np.eye(2)
        for y in ([0], [1], [0, 1, 0], [1, 0, 0, 1, 0, 0],
                  [0, 1, 0, 0, 1, 0, 0, 0, 1, 0]):
            want = exhaustive_observation_loglik(
                WORKED_KERNEL, WORKED_PI, identity, y)
            got = forward_loglik(chain, None, y)
            assert got == pytest.approx(want, abs=1e-9)

    def test_impossible_observation_raises(self):
        chain = self.build()
        spec = worked_spec()
        tables = [[[0.5, 0.0], [0.5, 0.0]]] * 3
        policy = StatePolicy.joint_policy(spec, tables)
        arrival = ArrivalModel.deterministic()
        analysis = analyze_chain(spec, policy, arrival)
        silent = pair_chain(spec, policy, arrival, analysis.pi)
        with pytest.raises(NumericalError):
            forward_loglik(silent, None, [1])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValidationError):
            forward_loglik(self.build(), None, [])

    def test_stacked_rows_match_exhaustive_path_sum(self):
        # One call scores noiseless rows (codes 0/1) and noisy rows (codes
        # 2/3) against the two observation tables stacked.
        chain = self.build()
        noisy = BinaryChannel(0.9, 0.8)
        table = np.vstack([_observation_table(chain, None),
                           _observation_table(chain, noisy)])
        rng = np.random.default_rng(29)
        for n in range(1, 11):
            clean = [chain.emissions[sample_path(chain.transition, s, n, rng)]
                     for s in rng.integers(0, len(chain.states), size=2)]
            received = [rng.integers(0, 2, size=n) for _ in range(3)]
            codes = np.array(clean + [y + 2 for y in received])
            got = _forward_pass(chain, table, codes)
            want = ([exhaustive_observation_loglik(WORKED_KERNEL, WORKED_PI, np.eye(2), y)
                     for y in clean]
                    + [exhaustive_observation_loglik(WORKED_KERNEL, WORKED_PI, noisy.rows, y)
                       for y in received])
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_long_rows_match_the_scalar_recursion(self):
        # Rows longer than the pass's block of steps, against a plain
        # per-symbol loop over the same recursion.
        chain = self.build()
        noisy = BinaryChannel(0.9, 0.8)
        rng = np.random.default_rng(37)
        clean = chain.emissions[sample_path(chain.transition, 0, 2500, rng)]
        received = (rng.random(2500) < 0.3).astype(int)
        got = _forward_pass(chain, np.vstack([_observation_table(chain, None),
                                              _observation_table(chain, noisy)]),
                            np.array([clean, received + 2]))
        for y, channel, score in ((clean, None, got[0]), (received, noisy, got[1])):
            want = scalar_loglik(chain, _observation_table(chain, channel), y)
            assert score == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_impossible_row_is_minus_inf_on_its_own(self):
        chain = self.build()
        rows = np.array([[0, 0, 1, 0, 0, 0, 1, 0],
                         [0, 1, 1, 0, 0, 0, 0, 0],   # two pulses in a row
                         [1, 0, 0, 0, 1, 0, 0, 1],
                         [0, 0, 0, 0, 0, 0, 0, 0]])
        got = _forward_pass(chain, _observation_table(chain, None), rows)
        assert got[1] == -np.inf
        for i in (0, 2, 3):
            want = forward_loglik(chain, None, rows[i])
            assert got[i] == pytest.approx(want, rel=1e-12, abs=0.0)
        with pytest.raises(NumericalError):
            forward_loglik(chain, None, rows[1])


def scalar_loglik(chain, table, y) -> float:
    """The scaled forward recursion one symbol at a time, -inf once it dies."""
    alpha = chain.pi * table[y[0]]
    total = 0.0
    for i, sym in enumerate(y):
        if i:
            alpha = (alpha @ chain.transition) * table[sym]
        scale = alpha.sum()
        if scale == 0.0:
            return -math.inf
        total += math.log(scale)
        alpha = alpha / scale
    return total


def _chain(name: str):
    if name == "worked":
        spec, policy = worked_spec(), worked_policy()
    else:  # a 7-level battery with 23 pair states
        spec = BatterySpec(capacity=6, cost=2)
        policy = StatePolicy.joint_policy(spec, random_joint_tables(spec, np.random.default_rng(41)))
    arrival = ArrivalModel.deterministic()
    return pair_chain(spec, policy, arrival, analyze_chain(spec, policy, arrival).pi)


def _emitted(chain, rows: int, n: int, rng) -> np.ndarray:
    starts = rng.integers(0, len(chain.states), size=rows)
    return np.array([chain.emissions[sample_path(chain.transition, s, n, rng)]
                     for s in starts])


class TestForwardWords:
    """The pass advances a word of several symbols per step; every row must
    score as the per-symbol recursion does."""

    @pytest.mark.parametrize("name", ["worked", "seven-level"])
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("batch", [1, 3, 256])
    def test_matches_the_scalar_recursion(self, name, noisy, batch):
        chain = _chain(name)
        table = _observation_table(chain, BinaryChannel(0.9, 0.8) if noisy else None)
        # the word the pass picks for this batch of 20,000-symbol rows
        word = _word_length(2, len(chain.states), batch, 20_000)
        assert word > 1
        rng = np.random.default_rng(batch)
        # n = 1 and every remainder (n - 1) % word, with and without a full word
        for n in range(1, 2 * word + 2):
            rows = rng.integers(0, 2, size=(batch, n)) if noisy else _emitted(chain, batch, n, rng)
            got = _forward_pass(chain, table, rows, word=word)
            want = [scalar_loglik(chain, table, y) for y in rows]
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_rows_past_one_block_of_words(self):
        chain = _chain("worked")
        table = _observation_table(chain, BinaryChannel(0.9, 0.8))
        word = _word_length(2, len(chain.states), 1, 20_000)
        y = np.random.default_rng(43).integers(0, 2, size=_BLOCK * word + 3)
        got = _forward_pass(chain, table, y[None, :], word=word)[0]
        assert got == pytest.approx(scalar_loglik(chain, table, y), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("word", range(1, 10))
    def test_every_word_length(self, word):
        chain = _chain("seven-level")
        table = _observation_table(chain, BinaryChannel(0.7, 0.95))
        rng = np.random.default_rng(word)
        for n in (1, word, word + 1, 3 * word + 2):
            rows = rng.integers(0, 2, size=(3, n))
            got = _forward_pass(chain, table, rows, word=word)
            want = [scalar_loglik(chain, table, y) for y in rows]
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", ["worked", "seven-level"])
    @pytest.mark.parametrize("word", [None, 3, 7])
    def test_minus_inf_exactly_where_the_scalar_recursion_dies(self, name, word):
        chain = _chain(name)
        table = _observation_table(chain, None)
        rng = np.random.default_rng(47)
        for n in (1, 2, 9, 24):
            # random rows the chain often cannot emit, mixed with rows it did
            rows = np.vstack([rng.integers(0, 2, size=(128, n)), _emitted(chain, 128, n, rng)])
            got = _forward_pass(chain, table, rows, word=word)
            want = np.array([scalar_loglik(chain, table, y) for y in rows])
            dead = want == -np.inf
            assert np.array_equal(got == -np.inf, dead)
            assert got[~dead] == pytest.approx(want[~dead], rel=1e-12, abs=0.0)
        assert dead.any() and not dead.all()

    @pytest.mark.parametrize("batch, n", [(3, 2000), (256, 64)])
    def test_identical_rows_score_bit_identically(self, batch, n):
        # receiver_smoke_trial breaks score ties with argmax
        chain = _chain("seven-level")
        rng = np.random.default_rng(53)
        distinct = _emitted(chain, 2, n, rng)
        which = rng.integers(0, 2, size=batch)
        which[:2] = [0, 1]
        for table in (_observation_table(chain, None),
                      _observation_table(chain, BinaryChannel(0.9, 0.8))):
            got = _forward_pass(chain, table, distinct[which])
            for i in (0, 1):
                assert np.unique(got[which == i]).size == 1

    def test_word_length_grows_with_the_rows_within_the_table_cap(self):
        batches, lengths = (1, 2, 16, 256, 4096), (1, 2, 3, 10, 64, 2_000, 20_000, 10**6)
        for kinds in (2, 3, 4):
            wide = 1
            while kinds ** 2 * wide * (wide + 1) <= _WORD_TABLE_CAP:
                wide += 1
            for states in (3, 7, 23, 60, wide - 1, wide):
                words = np.array([[_word_length(kinds, states, batch, n) for n in lengths]
                                  for batch in batches])
                # k never falls as the batch or the row length grows
                assert (np.diff(words, axis=0) >= 0).all()
                assert (np.diff(words, axis=1) >= 0).all()
                assert (words[:, :2] == 1).all()  # n <= 2 leaves no word to form
                if states == wide:  # even a two-symbol table is past the cap
                    assert (words == 1).all()
                else:
                    assert kinds ** words.max() * states * (states + 1) <= _WORD_TABLE_CAP
                    assert words.max() > 1

    def test_underflowing_words_are_rescored_one_symbol_at_a_time(self):
        # Each symbol scales by about 1e-150, so a word of three underflows.
        chain = _chain("worked")
        got = forward_loglik(chain, BinaryChannel(1e-150, 0.5), [0] * 40)
        assert got == pytest.approx(-6959.319323114074, rel=1e-12, abs=0.0)
        # A word of three symbols that each scale by 1e-107 lands among the
        # subnormals, where only a few digits of its scale survive.
        table = np.full((2, len(chain.states)), 1e-107)
        y = np.zeros(40, dtype=int)
        got = _forward_pass(chain, table, y[None, :], word=3)[0]
        assert got == pytest.approx(scalar_loglik(chain, table, y), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("word", [8, 10])
    def test_long_words_that_underflow_are_rescored(self, word):
        # Symbols that each scale by 1e-40: a word of 8 lands among the
        # subnormals and a word of 10 underflows to zero.
        chain = _chain("seven-level")
        table = np.full((2, len(chain.states)), 1e-40)
        rows = np.random.default_rng(59).integers(0, 2, size=(3, 5 * word + 4))
        got = _forward_pass(chain, table, rows, word=word)
        want = [scalar_loglik(chain, table, y) for y in rows]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
