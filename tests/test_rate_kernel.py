"""The batched rate kernel shared by the public rate functions and the
optimizer: a policy's value must not depend on the batch it is scored in,
must match the public rate at the decoded policy, and a singular kernel in a
stack must cost only its own row. The walks batched into one call per round
must walk exactly as the ascent that scores its moves position by position,
score the rows the round-by-round ascent they replaced scored, call for call,
and wait only on their own moves."""

import hashlib
import importlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ehrelay import (
    ArrivalModel,
    BatterySpec,
    BinaryChannel,
    Model,
    OptimizeOptions,
    Pmf,
    StatePolicy,
    binary_entropy,
    build_kernel,
    optimize,
    per_level_receiver_bits,
    per_level_source_entropy_bits,
    second_hop_bounds,
)
from ehrelay.battery import _kernels, _solve_stationary, _tensor_cells, transition_tensor
from ehrelay.pmf import _h2
from ehrelay.rates import _charge_law, _scheme, product_bounds
from conftest import (
    ascend_oracle,
    h2_oracle,
    kernels_oracle,
    lookback_ascend_oracle,
    product_bounds_oracle,
    random_joint_tables,
    solve_stationary_epilogue_oracle,
    solve_stationary_oracle,
    transition_tensor_oracle,
)

# The package attribute ``ehrelay.optimize`` is the function, not the module.
opt = importlib.import_module("ehrelay.optimize")

EPS = OptimizeOptions().eps_pos


@st.composite
def problems_and_charge_laws(draw):
    """A search problem of any batched model on a random battery and channels,
    with the charge law its scheme was built from."""
    model = draw(st.sampled_from([Model.SECOND_HOP, Model.BOTH_HOPS, Model.RANDOM_LOSS]))
    cost = draw(st.integers(2, 6))
    low = 2 if model is Model.SECOND_HOP else max(cost, 2)
    spec = BatterySpec(capacity=draw(st.integers(low, 8)), cost=cost)
    q = st.floats(0.02, 0.98)
    ch1 = BinaryChannel(draw(q), draw(q))
    ch2 = BinaryChannel(draw(q), draw(q))
    assume(abs(ch2.q1 + ch2.q2 - 1.0) > 1e-6)
    loss = None
    if model is Model.RANDOM_LOSS:
        weights = [draw(st.integers(1, 99)) for _ in range(2 * cost)]
        loss = tuple(Pmf(np.array(w) / sum(w)) for w in (weights[:cost], weights[cost:]))
    scheme = _scheme(model, spec, ch1, ch2, loss)
    problem = opt._SecondHopProblem if model is Model.SECOND_HOP else opt._ProductProblem
    return problem(scheme, EPS), _charge_law(model, ch1, loss)


def problems():
    """A search problem of any batched model on a random battery and channels."""
    return problems_and_charge_laws().map(lambda pair: pair[0])


def _thetas(problem, seed: int, faces: bool = True, wide: bool = False,
            most: int = 16) -> np.ndarray:
    """1 to ``most`` random cube points; with ``faces``, a fifth of the
    coordinates sit on 0 or 1, where decoding puts probabilities on the
    floor. With ``wide``, a quarter of the draws take 17-600 points instead,
    the sizes of an ascent round's calls (up to restarts x 2 dims rows)
    and past one ``_CHUNK``."""
    rng = np.random.default_rng(seed)
    low, high = (17, 601) if wide and rng.random() < 0.25 else (1, most + 1)
    thetas = rng.random((int(rng.integers(low, high)), problem.dims))
    if faces:
        on_face = rng.random(thetas.shape) < 0.2
        thetas[on_face] = rng.integers(0, 2, size=int(on_face.sum()))
    return thetas


class TestBatchedKernel:
    @settings(max_examples=80, deadline=None)
    @given(problems(), st.integers(0, 2**32 - 1))
    def test_row_value_does_not_depend_on_its_batch(self, problem, seed):
        thetas = _thetas(problem, seed, wide=True)
        batched = problem.values(thetas)
        for k in range(len(thetas)):
            assert batched[k] == problem.values(thetas[k:k + 1])[0]

    @settings(max_examples=80, deadline=None)
    @given(problems(), st.integers(0, 2**32 - 1))
    def test_matches_the_public_rate_at_the_decoded_policy(self, problem, seed):
        # Interior points only: on the faces a floor-level probability makes
        # the chain ill-conditioned, and the last-ulp renormalization that
        # the public policy types apply to the decoded tables moves the
        # steady state by up to ~1e-12 there. That gap is the conditioning
        # of the instance, not a difference between the two formulas.
        thetas = _thetas(problem, seed, faces=False)
        batched = problem.values(thetas)
        assert np.isfinite(batched).all()
        for theta, value in zip(thetas, batched):
            breakdown, _ = problem.finalize(theta)
            assert abs(breakdown.rate - value) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(problems_and_charge_laws(), st.integers(0, 2**32 - 1))
    def test_chain_helpers_match_their_reference_forms(self, case, seed):
        # The scheme's cells, then the kernels, the steady-state solve and
        # the binary entropy of a scored batch, each bit for bit what its
        # plain form gives.
        problem, arrival = case
        tensor = transition_tensor_oracle(problem.scheme.spec, arrival)
        assert problem.scheme.cells.tobytes() == _tensor_cells(tensor).tobytes()
        thetas = _thetas(problem, seed, wide=True)
        if thetas.shape[0] > 2:
            thetas[1, -1] = np.nan  # a row whose chain fails
        if isinstance(problem, opt._ProductProblem):
            src, rows = problem.decode(thetas)
            joint = src[:, None, :, None] * rows[:, :, None, :]
        else:
            joint = problem.decode(thetas)
        kernel = _kernels(joint, problem.scheme.cells)
        assert kernel.tobytes() == kernels_oracle(joint, tensor).tobytes()
        pi, ok = _solve_stationary(kernel)
        want_pi, want_ok = solve_stationary_oracle(kernel)
        assert pi.tobytes() == want_pi.tobytes() and ok.tolist() == want_ok.tolist()
        assert _h2(joint).tobytes() == h2_oracle(joint).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(problems(), st.integers(0, 2**32 - 1), st.booleans())
    def test_merged_scorer_steps_match_their_forms_before(self, problem, seed, one):
        # One row, as the public rates score, or a stack with points on the
        # cube faces; levels below the cost hold zero cells (no spending), and
        # a NaN row's chain fails. The steady state of a single kernel, the
        # public path's, is checked too.
        thetas = _thetas(problem, seed, wide=not one)[:1 if one else None]
        if len(thetas) > 2:
            thetas[1, 0] = np.nan
        product = isinstance(problem, opt._ProductProblem)
        if product:
            src, rows = problem.decode(thetas)
            joint = src[:, None, :, None] * rows[:, :, None, :]
        else:
            joint = problem.decode(thetas)
        kernel = _kernels(joint, problem.scheme.cells)
        for k in (kernel[0], kernel):
            pi, ok = _solve_stationary(k)
            want_pi, want_ok = solve_stationary_epilogue_oracle(k)
            assert pi.tobytes() == want_pi.tobytes()
            assert np.asarray(ok).tobytes() == want_ok.tobytes()
        if product:
            s = problem.scheme
            got = product_bounds(src, rows, pi, s.ch1, s.ch2, s.penalty)
            want = product_bounds_oracle(src, rows, pi, s.ch1, s.ch2, s.penalty)
            assert [b.tobytes() for b in got] == [b.tobytes() for b in want]

    def test_h2_equals_binary_entropy(self):
        tiny = np.finfo(float).smallest_subnormal
        grid = np.concatenate([
            np.linspace(0.0, 1.0, 100_001),
            [0.0, 1.0, tiny, 2.0 * tiny, 1e-310, np.finfo(float).tiny,
             1e-300, 1e-17, 1.0 - 1e-16, np.nextafter(1.0, 0.0)],
        ])
        assert np.array_equal(_h2(grid), binary_entropy(grid))
        assert _h2(grid).tobytes() == h2_oracle(grid).tobytes()
        for p in grid[-10:]:
            assert float(_h2(p)) == binary_entropy(float(p))

    def test_per_level_helpers_take_batch_axes(self):
        rng = np.random.default_rng(3)
        spec = BatterySpec(capacity=5, cost=2)
        ch2 = BinaryChannel(0.9, 0.8)
        joint = np.stack([np.array(random_joint_tables(spec, rng)) for _ in range(6)])
        x2_rows = joint.sum(axis=-2)
        stacked_h = per_level_source_entropy_bits(joint)
        stacked_i = per_level_receiver_bits(x2_rows, ch2)
        assert stacked_h.shape == stacked_i.shape == (6, spec.states)
        for k in range(6):
            assert np.array_equal(stacked_h[k], per_level_source_entropy_bits(joint[k]))
            assert np.array_equal(stacked_i[k], per_level_receiver_bits(x2_rows[k], ch2))


class TestLookAheadAscent:
    @settings(max_examples=40, deadline=None)
    @given(problems(), st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_walks_exactly_as_the_position_by_position_oracle(self, problem, seed, iters):
        starts = _thetas(problem, seed, most=9)
        # A NaN source coordinate leaves the start's kernel non-finite, so its
        # chain fails and it scores -inf at every point it tries.
        failed = starts[:1].copy()
        failed[0, 0] = np.nan
        starts = np.vstack([starts, failed])
        thetas, values = ascend_oracle(problem, starts, iters)
        evaluations = problem.evaluations
        problem.evaluations = 0
        got_thetas, got_values = opt._ascend(problem, starts, problem.score(starts), iters)
        assert np.array_equal(got_thetas, thetas, equal_nan=True)
        assert np.array_equal(got_values, values)
        assert values[-1] == -np.inf
        assert problem.evaluations == evaluations

    @settings(max_examples=40, deadline=None)
    @given(problems(), st.integers(0, 2**32 - 1), st.one_of(st.integers(1, 12), st.just(200)))
    def test_scores_the_batches_of_the_lookback_ascent(self, problem, seed, iters):
        # The walks, batched by their driver, score the same rows in the same
        # calls as the round-by-round ascent they replaced, and end alike.
        starts = _thetas(problem, seed, most=9)
        failed = starts[:1].copy()
        failed[0, 0] = np.nan
        starts = np.vstack([starts, failed])
        values = problem.score(starts)
        real, runs = problem.values, []
        for ascend in (lookback_ascend_oracle, opt._ascend):
            calls = []

            def recorded(thetas, calls=calls):
                calls.append((len(thetas), thetas.tobytes()))
                return real(thetas)

            problem.values, problem.evaluations = recorded, 0
            runs.append((calls, *ascend(problem, starts, values, iters), problem.evaluations))
        problem.values = real
        (want_calls, want_thetas, want_values, want), (calls, thetas, finals, got) = runs
        assert calls == want_calls
        assert np.array_equal(thetas, want_thetas, equal_nan=True)
        assert np.array_equal(finals, want_values, equal_nan=True)
        assert got == want

    def test_a_start_with_a_singular_chain_climbs_out_as_the_oracle(self):
        # With no positivity floor, zero source biases keep levels 0 and 1
        # from ever charging: two closed classes, a singular balance system.
        # The ascent starts at -inf and must leave it as the oracle does.
        scheme = _scheme(Model.SECOND_HOP, BatterySpec(capacity=3, cost=2),
                         ch2=BinaryChannel(0.9, 0.9))
        problem = opt._SecondHopProblem(scheme, 0.0)
        rng = np.random.default_rng(5)
        starts = rng.random((4, problem.dims))
        starts[0, :2] = 0.0
        assert problem.values(starts[:1])[0] == -np.inf
        thetas, values = ascend_oracle(problem, starts, 200)
        evaluations = problem.evaluations
        problem.evaluations = 0
        got_thetas, got_values = opt._ascend(problem, starts, problem.score(starts), 200)
        assert np.isfinite(values).all()
        assert np.array_equal(got_thetas, thetas)
        assert np.array_equal(got_values, values)
        assert problem.evaluations == evaluations


def assert_ascents_wait_only_on_their_own_moves(problem, starts, values, iters):
    """``_ascend`` over all starts makes as many ``values`` calls as the busiest
    start alone, every row is that start's solo result, and the evaluations add up."""
    assert len(starts) * 2 * problem.dims <= opt._CHUNK  # one call per round
    calls = [0]
    real = problem.values

    def counted(thetas):
        calls[0] += 1
        return real(thetas)

    problem.values = counted
    before = problem.evaluations
    thetas, finals = opt._ascend(problem, starts, values, iters)
    together, evaluations = calls[0], problem.evaluations - before
    solo_calls, solo_evaluations = [], 0
    for k in range(len(starts)):
        calls[0], before = 0, problem.evaluations
        theta, final = opt._ascend(problem, starts[k:k + 1], values[k:k + 1], iters)
        assert np.array_equal(theta[0], thetas[k], equal_nan=True)
        assert np.array_equal(final, finals[k:k + 1])
        solo_calls.append(calls[0])
        solo_evaluations += problem.evaluations - before
    problem.values = real
    assert together == max(solo_calls)
    assert evaluations == solo_evaluations


# The optimizer cells of the benchmark's sweep workload: (model, cost, capacity).
BENCH_CELLS = [("timing", 2, 2), ("timing", 6, 6), ("second-hop", 2, 2), ("both-hops", 2, 2),
               ("random-loss", 2, 2), ("both-hops", 2, 6), ("random-loss", 2, 8)]

# The work of each bench cell at seed 0: (scorer calls, rows scored,
# evaluations). The evaluations are those of the ascent that scored each
# sweep's moves from its position on; the calls and rows are the look-back's.
BENCH_WORK = {
    ("timing", 2, 2): (40, 65, 65),
    ("timing", 6, 6): (40, 65, 65),
    ("second-hop", 2, 2): (52, 4_656, 4_661),
    ("both-hops", 2, 2): (61, 1_486, 1_407),
    ("random-loss", 2, 2): (62, 1_618, 1_527),
    ("both-hops", 2, 6): (110, 6_918, 4_136),
    ("random-loss", 2, 8): (137, 10_413, 5_015),
}


def _optimize_bench_cell(model: str, cost: int, capacity: int):
    """A bench sweep cell's ``optimize`` call at seed 0, with the benchmark's options."""
    loss = (Pmf([1.0] + [0.0] * (cost - 1)), Pmf([0.1, 0.9] + [0.0] * (cost - 2)))
    return optimize(model, BatterySpec(capacity=capacity, cost=cost),
                    ch1=BinaryChannel.from_crossover(0.05), ch2=BinaryChannel.from_crossover(0.1),
                    loss=loss if model == "random-loss" else None,
                    opts=OptimizeOptions(grid_budget=4000, restarts=4, seed=0))


class TestAscentScheduling:
    @settings(max_examples=40, deadline=None)
    @given(problems(), st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_hypothesis_problems(self, problem, seed, iters):
        starts = _thetas(problem, seed, most=9)
        failed = starts[:1].copy()
        failed[0, 0] = np.nan  # a start whose chain fails at every point
        starts = np.vstack([starts, failed])
        assert_ascents_wait_only_on_their_own_moves(problem, starts, problem.score(starts), iters)

    @pytest.mark.parametrize("model, cost, capacity", BENCH_CELLS)
    def test_benchmark_sweep_cells(self, monkeypatch, model, cost, capacity):
        ascents = []
        real = opt._ascend

        def recorded(problem, starts, values, iters):
            ascents.append((problem, starts.copy(), values.copy(), iters))
            return real(problem, starts, values, iters)

        monkeypatch.setattr(opt, "_ascend", recorded)
        _optimize_bench_cell(model, cost, capacity)
        monkeypatch.undo()
        if model == "timing":  # the timing search is a line search and runs no ascent
            assert ascents == []
            return
        (problem, starts, values, iters), = ascents
        assert len(starts) == 5
        assert_ascents_wait_only_on_their_own_moves(problem, starts, values, iters)

    @pytest.mark.parametrize("model, cost, capacity", BENCH_CELLS)
    def test_benchmark_sweep_cell_work_is_pinned(self, monkeypatch, model, cost, capacity):
        work = [0, 0]
        for kind in (opt._SecondHopProblem, opt._ProductProblem, opt._TimingProblem):
            def counted(problem, thetas, real=kind.values):
                work[0] += 1
                work[1] += len(thetas)
                return real(problem, thetas)

            monkeypatch.setattr(kind, "values", counted)
        result = _optimize_bench_cell(model, cost, capacity)
        assert (*work, result.evaluations) == BENCH_WORK[model, cost, capacity]


class TestSingularRows:
    def test_decomposable_kernel_scores_minus_inf_on_its_row_only(self):
        # Each row's kernel is build_kernel's, bit for bit, under every charge law.
        spec = BatterySpec(capacity=2, cost=2)
        ch2 = BinaryChannel(0.9, 0.9)
        hop = BinaryChannel(0.95, 0.9)
        rng = np.random.default_rng(11)
        tables = [random_joint_tables(spec, rng) for _ in range(5)]
        # Level 0 never charges, levels 1 and 2 swap forever: under sure
        # charging two closed classes, {0} and {1, 2}, so the balance
        # equations are singular.
        tables[2] = [[[1.0, 0.0], [0.0, 0.0]],
                     [[0.0, 0.0], [1.0, 0.0]],
                     [[0.0, 0.0], [0.0, 1.0]]]
        policies = [StatePolicy.joint_policy(spec, t) for t in tables]
        joint = np.stack([p.tensor() for p in policies])
        for arrival in (ArrivalModel.deterministic(), ArrivalModel.first_hop(hop),
                        ArrivalModel.lossy(hop, Pmf([0.3, 0.7]), Pmf([0.6, 0.4]))):
            cells = _tensor_cells(transition_tensor(spec, arrival))
            kernel = _kernels(joint, cells)
            for k, policy in enumerate(policies):
                assert np.array_equal(kernel[k], build_kernel(spec, policy, arrival))
            singular = [arrival.kind == "deterministic" and k == 2 for k in range(5)]
            if any(singular):
                a = np.swapaxes(kernel, -1, -2) - np.eye(spec.states)
                a[..., -1, :] = 1.0
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.solve(a, np.ones(a.shape[:-1] + (1,)))

            pi, ok = opt._chain_values(joint, cells)
            scores = opt._scores(ok, *second_hop_bounds(joint, pi, ch2))
            assert ok.tolist() == [not s for s in singular]
            for k in range(5):
                if singular[k]:
                    assert scores[k] == -np.inf
                    continue
                pi1, ok1 = opt._chain_values(joint[k:k + 1], cells)
                assert ok1[0] and np.array_equal(pi[k], pi1[0])
                assert scores[k] == opt._scores(
                    ok1, *second_hop_bounds(joint[k:k + 1], pi1, ch2))[0]


class TestChunking:
    @pytest.mark.parametrize("chunk", [1, 7])
    def test_results_do_not_depend_on_the_chunk_size(self, monkeypatch, chunk):
        spec = BatterySpec(capacity=3, cost=2)
        kw = dict(ch1=BinaryChannel(0.95, 0.95), ch2=BinaryChannel(0.9, 0.9),
                  opts=OptimizeOptions(grid_points=5, grid_budget=300,
                                       refine_iters=20, restarts=3, seed=2))
        reference = optimize(Model.BOTH_HOPS, spec, **kw)
        monkeypatch.setattr(opt, "_CHUNK", chunk)
        again = optimize(Model.BOTH_HOPS, spec, **kw)
        assert again.theta == reference.theta
        assert again.policy_digest == reference.policy_digest
        assert again.evaluations == reference.evaluations


# ``values`` of the three batched scorers frozen in ``float.hex``, at cost 2
# and capacities 2, 6 and 8 under the shipped sweep channels and loss laws.
# Each (model, capacity) scores seeded batches of 1, 17, 31 and 80 rows, a
# fifth of whose coordinates sit on the cube faces; one row of the 31-row
# batch has a NaN source coordinate, so its chain fails and it scores -inf.
# A pin is the row count, the number of -inf rows, the greatest value and a
# sha256 prefix of every row's ``float.hex``, so one flipped bit in any row
# breaks it.
SCORER_PIN_BATCHES = (1, 17, 31, 80)


def _scorer_problem(model: str, capacity: int):
    loss = (Pmf([1.0, 0.0]), Pmf([0.1, 0.9])) if model == "random-loss" else None
    scheme = _scheme(Model(model), BatterySpec(capacity=capacity, cost=2),
                     BinaryChannel.from_crossover(0.05), BinaryChannel.from_crossover(0.1),
                     loss)
    kind = opt._SecondHopProblem if model == "second-hop" else opt._ProductProblem
    return kind(scheme, EPS)


def _scorer_pin(model: str, capacity: int) -> tuple:
    problem = _scorer_problem(model, capacity)
    rng = np.random.default_rng([2026, capacity, len(model)])
    out = []
    for rows in SCORER_PIN_BATCHES:
        thetas = rng.random((rows, problem.dims))
        on_face = rng.random(thetas.shape) < 0.2
        thetas[on_face] = rng.integers(0, 2, size=int(on_face.sum()))
        if rows == 31:
            thetas[int(rng.integers(rows)), 0] = np.nan
        out.extend(float(v).hex() for v in problem.values(thetas))
    digest = hashlib.sha256("\n".join(out).encode()).hexdigest()[:16]
    finite = [float.fromhex(v) for v in out if v != "-inf"]
    return len(out), out.count("-inf"), max(finite).hex(), digest


SCORER_PINS = {
    ("second-hop", 2): (129, 1, "0x1.6a6d15d25f74fp-2", "723a6958a521162f"),
    ("second-hop", 6): (129, 1, "0x1.92ec8f0229267p-2", "df67f7402ece06bd"),
    ("second-hop", 8): (129, 1, "0x1.8648f9820ab75p-2", "c7e0cde183bb2b04"),
    ("both-hops", 2): (129, 1, "0x1.f6450b28ca9d8p-5", "fc57ad6ca3dce6d2"),
    ("both-hops", 6): (129, 1, "0x1.f2890bea16cacp-4", "33601e2ae3bcf42c"),
    ("both-hops", 8): (129, 1, "0x1.12e5b13968658p-3", "e4f7235d0d32a27d"),
    ("random-loss", 2): (129, 1, "-0x1.97b5e4a487e90p-3", "d277dbea66d31a40"),
    ("random-loss", 6): (129, 1, "-0x1.4cac39711b6bcp-3", "6940b5912118f051"),
    ("random-loss", 8): (129, 1, "-0x1.9ffa174317484p-4", "5f3bde2288a3e3db"),
}


@pytest.mark.parametrize("model, capacity", sorted(SCORER_PINS))
def test_scorer_values_are_pinned(model, capacity):
    assert _scorer_pin(model, capacity) == SCORER_PINS[model, capacity]
