"""Search quality checks: the optimizer must beat dense line searches, random
policy draws, and its own coarser configurations, and sweeps must agree with
single calls."""

import importlib
import re

import numpy as np
import pytest

from ehrelay import (
    BatterySpec,
    BinaryChannel,
    ConstraintError,
    EhRelayError,
    Model,
    OptimizeOptions,
    Pmf,
    StatePolicy,
    SweepSpec,
    ValidationError,
    feasibility_check,
    optimize,
    second_hop_rate,
    sweep,
    timing_rate,
    uniform_policy,
)
from ehrelay.optimize import _TimingProblem
from conftest import ascend_oracle, random_joint_tables

# the package re-exports the function optimize under the module's name
optimize_module = importlib.import_module("ehrelay.optimize")

CH1 = BinaryChannel(0.95, 0.95)
CH2 = BinaryChannel(0.9, 0.9)
SPEC22 = BatterySpec(capacity=2, cost=2)

SMALL = OptimizeOptions(grid_points=11, grid_budget=2000, refine_iters=80,
                        restarts=3, seed=0)


UNKNOWN_MODEL = ("unknown model 'bogus' "
                 "(choose from: second-hop, timing, both-hops, random-loss)")
COUNTS_MESSAGE = ("grid_points, grid_budget, refine_iters, restarts, seed and aux_sizes "
                  "must be integers")

# (call, error, text its message must hold): each input branch raises its documented error
BAD_INPUTS = {
    "refine-iters-zero": (lambda: OptimizeOptions(refine_iters=0),
                          ValidationError, "refinement needs at least one iteration"),
    "aux-size-zero": (lambda: OptimizeOptions(aux_sizes=(0,)),
                      ValidationError, "aux alphabet sizes must be positive"),
    "sweep-value-fraction": (lambda: SweepSpec(models=(Model.SECOND_HOP,), parameter="cost",
                                               values=(2.7,), ch2=CH2),
                             ValidationError, "sweep values must be positive integers"),
    "sweep-value-string": (lambda: SweepSpec(models=(Model.SECOND_HOP,), parameter="cost",
                                             values=("3",), ch2=CH2),
                           ValidationError, "sweep values must be positive integers"),
    # each count was once used as given: truncated, rounded, or a numpy TypeError
    **{f"options-{name}-{value!r}": (lambda kw={name: value}: OptimizeOptions(**kw),
                                     ValidationError, COUNTS_MESSAGE)
       for name, value in [("grid_points", 2.5), ("grid_budget", 100.5), ("refine_iters", 1.5),
                           ("restarts", 2.0), ("restarts", True), ("seed", 0.5),
                           ("aux_sizes", (5.0,))]},
    "sweep-value-zero": (lambda: SweepSpec(models=(Model.SECOND_HOP,), parameter="cost",
                                           values=(0,), ch2=CH2),
                         ValidationError, "sweep values must be positive integers"),
    "capacity-sweep-without-cost": (
        lambda: SweepSpec(models=(Model.SECOND_HOP,), parameter="capacity", values=(2, 3),
                          ch2=CH2),
        ValidationError, "capacity sweeps need a fixed cost of at least 2"),
    # the floor is checked by the search builder, so the timing cells before
    # the second-hop ones cannot run first
    "sweep-floor-without-room": (
        lambda: SweepSpec(models=(Model.TIMING, Model.SECOND_HOP), parameter="cost",
                          values=(2, 3), ch1=BinaryChannel.from_crossover(0.05),
                          ch2=BinaryChannel.from_crossover(0.1),
                          opts=OptimizeOptions(eps_pos=0.3)),
        ConstraintError, "positivity floor 0.3 leaves no room in a four-cell table"),
    # a string floor was once Python's TypeError
    "options-eps-pos-string": (lambda: OptimizeOptions(eps_pos="x"), ValidationError,
                               "positivity floor must be a number, got 'x'"),
    "sweep-no-models": (lambda: SweepSpec(models=(), parameter="cost", values=(2,), ch2=CH2),
                        ValidationError, "sweep.models must not be empty"),
    # Model refuses an unknown name itself, with the text the CLI prints
    "model-unknown": (lambda: Model("bogus"), ValidationError, UNKNOWN_MODEL),
    "optimize-unknown-model": (lambda: optimize("bogus", SPEC22, ch2=CH2),
                               ValidationError, UNKNOWN_MODEL),
    "sweep-unknown-model": (lambda: SweepSpec(models=("second-hop", "bogus"), parameter="cost",
                                              values=(2,), ch2=CH2),
                            ValidationError, UNKNOWN_MODEL),
    "feasibility-unknown-model": (
        lambda: feasibility_check(uniform_policy(Model.SECOND_HOP, SPEC22), "bogus"),
        ValidationError, UNKNOWN_MODEL),
    "uniform-policy-unknown-model": (lambda: uniform_policy("bogus", SPEC22),
                                     ValidationError, UNKNOWN_MODEL),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_raises_its_documented_error(case):
    call, error, text = BAD_INPUTS[case]
    with pytest.raises(error, match=re.escape(text)):
        call()


class TestOptions:
    def test_grid_floor(self):
        with pytest.raises(ValidationError):
            OptimizeOptions(grid_points=1)

    def test_eps_range(self):
        with pytest.raises(ValidationError):
            OptimizeOptions(eps_pos=0.6)
        with pytest.raises(ValidationError):
            OptimizeOptions(eps_pos=0.0)

    def test_wide_floor_rejected_on_joint_tables(self):
        opts = OptimizeOptions(grid_points=5, grid_budget=200,
                               refine_iters=10, restarts=1, eps_pos=0.3)
        with pytest.raises(ConstraintError):
            optimize(Model.SECOND_HOP, SPEC22, ch2=CH2, opts=opts)


class TestTimingSearch:
    def test_beats_dense_line_search(self):
        best = -np.inf
        for p in np.linspace(0.01, 0.99, 4001):
            best = max(best,
                       timing_rate(SPEC22, [1 - p, p], CH1).breakdown.rate)
        res = optimize(Model.TIMING, SPEC22, ch1=CH1, opts=SMALL)
        assert res.breakdown.rate >= best - 1e-4
        assert res.breakdown.rate == pytest.approx(best, abs=1e-4)

    def test_aux_union_takes_the_best_branch(self):
        def run(aux):
            opts = OptimizeOptions(grid_points=15, grid_budget=2000,
                                   refine_iters=60, restarts=2, seed=0,
                                   aux_sizes=aux)
            return optimize(Model.TIMING, SPEC22, ch1=CH1, opts=opts)

        lone = max(run((2,)).breakdown.rate, run((5,)).breakdown.rate)
        assert run((2, 5)).breakdown.rate == pytest.approx(lone, abs=0)

    def test_timing_result_has_no_state_policy(self):
        res = optimize(Model.TIMING, SPEC22, ch1=CH1, opts=SMALL)
        assert res.policy is None
        assert res.timing is not None
        probs = np.asarray(res.p_x1)
        assert probs.min() > 0


class _Line(optimize_module._CubeProblem):
    """A one-dimensional problem scored by a plain function of the point."""

    dims = 1

    def __init__(self, f):
        super().__init__()
        self.f = f

    def values(self, thetas):
        return self.f(thetas[:, 0])


class TestLineSearch:
    @pytest.mark.parametrize("cost", [2, 6])
    def test_benchmark_cell_makes_at_most_80_kernel_calls(self, cost, monkeypatch):
        # a timing cell of the benchmark's sweep at seed 0; the coordinate
        # ascent this search replaced made about 295 kernel calls here
        spec = BatterySpec(capacity=cost, cost=cost)
        ch1 = BinaryChannel.from_crossover(0.05)
        calls = []
        real = optimize_module._timing_laws
        monkeypatch.setattr(optimize_module, "_timing_laws",
                            lambda *args: (calls.append(args), real(*args))[1])
        res = optimize(Model.TIMING, spec, ch1=ch1,
                       opts=OptimizeOptions(grid_budget=4000, restarts=4, seed=0))
        assert len(calls) == res.evaluations <= 80
        biases = [args[1][1] for args in calls]
        assert len(set(biases)) == len(biases)
        p1 = _TimingProblem._p1(np.array(res.theta))
        assert timing_rate(spec, Pmf.binary(p1), ch1).breakdown == res.breakdown

    @pytest.mark.parametrize("f, want", [(lambda t: -t, 0.0), (lambda t: t, 1.0)])
    def test_boundary_maximum_is_returned(self, f, want):
        theta = optimize_module._line_search(_Line(f), SMALL, "edge", None)
        assert theta.tolist() == [want]

    def test_best_start_survives_a_single_iteration(self, monkeypatch):
        peak = np.linspace(0.0, 1.0, SMALL.grid_points)[3]
        opts = OptimizeOptions(grid_points=SMALL.grid_points, grid_budget=2000,
                               refine_iters=1, restarts=3, seed=0)
        theta = optimize_module._line_search(_Line(lambda t: -abs(t - peak)), opts, "spike", None)
        assert theta.tolist() == [peak]
        # and on the timing scheme: the reported rate is at least the best start's
        batches = []
        real = _TimingProblem.values

        def spy(self, thetas):
            batches.append(real(self, thetas))
            return batches[-1]

        monkeypatch.setattr(_TimingProblem, "values", spy)
        res = optimize(Model.TIMING, SPEC22, ch1=CH1, opts=opts)
        assert res.breakdown.rate >= batches[0].max()

    def test_ties_go_to_the_smaller_theta(self):
        grid = np.linspace(0.0, 1.0, SMALL.grid_points)
        twin = _Line(lambda t: np.isin(t, [grid[2], grid[8]]).astype(np.float64))
        assert optimize_module._line_search(twin, SMALL, "twin", None).tolist() == [grid[2]]
        flat = _Line(np.zeros_like)
        assert optimize_module._line_search(flat, SMALL, "flat", None).tolist() == [0.0]


class TestTimingMemo:
    def test_repeated_start_is_scored_once(self, monkeypatch):
        batches = []
        real = _TimingProblem.values

        def spy(self, thetas):
            batches.append(thetas[:, 0].tolist())
            return real(self, thetas)

        monkeypatch.setattr(_TimingProblem, "values", spy)
        # the center 0.5 and these extra starts all repeat grid points
        res = optimize(Model.TIMING, SPEC22, ch1=CH1, opts=SMALL,
                       extra_starts=[[0.5], [0.0], [0.0]])
        starts = batches[0]
        assert starts == sorted(set(starts))
        assert len(starts) == SMALL.grid_points + SMALL.restarts
        scored = [t for batch in batches for t in batch]
        assert len(scored) == len(set(scored)) == res.evaluations

    def test_infeasible_point_keeps_the_first_error(self):
        # the first-hop output is always 0, so the battery never charges
        dead = BinaryChannel(1.0, 0.0)
        problem = _TimingProblem(SPEC22, dead, 5, "mod", 1, False)
        values = problem(np.array([[0.5], [0.7]]))
        assert problem.evaluations == 2
        assert np.all(values == -np.inf)
        assert str(problem.error) == "charge probability must be in (0, 1]; 0 never recharges"
        with pytest.raises(ConstraintError, match=r"grid \(first error: charge probability"):
            optimize(Model.TIMING, SPEC22, ch1=dead, opts=SMALL)

    def test_search_equals_the_per_point_reference(self, monkeypatch):
        wait = {}  # the wait options of the search running now

        def run():
            out = []
            for cost in (2, 4):
                spec = BatterySpec(capacity=cost, cost=cost)
                for kw in ({}, {"wait_rule": "const", "wait_const": 2}, {"overlap": True}):
                    wait.clear()
                    wait.update(kw)
                    res = optimize(Model.TIMING, spec, ch1=CH1, opts=SMALL, **kw)
                    out.append((res.theta, res.policy_digest, res.evaluations, res.breakdown))
            return out

        def reference(self, thetas):
            out = np.full(len(thetas), -np.inf)
            for k, theta in enumerate(thetas):
                try:
                    out[k] = timing_rate(self.spec, Pmf.binary(self._p1(theta)), self.ch1,
                                         **wait).breakdown.rate
                except EhRelayError:
                    pass
            return out

        fast = run()
        monkeypatch.setattr(_TimingProblem, "values", reference)
        assert fast == run()

    @pytest.mark.parametrize("cost, kw", [(2, {}), (4, {"wait_rule": "const", "wait_const": 2}),
                                          (3, {"overlap": True})])
    def test_ascent_scores_no_point_ahead(self, cost, kw):
        spec = BatterySpec(capacity=cost, cost=cost)
        starts = np.array([[0.0], [1.0], [0.37], [0.81]])

        def ahead(problem, starts, iters):
            return optimize_module._ascend(problem, starts, problem.score(starts), iters)

        ran, calls = [], []
        for ascend in (ascend_oracle, ahead):
            problem = _TimingProblem(spec, CH1, 5, kw.get("wait_rule", "mod"),
                                     kw.get("wait_const", 1), kw.get("overlap", False))
            calls.append(0)

            def counted(thetas, real=problem.values):
                calls[-1] += 1
                return real(thetas)

            problem.values = counted
            thetas, values = ascend(problem, starts, 200)
            ran.append((thetas.tolist(), values.tolist(), problem.evaluations))
        assert ran[0] == ran[1]
        assert calls[1] <= calls[0]

    # (cost, wait options, theta, digest, evaluations) of the line search, and
    # the (relay, receiver) that the coordinate ascent it replaced reached,
    # which the line search's rate must not fall below
    FROZEN = [
        (2, {}, 0.8248873462483445, "084e8e58f53b", 63,
         0.4616275586665351, 0.19709299183709306),
        (2, {"wait_rule": "const", "wait_const": 2}, 0.42940505020712716, "a3beb6692f9a", 65,
         0.7023875848076682, 0.1702489116593529),
        (2, {"overlap": True}, 0.9040909988851688, "ae4d8c573c60", 65,
         0.3071715508965391, 0.3071715504129749),
        (4, {}, 0.8368853019411802, "a3aa74304071", 65,
         0.44122857022423184, 0.06900266472404909),
        (4, {"wait_rule": "const", "wait_const": 2}, 0.5594330998299952, "ba6433f659c8", 63,
         0.7056598122813598, 0.05445972782766201),
        (4, {"overlap": True}, 0.9033577084810551, "f9ba1bacbe05", 65,
         0.3088354214394907, 0.12103655350002263),
        (6, {}, 0.8334557040663642, "38c511345fd4", 65,
         0.447159889956206, -0.0022911208403182393),
        (6, {"wait_rule": "const", "wait_const": 2}, 0.624448278790069, "3887c247a177", 65,
         0.6785551193268871, -0.011450196884808972),
        (6, {"overlap": True}, 0.879446804876313, "d009024ccbf9", 65,
         0.36050765585437033, 0.02805766298986423),
    ]

    def test_results_are_frozen(self):
        opts = OptimizeOptions(grid_points=21, grid_budget=4000, refine_iters=200,
                               restarts=4, seed=3)
        for cost, kw, theta, digest, evaluations, relay, receiver in self.FROZEN:
            spec = BatterySpec(capacity=cost, cost=cost)
            res = optimize(Model.TIMING, spec, ch1=CH1, opts=opts, **kw)
            assert res.theta == (theta,)
            assert (res.policy_digest, res.evaluations) == (digest, evaluations)
            assert res.breakdown.rate >= min(relay, receiver) - 1e-12

    def test_capacity_above_the_cost_is_a_constraint_error(self):
        with pytest.raises(ConstraintError, match="requires capacity equal to the cost"):
            optimize(Model.TIMING, BatterySpec(3, 2), ch1=CH1, opts=SMALL)

    def test_unknown_wait_rule_is_rejected_up_front(self):
        with pytest.raises(ValidationError, match="unknown wait rule"):
            optimize(Model.TIMING, SPEC22, ch1=CH1, wait_rule="bogus", opts=SMALL)

    def test_constant_wait_below_one_is_rejected_up_front(self):
        with pytest.raises(ValidationError, match="constant wait must be at least one slot"):
            optimize(Model.TIMING, SPEC22, ch1=CH1, wait_rule="const", wait_const=0, opts=SMALL)
        # a sweep fails when it is built, before its second-hop cells run
        with pytest.raises(ValidationError, match="constant wait must be at least one slot"):
            SweepSpec(models=(Model.SECOND_HOP, Model.TIMING), parameter="cost", values=(2,),
                      ch1=CH1, ch2=CH2, wait_rule="const", wait_const=0)


class TestSearchQuality:
    def test_more_refinement_never_hurts(self):
        for model, kw in ((Model.TIMING, dict(ch1=CH1)),
                          (Model.BOTH_HOPS, dict(ch1=CH1, ch2=CH2))):
            rates = []
            for iters in (1, 200):
                opts = OptimizeOptions(grid_points=21, grid_budget=4000,
                                       refine_iters=iters, restarts=3, seed=0)
                rates.append(
                    optimize(model, SPEC22, opts=opts, **kw).breakdown.rate)
            assert rates[1] >= rates[0] - 1e-9

    def test_denser_grid_never_hurts(self):
        for model, kw in ((Model.TIMING, dict(ch1=CH1)),
                          (Model.BOTH_HOPS, dict(ch1=CH1, ch2=CH2))):
            rates = []
            for points in (21, 42):
                opts = OptimizeOptions(grid_points=points, grid_budget=4000,
                                       refine_iters=200, restarts=3, seed=0)
                rates.append(
                    optimize(model, SPEC22, opts=opts, **kw).breakdown.rate)
            assert rates[1] >= rates[0] - 1e-9

    def test_beats_uniform_policy(self):
        res = optimize(Model.SECOND_HOP, SPEC22, ch2=CH2, opts=SMALL)
        unfunded = np.array([[0.5, 0.0], [0.5, 0.0]])
        uniform = StatePolicy.joint_policy(
            SPEC22, [unfunded, unfunded, np.full((2, 2), 0.25)])
        floor = second_hop_rate(SPEC22, uniform, CH2).rate
        assert res.breakdown.rate >= floor - 1e-9

    def test_beats_thousand_random_policies(self):
        clean = BinaryChannel(1.0, 1.0)
        res = optimize(Model.SECOND_HOP, SPEC22, ch2=clean, opts=SMALL)
        rng = np.random.default_rng(42)
        best = -np.inf
        for _ in range(1000):
            policy = StatePolicy.joint_policy(
                SPEC22, random_joint_tables(SPEC22, rng))
            best = max(best, second_hop_rate(SPEC22, policy, clean).rate)
        assert res.breakdown.rate >= best - 1e-9

    def test_returned_policies_are_feasible(self):
        for model, kw in (
                (Model.SECOND_HOP, dict(ch2=CH2)),
                (Model.BOTH_HOPS, dict(ch1=CH1, ch2=CH2)),
                (Model.RANDOM_LOSS, dict(
                    ch1=CH1, ch2=CH2,
                    loss=(Pmf([0.95, 0.05]), Pmf([0.1, 0.9])))),
        ):
            res = optimize(model, SPEC22, opts=SMALL, **kw)
            assert feasibility_check(res.policy, model, SPEC22) == []

    def test_determinism(self):
        first = optimize(Model.BOTH_HOPS, SPEC22, ch1=CH1, ch2=CH2,
                         opts=SMALL)
        second = optimize(Model.BOTH_HOPS, SPEC22, ch1=CH1, ch2=CH2,
                          opts=SMALL)
        assert first.breakdown.rate == second.breakdown.rate
        assert first.theta == second.theta
        assert first.policy_digest == second.policy_digest


class TestLookAhead:
    def test_scoring_ahead_halves_the_calls_of_a_benchmark_cell(self, monkeypatch):
        # The random-loss cell at capacity 8 of the benchmark's sweep.
        spec = BatterySpec(capacity=8, cost=2)
        kw = dict(ch1=BinaryChannel.from_crossover(0.05), ch2=BinaryChannel.from_crossover(0.1),
                  loss=(Pmf([1.0, 0.0]), Pmf([0.1, 0.9])),
                  opts=OptimizeOptions(grid_budget=4000, restarts=4, seed=0))
        calls = []
        real = optimize_module._ProductProblem.values

        def spy(self, thetas):
            calls.append(len(thetas))
            return real(self, thetas)

        monkeypatch.setattr(optimize_module._ProductProblem, "values", spy)
        ahead = optimize(Model.RANDOM_LOSS, spec, **kw)
        ahead_calls = len(calls)
        calls.clear()
        monkeypatch.setattr(optimize_module, "_ascend",
                            lambda problem, starts, values, iters:
                            ascend_oracle(problem, starts, iters))
        oracle = optimize(Model.RANDOM_LOSS, spec, **kw)
        assert ahead_calls <= 170
        assert (ahead.theta, ahead.policy_digest, ahead.evaluations) == (
            oracle.theta, oracle.policy_digest, oracle.evaluations)
        assert type(ahead.evaluations) is int  # not a numpy integer: JSON reports take it


class TestSweep:
    def test_single_point_matches_optimize(self):
        res = optimize(Model.SECOND_HOP, SPEC22, ch2=CH2, opts=SMALL)
        plan = SweepSpec(models=(Model.SECOND_HOP,), parameter="cost",
                         values=(2,), ch2=CH2, opts=SMALL)
        row = sweep(plan)[0]
        assert row["rate"] == res.breakdown.rate
        assert row["policy_digest"] == res.policy_digest
        assert row["model"] == "second-hop"
        assert row["cost"] == 2 and row["capacity"] == 2

    def test_row_consistency(self):
        plan = SweepSpec(models=(Model.SECOND_HOP, Model.BOTH_HOPS),
                         parameter="cost", values=(2, 3),
                         ch1=CH1, ch2=CH2, opts=SMALL)
        rows = sweep(plan)
        assert len(rows) == 4
        for row in rows:
            assert row["rate"] == pytest.approx(
                min(row["relay_bound"], row["receiver_bound"]), abs=1e-12)
            assert row["achievable"] == max(row["rate"], 0.0)

    def test_numpy_integer_counts_run_as_python_ints(self):
        def plan(i):
            opts = OptimizeOptions(grid_points=i(5), grid_budget=i(200), refine_iters=i(10),
                                   restarts=i(1), seed=i(0), aux_sizes=(i(3),))
            return SweepSpec(models=(Model.TIMING, Model.SECOND_HOP), parameter="cost",
                             values=(i(2), i(3)), ch1=CH1, ch2=CH2, wait_rule="const",
                             wait_const=i(2), opts=opts)
        numpy_plan = plan(np.int64)
        assert numpy_plan.values == (2, 3) and {type(v) for v in numpy_plan.values} == {int}
        assert sweep(numpy_plan) == sweep(plan(int))

    def test_timing_cannot_sweep_capacity(self):
        with pytest.raises(ConstraintError):
            sweep(SweepSpec(models=(Model.TIMING,), parameter="capacity",
                            values=(3, 4), cost=2, ch1=CH1))

    def test_capacity_below_cost(self):
        with pytest.raises(ValidationError):
            sweep(SweepSpec(models=(Model.SECOND_HOP,), parameter="capacity",
                            values=(1, 2), cost=2, ch2=CH2))

    def test_cost_floor(self):
        with pytest.raises(ValidationError):
            sweep(SweepSpec(models=(Model.SECOND_HOP,), parameter="cost",
                            values=(1, 2), ch2=CH2))

    def test_random_loss_needs_a_shape(self):
        with pytest.raises(ValidationError):
            sweep(SweepSpec(models=(Model.RANDOM_LOSS,), parameter="cost",
                            values=(2,), ch1=CH1, ch2=CH2))

    def test_unknown_parameter(self):
        with pytest.raises(ValidationError):
            sweep(SweepSpec(models=(Model.SECOND_HOP,), parameter="width",
                            values=(2,), ch2=CH2))
