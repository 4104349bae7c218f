"""Rate models: closed forms, degenerate reductions, the feasibility
advisor, and the structural properties the sweeps rely on."""

import math

import numpy as np
import pytest

from ehrelay import (
    ArrivalModel,
    BatterySpec,
    BinaryChannel,
    ConstraintError,
    Model,
    NumericalError,
    Pmf,
    RateBreakdown,
    StatePolicy,
    ValidationError,
    both_hops_rate,
    build_kernel,
    entropy,
    feasibility_check,
    per_level_receiver_bits,
    random_loss_rate,
    require_informative_second_hop,
    second_hop_rate,
    uniform_policy,
)
from conftest import (
    ONE_MINUS_H_005,
    WORKED_RECEIVER,
    WORKED_TABLES,
    mutual_information,
    random_joint_tables,
    random_product_parts,
    stationary_eig_oracle,
    worked_policy,
    worked_spec,
)

CH2 = BinaryChannel(0.9, 0.9)
CH1 = BinaryChannel(0.95, 0.95)
PRODUCT_ROWS = [[1.0, 0.0], [1.0, 0.0], [0.5, 0.5]]


class TestRateBreakdown:
    def test_min_and_clamp(self):
        b = RateBreakdown.from_bounds(0.7, -0.2)
        assert b.rate == -0.2
        assert b.achievable == 0.0
        assert b.binding == "receiver"

    def test_tie_reports_both(self):
        b = RateBreakdown.from_bounds(0.5, 0.5 + 5e-10)
        assert b.binding == "both"

    def test_relay_binding(self):
        assert RateBreakdown.from_bounds(0.1, 0.9).binding == "relay"

    def test_one_class_under_every_import_path(self):
        import ehrelay
        from ehrelay import breakdown, rates, timing

        assert ehrelay.RateBreakdown is rates.RateBreakdown is breakdown.RateBreakdown
        assert rates.BINDING_TIE == breakdown.BINDING_TIE
        result = timing.timing_rate(BatterySpec(2, 2), [0.5, 0.5], BinaryChannel(0.95, 0.95))
        assert type(result.breakdown) is RateBreakdown


class TestChannelClassGuard:
    def test_uninformative_channel_rejected(self):
        with pytest.raises(ConstraintError):
            require_informative_second_hop(BinaryChannel(0.3, 0.7))

    def test_rate_functions_propagate_the_guard(self):
        spec = worked_spec()
        bad = BinaryChannel(0.4, 0.6)
        with pytest.raises(ConstraintError):
            second_hop_rate(spec, worked_policy(), bad)
        with pytest.raises(ConstraintError):
            both_hops_rate(spec, [0.5, 0.5], PRODUCT_ROWS, CH1, bad)

    def test_just_outside_tolerance_is_accepted(self):
        require_informative_second_hop(BinaryChannel(0.4, 0.6 + 2e-9))


class TestSecondHopRate:
    def test_worked_instance_frozen_values(self):
        b = second_hop_rate(worked_spec(), worked_policy(), CH2)
        assert b.relay_bound == pytest.approx(1.0, abs=1e-12)
        assert b.receiver_bound == pytest.approx(WORKED_RECEIVER, abs=1e-12)
        assert b.binding == "receiver"

    def test_end_to_end_recomputation(self):
        # assemble both bounds from scratch: eig stationary, per-level
        # joint-law enumeration for the information terms
        rng = np.random.default_rng(5)
        spec = BatterySpec(capacity=3, cost=2)
        for _ in range(10):
            tables = random_joint_tables(spec, rng)
            policy = StatePolicy.joint_policy(spec, tables)
            kernel = build_kernel(spec, policy, ArrivalModel.deterministic())
            pi = stationary_eig_oracle(kernel)
            receiver = relay = 0.0
            for u in range(spec.states):
                t = np.array(tables[u])
                receiver += pi[u] * mutual_information(
                    Pmf(t.sum(axis=0)), CH2)
                p_x2 = t.sum(axis=0)
                h_joint = entropy(Pmf(t.reshape(-1), tol=1e-9))
                h_x2 = entropy(Pmf(p_x2))
                relay += pi[u] * (h_joint - h_x2)
            b = second_hop_rate(spec, policy, CH2)
            assert b.receiver_bound == pytest.approx(receiver, abs=1e-12)
            assert b.relay_bound == pytest.approx(relay, abs=1e-12)
            assert b.rate == min(b.relay_bound, b.receiver_bound)

    def test_noiseless_second_hop_reduces_to_pulse_entropy(self):
        b = second_hop_rate(worked_spec(), worked_policy(),
                            BinaryChannel(1.0, 1.0))
        # only the full level pulses, with a fair coin: 0.4 * 1 bit
        assert b.receiver_bound == pytest.approx(0.4, abs=1e-12)

    def test_silent_relay_limit(self):
        eps = 1e-6
        spec = worked_spec()
        tables = [[[0.5, 0.0], [0.5, 0.0]],
                  [[0.5, 0.0], [0.5, 0.0]],
                  [[0.5 - eps, eps], [0.5 - eps, eps]]]
        b = second_hop_rate(spec, StatePolicy.joint_policy(spec, tables), CH2)
        assert b.receiver_bound <= 1e-4
        assert b.relay_bound == pytest.approx(1.0, abs=1e-3)

    def test_rejects_product_mode(self):
        policy = StatePolicy.product_policy(worked_spec(), [0.5, 0.5],
                                            PRODUCT_ROWS)
        with pytest.raises(ValidationError):
            second_hop_rate(worked_spec(), policy, CH2)


class TestBothHopsRate:
    def test_noiseless_first_hop_reduction(self):
        # with a clean first hop the product scheme must agree with the
        # joint evaluation of the induced per-level tables, bound for bound
        spec = worked_spec()
        p_x1 = [0.5, 0.5]
        b3 = both_hops_rate(spec, p_x1, PRODUCT_ROWS,
                            BinaryChannel(1.0, 1.0), CH2)
        induced = StatePolicy.joint_policy(spec, [
            np.outer(p_x1, row) for row in PRODUCT_ROWS])
        b1 = second_hop_rate(spec, induced, CH2)
        assert b3.relay_bound == pytest.approx(b1.relay_bound, abs=1e-12)
        assert b3.receiver_bound == pytest.approx(b1.receiver_bound, abs=1e-12)
        assert b3.rate == pytest.approx(b1.rate, abs=1e-12)

    def test_relay_bound_closed_form(self):
        b = both_hops_rate(worked_spec(), [0.5, 0.5], PRODUCT_ROWS, CH1, CH2)
        assert b.relay_bound == pytest.approx(ONE_MINUS_H_005, abs=1e-9)

    def test_constant_input_carries_nothing(self):
        b = both_hops_rate(worked_spec(), [1.0, 0.0], PRODUCT_ROWS, CH1, CH2)
        assert b.relay_bound == 0.0
        assert b.rate <= 0.0

    def test_requires_capacity_at_least_cost(self):
        spec = BatterySpec(capacity=2, cost=3)
        with pytest.raises(ConstraintError):
            both_hops_rate(spec, [0.5, 0.5], [[1, 0], [1, 0], [1, 0]],
                           CH1, CH2)


class TestRandomLossRate:
    LOSS = (Pmf([1.0, 0.0]), Pmf([0.1, 0.9]))

    def test_lossless_reduces_to_both_hops(self):
        lossless = (Pmf([1.0, 0.0]), Pmf([0.0, 1.0]))
        b4 = random_loss_rate(worked_spec(), [0.5, 0.5], PRODUCT_ROWS,
                              CH1, CH2, *lossless)
        b3 = both_hops_rate(worked_spec(), [0.5, 0.5], PRODUCT_ROWS, CH1, CH2)
        assert b4.relay_bound == pytest.approx(b3.relay_bound, abs=1e-12)
        assert b4.receiver_bound == pytest.approx(b3.receiver_bound, abs=1e-12)

    def test_total_loss_has_no_steady_state(self):
        total = (Pmf([1.0, 0.0]), Pmf([1.0, 0.0]))
        with pytest.raises(NumericalError):
            random_loss_rate(worked_spec(), [0.5, 0.5], PRODUCT_ROWS,
                             CH1, CH2, *total)

    def test_end_to_end_recomputation(self):
        # receiver bound from scratch: lossy kernel by enumeration, eig
        # stationary, per-level information, explicit extraction penalty
        spec = worked_spec()
        p_x1 = [0.5, 0.5]
        zero, one = self.LOSS
        profile = np.array([
            [CH1.rows[0][0] * zero.probs[e] + CH1.rows[0][1] * one.probs[e]
             for e in (0, 1)],
            [CH1.rows[1][0] * zero.probs[e] + CH1.rows[1][1] * one.probs[e]
             for e in (0, 1)],
        ])
        kernel = np.zeros((3, 3))
        for u in range(3):
            row = PRODUCT_ROWS[u]
            for x1 in (0, 1):
                for x2 in (0, 1):
                    for e in (0, 1):
                        mass = p_x1[x1] * row[x2] * profile[x1][e]
                        if mass:
                            kernel[u, min(u + e - 2 * x2, 2)] += mass
        pi = stationary_eig_oracle(kernel)
        receiver = sum(pi[u] * mutual_information(Pmf(PRODUCT_ROWS[u]), CH2)
                       for u in range(3))
        penalty = sum(p_x1[x] * entropy(Pmf(profile[x])) for x in (0, 1))
        b = random_loss_rate(spec, p_x1, PRODUCT_ROWS, CH1, CH2, zero, one)
        assert b.receiver_bound == pytest.approx(receiver - penalty, abs=1e-12)
        assert b.relay_bound == pytest.approx(
            mutual_information(Pmf(p_x1), CH1), abs=1e-12)


class TestFeasibilityCheck:
    def test_spending_below_cost(self):
        spec = worked_spec()
        policy = StatePolicy.joint_policy(
            spec,
            [[[0.4, 0.1], [0.5, 0.0]],
             [[0.5, 0.0], [0.5, 0.0]],
             [[0.25, 0.25], [0.25, 0.25]]],
            strict=False)
        violations = feasibility_check(policy, Model.SECOND_HOP, spec)
        assert any("spending below cost at level 0" in v for v in violations)

    def test_zero_cell_at_funded_level(self):
        spec = worked_spec()
        policy = StatePolicy.joint_policy(
            spec,
            [[[0.5, 0.0], [0.5, 0.0]],
             [[0.5, 0.0], [0.5, 0.0]],
             [[0.5, 0.5], [0.0, 0.0]]],
            strict=False)
        violations = feasibility_check(policy, Model.SECOND_HOP, spec)
        assert violations
        assert any("level 2" in v for v in violations)

    def test_interior_policy_is_clean(self):
        rng = np.random.default_rng(2)
        spec = BatterySpec(capacity=3, cost=2)
        policy = StatePolicy.joint_policy(spec, random_joint_tables(spec, rng))
        assert feasibility_check(policy, Model.SECOND_HOP, spec) == []

    def test_product_zero_cell(self):
        spec = worked_spec()
        policy = StatePolicy.product_policy(
            spec, [0.5, 0.5], [[1, 0], [1, 0], [1.0, 0.0]])
        violations = feasibility_check(policy, Model.BOTH_HOPS, spec)
        assert violations

    def test_timing_model_has_no_per_level_policy(self):
        with pytest.raises(ValidationError):
            feasibility_check(worked_policy(), Model.TIMING, worked_spec())

    def test_uniform_policies_are_feasible(self):
        for model in (Model.SECOND_HOP, Model.BOTH_HOPS, Model.RANDOM_LOSS):
            for spec in (BatterySpec(2, 2), BatterySpec(5, 3)):
                policy = uniform_policy(model, spec)
                assert feasibility_check(policy, model, spec) == []


class TestStructuralProperties:
    def test_receiver_symmetry_under_joint_relabeling(self):
        # swapping the channel's two fidelities while flipping every pulse
        # law relabels input and output together, so the per-level
        # information must not move
        rng = np.random.default_rng(31)
        for _ in range(50):
            rows = rng.dirichlet(np.ones(2), size=4)
            q1, q2 = rng.random(), rng.random()
            a = per_level_receiver_bits(rows, BinaryChannel(q1, q2))
            b = per_level_receiver_bits(rows[:, ::-1], BinaryChannel(q2, q1))
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_receiver_bound_is_at_most_one_bit(self):
        rng = np.random.default_rng(13)
        spec = BatterySpec(capacity=3, cost=2)
        for _ in range(50):
            policy = StatePolicy.joint_policy(
                spec, random_joint_tables(spec, rng))
            b = second_hop_rate(spec, policy, CH2)
            assert b.receiver_bound <= 1.0 + 1e-12
            assert math.isfinite(b.relay_bound)
            assert math.isfinite(b.receiver_bound)

    def test_continuity_in_the_policy(self):
        # perturbing one funded cell by delta moves the rate by at most
        # C * delta * log2(1/delta); pilot runs put the worst ratio near
        # 0.04, so C = 2 leaves a wide margin
        rng = np.random.default_rng(42)
        delta = 1e-6
        budget = 2.0 * delta * math.log2(1.0 / delta)
        spec = worked_spec()
        for _ in range(100):
            tables = random_joint_tables(spec, rng)
            base = second_hop_rate(
                spec, StatePolicy.joint_policy(spec, tables), CH2).rate
            bumped = np.array(tables[2])
            i, j = rng.integers(2), rng.integers(2)
            bumped[i, j] += delta
            bumped /= bumped.sum()
            perturbed = [tables[0], tables[1], bumped.tolist()]
            moved = second_hop_rate(
                spec, StatePolicy.joint_policy(spec, perturbed), CH2).rate
            assert abs(moved - base) <= budget
