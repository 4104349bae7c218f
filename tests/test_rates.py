"""Rate models: closed forms, degenerate reductions, the feasibility
advisor, the structural properties the sweeps rely on, and the bits of
every public rate path, pinned."""

import math

import numpy as np
import pytest

from ehrelay import (
    ArrivalModel,
    BatterySpec,
    BinaryChannel,
    CodecConfig,
    ConstraintError,
    EhRelayError,
    Model,
    NumericalError,
    Pmf,
    RateBreakdown,
    RunConfig,
    StatePolicy,
    ValidationError,
    analyze_chain,
    both_hops_rate,
    build_kernel,
    entropy,
    feasibility_check,
    pair_chain,
    per_level_receiver_bits,
    random_loss_rate,
    relay_codec_trial,
    require_informative_second_hop,
    second_hop_rate,
    simulate_states,
    timing_rate,
    uniform_policy,
)
from conftest import (
    ONE_MINUS_H_005,
    WORKED_PI,
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
        from ehrelay import rates, timing

        assert ehrelay.RateBreakdown is rates.RateBreakdown is timing.RateBreakdown
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
        with pytest.raises(ValidationError, match="the timing scheme has no per-level policy to check"):
            feasibility_check(worked_policy(), Model.TIMING, worked_spec())
        with pytest.raises(ValidationError, match="the timing scheme has no per-level policy"):
            uniform_policy(Model.TIMING, worked_spec())

    @pytest.mark.parametrize("policy, model, spec, want", [
        (worked_policy, Model.SECOND_HOP, BatterySpec(3, 2),
         "policy was built for a different battery geometry"),
        (worked_policy, Model.BOTH_HOPS, None, "this scheme requires a product policy"),
        (lambda: uniform_policy(Model.BOTH_HOPS, worked_spec()), Model.SECOND_HOP, None,
         "second-hop scheme requires a joint per-level policy"),
    ], ids=["other-geometry", "joint-under-both-hops", "product-under-second-hop"])
    def test_refusals_are_listed(self, policy, model, spec, want):
        assert feasibility_check(policy(), model, spec) == [want]

    def test_uniform_policies_are_feasible(self):
        for model in (Model.SECOND_HOP, Model.BOTH_HOPS, Model.RANDOM_LOSS):
            for spec in (BatterySpec(2, 2), BatterySpec(5, 3)):
                policy = uniform_policy(model, spec)
                assert feasibility_check(policy, model, spec) == []


# A caller's policy that the rate and lab entry points must refuse, with the
# exact error each raises: spending below the cost, or another battery.
BAD_POLICIES = {
    "spends-at-level-0": (
        lambda: StatePolicy.joint_policy(
            worked_spec(), [[[0.4, 0.1], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]],
                            [[0.25, 0.25], [0.25, 0.25]]], strict=False),
        ConstraintError, "policy spends at level 0, below the transmission cost 2"),
    "other-geometry": (lambda: uniform_policy(Model.SECOND_HOP, BatterySpec(3, 2)),
                       ValidationError, "policy was built for a different battery geometry"),
}
DETERMINISTIC = ArrivalModel.deterministic()
POLICY_ENTRIES = {
    "build_kernel": lambda policy: build_kernel(worked_spec(), policy, DETERMINISTIC),
    "analyze_chain": lambda policy: analyze_chain(worked_spec(), policy, DETERMINISTIC),
    "pair_chain": lambda policy: pair_chain(worked_spec(), policy, DETERMINISTIC,
                                            Pmf(WORKED_PI)),
    "simulate_states": lambda policy: simulate_states(worked_spec(), policy, DETERMINISTIC,
                                                      RunConfig(seed=0, n=10)),
    "second_hop_rate": lambda policy: second_hop_rate(worked_spec(), policy, CH2),
    "relay_codec_trial": lambda policy: relay_codec_trial(
        CodecConfig(spec=worked_spec(), policy=policy, rate_bits=(0.5,) * 3, slack=0.1),
        1, RunConfig(seed=0, n=10)),
    # the config is refused when it is built, not when a trial runs
    "CodecConfig": lambda policy: CodecConfig(spec=worked_spec(), policy=policy,
                                              rate_bits=(0.5,) * 3, slack=0.1),
}


@pytest.mark.parametrize("policy", sorted(BAD_POLICIES))
@pytest.mark.parametrize("entry", sorted(POLICY_ENTRIES))
def test_entry_points_refuse_a_bad_policy(entry, policy):
    build, error, text = BAD_POLICIES[policy]
    with pytest.raises(EhRelayError) as caught:
        POLICY_ENTRIES[entry](build())
    assert (type(caught.value), str(caught.value)) == (error, text)


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


# Public rate calls frozen as (relay bound, receiver bound) in ``float.hex``,
# thirty seeded calls per model across capacities 2-8 and costs 2-6. They
# guard the bits of every public rate path directly, not only through the
# rounded CSV columns.
PIN_MODELS = ("second-hop", "both-hops", "random-loss", "timing")


def _pin_cases(model: str):
    """Thirty seeded inputs of one model: capacities 2-8, costs 2-6."""
    rng = np.random.default_rng([2026, PIN_MODELS.index(model)])
    for i in range(30):
        cost = 2 + i % 5
        capacity = cost if model == "timing" else int(rng.integers(cost, 9))
        ch1 = float(rng.uniform(0.01, 0.2))
        ch2 = float(rng.uniform(0.02, 0.3))
        if model == "second-hop":
            tables = []
            for u in range(capacity + 1):
                if u < cost:
                    a = float(rng.uniform(0.05, 0.95))
                    tables.append([[1.0 - a, 0.0], [a, 0.0]])
                else:
                    q = rng.uniform(0.05, 1.0, 4)
                    q = q / q.sum()
                    tables.append([[q[0], q[1]], [q[2], q[3]]])
            yield (cost, capacity, tables, ch2)
            continue
        p = float(rng.uniform(0.05, 0.95))
        if model == "timing":
            yield (cost, [1.0 - p, p], ch1, int(rng.integers(1, 8)),
                   "mod" if i % 2 else "const", int(rng.integers(1, 4)))
            continue
        rows = []
        for u in range(capacity + 1):
            s = float(rng.uniform(0.05, 0.95)) if u >= cost else 0.0
            rows.append([1.0 - s, s])
        loss = rng.uniform(0.0, 1.0, cost)
        yield (cost, capacity, [1.0 - p, p], rows, ch1, ch2, list(loss / loss.sum()))


def _pin_bounds(model: str, case) -> tuple:
    if model == "second-hop":
        cost, capacity, tables, ch2 = case
        spec = BatterySpec(capacity, cost)
        out = second_hop_rate(spec, StatePolicy.joint_policy(spec, tables),
                              BinaryChannel.from_crossover(ch2))
    elif model == "timing":
        cost, x1, ch1, aux, wait, const = case
        out = timing_rate(BatterySpec(cost, cost), x1, BinaryChannel.from_crossover(ch1),
                          aux_size=aux, wait_rule=wait, wait_const=const).breakdown
    else:
        cost, capacity, x1, rows, ch1, ch2, loss = case
        args = (BatterySpec(capacity, cost), x1, rows, BinaryChannel.from_crossover(ch1),
                BinaryChannel.from_crossover(ch2))
        if model == "both-hops":
            out = both_hops_rate(*args)
        else:
            out = random_loss_rate(*args, Pmf([1.0] + [0.0] * (cost - 1)), Pmf(loss))
    return out.relay_bound.hex(), out.receiver_bound.hex()


RATE_PINS = {
    "second-hop": [
        ("0x1.dfe36c1823491p-1", "0x1.e6278e88e1f41p-4"),
        ("0x1.ca6d6aed36933p-1", "0x1.bd75079104817p-3"),
        ("0x1.c06d12034a098p-1", "0x1.a33ee48a79634p-4"),
        ("0x1.e757640e7de44p-2", "0x1.fe21b771f36b8p-6"),
        ("0x1.780d2e507a84cp-1", "0x1.07e6d9c5896dbp-4"),
        ("0x1.a0a72403b6255p-1", "0x1.2b1ad40ec198ep-4"),
        ("0x1.c353706baf0a2p-1", "0x1.71dd119bd3bfep-4"),
        ("0x1.c74de73c4d909p-1", "0x1.8c34e8d586414p-4"),
        ("0x1.abcda5fa55aa5p-1", "0x1.3f07c2de5fcd5p-4"),
        ("0x1.a187407a2c050p-1", "0x1.7be9f2c426c07p-6"),
        ("0x1.e832c1f1939e5p-1", "0x1.858ae4bea1678p-3"),
        ("0x1.998384dd68a0fp-1", "0x1.80b4daacfe991p-3"),
        ("0x1.e78e9dc08c1c6p-1", "0x1.15ab9c7468055p-4"),
        ("0x1.135e898dabfc0p-1", "0x1.8d0b5383c351ap-7"),
        ("0x1.96a82e0294f41p-1", "0x1.598aff0de6518p-5"),
        ("0x1.acddfbfa50056p-1", "0x1.746f6d8bc5981p-2"),
        ("0x1.ff2192d99f0d0p-2", "0x1.d3da20dd0d842p-6"),
        ("0x1.b8d885c404ed0p-1", "0x1.0a073eebc9898p-5"),
        ("0x1.dd58bcf6de39ap-1", "0x1.6b4180b7d6735p-4"),
        ("0x1.63716d5dc0983p-1", "0x1.c8f04b6e63683p-6"),
        ("0x1.a479aca51896cp-1", "0x1.4a3146379eaa3p-4"),
        ("0x1.b12915996712cp-1", "0x1.363d07d658ac3p-5"),
        ("0x1.e30d54216e073p-1", "0x1.0f540945c918fp-4"),
        ("0x1.8f4c3ac2ba18ep-1", "0x1.13df53a339d3dp-3"),
        ("0x1.3562425a12f7ap-1", "0x1.b33998a3e97e2p-8"),
        ("0x1.aa4200ac193f6p-1", "0x1.b95013930c6d3p-3"),
        ("0x1.ad599d869acc1p-1", "0x1.eb5de254eaa15p-4"),
        ("0x1.ba2997f17819cp-1", "0x1.759d41dc9b495p-4"),
        ("0x1.62d6df1926fc7p-1", "0x1.7df7737cffefap-5"),
        ("0x1.786f3248584a3p-1", "0x1.9a122119e1c7ep-5"),
    ],
    "both-hops": [
        ("0x1.0f17151041c3cp-2", "-0x1.33228e9eb30bdp-1"),
        ("0x1.004e6c3852092p-2", "-0x1.edcdc423fab36p-2"),
        ("0x1.815ee273ff2f3p-1", "-0x1.2403b0fe43798p-5"),
        ("0x1.7cd68fbb45e40p-2", "-0x1.17fbdadd70effp-1"),
        ("0x1.405ed81a9be64p-3", "-0x1.4297d0bd2d9b4p-1"),
        ("0x1.5d1e2f0fdbaa7p-1", "-0x1.ba75d7be8d8ecp-4"),
        ("0x1.72d9b16295f6ap-1", "-0x1.9df81c58873fep-3"),
        ("0x1.bd4baba67669ap-1", "-0x1.4a667d72ada52p-4"),
        ("0x1.dc8547a0c2d50p-2", "-0x1.c99c3a54156b6p-2"),
        ("0x1.c967d655fd04dp-2", "-0x1.9181c1851fc8bp-2"),
        ("0x1.584e1aaa1d6d4p-1", "-0x1.a9f9907960f5ap-3"),
        ("0x1.e47b2647b04ecp-3", "-0x1.05482ac8bb729p-1"),
        ("0x1.6cccbe8281a5cp-1", "-0x1.d83a74969480ep-3"),
        ("0x1.4255b078d1042p-1", "-0x1.25b6d494bb0cap-2"),
        ("0x1.48b4febd08e12p-2", "-0x1.234224efa208fp-1"),
        ("0x1.6103fd7537dfap-2", "-0x1.38cd845e8694bp-1"),
        ("0x1.2ff01b9a6cd40p-2", "-0x1.3e2ca16f6c659p-1"),
        ("0x1.01803e0488f23p-1", "-0x1.a2fe80d75438fp-2"),
        ("0x1.3efe7dd9af9f8p-1", "-0x1.0435dd33c0869p-3"),
        ("0x1.82827e472b97fp-1", "-0x1.25e2599441320p-3"),
        ("0x1.b4789e5dae290p-1", "0x1.a0a56473903cep-4"),
        ("0x1.ab3322091a8fep-2", "-0x1.ad134a630d645p-2"),
        ("0x1.9e1a9ddd73d88p-1", "-0x1.751b011c7b3bap-5"),
        ("0x1.ca9ab915055c2p-3", "-0x1.8153d39affb1ep-2"),
        ("0x1.05d8a7cd21fdcp-1", "-0x1.1e99d2b6af3e0p-9"),
        ("0x1.136df3e909f63p-2", "-0x1.8c94e9fce05f7p-2"),
        ("0x1.3d5ffb09ae6bfp-1", "-0x1.57b51fc18022bp-3"),
        ("0x1.502b603656724p-2", "-0x1.ac6d5662c52c3p-4"),
        ("0x1.c7c3b9b78ec98p-3", "-0x1.4cfe73e7b05d5p-1"),
        ("0x1.e16646aa264fdp-2", "-0x1.1228c2766d2aep-2"),
    ],
    "random-loss": [
        ("0x1.46d5a37db197cp-1", "0x1.4949da46db6c0p-3"),
        ("0x1.c6b87c33e6a44p-3", "-0x1.213964b48f14ap+0"),
        ("0x1.a7d47138417e5p-2", "-0x1.3075453d1ec59p+0"),
        ("0x1.93785ee036a46p-2", "-0x1.64e9f618b9f01p+0"),
        ("0x1.754018ef4a54ep-2", "-0x1.5b6be7bb98d9cp+0"),
        ("0x1.a4a8f0e512e94p-2", "-0x1.89efeaf664807p-2"),
        ("0x1.20c0fff1dbd32p-1", "-0x1.5c6e3c8c39977p-1"),
        ("0x1.68d0269c1a6c2p-2", "-0x1.2b9abc70a2158p+0"),
        ("0x1.e1f47f10af09ap-2", "-0x1.3ae0a87b58942p+0"),
        ("0x1.da14776ef4958p-3", "-0x1.3dfa2296a8608p+0"),
        ("0x1.4d4029a98a80ep-2", "-0x1.4840489fa9f5fp-1"),
        ("0x1.7c1215971b276p-2", "-0x1.0d94a742366b8p+0"),
        ("0x1.03d0425560d7cp-2", "-0x1.5552e6e910c84p+0"),
        ("0x1.706ff72fe6defp-1", "-0x1.56e1e70132815p+0"),
        ("0x1.4ef11e87e9760p-2", "-0x1.13e6a5a1b2c3bp+1"),
        ("0x1.05e3478ed690ap-2", "-0x1.49f35d07216b9p-2"),
        ("0x1.c87c99ceb3706p-2", "-0x1.beb8d8103ca8ep-1"),
        ("0x1.7afe88c2ce95ap-2", "-0x1.1b75e69466b62p+0"),
        ("0x1.6469202831f80p-2", "-0x1.eee63691f2db5p-1"),
        ("0x1.63b9a10b29d1cp-3", "-0x1.b1fdaa3630b5cp+0"),
        ("0x1.ad60c530a2ba0p-2", "-0x1.1a6c909bb9567p-1"),
        ("0x1.8557793f347e4p-3", "-0x1.7c9bb33dc953ap-1"),
        ("0x1.267ed7b676c80p-3", "-0x1.8502e947827cfp+0"),
        ("0x1.7af296283c881p-1", "-0x1.1ae7985ad38fap+0"),
        ("0x1.c504b0464eb86p-2", "-0x1.9ac48cac1ecafp-1"),
        ("0x1.4068eb1ed5a74p-2", "-0x1.696fb60568546p-2"),
        ("0x1.0faa28426e68ep-1", "-0x1.f5f09fda30a34p-2"),
        ("0x1.b91f80b03c66cp-3", "-0x1.0c951cb667092p+0"),
        ("0x1.cfc976735e184p-2", "-0x1.69a46d28dfedbp+0"),
        ("0x1.1edbc3a9cccfap-2", "-0x1.f2d5ef067858bp+0"),
    ],
    "timing": [
        ("0x1.53972dc1eef44p-2", "-0x1.1b1137a462854p-4"),
        ("0x1.e52319982d82cp-3", "-0x1.176a0ba77f162p-2"),
        ("0x1.25208e2fa57b8p-3", "-0x1.3db8d4ae7348ep-2"),
        ("0x1.3ba511f2e6c3cp-2", "-0x1.8e200fa71f7a5p-2"),
        ("0x1.976f54b559aa8p-1", "0x1.18132e367c7e5p-3"),
        ("0x1.31ba4240d345ap-1", "0x1.425f171411f94p-3"),
        ("0x1.68d9ee324b46ep-2", "-0x1.6963b2d220e4cp-3"),
        ("0x1.3c70935d7258cp-2", "-0x1.ea6c53c9042e0p-6"),
        ("0x1.78e6c1378e98ep-2", "-0x1.ca90d650a5128p-3"),
        ("0x1.e397fe072ad78p-3", "-0x1.e29c40fec07cep-2"),
        ("0x1.5fd0240c07e13p-1", "0x1.3e9d9b59f039ap-3"),
        ("0x1.efa3e55cac934p-2", "-0x1.6e7ecb730e994p-4"),
        ("0x1.7ee0a73278736p-2", "-0x1.240c11d3c3920p-2"),
        ("0x1.0410848aff846p-1", "-0x1.92a27ee655ff2p-3"),
        ("0x1.00f23fb2d753cp-1", "-0x1.1423fb22841e1p-3"),
        ("0x1.4e5899d923b04p-2", "-0x1.b1d455813639ap-3"),
        ("0x1.5af2d898093b8p-2", "-0x1.78bf6c813d5f8p-3"),
        ("0x1.b4226bc98d0e8p-3", "-0x1.8cc35914dbb0ep-3"),
        ("0x1.d94dcf2429ae3p-2", "-0x1.8298b9124d0e4p-5"),
        ("0x1.e6cd01d0bf412p-2", "-0x1.e773db7b5beeep-3"),
        ("0x1.857b8a4f16971p-1", "0x1.ae74bc781f4d6p-3"),
        ("0x1.0b0be7ad41fa8p-1", "-0x1.1b0cd74d2d608p-5"),
        ("0x1.c606215573cb1p-2", "-0x1.9dc912def23c4p-5"),
        ("0x1.ea3815f45bff8p-4", "-0x1.cba950622a40ep-3"),
        ("0x1.0607052278be4p-2", "-0x1.cae2e7bbe9550p-2"),
        ("0x1.65f2b44631eb0p-4", "-0x1.1564c6f4eee2ap-2"),
        ("0x1.8a5b313d5d43cp-3", "-0x1.881a0878afcbcp-2"),
        ("0x1.570927d8e9073p-2", "-0x1.2b837632c4b1dp-3"),
        ("0x1.031fb5510afc5p-1", "-0x1.bd2e7dda6e94ap-3"),
        ("0x1.a77b597241cfep-2", "-0x1.84eb3831fd03cp-3"),
    ],
}


@pytest.mark.parametrize("model", PIN_MODELS)
def test_public_rate_bits_are_pinned(model):
    got = [_pin_bounds(model, case) for case in _pin_cases(model)]
    assert got == RATE_PINS[model]
