"""Probability primitives: construction rules, closed forms, and the
information-measure identities every other module leans on, checked on the
formulas that carry them (the channel output law, H(output | input), and
the per-level mutual information and conditional entropy of the rate
kernels). Validation is compared in bytes with its one-call-per-check
form, messages and warnings included."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrelay import (
    BinaryChannel,
    JointPmf,
    Pmf,
    ValidationError,
    binary_entropy,
    entropy,
    induced_arrival_prob,
    per_level_receiver_bits,
    per_level_source_entropy_bits,
)
from ehrelay.pmf import INTERNAL_TOL, USER_TOL, _validated_vector
from conftest import H_01, ONE_MINUS_H_01, joint_table_oracle, validated_vector_oracle

# Frozen from a direct evaluation of sum_x2 p(x2) H(X1 | x2) for the joint
# table [[0.4, 0.1], [0.2, 0.3]]: 0.6 h(2/3) + 0.4 h(1/4).
COND_ENTROPY_ORACLE = 0.8754887502163469


def pmfs(min_size=2, max_size=6):
    return st.lists(
        st.integers(min_value=1, max_value=997), min_size=min_size,
        max_size=max_size,
    ).map(lambda w: [x / sum(w) for x in w])


# (call, text the ValidationError message must hold): each input branch raises its documented error
BAD_INPUTS = {
    "uniform-of-nothing": (lambda: Pmf.uniform(0), "uniform pmf needs at least one outcome"),
    "point-past-the-end": (lambda: Pmf.point(2, 5), "point-mass index out of range"),
    # each was once a numpy TypeError or ValueError
    "uniform-of-a-fraction": (lambda: Pmf.uniform(2.5),
                              "uniform pmf needs an integer number of outcomes, got 2.5"),
    "point-of-a-fraction": (lambda: Pmf.point(2.5, 0),
                            "point mass needs integer size and index, got 2.5 and 0"),
    "point-at-a-fraction": (lambda: Pmf.point(3, 1.0),
                            "point mass needs integer size and index, got 3 and 1.0"),
    "point-of-a-bool": (lambda: Pmf.point(True, 0),
                        "point mass needs integer size and index, got True and 0"),
    "pmf-of-strings": (lambda: Pmf(["a", "b"]), "pmf must be an array of numbers"),
    "pmf-ragged": (lambda: Pmf([[0.5], [0.25, 0.25]]), "pmf must be an array of numbers"),
    "joint-pmf-of-strings": (lambda: JointPmf([["a", "b"], ["c", "d"]]),
                             "joint pmf must be an array of numbers"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_raises_its_documented_error(case):
    call, text = BAD_INPUTS[case]
    with pytest.raises(ValidationError, match=re.escape(text)):
        call()


class TestPmfConstruction:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            Pmf([1.2, -0.2])

    def test_rejects_bad_total(self):
        with pytest.raises(ValidationError):
            Pmf([0.5, 0.5 + 5e-9])

    def test_user_tolerance_accepts_hand_typed_rounding(self):
        p = Pmf([0.3, 0.7 + 5e-10])
        assert math.isclose(p.probs.sum(), 1.0, abs_tol=1e-9)

    def test_internal_tolerance_is_tighter(self):
        with pytest.raises(ValidationError):
            Pmf([0.5, 0.5 + 5e-10], tol=1e-12)

    def test_constructors(self):
        assert np.array_equal(Pmf.binary(0.3).probs, [0.7, 0.3])
        assert np.array_equal(Pmf.uniform(4).probs, [0.25] * 4)
        assert np.array_equal(Pmf.point(3, 1).probs, [0.0, 1.0, 0.0])
        assert np.array_equal(Pmf.point(np.int64(3), np.int64(1)).probs, [0.0, 1.0, 0.0])


class TestBinaryChannel:
    def test_rows(self):
        ch = BinaryChannel(0.9, 0.8)
        assert np.allclose(ch.rows, [[0.9, 0.1], [0.2, 0.8]], atol=0)

    def test_crossover_expansion(self):
        ch = BinaryChannel.from_crossover(0.1)
        assert ch.q1 == 0.9 and ch.q2 == 0.9

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            BinaryChannel(1.1, 0.5)
        with pytest.raises(ValidationError):
            BinaryChannel(0.5, -0.1)

    def test_crossover_out_of_range_names_the_crossover(self):
        for p in (1.5, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match=r"crossover must lie in \[0, 1\]"):
                BinaryChannel.from_crossover(p)


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(Pmf([0.5, 0.5])) == 1.0

    def test_deterministic_is_zero(self):
        assert entropy(Pmf([1.0, 0.0])) == 0.0

    def test_binary_closed_form(self):
        assert entropy(Pmf([0.9, 0.1])) == pytest.approx(H_01, abs=1e-12)
        assert binary_entropy(0.1) == pytest.approx(H_01, abs=1e-12)

    def test_binary_entropy_is_elementwise(self):
        out = binary_entropy(np.array([0.0, 0.5, 1.0]))
        assert np.array_equal(out, [0.0, 1.0, 0.0])

    def test_binary_entropy_rejects_outside_unit_interval(self):
        for bad in (-0.1, 1.1, float("nan"), float("inf"), -float("inf"),
                    np.array([float("nan"), 0.5]), np.array([0.5, float("inf")])):
            with pytest.raises(ValidationError):
                binary_entropy(bad)

    @settings(max_examples=60, deadline=None)
    @given(pmfs())
    def test_bounds(self, weights):
        h = entropy(Pmf(weights))
        assert -1e-12 <= h <= math.log2(len(weights)) + 1e-12


def mutual_information(inp: Pmf, ch: BinaryChannel) -> float:
    """I(input; output) across ``ch``, as the rate kernels compute it."""
    return float(per_level_receiver_bits(inp.probs, ch))


def conditional_entropy(joint: JointPmf) -> float:
    """H(row | column) of a 2x2 table, as the rate kernels compute it."""
    return float(per_level_source_entropy_bits(joint.table))


def output_entropy_given_input(inp: Pmf, ch: BinaryChannel) -> float:
    """H(output | input) across ``ch``, as the rate kernels compute it."""
    return float(inp.probs @ ch.noise_bits)


class TestPushThrough:
    """The output law of a channel, through P(output = 1)."""

    def test_noiseless_is_identity(self):
        out = induced_arrival_prob(Pmf([0.3, 0.7]), BinaryChannel(1.0, 1.0))
        assert out == pytest.approx(0.7, abs=1e-15)

    def test_fully_noisy_is_uniform(self):
        out = induced_arrival_prob(Pmf([0.1, 0.9]), BinaryChannel(0.5, 0.5))
        assert out == pytest.approx(0.5, abs=1e-15)

    def test_substitution(self):
        out = induced_arrival_prob(Pmf([1.0, 0.0]), BinaryChannel(0.9, 0.9))
        assert out == pytest.approx(0.1, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(pmfs(2, 2), st.floats(0, 1), st.floats(0, 1))
    def test_preserves_validity(self, weights, q1, q2):
        out = induced_arrival_prob(Pmf(weights), BinaryChannel(q1, q2))
        assert 0.0 <= out <= 1.0 + 1e-12


class TestMutualInformation:
    def test_noiseless_uniform(self):
        assert mutual_information(Pmf([0.5, 0.5]), BinaryChannel(1, 1)) == 1.0

    def test_constant_input_carries_nothing(self):
        assert mutual_information(Pmf([1.0, 0.0]), BinaryChannel(0.7, 0.6)) == 0.0

    def test_symmetric_closed_form(self):
        got = mutual_information(Pmf([0.5, 0.5]), BinaryChannel(0.9, 0.9))
        assert got == pytest.approx(ONE_MINUS_H_01, abs=1e-12)

    def test_matches_joint_law_enumeration(self):
        src, ch = Pmf([0.35, 0.65]), BinaryChannel(0.8, 0.7)
        joint = np.array([src.probs[x] * ch.rows[x] for x in (0, 1)])
        py = joint.sum(axis=0)
        hy = -sum(p * math.log2(p) for p in py if p > 0)
        hyx = -sum(joint[x, y] * math.log2(ch.rows[x][y])
                   for x in (0, 1) for y in (0, 1) if joint[x, y] > 0)
        assert mutual_information(src, ch) == pytest.approx(hy - hyx, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(pmfs(2, 2), st.floats(0, 1), st.floats(0, 1))
    def test_nonnegative(self, weights, q1, q2):
        assert mutual_information(Pmf(weights), BinaryChannel(q1, q2)) >= 0.0

    @settings(max_examples=40, deadline=None)
    @given(pmfs(2, 2), st.floats(0.01, 0.99))
    def test_zero_when_output_ignores_input(self, weights, q1):
        got = mutual_information(Pmf(weights), BinaryChannel(q1, 1.0 - q1))
        assert got <= 1e-12


class TestConditionalEntropy:
    def test_independent_uniform(self):
        j = JointPmf([[0.25, 0.25], [0.25, 0.25]])
        assert conditional_entropy(j) == pytest.approx(1.0, abs=1e-15)

    def test_deterministic_coupling(self):
        j = JointPmf([[0.5, 0.0], [0.0, 0.5]])
        assert conditional_entropy(j) == 0.0

    def test_enumeration_oracle(self):
        j = JointPmf([[0.4, 0.1], [0.2, 0.3]])
        assert conditional_entropy(j) == pytest.approx(
            COND_ENTROPY_ORACLE, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(pmfs(4, 4))
    def test_conditioning_reduces_entropy(self, weights):
        j = JointPmf(np.array(weights).reshape(2, 2))
        assert conditional_entropy(j) <= entropy(Pmf(j.table.sum(axis=1))) + 1e-12


class TestRepr:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).filter(lambda w: sum(w) > 0))
    def test_repr_holds_the_exact_bits(self, weights):
        # the benchmark fingerprints outputs through these reprs, so equal
        # reprs must mean equal values
        pmf = Pmf(np.asarray(weights) / sum(weights))
        joint = JointPmf(np.outer(pmf.probs, pmf.probs[::-1]))
        for obj, held in ((pmf, pmf.probs), (joint, joint.table)):
            values = eval(repr(obj), {type(obj).__name__: np.array})
            assert values.tobytes() == held.tobytes()


class TestJointPmf:
    def test_rejects_bad_total(self):
        with pytest.raises(ValidationError):
            JointPmf([[0.5, 0.5], [0.5, 0.5]])

    def test_equals_the_one_call_per_check_oracle(self):
        for table in [*(np.reshape(v, (2, 2)) for v in _vector_cases() if len(v) == 4),
                      [[0.5, 0.5]], [[0.2], [0.8]], [[0.25] * 2] * 2 + [[0.0, 0.0]],
                      [0.5, 0.5], [], [[]], [[[1.0]]]]:
            got = _outcome(lambda t: JointPmf(t, tol=USER_TOL).table, table)
            assert got == _outcome(joint_table_oracle, table, USER_TOL), table


def _outcome(fn, *args):
    """("ok", bytes, shape) of a returned array or ("error", message), and
    the warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except ValidationError as exc:
            result = ("error", str(exc))
        else:
            result = ("ok", np.asarray(out).tobytes(), np.shape(out))
    return result, [str(w.message) for w in caught]


def _vector_cases() -> list:
    """Vectors on both sides of every check, with signed and tiny zeros."""
    cases = [
        [0.4, 0.6], [1.0, 0.0], [0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [-0.0, -0.0, 1.0],
        [1.0], [0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4],
        [-1e-12, 1.0 + 1e-12], [1.0 + 1e-12, -1e-12, -0.0], [-1e-10, 0.5, 0.5],
        [0.5, 0.5 + 5e-10], [0.5, 0.5 + 2e-9], [0.5, 0.5 - 2e-9], [0.3, 0.3],
        [1e-320, 1.0], [-1e-320, 1.0], [5e-324, -0.0, 1.0 - 5e-324],
        [np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0], [np.inf, -np.inf], [0.5, np.nan, -1.0],
        [-2.0, 3.0], [-1.0, np.inf], [1e308, 1e308], [1e308, 1e308, -1e308, -1e308],
        [], [[0.5, 0.5]], [[0.25, 0.25], [0.25, 0.25]],
    ]
    rng = np.random.default_rng(11)
    for _ in range(400):
        v = rng.random(int(rng.integers(1, 9))) * (rng.random() < 0.8)
        v[rng.random(v.size) < 0.3] = 0.0
        v = v / v.sum() if v.sum() > 0 else np.full(v.size, 1.0 / v.size)
        v = v + rng.choice([0.0, 1e-13, -1e-13, 1e-10, -3e-9], size=v.size)
        v[rng.random(v.size) < 0.1] = -0.0
        cases.append(v.tolist())
    return cases


class TestValidatedVector:
    @pytest.mark.parametrize("tol", [USER_TOL, INTERNAL_TOL, 1e-6])
    def test_equals_the_one_call_per_check_oracle(self, tol):
        for values in _vector_cases():
            got = _outcome(_validated_vector, values, tol, "pmf")
            assert got == _outcome(validated_vector_oracle, values, tol, "pmf"), values

    def test_no_negative_zero_survives(self):
        for values in ([-0.0, 1.0], [-1e-12, -0.0, 1.0 + 1e-12]):
            assert not np.signbit(Pmf(values).probs).any()

    def test_probs_are_read_only(self):
        for values in ([0.4, 0.6], [1.0, 0.0], [-1e-12, 1.0 + 1e-12]):
            assert not Pmf(values).probs.flags.writeable


class TestOutputEntropyGivenInput:
    def test_weighted_channel_rows(self):
        src, ch = Pmf([0.25, 0.75]), BinaryChannel(0.9, 0.8)
        want = 0.25 * binary_entropy(0.1) + 0.75 * binary_entropy(0.8)
        assert output_entropy_given_input(src, ch) == pytest.approx(
            want, abs=1e-12)

    def test_noiseless_channel_leaks_nothing(self):
        assert output_entropy_given_input(Pmf([0.4, 0.6]),
                                          BinaryChannel(1, 1)) == 0.0
