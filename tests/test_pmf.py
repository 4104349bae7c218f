"""Probability primitives: construction rules, closed forms, and the
information-measure identities every other module leans on, checked on the
formulas that carry them (the channel output law, H(output | input), and
the per-level mutual information and conditional entropy of the rate
kernels)."""

import math

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
from conftest import H_01, ONE_MINUS_H_01

# Frozen from a direct evaluation of sum_x2 p(x2) H(X1 | x2) for the joint
# table [[0.4, 0.1], [0.2, 0.3]]: 0.6 h(2/3) + 0.4 h(1/4).
COND_ENTROPY_ORACLE = 0.8754887502163469


def pmfs(min_size=2, max_size=6):
    return st.lists(
        st.integers(min_value=1, max_value=997), min_size=min_size,
        max_size=max_size,
    ).map(lambda w: [x / sum(w) for x in w])


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


class TestJointPmf:
    def test_rejects_bad_total(self):
        with pytest.raises(ValidationError):
            JointPmf([[0.5, 0.5], [0.5, 0.5]])


class TestOutputEntropyGivenInput:
    def test_weighted_channel_rows(self):
        src, ch = Pmf([0.25, 0.75]), BinaryChannel(0.9, 0.8)
        want = 0.25 * binary_entropy(0.1) + 0.75 * binary_entropy(0.8)
        assert output_entropy_given_input(src, ch) == pytest.approx(
            want, abs=1e-12)

    def test_noiseless_channel_leaks_nothing(self):
        assert output_entropy_given_input(Pmf([0.4, 0.6]),
                                          BinaryChannel(1, 1)) == 0.0
