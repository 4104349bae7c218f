"""Recharge-time law against the scipy negative-binomial oracle, spacing
distributions by brute-force double sums, and the timing rate's closed-form
reductions."""

import hashlib
import importlib
import re
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from ehrelay import (
    BatterySpec,
    BinaryChannel,
    ConstraintError,
    IntegerPmf,
    NumericalError,
    Pmf,
    TimingScheme,
    ValidationError,
    ZNoise,
    binary_entropy,
    constant_wait_table,
    default_wait_table,
    induced_arrival_prob,
    t_pmf,
    timing_rate,
    z_pmf,
)
from ehrelay.timing import (
    _COEF_SPAN,
    MASS_TOL,
    _SUPPORT_CAP,
    _cached_coefficients,
    _nb_pmf,
    _wait_rule,
)
from ehrelay.optimize import _TimingProblem
from conftest import mutual_information, nb_pmf_oracle, output_entropy_given_input

timing_module = importlib.import_module("ehrelay.timing")


def nb_oracle(values, cost, p1):
    """pmf of the slot count until the cost-th arrival, via scipy."""
    return stats.nbinom.pmf(np.asarray(values) - cost, cost, p1)


def z_pmf_oracle(cost, p1, overlap=False):
    """The recharge law one element at a time, rebuilt on every doubling.

    Returns the support, the probabilities as ``z_pmf`` renormalizes them,
    and how many times the horizon doubled.
    """
    def nb(z, k):
        return comb(z - 1, k - 1) * p1**k * (1.0 - p1) ** (z - k) if z >= k else 0.0

    def mass(z):
        if overlap:
            return p1 * nb(z, cost - 1) + (1.0 - p1) * nb(z, cost)
        return nb(z, cost)

    lo = cost - 1 if overlap else cost
    hi, doublings = max(lo + 8, 2 * cost), 0
    while True:
        probs = np.array([mass(z) for z in range(lo, hi + 1)])
        if probs.sum() >= 1.0 - MASS_TOL:
            cut = min(int(np.searchsorted(np.cumsum(probs), 1.0 - MASS_TOL)) + 1, probs.size)
            probs = probs[:cut] / probs[:cut].sum()
            return np.arange(lo, lo + cut), probs / float(probs.sum()), doublings
        hi, doublings = 2 * hi, doublings + 1


# (call, text the ValidationError message must hold): each input branch raises its documented error
BAD_INPUTS = {
    "integer-pmf-mismatched-lengths": (lambda: IntegerPmf([1, 2, 3], [0.5, 0.5]),
                                       "values and probs must be matching 1-d arrays"),
    "integer-pmf-negative-weight": (lambda: IntegerPmf([1, 2], [1.5, -0.5]),
                                    "probabilities must be finite and nonnegative"),
    "default-wait-table-no-aux": (lambda: default_wait_table(0, np.array([2, 3])),
                                  "aux alphabet must be nonempty"),
    "timing-scheme-1d-wait-table": (lambda: TimingScheme(Pmf.uniform(2), np.ones(2, dtype=int)),
                                    "wait table must be 2-d (aux symbol by recharge time)"),
    "timing-rate-three-letter-source": (
        lambda: timing_rate(BatterySpec(capacity=2, cost=2), [0.2, 0.3, 0.5],
                            BinaryChannel(0.95, 0.95)),
        "source law must be binary"),
    # a fractional wait was once truncated to a whole slot, silently
    "timing-rate-fractional-constant-wait": (
        lambda: timing_rate(BatterySpec(capacity=2, cost=2), [0.5, 0.5],
                            BinaryChannel(0.95, 0.95), wait_rule="const", wait_const=1.9),
        "aux alphabet size and constant wait must be integers, got 5 and 1.9"),
    "timing-rate-fractional-aux-size": (
        lambda: timing_rate(BatterySpec(capacity=2, cost=2), [0.5, 0.5],
                            BinaryChannel(0.95, 0.95), aux_size=2.5),
        "aux alphabet size and constant wait must be integers, got 2.5 and 1"),
    # a fractional cost was once a numpy TypeError where the law was built
    "z-noise-fractional-cost": (lambda: ZNoise(cost=2.5, p1=0.3),
                                "cost and zmax must be integers, got 2.5 and None"),
    "z-noise-fractional-zmax": (lambda: ZNoise(cost=2, p1=0.3, zmax=20.5),
                                "cost and zmax must be integers, got 2 and 20.5"),
    # a string charge probability was once Python's TypeError
    "z-noise-string-p1": (lambda: ZNoise(2, "a"), "charge probability must be a number, got 'a'"),
    # fractional values, waits and counts were once truncated to integers,
    # silently; a NaN wait was a numpy cast warning, a string a bare ValueError
    "integer-pmf-fractional-values": (lambda: IntegerPmf([1.5, 2.5], [0.5, 0.5]),
                                      "values must be an array of integers"),
    "integer-pmf-string-value": (lambda: IntegerPmf([1, "a"], [0.5, 0.5]),
                                 "values must be an array of integers"),
    "integer-pmf-bool-values": (lambda: IntegerPmf([False, True], [0.5, 0.5]),
                                "values must be an array of integers"),
    "integer-pmf-string-weight": (lambda: IntegerPmf([1, 2], ["a", 0.5]),
                                  "probabilities must be an array of numbers"),
    "timing-scheme-fractional-waits": (
        lambda: TimingScheme(Pmf.uniform(2), [[1.5, 2.7], [1.2, 3.9]]),
        "wait table must be an array of integers"),
    "timing-scheme-nan-wait": (lambda: TimingScheme(Pmf.uniform(2), [[np.nan, 2], [1, 3]]),
                               "wait table must be an array of integers"),
    "timing-scheme-string-wait": (lambda: TimingScheme(Pmf.uniform(2), [["a", 2], [1, 3]]),
                                  "wait table must be an array of integers"),
    "timing-scheme-ragged-waits": (lambda: TimingScheme(Pmf.uniform(2), [[1, 2], [3]]),
                                   "wait table must be an array of integers"),
    "constant-wait-table-fractional-wait": (
        lambda: constant_wait_table(1.5, 2, np.array([2, 3])),
        "constant wait and aux alphabet size must be integers, got 1.5 and 2"),
    "constant-wait-table-fractional-aux": (
        lambda: constant_wait_table(1, 2.5, np.array([2, 3])),
        "constant wait and aux alphabet size must be integers, got 1 and 2.5"),
    "default-wait-table-fractional-aux": (lambda: default_wait_table(2.5, np.array([2, 3])),
                                          "aux alphabet size must be an integer, got 2.5"),
    "default-wait-table-fractional-times": (lambda: default_wait_table(2, [2.5, 3.0]),
                                            "recharge times must be an array of integers"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_raises_its_documented_error(case):
    call, text = BAD_INPUTS[case]
    with pytest.raises(ValidationError, match=re.escape(text)):
        call()


class TestZNoise:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            ZNoise(cost=1, p1=0.5)
        with pytest.raises(ValidationError):
            ZNoise(cost=2, p1=0.0)
        with pytest.raises(ValidationError):
            ZNoise(cost=3, p1=0.5, zmax=2)

    def test_overlap_lowers_the_support_floor(self):
        plain = z_pmf(ZNoise(cost=2, p1=0.5))
        mixed = z_pmf(ZNoise(cost=2, p1=0.5, overlap=True))
        assert plain.values[0] == 2
        assert mixed.values[0] == 1


class TestZPmf:
    def test_matches_scipy_negative_binomial(self):
        for cost in (2, 3):
            for p1 in (0.3, 0.5, 0.9):
                dist = z_pmf(ZNoise(cost=cost, p1=p1))
                want = nb_oracle(dist.values, cost, p1)
                # truncated tail mass is at most 1e-12, so renormalization
                # shifts nothing beyond that scale
                assert np.max(np.abs(dist.probs - want)) <= 2e-12

    def test_frozen_head_values(self):
        dist = z_pmf(ZNoise(cost=2, p1=0.5))
        assert dist.probs[0] == pytest.approx(0.25, abs=1e-12)
        assert dist.probs[1] == pytest.approx(0.25, abs=1e-12)
        assert dist.probs[2] == pytest.approx(0.1875, abs=1e-12)
        assert dist.mean() == pytest.approx(4.0, abs=1e-9)

    def test_sure_arrivals_are_a_point_mass(self):
        dist = z_pmf(ZNoise(cost=3, p1=1.0))
        assert np.array_equal(dist.values, [3])
        assert np.array_equal(dist.probs, [1.0])

    def test_mean_identity(self):
        for cost in (2, 4):
            for p1 in (0.25, 0.6):
                dist = z_pmf(ZNoise(cost=cost, p1=p1))
                assert dist.mean() == pytest.approx(cost / p1, rel=1e-6)

    def test_overlap_mixture_against_scipy(self):
        cost, p1 = 3, 0.4
        dist = z_pmf(ZNoise(cost=cost, p1=p1, overlap=True))
        lighter = stats.nbinom.pmf(np.asarray(dist.values) - (cost - 1),
                                   cost - 1, p1)
        plain = stats.nbinom.pmf(np.asarray(dist.values) - cost, cost, p1)
        want = p1 * lighter + (1 - p1) * plain
        assert np.max(np.abs(dist.probs - want)) <= 2e-12

    def test_equals_the_per_element_oracle_bit_for_bit(self):
        seen = set()
        for cost in (2, 3, 4, 6):
            for p1 in (1.0, 0.93, 0.6, 0.5, 0.31, 0.12, 0.05):
                for overlap in (False, True):
                    values, probs, doublings = z_pmf_oracle(cost, p1, overlap)
                    dist = z_pmf(ZNoise(cost=cost, p1=p1, overlap=overlap))
                    assert np.array_equal(dist.values, values)
                    assert np.array_equal(dist.probs, probs)
                    seen.add(doublings)
        assert {0, 1, 2, 3} <= seen

    # the pairwise sum reaches 1 - MASS_TOL here but the sequential cumsum
    # ends just below it, so an unclamped cut asks for one point too many
    SHORT_CUMSUM_P1 = 0.04728146959597227

    def test_cut_never_passes_the_computed_points(self):
        dist = z_pmf(ZNoise(cost=3, p1=self.SHORT_CUMSUM_P1))
        values, probs, _ = z_pmf_oracle(3, self.SHORT_CUMSUM_P1)
        assert dist.values.size == dist.probs.size == 702
        assert np.array_equal(dist.values, values)
        assert np.array_equal(dist.probs, probs)

    def test_short_cumsum_bias_is_rated(self):
        # the bias, first hop and wait of a generated rate call that failed
        src = Pmf([0.9631038163126069, 0.0368961836873931])
        ch1 = BinaryChannel(1 - 0.0112126973939347, 1 - 0.0112126973939347)
        assert induced_arrival_prob(src, ch1) == self.SHORT_CUMSUM_P1
        result = timing_rate(BatterySpec(3, 3), src, ch1, wait_rule="const", wait_const=2)
        assert result.z_dist.values.size == 702
        assert np.isfinite(result.breakdown.rate)

    @settings(max_examples=200, deadline=None)
    @given(cost=st.integers(2, 8),
           p1=st.floats(0.01, 1.0, exclude_min=True),
           overlap=st.booleans())
    @example(cost=3, p1=SHORT_CUMSUM_P1, overlap=False)
    def test_support_and_probabilities_have_one_length(self, cost, p1, overlap):
        values, probs = timing_module._z_law(ZNoise(cost=cost, p1=p1, overlap=overlap))
        assert values.shape == probs.shape

    def test_cost_600_at_half_charge_is_a_law(self):
        # comb(z - 1, 599) leaves the double range at z = 1,047, inside the support
        dist = z_pmf(ZNoise(cost=600, p1=0.5))
        assert dist.values[-1] > 1047
        assert dist.mean() == pytest.approx(1200.0, rel=1e-9)

    def test_cost_516_is_a_law_and_cost_515_keeps_its_bits(self):
        dist = z_pmf(ZNoise(cost=515, p1=0.99))
        assert hashlib.sha256(dist.probs.tobytes()).hexdigest() == (
            "8566385c3849d1b84d34721af35e67f6bea22e4662ca53b0f808bc57ffb46120")
        dist = z_pmf(ZNoise(cost=516, p1=0.99))
        assert dist.mean() == pytest.approx(516 / 0.99, rel=1e-9)

    @pytest.mark.parametrize("cost, p1, switch", [(600, 0.5, 1047), (150, 0.05, 6647)])
    def test_log_space_entries_continue_the_exact_ones(self, cost, p1, switch):
        # switch is the first z whose coefficient comb(z - 1, cost - 1) is past a double
        float(comb(switch - 2, cost - 1))
        with pytest.raises(OverflowError):
            float(comb(switch - 1, cost - 1))
        zs = range(switch - 4, switch + 4)
        got = _nb_pmf(zs.start, zs.stop, cost, p1)
        p, q = Fraction(p1), Fraction(1.0 - p1)
        want = [float(comb(z - 1, cost - 1) * p**cost * q ** (z - cost)) for z in zs]
        assert min(want) > 0.0
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_explicit_horizon_is_capped(self):
        ZNoise(cost=3, p1=0.5, zmax=_SUPPORT_CAP)
        with pytest.raises(ValidationError, match="support cap"):
            ZNoise(cost=3, p1=0.5, zmax=_SUPPORT_CAP + 1)

    def test_tight_horizon_is_an_error(self):
        with pytest.raises(NumericalError):
            z_pmf(ZNoise(cost=2, p1=0.5, zmax=6))

    def test_quantile_horizon_is_stable(self):
        base = z_pmf(ZNoise(cost=2, p1=0.5))
        wider = z_pmf(ZNoise(cost=2, p1=0.5, zmax=2 * int(base.values[-1])))
        assert wider.mean() == pytest.approx(base.mean(), abs=1e-6)
        assert wider.entropy_bits() == pytest.approx(
            base.entropy_bits(), abs=1e-6)


class TestCoefficientCache:
    """``_nb_pmf`` keeps each short support range's coefficients and must give
    the bits of the recurrence it no longer reruns."""

    @staticmethod
    def ranges(monkeypatch, laws) -> list:
        """Every (start, stop, k, p) that ``z_pmf`` asks ``_nb_pmf`` for on ``laws``."""
        seen = []

        def spy(start, stop, k, p):
            seen.append((start, stop, k, p))
            return _nb_pmf(start, stop, k, p)

        monkeypatch.setattr(timing_module, "_nb_pmf", spy)
        for cost, p1, overlap in laws:
            z_pmf(ZNoise(cost=cost, p1=p1, overlap=overlap))
        monkeypatch.undo()
        return seen

    @staticmethod
    def assert_oracle_bits(ranges):
        for args in ranges:
            want = nb_pmf_oracle(*args).tobytes()
            assert _nb_pmf(*args).tobytes() == want, args  # a miss, or the first hit
            assert _nb_pmf(*args).tobytes() == want, args  # a hit

    def test_doubling_ranges_keep_the_recurrence_bits(self, monkeypatch):
        laws = [(cost, p1, overlap) for cost in range(2, 21)
                for p1 in (1.0, 0.93, 0.6, 0.31, 0.12, 0.05, 0.01)
                for overlap in (False, True)]
        ranges = self.ranges(monkeypatch, laws)
        spans = [stop - start for start, stop, _, _ in ranges]
        assert min(spans) <= _COEF_SPAN < max(spans)  # kept and computed ranges both
        _cached_coefficients.cache_clear()
        self.assert_oracle_bits(ranges)

    def test_double_overflow_switch_keeps_the_recurrence_bits(self, monkeypatch):
        ranges = self.ranges(monkeypatch, [(516, 0.99, False), (516, 0.99, True)])
        _cached_coefficients.cache_clear()
        self.assert_oracle_bits(ranges)
        # the first range runs past the double range, so its cached
        # coefficients stop short of it and the rest is log space
        start, stop, k, _ = ranges[0]
        assert len(_cached_coefficients(start, stop, k)) < stop - max(start, k)

    def test_long_spans_are_computed_and_not_kept(self):
        _cached_coefficients.cache_clear()
        for span in (_COEF_SPAN + 1, 3 * _COEF_SPAN):
            args = (3, 3 + span, 3, 0.002)
            assert _nb_pmf(*args).tobytes() == nb_pmf_oracle(*args).tobytes()
        assert _cached_coefficients.cache_info().currsize == 0
        _nb_pmf(3, 3 + _COEF_SPAN, 3, 0.002)
        assert _cached_coefficients.cache_info().currsize == 1

    def test_cache_is_bounded_and_read_only(self, monkeypatch):
        kept = []

        def spy(first, stop, k):
            coef = _cached_coefficients(first, stop, k)
            kept.append((stop - first, coef))
            return coef

        _cached_coefficients.cache_clear()
        monkeypatch.setattr(timing_module, "_cached_coefficients", spy)
        for cost in range(2, 21):
            for p1 in np.linspace(0.002, 1.0, 12):
                z_pmf(ZNoise(cost=cost, p1=float(p1), overlap=bool(cost % 2)))
        assert len({(span, coef.tobytes()) for span, coef in kept}) > 64
        assert _cached_coefficients.cache_parameters()["maxsize"] == 64
        assert _cached_coefficients.cache_info().currsize <= 64
        for span, coef in kept:
            assert span <= _COEF_SPAN and len(coef) <= span
            assert not coef.flags.writeable
        with pytest.raises(ValueError):
            kept[0][1][0] = 0.0

    def test_rate_path_search_and_law_share_the_cache(self):
        spec = BatterySpec(capacity=4, cost=4)
        ch1 = BinaryChannel(0.95, 0.9)
        search = _TimingProblem(spec, ch1, 5, "mod", 1, False)
        _cached_coefficients.cache_clear()
        z_pmf(ZNoise(cost=4, p1=0.3))
        hits = _cached_coefficients.cache_info().hits
        timing_rate(spec, Pmf.binary(0.4), ch1)
        assert _cached_coefficients.cache_info().hits > hits
        hits = _cached_coefficients.cache_info().hits
        assert np.isfinite(search.values(np.array([[0.6]])))
        assert _cached_coefficients.cache_info().hits > hits


class TestWaitTables:
    def test_single_letter_always_waits_one(self):
        z = z_pmf(ZNoise(cost=2, p1=0.5))
        table = default_wait_table(1, z.values)
        assert np.array_equal(table, np.ones_like(table))

    def test_modular_rule_substitution(self):
        table = default_wait_table(5, np.array([2]))
        # selector 3 against recharge 2: ((3 - 2) mod 5) + 1 = 2
        assert table[3, 0] == 2

    def test_range(self):
        z = z_pmf(ZNoise(cost=3, p1=0.4))
        table = default_wait_table(5, z.values)
        assert table.min() >= 1 and table.max() <= 5

    def test_constant_table(self):
        table = constant_wait_table(4, 2, np.array([2, 3]))
        assert np.array_equal(table, [[4, 4], [4, 4]])
        with pytest.raises(ValidationError):
            constant_wait_table(0, 1, np.array([2]))


class TestTimingScheme:
    def test_rejects_sub_slot_waits(self):
        with pytest.raises(ValidationError):
            TimingScheme(Pmf.uniform(2), np.zeros((2, 3), dtype=int))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValidationError):
            TimingScheme(Pmf.uniform(3), np.ones((2, 4), dtype=int))


class TestTPmf:
    def test_constant_wait_shifts_the_law(self):
        z = z_pmf(ZNoise(cost=2, p1=0.5))
        scheme = TimingScheme(Pmf.point(1, 0),
                              constant_wait_table(1, 1, z.values))
        t = t_pmf(z, scheme)
        assert np.array_equal(t.values, z.values + 1)
        assert np.allclose(t.probs, z.probs, atol=0)

    def test_point_recharge_uniform_selector_spreads_uniformly(self):
        z = z_pmf(ZNoise(cost=2, p1=1.0))
        scheme = TimingScheme(Pmf.uniform(5), default_wait_table(5, z.values))
        t = t_pmf(z, scheme)
        assert np.array_equal(t.values, [3, 4, 5, 6, 7])
        assert np.allclose(t.probs, 0.2, atol=1e-15)

    def test_double_sum_oracle(self):
        z = z_pmf(ZNoise(cost=2, p1=0.5))
        aux = Pmf.uniform(5)
        table = default_wait_table(5, z.values)
        scheme = TimingScheme(aux, table)
        t = t_pmf(z, scheme)
        accum = {}
        for a in range(5):
            for k, zv in enumerate(z.values):
                tv = int(zv + table[a, k])
                accum[tv] = accum.get(tv, 0.0) + 0.2 * z.probs[k]
        want = np.array([accum[v] for v in t.values])
        assert np.max(np.abs(t.probs - want)) <= 1e-15
        assert abs(t.probs.sum() - 1.0) <= 1e-12

    def test_spacing_exceeds_recharge_by_at_least_one(self):
        rng = np.random.default_rng(17)
        z = z_pmf(ZNoise(cost=2, p1=0.4))
        for _ in range(20):
            aux = Pmf(rng.dirichlet(np.ones(4)))
            table = rng.integers(1, 7, size=(4, len(z.values)))
            t = t_pmf(z, TimingScheme(aux, table))
            assert t.mean() >= z.mean() + 1.0 - 1e-12

    def test_shifting_every_wait_shifts_the_spacing(self):
        z = z_pmf(ZNoise(cost=2, p1=0.5))
        aux = Pmf.uniform(5)
        base = t_pmf(z, TimingScheme(aux, default_wait_table(5, z.values)))
        lifted = t_pmf(z, TimingScheme(
            aux, default_wait_table(5, z.values) + 1))
        assert lifted.entropy_bits() == pytest.approx(
            base.entropy_bits(), abs=1e-12)
        assert lifted.mean() == pytest.approx(base.mean() + 1.0, abs=1e-12)

    def test_equals_unbuffered_accumulation(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = z_pmf(ZNoise(cost=int(rng.integers(2, 6)), p1=float(rng.uniform(0.1, 1.0))))
            k = int(rng.integers(1, 8))
            aux = Pmf(rng.dirichlet(np.ones(k)))
            table = rng.integers(1, 9, size=(k, len(z.values)))
            t_vals = z.values[None, :] + table
            lo = int(t_vals.min())
            acc = np.zeros(int(t_vals.max()) - lo + 1)
            np.add.at(acc, (t_vals - lo).ravel(),
                      (aux.probs[:, None] * z.probs[None, :]).ravel())
            t = t_pmf(z, TimingScheme(aux, table))
            assert np.array_equal(t.values, np.flatnonzero(acc) + lo)
            assert np.array_equal(t.probs, acc[acc > 0] / acc[acc > 0].sum())

    def test_coverage_error(self):
        z = z_pmf(ZNoise(cost=2, p1=0.5))
        short = default_wait_table(5, z.values[:-3])
        with pytest.raises(ValidationError):
            t_pmf(z, TimingScheme(Pmf.uniform(5), short))


class TestInducedArrival:
    def test_uniform_input_symmetric_channel(self):
        assert induced_arrival_prob(
            Pmf([0.5, 0.5]), BinaryChannel(0.95, 0.95)) == pytest.approx(0.5)

    def test_general_composition(self):
        p = induced_arrival_prob(Pmf([0.3, 0.7]), BinaryChannel(0.8, 0.6))
        assert p == pytest.approx(0.3 * 0.2 + 0.7 * 0.6, abs=1e-15)


class TestTimingRate:
    CH1 = BinaryChannel(0.95, 0.95)

    def test_requires_capacity_equal_cost(self):
        with pytest.raises(ConstraintError):
            timing_rate(BatterySpec(capacity=3, cost=2), [0.5, 0.5], self.CH1)

    def test_noiseless_deterministic_input_carries_nothing(self):
        clean = BinaryChannel(1.0, 1.0)
        result = timing_rate(BatterySpec(2, 2), [0.0, 1.0], clean,
                             wait_rule="const", wait_const=1)
        assert result.breakdown.receiver_bound == 0.0
        assert result.breakdown.relay_bound == 0.0

    def test_noiseless_first_hop_receiver_is_pure_throughput(self):
        clean = BinaryChannel(1.0, 1.0)
        result = timing_rate(BatterySpec(2, 2), [0.5, 0.5], clean)
        t = result.t_dist
        assert result.breakdown.receiver_bound == pytest.approx(
            t.entropy_bits() / t.mean(), abs=1e-12)

    def test_constant_wait_closed_form(self):
        src = Pmf([0.4, 0.6])
        for const in (1, 3):
            result = timing_rate(BatterySpec(2, 2), src, self.CH1,
                                 wait_rule="const", wait_const=const)
            z = result.z_dist
            want = (z.entropy_bits() / (z.mean() + const)
                    - output_entropy_given_input(src, self.CH1))
            assert result.breakdown.receiver_bound == pytest.approx(
                want, abs=1e-12)

    def test_relay_bound_is_first_hop_information(self):
        src = Pmf([0.35, 0.65])
        result = timing_rate(BatterySpec(2, 2), src, self.CH1)
        assert result.breakdown.relay_bound == pytest.approx(
            mutual_information(src, self.CH1), abs=1e-12)

    def test_missing_first_hop_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="the timing scheme needs the first-hop channel"):
            timing_rate(BatterySpec(2, 2), Pmf([0.5, 0.5]), None)

    def test_charge_probability_is_induced_not_assumed(self):
        src = Pmf([0.2, 0.8])
        result = timing_rate(BatterySpec(2, 2), src, self.CH1)
        assert result.noise.p1 == pytest.approx(
            induced_arrival_prob(src, self.CH1), abs=1e-15)

    def test_supplied_scheme_wins(self):
        src = Pmf([0.5, 0.5])
        base = timing_rate(BatterySpec(2, 2), src, self.CH1)
        z = base.z_dist
        scheme = TimingScheme(Pmf.point(1, 0),
                              constant_wait_table(2, 1, z.values))
        result = timing_rate(BatterySpec(2, 2), src, self.CH1, scheme=scheme)
        assert result.t_dist.mean() == pytest.approx(z.mean() + 2, abs=1e-9)


class TestTimingKernel:
    def test_bounds_equal_timing_rate(self):
        # the search's scorer and its report at a bias, against the public call
        rng = np.random.default_rng(11)
        for cost in range(2, 7):
            spec = BatterySpec(cost, cost)
            for p in rng.uniform(0.01, 0.99, 6):
                ch1 = BinaryChannel(*rng.uniform(0.6, 1.0, 2))
                theta = np.array([(p - 0.01) / 0.98])
                src = Pmf.binary(_TimingProblem._p1(theta))
                for rule, aux_size, const in [("mod", int(rng.integers(1, 8)), 1),
                                              ("const", 1, int(rng.integers(1, 4)))]:
                    for overlap in (False, True):
                        search = _TimingProblem(spec, ch1, aux_size, rule, const, overlap)
                        want = timing_rate(spec, src, ch1, aux_size=aux_size, wait_rule=rule,
                                           wait_const=const, overlap=overlap).breakdown
                        assert search.values(theta[None]).tolist() == [want.rate]
                        assert search.finalize(theta)[0] == want

    def test_wait_rule_note_names_the_scheme(self):
        assert _wait_rule("mod", 3, 1)[1] == (
            "wait selector: uniform over 3 letters (default choice), modular wait rule")
        assert _wait_rule("const", 5, 2)[1] == "wait selector: constant wait 2"
        with pytest.raises(ValidationError, match="unknown wait rule"):
            _wait_rule("bogus", 5, 1)
        with pytest.raises(ValidationError, match="constant wait must be at least one slot"):
            _wait_rule("const", 5, 0)


class TestIntegerPmf:
    def test_validation(self):
        with pytest.raises(ValidationError):
            IntegerPmf(np.array([3, 2]), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            IntegerPmf(np.array([1, 2]), np.array([0.6, 0.6]))

    @pytest.mark.parametrize("cost, p1, overlap, zmax", [
        (2, 0.5, False, None), (3, 0.05, True, None), (6, 0.3, False, 150),
        (4, 0.9, True, None), (150, 0.05, False, None), (2, 1.0, False, None)])
    def test_built_laws_equal_the_checked_constructor(self, cost, p1, overlap, zmax,
                                                      monkeypatch):
        # z_pmf and t_pmf hold the laws they build without the constructor's
        # checks; their last renormalization is the constructor's, so the
        # constructor on the law before it gives the same bits.
        raw, real = [], timing_module._renormalized
        monkeypatch.setattr(timing_module, "_renormalized",
                            lambda probs: (raw.append(probs), real(probs))[1])
        z = z_pmf(ZNoise(cost=cost, p1=p1, overlap=overlap, zmax=zmax))
        checked = IntegerPmf(z.values, raw[-1])
        rule, _ = _wait_rule("mod", 5, 1)
        t = t_pmf(z, TimingScheme(*rule(z.values)))
        t_checked = IntegerPmf(t.values, raw[-1])
        for got, want in ((z, checked), (t, t_checked)):
            assert got.values.dtype == want.values.dtype == np.int64
            assert got.values.tobytes() == want.values.tobytes()
            assert got.probs.tobytes() == want.probs.tobytes()
            assert not got.values.flags.writeable and not got.probs.flags.writeable

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint32, np.int64,
                                       np.uint64])
    def test_takes_every_integer_dtype(self, dtype):
        dist = IntegerPmf(np.array([1, 3], dtype=dtype), [0.5, 0.5])
        table = default_wait_table(3, np.array([2, 3], dtype=dtype))
        scheme = TimingScheme(Pmf.uniform(3), table.astype(dtype))
        assert dist.values.dtype == table.dtype == scheme.wait.dtype == np.int64
        assert dist.values.tolist() == [1, 3]
        assert table.tolist() == scheme.wait.tolist() == default_wait_table(3, [2, 3]).tolist()

    def test_moments(self):
        dist = IntegerPmf(np.array([1, 3]), np.array([0.5, 0.5]))
        assert dist.mean() == 2.0
        assert dist.entropy_bits() == 1.0
