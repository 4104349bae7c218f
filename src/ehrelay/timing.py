"""Rate of the scheme that signals through transmission spacing.

With capacity equal to the cost, the relay alternates between draining to
empty and recharging, so the time between consecutive transmissions carries
the message. The recharge time Z counts first-hop charge arrivals until the
battery refills: a negative binomial when the charge probability is constant.
The relay may stretch each gap by a bounded data-dependent wait v >= 1, giving
an inter-transmission time T = Z + v whose entropy per expected slot is the
raw throughput of the second hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, exp, lgamma, log

import numpy as np

from .battery import BatterySpec
from .errors import ConstraintError, NumericalError, ValidationError
from .pmf import (BinaryChannel, Pmf, _entropy_bits, _float_array, _integer_array,
                  _require_integers, _require_reals)
from .rates import RateBreakdown

MASS_TOL = 1e-12
_SUPPORT_CAP = 1_000_000
_COEF_SPAN = 2048  # longest support range whose coefficients are cached


@dataclass(frozen=True)
class IntegerPmf:
    """Distribution over a contiguous ascending range of integers."""

    values: np.ndarray
    probs: np.ndarray

    def __init__(self, values, probs):
        vals = _integer_array(values, "values")
        pr = _float_array(probs, "probabilities")
        if vals.ndim != 1 or pr.shape != vals.shape or vals.size == 0:
            raise ValidationError("values and probs must be matching 1-d arrays")
        if np.any(np.diff(vals) <= 0):
            raise ValidationError("values must be strictly ascending")
        if np.any(pr < 0.0) or not np.isfinite(pr).all():
            raise ValidationError("probabilities must be finite and nonnegative")
        total = float(pr.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"probabilities sum to {total}, expected 1")
        self._hold(vals, pr / total)

    @classmethod
    def _trusted(cls, values: np.ndarray, probs: np.ndarray) -> "IntegerPmf":
        """The pmf of a law that ``_z_law`` or ``_t_law`` built, held as it is.

        Its support ascends and its weights are finite, nonnegative and
        renormalized by construction, so the constructor's steps are skipped.
        """
        dist = cls.__new__(cls)
        dist._hold(np.asarray(values, dtype=np.int64), probs)
        return dist

    def _hold(self, vals: np.ndarray, pr: np.ndarray) -> None:
        vals.setflags(write=False)
        pr.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "probs", pr)

    def mean(self) -> float:
        return float(self.values @ self.probs)

    def entropy_bits(self) -> float:
        return _entropy_bits(_renormalized(self.probs))


@dataclass(frozen=True)
class ZNoise:
    """Recharge-time law: cost-many charge arrivals at probability p1 each.

    With ``overlap`` the slot that empties the battery can itself carry a
    charge, shaving one arrival off the wait with probability p1.
    """

    cost: int
    p1: float
    overlap: bool = False
    zmax: int | None = None

    def __post_init__(self):
        _require_integers(f"cost and zmax must be integers, got {self.cost!r} and {self.zmax!r}",
                          self.cost, *([] if self.zmax is None else [self.zmax]))
        _require_reals("charge probability", self.p1)
        if self.cost < 2:
            raise ValidationError("cost must be at least 2")
        if not (0.0 < self.p1 <= 1.0):
            raise ValidationError("charge probability must be in (0, 1]; 0 never recharges")
        if self.zmax is not None and self.zmax < self.cost - (1 if self.overlap else 0):
            raise ValidationError("zmax is below the smallest possible recharge time")
        if self.zmax is not None and self.zmax > _SUPPORT_CAP:
            raise ValidationError(f"zmax must be at most {_SUPPORT_CAP}, the recharge support cap")


def _nb_coefficients(first: int, stop: int, k: int) -> np.ndarray:
    """comb(z-1, k-1) as doubles for z from ``first`` up, read-only.

    Each coefficient is an exact integer, carried from one z to the next by
    recurrence and rounded once to a double. The array stops before the
    first coefficient that does not fit a double, so it is shorter than
    ``stop - first`` exactly when the law needs log space from there on.
    """
    coef, c = [], comb(first - 1, k - 1)
    for z in range(first, stop):
        try:
            coef.append(float(c))
        except OverflowError:
            break
        c = c * z // (z - k + 1)
    out = np.array(coef, dtype=np.float64)
    out.setflags(write=False)
    return out


# The recharge law of a given cost asks for the same few support ranges at
# every source bias; 64 ranges of at most _COEF_SPAN doubles is 1 MiB at most.
_cached_coefficients = lru_cache(maxsize=64)(_nb_coefficients)


def _nb_pmf(start: int, stop: int, k: int, p: float) -> np.ndarray:
    """P(k-th success on trial z) for Bernoulli(p) trials, z in [start, stop).

    Each entry is comb(z-1, k-1) * p**k * (1-p)**(z-k) exactly as the scalar
    formula gives it: the coefficients come from ``_nb_coefficients``, kept
    per support range when the range spans at most ``_COEF_SPAN`` points,
    and the powers use Python's ``**`` (numpy's vector power rounds some
    inputs differently). From the first z whose coefficient does not fit a
    double, the entries are
    exp(lgamma(z) - lgamma(k) - lgamma(z-k+1) + k log p + (z-k) log q)
    instead. Their relative error grows with lgamma(z): about 2e-11 at
    z = 6,647, where cost 150 at p = 0.05 switches.
    """
    out = np.zeros(stop - start)
    first = max(start, k)
    if first >= stop:
        return out
    coefficients = _cached_coefficients if stop - first <= _COEF_SPAN else _nb_coefficients
    coef = coefficients(first, stop, k)
    q = 1.0 - p
    linear = first + len(coef)
    powers = [q ** (z - k) for z in range(first, linear)]
    np.multiply(coef * p**k, powers, out=out[first - start:linear - start])
    if linear < stop and q > 0.0:  # with q == 0 every entry past z = k is 0
        base = k * log(p) - lgamma(k)
        out[linear - start:] = [exp(lgamma(z) - lgamma(z - k + 1) + base + (z - k) * log(q))
                                for z in range(linear, stop)]
    return out


def _renormalized(probs: np.ndarray) -> np.ndarray:
    """``probs`` divided by its sum: the renormalization every law here gets."""
    return probs / probs.sum()


def _z_law(noise: ZNoise) -> tuple[np.ndarray, np.ndarray]:
    """Support and probabilities of the recharge law, as ``z_pmf`` holds them.

    Each doubling of the horizon computes only the new half of the support.
    The cut law is renormalized twice: the second pass still moves single
    ulps, and every recorded law carries its bits.
    """
    m, p = noise.cost, noise.p1
    lo = m - 1 if noise.overlap else m

    def mass(start: int, stop: int) -> np.ndarray:
        if noise.overlap:
            return p * _nb_pmf(start, stop, m - 1, p) + (1.0 - p) * _nb_pmf(start, stop, m, p)
        return _nb_pmf(start, stop, m, p)

    if noise.zmax is not None:
        probs = mass(lo, noise.zmax + 1)
        if probs.sum() < 1.0 - MASS_TOL:
            raise NumericalError(
                f"horizon {noise.zmax} truncates {1.0 - probs.sum():.3e} of the recharge mass"
            )
    else:
        hi = max(lo + 8, 2 * m)
        probs = mass(lo, hi + 1)
        while probs.sum() < 1.0 - MASS_TOL:
            if hi > _SUPPORT_CAP:
                raise NumericalError(
                    f"recharge-time support exceeds {_SUPPORT_CAP} points at p1={p}"
                )
            probs = np.concatenate([probs, mass(hi + 1, 2 * hi + 1)])
            hi *= 2
        # the loop stops on the pairwise sum, and the sequential cumsum can end
        # just below it, so the cut is clamped to the points computed
        probs = probs[:min(int(np.searchsorted(np.cumsum(probs), 1.0 - MASS_TOL)) + 1,
                           probs.size)]
    return np.arange(lo, lo + probs.size, dtype=np.int64), _renormalized(_renormalized(probs))


def z_pmf(noise: ZNoise) -> IntegerPmf:
    """Distribution of the recharge time, truncated where the tail dies.

    The support is cut at the explicit ``zmax`` when given; the truncated
    tail must weigh under ``MASS_TOL`` or the horizon is rejected. Without
    ``zmax`` the smallest adequate horizon is found by doubling.
    """
    return IntegerPmf._trusted(*_z_law(noise))


def default_wait_table(aux_size: int, z_values: np.ndarray) -> np.ndarray:
    """Wait rule v(a, z) = ((a - z) mod aux_size) + 1, one row per aux symbol."""
    _require_integers(f"aux alphabet size must be an integer, got {aux_size!r}", aux_size)
    if aux_size < 1:
        raise ValidationError("aux alphabet must be nonempty")
    a = np.arange(aux_size, dtype=np.int64)[:, None]
    return (a - _integer_array(z_values, "recharge times")[None, :]) % aux_size + 1


def constant_wait_table(value: int, aux_size: int, z_values: np.ndarray) -> np.ndarray:
    _require_integers(f"constant wait and aux alphabet size must be integers, got {value!r} "
                      f"and {aux_size!r}", value, aux_size)
    if value < 1:
        raise ValidationError("waits must be at least one slot")
    return np.full((aux_size, len(z_values)), value, dtype=np.int64)


@dataclass(frozen=True)
class TimingScheme:
    """Auxiliary message symbol A ~ aux and a wait table v[a, z] >= 1."""

    aux: Pmf
    wait: np.ndarray

    def __post_init__(self):
        wait = _integer_array(self.wait, "wait table")
        if wait.ndim != 2:
            raise ValidationError("wait table must be 2-d (aux symbol by recharge time)")
        if wait.shape[0] != len(self.aux):
            raise ValidationError("wait table rows must match the aux alphabet")
        if np.any(wait < 1):
            raise ValidationError("waits must be at least one slot")
        wait.setflags(write=False)
        object.__setattr__(self, "wait", wait)


def _wait_rule(rule: str, aux_size: int, wait_const: int):
    """A named wait rule as (scheme builder, "wait selector" note).

    The builder maps a recharge support to the aux law and the wait table
    over that support, the two halves of the rule's ``TimingScheme``.
    """
    _require_integers(f"aux alphabet size and constant wait must be integers, got {aux_size!r} "
                      f"and {wait_const!r}", aux_size, wait_const)
    if rule == "mod":
        aux = Pmf.uniform(aux_size)
        return (lambda z: (aux, default_wait_table(aux_size, z)),
                f"wait selector: uniform over {aux_size} letters (default choice), "
                f"modular wait rule")
    if rule == "const":
        if wait_const < 1:
            raise ValidationError(f"constant wait must be at least one slot, got {wait_const!r}")
        aux = Pmf.point(1, 0)
        return (lambda z: (aux, constant_wait_table(wait_const, 1, z)),
                f"wait selector: constant wait {wait_const}")
    raise ValidationError(f"unknown wait rule {rule!r}")


def _t_law(z_values: np.ndarray, z_probs: np.ndarray, aux: np.ndarray,
           wait: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support and probabilities of the spacing law, as ``t_pmf`` holds them.

    Every (aux symbol, recharge time) pair adds its weight to its spacing in
    the order of the flattened table, as ``np.add.at`` would.
    """
    if wait.shape[1] != len(z_values):
        raise ValidationError("wait table columns must cover the recharge support")
    t_vals = z_values[None, :] + wait
    weights = aux[:, None] * z_probs[None, :]
    lo = int(t_vals.min())
    acc = np.bincount((t_vals - lo).ravel(), weights=weights.ravel())
    keep = acc > 0.0
    return keep.nonzero()[0] + lo, _renormalized(acc[keep])


def t_pmf(z_dist: IntegerPmf, scheme: TimingScheme) -> IntegerPmf:
    """Distribution of T = Z + v(A, Z) with A independent of Z."""
    return IntegerPmf._trusted(*_t_law(z_dist.values, z_dist.probs, scheme.aux.probs,
                                       scheme.wait))


def induced_arrival_prob(p_x1: Pmf, ch1: BinaryChannel) -> float:
    """Charge probability seen by the relay: P(first-hop output = 1)."""
    return float((p_x1.probs @ ch1.rows)[1])


def _spacing_bounds(src: np.ndarray, ch1: BinaryChannel, t_values: np.ndarray,
                    t_probs: np.ndarray) -> tuple[float, float]:
    """(relay, receiver) bounds of the timing scheme from a spacing law.

    ``src`` is the source law and ``t_values``/``t_probs`` the spacing law as
    ``IntegerPmf`` holds them. The receiver bound is H(T)/E[T] minus
    H(first-hop output | source symbol); the relay bound is the first-hop
    mutual information. Each entropy renormalizes its vector the way
    ``Pmf`` does (the clip to zero is the identity on these vectors), so the
    bounds equal those computed through the validated objects.
    """
    charge_bits = float(src[0] * ch1.noise_bits[0] + src[1] * ch1.noise_bits[1])
    receiver = _entropy_bits(_renormalized(t_probs)) / float(t_values @ t_probs)
    receiver -= charge_bits
    relay = max(_entropy_bits(_renormalized(src @ ch1.rows)) - charge_bits, 0.0)
    return relay, receiver


def _timing_inputs(spec: BatterySpec, ch1: BinaryChannel | None) -> None:
    """Raise unless the timing scheme applies: a first hop, capacity equal to the cost."""
    if ch1 is None:
        raise ValidationError("the timing scheme needs the first-hop channel")
    if spec.capacity != spec.cost:
        raise ConstraintError("timing scheme requires capacity equal to the cost")


def _timing_laws(spec: BatterySpec, p_x1, ch1: BinaryChannel | None, rule,
                 overlap: bool = False, zmax: int | None = None) -> tuple:
    """The timing scheme at a source law: the path of every timing entry point.

    Checks the inputs, then returns the source ``Pmf``, the charge noise it
    induces through the first hop, the recharge law, the (aux law, wait
    table) that ``rule``, a scheme builder of ``_wait_rule``, gives for the
    recharge support, and the spacing law; each law as (support, probabilities).
    """
    _timing_inputs(spec, ch1)
    src = p_x1 if isinstance(p_x1, Pmf) else Pmf(p_x1)
    if len(src) != 2:
        raise ValidationError("source law must be binary")
    noise = ZNoise(cost=spec.cost, p1=induced_arrival_prob(src, ch1),
                   overlap=overlap, zmax=zmax)
    z_law = _z_law(noise)
    aux, wait = rule(z_law[0])
    return src, noise, z_law, (aux, wait), _t_law(*z_law, aux.probs, wait)


@dataclass(frozen=True)
class TimingRateResult:
    breakdown: RateBreakdown
    noise: ZNoise
    z_dist: IntegerPmf
    t_dist: IntegerPmf
    scheme: TimingScheme


def _timing_result(spec: BatterySpec, p_x1, ch1: BinaryChannel | None, rule,
                   overlap: bool = False, zmax: int | None = None) -> TimingRateResult:
    """``_timing_laws`` as a ``TimingRateResult``, bounded by ``_spacing_bounds``."""
    src, noise, z_law, scheme, t_law = _timing_laws(spec, p_x1, ch1, rule, overlap, zmax)
    breakdown = RateBreakdown.from_bounds(*_spacing_bounds(src.probs, ch1, *t_law))
    return TimingRateResult(breakdown, noise, IntegerPmf._trusted(*z_law),
                            IntegerPmf._trusted(*t_law), TimingScheme(*scheme))


def timing_rate(spec: BatterySpec, p_x1, ch1: BinaryChannel, *,
                scheme: TimingScheme | None = None, aux_size: int = 5,
                wait_rule: str = "mod", wait_const: int = 1, overlap: bool = False,
                zmax: int | None = None) -> TimingRateResult:
    """Evaluate the timing scheme at a source law.

    Requires capacity == cost so every transmission empties the battery. The
    receiver bound is H(T)/E[T] minus the per-slot charge entropy the relay
    cannot predict, H(first-hop output | source symbol); the relay bound is
    the first-hop mutual information. The recharge law is the negative
    binomial induced by the source law through the first hop.
    """
    def rule(z_values):  # asked once the recharge law is built, so its errors come first
        if scheme is not None:
            return scheme.aux, scheme.wait
        return _wait_rule(wait_rule, aux_size, wait_const)[0](z_values)

    return _timing_result(spec, p_x1, ch1, rule, overlap, zmax)
