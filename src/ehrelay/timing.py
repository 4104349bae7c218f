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
from .breakdown import RateBreakdown
from .errors import ConstraintError, NumericalError, ValidationError
from .pmf import BinaryChannel, Pmf, _entropy_bits, entropy

MASS_TOL = 1e-12
_SUPPORT_CAP = 1_000_000
_COEF_SPAN = 2048  # longest support range whose coefficients are cached


@dataclass(frozen=True)
class IntegerPmf:
    """Distribution over a contiguous ascending range of integers."""

    values: np.ndarray
    probs: np.ndarray

    def __init__(self, values, probs):
        vals = np.asarray(values, dtype=np.int64)
        pr = np.asarray(probs, dtype=np.float64)
        if vals.ndim != 1 or pr.shape != vals.shape or vals.size == 0:
            raise ValidationError("values and probs must be matching 1-d arrays")
        if np.any(np.diff(vals) <= 0):
            raise ValidationError("values must be strictly ascending")
        if np.any(pr < 0.0) or not np.isfinite(pr).all():
            raise ValidationError("probabilities must be finite and nonnegative")
        total = float(pr.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"probabilities sum to {total}, expected 1")
        pr = pr / total
        vals.setflags(write=False)
        pr.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "probs", pr)

    def mean(self) -> float:
        return float(self.values @ self.probs)

    def entropy_bits(self) -> float:
        return entropy(Pmf(self.probs, tol=1e-9))


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
    out[first - start:linear - start] = coef * p**k * np.array(powers)
    if linear < stop and q > 0.0:  # with q == 0 every entry past z = k is 0
        base = k * log(p) - lgamma(k)
        out[linear - start:] = [exp(lgamma(z) - lgamma(z - k + 1) + base + (z - k) * log(q))
                                for z in range(linear, stop)]
    return out


def _z_law(noise: ZNoise) -> tuple[np.ndarray, np.ndarray]:
    """Support and probabilities of ``z_pmf`` before ``IntegerPmf`` renormalizes them.

    Each doubling of the horizon computes only the new half of the support.
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
        return np.arange(lo, noise.zmax + 1, dtype=np.int64), probs / probs.sum()
    hi = max(lo + 8, 2 * m)
    probs = mass(lo, hi + 1)
    while probs.sum() < 1.0 - MASS_TOL:
        if hi > _SUPPORT_CAP:
            raise NumericalError(
                f"recharge-time support exceeds {_SUPPORT_CAP} points at p1={p}"
            )
        probs = np.concatenate([probs, mass(hi + 1, 2 * hi + 1)])
        hi *= 2
    cut = int(np.searchsorted(np.cumsum(probs), 1.0 - MASS_TOL)) + 1
    probs = probs[:cut]
    return np.arange(lo, lo + cut, dtype=np.int64), probs / probs.sum()


def z_pmf(noise: ZNoise) -> IntegerPmf:
    """Distribution of the recharge time, truncated where the tail dies.

    The support is cut at the explicit ``zmax`` when given; the truncated
    tail must weigh under ``MASS_TOL`` or the horizon is rejected. Without
    ``zmax`` the smallest adequate horizon is found by doubling.
    """
    return IntegerPmf(*_z_law(noise))


def default_wait_table(aux_size: int, z_values: np.ndarray) -> np.ndarray:
    """Wait rule v(a, z) = ((a - z) mod aux_size) + 1, one row per aux symbol."""
    if aux_size < 1:
        raise ValidationError("aux alphabet must be nonempty")
    a = np.arange(aux_size, dtype=np.int64)[:, None]
    return (a - np.asarray(z_values, dtype=np.int64)[None, :]) % aux_size + 1


def constant_wait_table(value: int, aux_size: int, z_values: np.ndarray) -> np.ndarray:
    if value < 1:
        raise ValidationError("waits must be at least one slot")
    return np.full((aux_size, len(z_values)), value, dtype=np.int64)


@dataclass(frozen=True)
class TimingScheme:
    """Auxiliary message symbol A ~ aux and a wait table v[a, z] >= 1."""

    aux: Pmf
    wait: np.ndarray

    def __post_init__(self):
        wait = np.asarray(self.wait, dtype=np.int64)
        if wait.ndim != 2:
            raise ValidationError("wait table must be 2-d (aux symbol by recharge time)")
        if wait.shape[0] != len(self.aux):
            raise ValidationError("wait table rows must match the aux alphabet")
        if np.any(wait < 1):
            raise ValidationError("waits must be at least one slot")
        wait.setflags(write=False)
        object.__setattr__(self, "wait", wait)


def _wait_rule(rule: str, aux_size: int, wait_const: int):
    """A named wait rule as (aux law, wait-table builder, "wait selector" note).

    The builder maps the recharge support to the wait table, so the scheme
    for a given recharge law is ``TimingScheme(aux, table(z_values))``.
    """
    if rule == "mod":
        return (Pmf.uniform(aux_size), lambda z: default_wait_table(aux_size, z),
                f"wait selector: uniform over {aux_size} letters (default choice), "
                f"modular wait rule")
    if rule == "const":
        if wait_const < 1:
            raise ValidationError(f"constant wait must be at least one slot, got {wait_const!r}")
        return (Pmf.point(1, 0), lambda z: constant_wait_table(wait_const, 1, z),
                f"wait selector: constant wait {wait_const}")
    raise ValidationError(f"unknown wait rule {rule!r}")


def _t_law(z_values: np.ndarray, z_probs: np.ndarray, aux: np.ndarray,
           wait: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Support and probabilities of ``t_pmf`` before ``IntegerPmf`` renormalizes them.

    Every (aux symbol, recharge time) pair adds its weight to its spacing in
    the order of the flattened table, as ``np.add.at`` would.
    """
    t_vals = z_values[None, :] + wait
    weights = aux[:, None] * z_probs[None, :]
    lo = int(t_vals.min())
    acc = np.bincount((t_vals - lo).ravel(), weights=weights.ravel())
    keep = acc > 0.0
    return np.flatnonzero(keep) + lo, acc[keep]


def t_pmf(z_dist: IntegerPmf, scheme: TimingScheme) -> IntegerPmf:
    """Distribution of T = Z + v(A, Z) with A independent of Z."""
    if scheme.wait.shape[1] != len(z_dist.values):
        raise ValidationError("wait table columns must cover the recharge support")
    return IntegerPmf(*_t_law(z_dist.values, z_dist.probs, scheme.aux.probs, scheme.wait))


def induced_arrival_prob(p_x1: Pmf, ch1: BinaryChannel) -> float:
    """Charge probability seen by the relay: P(first-hop output = 1)."""
    out = np.asarray(p_x1.probs) @ ch1.rows
    return float(out[1])


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
    receiver = _entropy_bits(t_probs / t_probs.sum()) / float(t_values @ t_probs)
    receiver -= charge_bits
    out = src @ ch1.rows
    relay = max(_entropy_bits(out / out.sum()) - charge_bits, 0.0)
    return relay, receiver


def _timing_bounds(src: np.ndarray, ch1: BinaryChannel, cost: int, overlap: bool,
                   aux: np.ndarray, table) -> tuple[float, float]:
    """(relay, receiver) bounds of ``timing_rate`` from raw arrays.

    ``src`` is the source law as ``Pmf`` holds it, ``aux`` the aux law's
    probabilities and ``table`` the wait-table builder of ``_wait_rule``.
    The recharge and spacing laws are renormalized where ``z_pmf``,
    ``t_pmf`` and ``IntegerPmf`` would, so the bounds are those of
    ``timing_rate`` bit for bit, without building its validated objects.
    """
    noise = ZNoise(cost=cost, p1=float((src @ ch1.rows)[1]), overlap=overlap)
    z_values, z_probs = _z_law(noise)
    z_probs = z_probs / float(z_probs.sum())
    t_values, t_probs = _t_law(z_values, z_probs, aux, table(z_values))
    return _spacing_bounds(src, ch1, t_values, t_probs / float(t_probs.sum()))


@dataclass(frozen=True)
class TimingRateResult:
    breakdown: RateBreakdown
    noise: ZNoise
    z_dist: IntegerPmf
    t_dist: IntegerPmf
    scheme: TimingScheme


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
    if spec.capacity != spec.cost:
        raise ConstraintError("timing scheme requires capacity equal to the cost")
    src = p_x1 if isinstance(p_x1, Pmf) else Pmf(p_x1)
    if len(src) != 2:
        raise ValidationError("source law must be binary")
    noise = ZNoise(cost=spec.cost, p1=induced_arrival_prob(src, ch1),
                   overlap=overlap, zmax=zmax)
    z_dist = z_pmf(noise)
    if scheme is None:
        aux, table, _ = _wait_rule(wait_rule, aux_size, wait_const)
        scheme = TimingScheme(aux, table(z_dist.values))
    t_dist = t_pmf(z_dist, scheme)
    breakdown = RateBreakdown.from_bounds(
        *_spacing_bounds(src.probs, ch1, t_dist.values, t_dist.probs))
    return TimingRateResult(breakdown, noise, z_dist, t_dist, scheme)
