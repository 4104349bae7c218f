"""Exact probability primitives over small finite alphabets.

Probability vectors and joint tables are validated on construction and then
frozen. All information measures are in bits, with the convention
0 * log 0 = 0. Hand-typed inputs are accepted with a looser sum tolerance
(``USER_TOL``) than internally computed ones (``INTERNAL_TOL``), because user
configs are transcribed by hand while internal arithmetic keeps sums accurate
to near machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

USER_TOL = 1e-9
INTERNAL_TOL = 1e-12

_LN2 = float(np.log(2.0))


def _validated_vector(values, tol: float, what: str) -> np.ndarray:
    p = np.array(values, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError(f"{what} must be a nonempty 1-d vector")
    if not np.all(np.isfinite(p)):
        raise ValidationError(f"{what} has a non-finite entry")
    if float(p.min()) < -tol:
        raise ValidationError(f"{what} has a negative entry: {float(p.min())!r}")
    total = float(p.sum())
    if abs(total - 1.0) > tol:
        raise ValidationError(f"{what} sums to {total!r}, not 1 (tolerance {tol})")
    p = np.clip(p, 0.0, None)
    p /= p.sum()
    p.flags.writeable = False
    return p


class Pmf:
    """Probability vector over a finite alphabet, immutable after construction.

    Entries are validated (finite, nonnegative up to ``tol``, summing to one
    within ``tol``) and then renormalized exactly, so downstream arithmetic
    can rely on the sum-to-one invariant at machine precision.
    """

    __slots__ = ("probs",)

    def __init__(self, values, tol: float = USER_TOL):
        self.probs = _validated_vector(values, tol, "pmf")

    @classmethod
    def binary(cls, p_one: float, tol: float = USER_TOL) -> "Pmf":
        """Two-point pmf with P(1) = p_one."""
        return cls([1.0 - p_one, p_one], tol=tol)

    @classmethod
    def uniform(cls, k: int) -> "Pmf":
        if k < 1:
            raise ValidationError("uniform pmf needs at least one outcome")
        return cls(np.full(k, 1.0 / k), tol=INTERNAL_TOL)

    @classmethod
    def point(cls, k: int, index: int) -> "Pmf":
        if not 0 <= index < k:
            raise ValidationError("point-mass index out of range")
        p = np.zeros(k)
        p[index] = 1.0
        return cls(p, tol=INTERNAL_TOL)

    def __len__(self) -> int:
        return self.probs.size

    def __getitem__(self, i: int) -> float:
        return float(self.probs[i])

    def __repr__(self) -> str:
        return f"Pmf({self.probs.tolist()!r})"


class JointPmf:
    """Joint distribution over a pair of finite alphabets, indexed (row, column)."""

    __slots__ = ("table",)

    def __init__(self, table, tol: float = USER_TOL):
        t = np.array(table, dtype=float)
        if t.ndim != 2 or t.size == 0:
            raise ValidationError("joint pmf must be a nonempty 2-d table")
        if not np.all(np.isfinite(t)):
            raise ValidationError("joint pmf has a non-finite entry")
        if float(t.min()) < -tol:
            raise ValidationError(f"joint pmf has a negative entry: {float(t.min())!r}")
        total = float(t.sum())
        if abs(total - 1.0) > tol:
            raise ValidationError(f"joint pmf sums to {total!r}, not 1 (tolerance {tol})")
        t = np.clip(t, 0.0, None)
        t /= t.sum()
        t.flags.writeable = False
        self.table = t

    def __repr__(self) -> str:
        return f"JointPmf({self.table.tolist()!r})"


@dataclass(frozen=True)
class BinaryChannel:
    """Memoryless binary channel given by its correct-reception probabilities.

    ``q1`` is the probability a transmitted 0 is received as 0, ``q2`` the
    probability a transmitted 1 is received as 1. The channel output carries
    information about the input exactly when q1 + q2 differs from 1.
    """

    q1: float
    q2: float

    def __post_init__(self):
        for name, q in (("q1", self.q1), ("q2", self.q2)):
            if not np.isfinite(q) or not 0.0 <= q <= 1.0:
                raise ValidationError(f"channel {name} must lie in [0, 1], got {q!r}")

    @classmethod
    def from_crossover(cls, p: float) -> "BinaryChannel":
        """Symmetric channel that flips either symbol with probability p."""
        if not np.isfinite(p) or not 0.0 <= p <= 1.0:
            raise ValidationError(f"channel crossover must lie in [0, 1], got {p!r}")
        return cls(1.0 - p, 1.0 - p)

    @cached_property
    def noise_bits(self) -> np.ndarray:
        """[h(q1), h(q2)]: entropy of the output given each input, in bits."""
        bits = _h2([self.q1, self.q2])
        bits.flags.writeable = False
        return bits

    @property
    def rows(self) -> np.ndarray:
        """Transition table, rows indexed by input symbol."""
        return np.array([[self.q1, 1.0 - self.q1], [1.0 - self.q2, self.q2]])


def entropy(p) -> float:
    """Shannon entropy in bits; accepts a Pmf or anything coercible to one."""
    return _entropy_bits(p.probs if isinstance(p, Pmf) else Pmf(p).probs)


def _entropy_bits(probs: np.ndarray) -> float:
    """The unchecked core of ``entropy``, for vectors already normalized."""
    mask = probs > 0.0
    return float(-(probs[mask] * np.log2(probs[mask])).sum()) + 0.0


def _h2(p) -> np.ndarray:
    """Binary entropy in bits, elementwise, without argument checks.

    The unvalidated core of ``binary_entropy`` for internal hot paths whose
    arguments are probabilities by construction; rounding slop just outside
    [0, 1] is clipped the same way.
    """
    arr = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    out = np.zeros_like(arr)
    for q in (arr, 1.0 - arr):
        mask = q > 0.0
        out = out - np.where(mask, q * np.log2(np.where(mask, q, 1.0)), 0.0)
    return out


def binary_entropy(p):
    """Entropy in bits of a (p, 1-p) split, elementwise on arrays."""
    arr = np.asarray(p, dtype=float)
    if not np.all((arr >= -INTERNAL_TOL) & (arr <= 1.0 + INTERNAL_TOL)):
        raise ValidationError("binary_entropy argument must lie in [0, 1]")
    out = _h2(arr)
    if np.isscalar(p) or getattr(p, "ndim", 1) == 0:
        return float(out)
    return out
