"""Exact probability primitives over small finite alphabets.

Probability vectors and joint tables are validated on construction and then
frozen. All information measures are in bits, with the convention
0 * log 0 = 0. Hand-typed inputs are accepted with a looser sum tolerance
(``USER_TOL``) than internally computed ones (``INTERNAL_TOL``), because user
configs are transcribed by hand while internal arithmetic keeps sums accurate
to near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ValidationError

USER_TOL = 1e-9
INTERNAL_TOL = 1e-12

_LEAST = float(np.finfo(float).smallest_subnormal)


def _require_integers(message: str, *values) -> None:
    """Raise ``ValidationError(message)`` unless every value is an int or numpy integer, no bool."""
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values):
        raise ValidationError(message)


def _require_reals(what: str, *values) -> None:
    """Raise a ``ValidationError`` naming ``what`` unless every value is a real number, no bool.

    A real number is a Python or numpy int or float. The message is built
    only on failure, since channels are checked on every rate call.
    """
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
            raise ValidationError(f"{what} must be a number, got {v!r}")


def _require_bool(what: str, value) -> None:
    """Raise a ``ValidationError`` naming ``what`` unless ``value`` is a Python or numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{what} must be true or false, got {value!r}")


def _sequence(values, what: str) -> tuple:
    """``values`` as a tuple; a scalar is a ``ValidationError`` naming ``what``."""
    try:
        return tuple(values)
    except TypeError:
        raise ValidationError(f"{what} must be a sequence of integers, got {values!r}") from None


def _integer_array(values, what: str) -> np.ndarray:
    """``values`` as an int64 array; an entry that is not an integer is a ``ValidationError``.

    Arrays of every numpy integer dtype pass; floats, strings, bools and
    ragged rows are refused rather than cast.
    """
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise ValidationError(f"{what} must be an array of integers") from exc
    if arr.dtype.kind not in "iu" and arr.size:
        raise ValidationError(f"{what} must be an array of integers")
    return arr.astype(np.int64, copy=False)


def _float_array(values, what: str) -> np.ndarray:
    """A fresh float array of ``values``; a string or ragged entry is a ``ValidationError``."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be an array of numbers") from exc


def _validated_vector(values, tol: float, what: str) -> np.ndarray:
    p = _float_array(values, what)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError(f"{what} must be a nonempty 1-d vector")
    return _normalized(p, tol, what)


def _normalized(p: np.ndarray, tol: float, what: str) -> np.ndarray:
    """A fresh float array checked, then renormalized by ``_scaled``.

    The entries must be finite, none below ``-tol``, and sum to one within
    ``tol``; failures are reported in that order. The least and greatest
    entries are finite exactly when every entry is, and the sum is taken
    only then, so an infinity never reaches it.
    """
    lo, hi = float(p.min()), float(p.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"{what} has a non-finite entry")
    if lo < -tol:
        raise ValidationError(f"{what} has a negative entry: {lo!r}")
    total = float(p.sum())
    if abs(total - 1.0) > tol:
        raise ValidationError(f"{what} sums to {total!r}, not 1 (tolerance {tol})")
    return _scaled(p, lo, total)


def _normalized_stack(stack: np.ndarray, tol: float) -> Optional[np.ndarray]:
    """Each item along the first axis checked and renormalized as ``_normalized`` would.

    Returns None when any item fails, so that the caller can build the
    items one by one and report the first failure with its own message.
    An entry above ``1 + size * tol`` fails its item's sum, so the sums are
    taken only when every entry lies in ``[-tol, 1 + size * tol]`` and
    none can overflow. Row sums over a contiguous last axis add in the
    order that one item's own sum does, so every accepted item is bit for
    bit what ``_normalized`` makes of it.
    """
    flat = stack.reshape(len(stack), -1)
    lo, hi = float(flat.min()), float(flat.max())
    if not (lo >= -tol and hi <= 1.0 + flat.shape[1] * tol):
        return None
    total = flat.sum(axis=1, keepdims=True)
    if not np.abs(total - 1.0).max() <= tol:
        return None
    return _scaled(flat, lo, total, axis=1).reshape(stack.shape)


def _scaled(p: np.ndarray, lo: float, total, axis=None) -> np.ndarray:
    """``p`` divided in place by ``total``, its sum over ``axis``, read-only.

    ``lo`` is the least entry. Entries at or below zero first become +0.0,
    as ``np.clip(p, 0.0, None)`` makes them, and the sum is taken again if
    any entry was negative.
    """
    if lo < 0.0:
        p = np.clip(p, 0.0, None)
        total = p.sum(axis=axis, keepdims=axis is not None)
    elif lo == 0.0:
        p += 0.0  # -0.0 becomes +0.0; with no negative entry the sum does not change
    p /= total
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
        _require_integers(f"uniform pmf needs an integer number of outcomes, got {k!r}", k)
        if k < 1:
            raise ValidationError("uniform pmf needs at least one outcome")
        return cls(np.full(k, 1.0 / k), tol=INTERNAL_TOL)

    @classmethod
    def point(cls, k: int, index: int) -> "Pmf":
        _require_integers(f"point mass needs integer size and index, got {k!r} and {index!r}",
                          k, index)
        if not 0 <= index < k:
            raise ValidationError("point-mass index out of range")
        p = np.zeros(k)
        p[index] = 1.0
        return cls(p, tol=INTERNAL_TOL)

    @classmethod
    def _checked(cls, probs: np.ndarray) -> "Pmf":
        """Wrap a read-only vector that has already passed the constructor's checks."""
        pmf = cls.__new__(cls)
        pmf.probs = probs
        return pmf

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
        t = _float_array(table, "joint pmf")
        if t.ndim != 2 or t.size == 0:
            raise ValidationError("joint pmf must be a nonempty 2-d table")
        self.table = _normalized(t, tol, "joint pmf")

    def __repr__(self) -> str:
        return f"JointPmf({self.table.tolist()!r})"


def _stacked(items: list, cls, tol: float, shape: tuple, wrong_shape: str) -> np.ndarray:
    """The items as ``cls(item, tol=tol)`` holds them, stacked read-only.

    ``cls`` is ``Pmf`` or ``JointPmf``, and every item must hold an array of
    ``shape``. Instances of ``cls`` are taken as they are; all other items
    are checked together as one array. When they do not stack to ``shape``
    or one of them fails, the items are built one by one in order, so the
    first failure raises with the message and in the order that the
    per-item constructor and then the shape check (``wrong_shape``) give.
    """
    attr = "table" if cls is JointPmf else "probs"
    fresh = np.array([not isinstance(x, cls) for x in items], dtype=bool)
    try:
        stack = np.array([x if new else getattr(x, attr) for x, new in zip(items, fresh)],
                         dtype=float)
    except (TypeError, ValueError):
        stack = None
    if stack is not None and stack.shape[1:] == shape:
        checked = _normalized_stack(stack[fresh], tol) if fresh.any() else stack[fresh]
        if checked is not None:
            stack[fresh] = checked
            stack.flags.writeable = False
            return stack
    held = []
    for x in items:
        values = getattr(x if isinstance(x, cls) else cls(x, tol=tol), attr)
        if values.shape != shape:
            raise ValidationError(wrong_shape)
        held.append(values)
    stack = np.stack(held) if held else np.zeros((0,) + shape)
    stack.flags.writeable = False
    return stack


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
            _require_reals(f"channel {name}", q)
            if not np.isfinite(q) or not 0.0 <= q <= 1.0:
                raise ValidationError(f"channel {name} must lie in [0, 1], got {q!r}")

    @classmethod
    def from_crossover(cls, p: float) -> "BinaryChannel":
        """Symmetric channel that flips either symbol with probability p."""
        _require_reals("channel crossover", p)
        if not np.isfinite(p) or not 0.0 <= p <= 1.0:
            raise ValidationError(f"channel crossover must lie in [0, 1], got {p!r}")
        return cls(1.0 - p, 1.0 - p)

    @cached_property
    def noise_bits(self) -> np.ndarray:
        """[h(q1), h(q2)]: entropy of the output given each input, in bits."""
        bits = _h2([self.q1, self.q2])
        bits.flags.writeable = False
        return bits

    @cached_property
    def rows(self) -> np.ndarray:
        """Transition table, rows indexed by input symbol; read-only."""
        rows = np.array([[self.q1, 1.0 - self.q1], [1.0 - self.q2, self.q2]])
        rows.flags.writeable = False
        return rows


def entropy(p) -> float:
    """Shannon entropy in bits; accepts a Pmf or anything coercible to one."""
    return _entropy_bits(p.probs if isinstance(p, Pmf) else Pmf(p).probs)


def _entropy_bits(probs: np.ndarray) -> float:
    """The unchecked core of ``entropy``, for vectors already normalized."""
    live = probs[probs > 0.0]
    return -float((live * np.log2(live)).sum()) + 0.0


def _h2(p) -> np.ndarray:
    """Binary entropy in bits, elementwise, without argument checks.

    The unvalidated core of ``binary_entropy`` for internal hot paths whose
    arguments are probabilities by construction; rounding slop just outside
    [0, 1] is clipped the same way. A zero probability takes the logarithm
    of the least subnormal instead of its own; times zero that is a zero
    term, so 0 * log 0 = 0 holds with the bits of skipping the logarithm.
    """
    arr = np.minimum(np.maximum(p, 0.0), 1.0)
    comp = 1.0 - arr
    return ((0.0 - arr * np.log2(np.maximum(arr, _LEAST)))
            - comp * np.log2(np.maximum(comp, _LEAST)))


def binary_entropy(p):
    """Entropy in bits of a (p, 1-p) split, elementwise on arrays."""
    arr = np.asarray(p, dtype=float)
    if not np.all((arr >= -INTERNAL_TOL) & (arr <= 1.0 + INTERNAL_TOL)):
        raise ValidationError("binary_entropy argument must lie in [0, 1]")
    out = _h2(arr)
    if np.isscalar(p) or getattr(p, "ndim", 1) == 0:
        return float(out)
    return out
