"""Battery-level Markov model for the harvesting relay.

The relay stores at most ``capacity`` energy units and pays ``cost`` units to
transmit a 1 (transmitting a 0 is free). Each slot it may also harvest energy
from the symbol arriving on the first hop. Writing ``e`` for the units
charged and ``x2`` for the relay's transmitted symbol, the level evolves as

    u' = min(u + e - cost * x2,  capacity)

and spending is only allowed when the level covers the cost. This module
builds the state kernel for the three charging models (deterministic charge
equal to the source symbol, charge through a noisy first hop, and random
per-symbol energy loss), checks the sufficient conditions for a steady state
(some state reachable from every state, so one closed communicating class,
plus a self-loop), and exposes the lagged pair chain (u, u') whose
deterministic emission is the relay symbol, with a forward-algorithm
likelihood for observation sequences seen through a binary channel. Input
is checked once, where it enters: a caller's policy by ``_require_policy``
(the strict constructors, ``build_kernel``), a user's kernel by
``stationary`` and ``check_regularity``; a kernel built from a checked
policy is valid by construction and is not validated again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ConstraintError, NumericalError, ValidationError
from .pmf import INTERNAL_TOL, USER_TOL, BinaryChannel, JointPmf, Pmf, _require_integers, _stacked

STATIONARY_RESIDUAL = 1e-10
_POWER_ITER_MAX = 1_000_000
_BLOCK = 1024  # forward-pass words per batch of keys and scales
_WORD_STEP_US = 5.0  # fixed numpy cost of one forward step, in microseconds
_GATHER_US = 1e-3  # cost of one gathered word-matrix entry in a forward step
_MAC_US = 2e-4  # cost of one multiply-add in the word table build
_WORD_TABLE_CAP = 1 << 17  # entries (8 bytes each) allowed in the table of word matrices
_WORD_MAX = 16  # longest word, for tables that the cap does not bound
_SCALE_FLOOR = math.sqrt(np.finfo(float).tiny)  # smallest trusted word scale
_PATTERN_CACHE = 512  # kernel zero patterns whose regularity report is kept
_PATTERN_STATES = 64  # largest kernel whose pattern is kept


@dataclass(frozen=True)
class BatterySpec:
    """Battery geometry: storable units and the cost of transmitting a 1."""

    capacity: int
    cost: int

    def __post_init__(self):
        _require_integers("capacity must be an integer", self.capacity)
        _require_integers("cost must be an integer", self.cost)
        if self.capacity < 1:
            raise ValidationError("capacity must be at least 1")
        if self.cost < 2:
            raise ValidationError("cost must exceed 1 (a unit charge must not cover it)")

    @property
    def states(self) -> int:
        """Number of battery levels, capacity + 1."""
        return self.capacity + 1


@dataclass(frozen=True)
class ArrivalModel:
    """Law of the energy charged per slot, conditioned on the source symbol.

    kind "deterministic": the charge equals the source symbol.
    kind "channel":       the charge is the symbol after the first hop.
    kind "lossy":         the first-hop output is converted to energy through
                          a per-output loss law over {0, ..., cost-1}.
    """

    kind: str
    channel: Optional[BinaryChannel] = None
    loss: Optional[tuple[Pmf, Pmf]] = None

    def __post_init__(self):
        if self.kind not in ("deterministic", "channel", "lossy"):
            raise ValidationError(f"unknown arrival kind {self.kind!r}")
        if self.kind == "deterministic" and (self.channel or self.loss):
            raise ValidationError("deterministic arrivals take no channel or loss law")
        if self.kind == "channel" and (self.channel is None or self.loss is not None):
            raise ValidationError("channel arrivals need a channel and no loss law")
        if self.kind == "lossy" and (self.channel is None or self.loss is None):
            raise ValidationError("lossy arrivals need both a channel and a loss law")

    @classmethod
    def deterministic(cls) -> "ArrivalModel":
        return cls("deterministic")

    @classmethod
    def first_hop(cls, channel: BinaryChannel) -> "ArrivalModel":
        return cls("channel", channel=channel)

    @classmethod
    def lossy(cls, channel: BinaryChannel, loss_given_zero: Pmf, loss_given_one: Pmf) -> "ArrivalModel":
        return cls("lossy", channel=channel, loss=(loss_given_zero, loss_given_one))


def energy_profile(arrival: ArrivalModel, spec: BatterySpec) -> np.ndarray:
    """Rows p(e | source symbol) of the per-slot charge law.

    Deterministic and channel arrivals charge 0 or 1 unit; lossy arrivals
    charge anywhere in {0, ..., cost-1}, with the loss law applied to the
    first-hop output.
    """
    if arrival.kind == "deterministic":
        return np.array([[1.0, 0.0], [0.0, 1.0]])
    if arrival.kind == "channel":
        return arrival.channel.rows.copy()
    loss0, loss1 = arrival.loss
    if len(loss0) != spec.cost or len(loss1) != spec.cost:
        raise ValidationError(
            f"loss laws must cover exactly the energies 0..{spec.cost - 1} "
            f"(got lengths {len(loss0)} and {len(loss1)})"
        )
    rows = arrival.channel.rows
    losses = np.vstack([loss0.probs, loss1.probs])
    return rows @ losses


@dataclass(frozen=True, eq=False)
class StatePolicy:
    """Per-level input law for one block: joint tables or a product form.

    Joint mode stores, for every battery level, a joint table over
    (source symbol, relay symbol). Product mode stores one source pmf plus a
    per-level relay pmf; the relay then acts independently of the current
    source symbol. Either mode keeps its tables stacked once, read-only, as
    the (levels, 2, 2) array that ``tensor`` returns. Levels below the
    transmission cost must place no mass on spending; constructors enforce
    that unless ``strict=False``, which exists so that candidate policies
    can still be built and inspected with ``feasibility_check``.
    """

    spec: BatterySpec
    mode: str
    _tensor: np.ndarray
    x1: Optional[Pmf] = None
    x2: Optional[tuple[Pmf, ...]] = None

    def __post_init__(self):
        self._tensor.flags.writeable = False

    @classmethod
    def joint_policy(cls, spec: BatterySpec, tables, tol: float = USER_TOL,
                     strict: bool = True) -> "StatePolicy":
        tensor = _stacked(list(tables), JointPmf, tol, (2, 2),
                          "joint policy tables must be 2x2 (source x relay)")
        if len(tensor) != spec.states:
            raise ValidationError(
                f"joint policy needs one table per level (expected {spec.states}, got {len(tensor)})"
            )
        policy = cls(spec, "joint", tensor)
        if strict:
            _require_policy(spec, policy)
        return policy

    @classmethod
    def product_policy(cls, spec: BatterySpec, x1, x2_rows, tol: float = USER_TOL,
                       strict: bool = True) -> "StatePolicy":
        src = x1 if isinstance(x1, Pmf) else Pmf(x1, tol=tol)
        if len(src) != 2:
            raise ValidationError("source pmf must be binary")
        items = list(x2_rows)
        rows = _stacked(items, Pmf, tol, (2,), "relay pmfs must be binary")
        if len(rows) != spec.states:
            raise ValidationError(
                f"product policy needs one relay pmf per level (expected {spec.states}, got {len(rows)})"
            )
        x2 = tuple(x if isinstance(x, Pmf) else Pmf._checked(row) for x, row in zip(items, rows))
        tensor = src.probs[None, :, None] * rows[:, None, :]  # np.outer per level
        policy = cls(spec, "product", tensor, x1=src, x2=x2)
        if strict:
            _require_policy(spec, policy)
        return policy

    def joint_table(self, u: int) -> np.ndarray:
        return self._tensor[u]

    def x1_row(self, u: int) -> np.ndarray:
        """Marginal source law at level u."""
        if self.mode == "joint":
            return self._tensor[u].sum(axis=1)
        return self.x1.probs

    def x2_row(self, u: int) -> np.ndarray:
        """Marginal relay law at level u."""
        if self.mode == "joint":
            return self._tensor[u].sum(axis=0)
        return self.x2[u].probs

    def tensor(self) -> np.ndarray:
        """All joint tables stacked, read-only: shape (levels, 2, 2)."""
        return self._tensor


def _underfunded_levels(policy: StatePolicy) -> list[int]:
    """The spending rule: the levels below the cost at which the policy spends."""
    spec = policy.spec
    return [u for u in range(min(spec.cost, spec.states)) if float(policy.x2_row(u)[1]) != 0.0]


def _require_policy(spec: BatterySpec, policy: StatePolicy) -> None:
    """Refuse a policy built for another battery, then one that spends below the cost."""
    if policy.spec != spec:
        raise ValidationError("policy was built for a different battery geometry")
    if levels := _underfunded_levels(policy):
        raise ConstraintError(
            f"policy spends at level {levels[0]}, below the transmission cost {spec.cost}")


def transition_tensor(spec: BatterySpec, arrival: ArrivalModel) -> np.ndarray:
    """A[u, x1, x2, u'] = P(next level = u' | level u, symbols x1, x2).

    Entries for spending at an underfunded level are left all zero; callers
    must ensure the policy puts no mass there. Each charge e with positive
    probability adds p(e | x1) at u' = min(u + e - cost * x2, capacity).
    The terms are listed with e outermost, so the charges that the capacity
    clamps onto one entry add up in increasing e, as in a loop over e.
    """
    profile = energy_profile(arrival, spec)
    states, cost = spec.states, spec.cost
    funded = np.ones((states, 1, 2), dtype=bool)  # (u, 1, x2)
    funded[:cost, :, 1] = False
    e, u, x1, x2 = np.nonzero((profile.T[:, None, :, None] != 0.0) & funded)
    dest = np.minimum(u + e - cost * x2, spec.capacity)
    tensor = np.zeros((states, 2, 2, states))
    np.add.at(tensor, (u, x1, x2, dest), profile[x1, e])
    return tensor


def _tensor_cells(tensor: np.ndarray) -> np.ndarray:
    """The (L, 2, 2, L) transition tensor as one contiguous row per (x1, x2) cell.

    Row 2 * x1 + x2 holds A[u, x1, x2, u'] at u * L + u', read-only; this
    is the layout ``_kernels`` multiplies.
    """
    states = tensor.shape[0]
    cells = np.ascontiguousarray(tensor.transpose(1, 2, 0, 3)).reshape(4, states * states)
    cells.flags.writeable = False
    return cells


@lru_cache(maxsize=_PATTERN_STATES)
def _cell_index(states: int) -> np.ndarray:
    """Index of p(x1, x2 | u) in a flat (L, 2, 2) table, at (2 * x1 + x2, u * L + u')."""
    index = 4 * np.repeat(np.arange(states), states) + np.arange(4)[:, None]
    index.flags.writeable = False
    return index


def _kernels(joint: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Level kernels K[u, u'] = sum over (x1, x2) of p(x1, x2 | u) A[u, x1, x2, u'].

    ``joint`` stacks per-level tables with shape (..., L, 2, 2) and
    ``cells`` is ``_tensor_cells`` of the transition tensor; returns
    (..., L, L). Each table entry is spread along its level's kernel row,
    so all the products are one multiply, made in place so that a large
    stack holds one temporary, and the four cells are added in
    their fixed order (a reduction over an axis that is not the last adds
    one term at a time), so a kernel does not depend on the batch it is
    built in.
    """
    states = joint.shape[-3]
    lead = joint.shape[:-3]
    spread = joint.reshape(lead + (4 * states,)).take(_cell_index(states), axis=-1)
    np.multiply(spread, cells, out=spread)
    return np.add.reduce(spread, axis=-2).reshape(lead + (states, states))


def build_kernel(spec: BatterySpec, policy: StatePolicy, arrival: ArrivalModel) -> np.ndarray:
    """Battery-level transition matrix induced by a policy and a charge law.

    Checks the charge law, then the policy; the tables and the charge law are
    renormalized when built, so each row sums to one within a few ulps."""
    cells = _tensor_cells(transition_tensor(spec, arrival))
    _require_policy(spec, policy)
    return _kernels(policy.tensor(), cells)


def _rows_sum_to_one(kernel: np.ndarray, tol: float) -> bool:
    """Every row sum within ``tol`` of one; False on any NaN or infinity."""
    return bool(np.abs(kernel.sum(axis=1) - 1.0).max() <= tol)


@dataclass(frozen=True)
class RegularityReport:
    """Sufficient conditions for a steady state: one closed class + a self-loop."""

    indecomposable: bool
    self_loop_state: Optional[int]


def _validate_kernel(kernel) -> np.ndarray:
    k = np.asarray(kernel, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1] or k.size == 0:
        raise ValidationError("kernel must be a square matrix")
    if not np.isfinite(k).all() or float(k.min()) < -USER_TOL:
        raise ValidationError("kernel entries must be finite and nonnegative")
    if not _rows_sum_to_one(k, USER_TOL):
        raise ValidationError("kernel rows must sum to one")
    return np.clip(k, 0.0, None)


def check_regularity(kernel) -> RegularityReport:
    """Validate a kernel, then report whether it has one closed class and a self-loop."""
    return _regularity(_validate_kernel(kernel))


def _regularity(k: np.ndarray) -> RegularityReport:
    """The unchecked core of ``check_regularity``, for a validated kernel.

    The report depends only on which entries are positive, so it is
    memoized on that pattern for kernels of up to ``_PATTERN_STATES``
    states, whose patterns take at most 512 bytes each.
    """
    adj = k > 0.0
    if adj.shape[0] > _PATTERN_STATES:
        return _graph_regularity(adj)
    return _pattern_regularity(adj.shape[0], np.packbits(adj).tobytes())


@lru_cache(maxsize=_PATTERN_CACHE)
def _pattern_regularity(n: int, bits: bytes) -> RegularityReport:
    positive = np.unpackbits(np.frombuffer(bits, dtype=np.uint8), count=n * n)
    return _graph_regularity(positive.reshape(n, n).astype(bool))


def _graph_regularity(adj: np.ndarray) -> RegularityReport:
    """The regularity report of the directed graph with adjacency ``adj``.

    A finite chain has exactly one closed communicating class if and only if
    some state is reached from every state: some column of the closure is all true."""
    n = adj.shape[0]
    reach = adj | np.eye(n, dtype=bool)
    while True:
        closure = reach | (reach @ reach)
        if np.array_equal(closure, reach):
            break
        reach = closure
    diag = np.diag(adj)
    self_loop = int(np.argmax(diag)) if bool(diag.any()) else None
    return RegularityReport(bool(reach.all(axis=0).any()), self_loop)


@lru_cache(maxsize=_PATTERN_STATES)
def _balance_constants(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The identity and the right-hand side e_n of the n-level balance system, read-only."""
    eye = np.eye(n)
    b = np.zeros((n, 1))
    b[-1, 0] = 1.0
    eye.flags.writeable = b.flags.writeable = False
    return eye, b


def _solve_stationary(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct solve of the balance equations for one kernel or a stack of them.

    ``k`` has shape (..., n, n). Returns ``(pi, ok)`` with shapes (..., n)
    and (...): ``ok`` is False where the solve is singular, non-finite or
    has an entry below -1e-9; elsewhere ``pi`` is clipped at zero and
    renormalized. A stacked ``np.linalg.solve`` fails as a whole when any
    one matrix is singular, so on that error each kernel is solved on its
    own and only the singular ones are marked. Every kernel goes through
    the same LAPACK call either way, so a row's result does not depend on
    the stack it came in.
    """
    eye, b = _balance_constants(k.shape[-1])
    a = k.swapaxes(-1, -2) - eye
    a[..., -1, :] = 1.0
    try:
        # b as a stack of one matrix: numpy before 2.0 reads a b with one
        # axis fewer than a as a stack of vectors
        pi = np.linalg.solve(a, b.reshape((1,) * (a.ndim - 2) + b.shape))[..., 0]
    except np.linalg.LinAlgError:
        pi = np.full(a.shape[:-1], np.nan)
        for idx in np.ndindex(a.shape[:-2]):
            try:
                pi[idx] = np.linalg.solve(a[idx], b)[:, 0]
            except np.linalg.LinAlgError:
                pass
    # The common case: with every entry positive and every row sum finite,
    # the masking below changes nothing, so only the renormalization runs.
    if np.minimum.reduce(pi, axis=None) > 0.0:
        total = np.add.reduce(pi, axis=-1)
        ok = total < np.inf
        if np.logical_and.reduce(ok, axis=None):
            return pi / total[..., None], ok
    ok = np.isfinite(pi).all(axis=-1)
    pi = np.where(ok[..., None], pi, 0.0)
    ok &= pi.min(axis=-1) >= -1e-9
    pi = np.clip(pi, 0.0, None)
    total = pi.sum(axis=-1)
    ok &= total > 0.0
    pi = pi / np.where(ok, total, 1.0)[..., None]
    return pi, ok


def _power_stationary(k: np.ndarray) -> Optional[np.ndarray]:
    n = k.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(_POWER_ITER_MAX):
        nxt = pi @ k
        nxt /= nxt.sum()
        if float(np.abs(nxt - pi).max()) <= STATIONARY_RESIDUAL / 4:
            return nxt
        pi = nxt
    return None


def _steady_state(k: np.ndarray) -> tuple[Pmf, RegularityReport]:
    """Steady state of a valid kernel together with the regularity report that licenses it.

    ``k`` is a user's kernel that passed ``_validate_kernel`` or one that
    ``_kernels`` built from a checked policy; it is not checked again."""
    report = _regularity(k)
    if not report.indecomposable or report.self_loop_state is None:
        parts = []
        if not report.indecomposable:
            parts.append("multiple closed communicating classes")
        if report.self_loop_state is None:
            parts.append("no state with a self-loop")
        raise NumericalError("no steady state: " + " and ".join(parts))
    pi, ok = _solve_stationary(k)
    if not ok or float(np.abs(pi @ k - pi).max()) > STATIONARY_RESIDUAL:
        pi = _power_stationary(k)
        if pi is None or float(np.abs(pi @ k - pi).max()) > STATIONARY_RESIDUAL:
            raise NumericalError("stationary solve did not reach the required residual")
    return Pmf(pi, tol=INTERNAL_TOL), report


def stationary(kernel) -> Pmf:
    """Steady-state law of the battery level.

    Validates the kernel and requires the regularity check to pass on both
    counts; solves the balance equations directly, falling back to power
    iteration if that is ill-conditioned. ``max|pi K - pi| <= 1e-10`` holds.
    """
    return _steady_state(_validate_kernel(kernel))[0]


@dataclass(frozen=True)
class StationaryAnalysis:
    """Kernel, steady state, and the regularity flags that license it."""

    kernel: np.ndarray
    pi: Pmf
    indecomposable: bool
    self_loop_state: Optional[int]


def analyze_chain(spec: BatterySpec, policy: StatePolicy, arrival: ArrivalModel) -> StationaryAnalysis:
    """Build the kernel and solve for its steady state in one step."""
    kernel = build_kernel(spec, policy, arrival)
    pi, report = _steady_state(kernel)
    return StationaryAnalysis(kernel=kernel, pi=pi,
                              indecomposable=report.indecomposable,
                              self_loop_state=report.self_loop_state)


@dataclass(frozen=True)
class PairChain:
    """Markov chain on consecutive battery levels with the relay symbol as emission.

    States are (u, u') pairs with positive one-step probability, in
    row-major order. The charge per slot is at most cost - 1 while a pulse
    removes cost units, so a pulse always leaves u' <= u - 1 and silence
    always leaves u' >= u: the emission is 1 exactly when u' < u, and no
    pair ever has to be split by relay symbol. ``refined`` records that and
    is always False; the Monte Carlo substream labels include it.
    """

    states: tuple
    transition: np.ndarray
    pi: np.ndarray
    emissions: np.ndarray
    refined: bool = False


def pair_chain(spec: BatterySpec, policy: StatePolicy, arrival: ArrivalModel,
               pi: Pmf, kernel=None) -> PairChain:
    """Lift the battery chain to consecutive-level pairs with relay emissions."""
    level_kernel = build_kernel(spec, policy, arrival)
    if kernel is not None and not np.allclose(level_kernel, kernel, atol=1e-12, rtol=0.0):
        raise ValidationError("supplied kernel disagrees with the policy and charge law")
    if len(pi) != spec.states:
        raise ValidationError("steady state has the wrong number of levels")
    src, dst = np.nonzero(level_kernel > 0.0)
    weights = level_kernel[src, dst]
    pis = pi.probs[src] * weights
    t = np.where(dst[:, None] == src[None, :], weights, 0.0)
    pis = pis / pis.sum()
    return PairChain(states=tuple(zip(src.tolist(), dst.tolist())), transition=t, pi=pis,
                     emissions=(dst < src).astype(np.int8))


def markov_entropy_rate(chain: PairChain) -> float:
    """Transition entropy rate of the pair chain, in bits per step.

    This equals the entropy rate of the emitted relay sequence whenever the
    emissions are injective per source state: from every state, distinct
    successors emit distinct symbols. Otherwise it is only an upper proxy
    for the emitted process and an empirical estimate from the Monte Carlo
    lab is authoritative.
    """
    t = chain.transition
    mask = t > 0.0
    logs = np.zeros_like(t)
    np.log2(t, out=logs, where=mask)
    per_state = -(t * logs).sum(axis=1)
    return max(float(chain.pi @ per_state), 0.0)


def _observation_table(chain: PairChain, channel: Optional[BinaryChannel]) -> np.ndarray:
    """b[y, s]: probability of observing symbol y from pair state s.

    ``channel`` None is a noiseless observation of the relay symbol.
    """
    rows = np.eye(2) if channel is None else channel.rows
    return rows[chain.emissions].T


def _word_length(kinds: int, states: int, batch: int, n: int) -> int:
    """Symbols per forward step for a (kinds, states) table and a (batch, n) block of rows.

    A pass of word length k takes about (n - 1) / k steps. Each step costs a
    fixed ``_WORD_STEP_US`` of numpy calls plus ``_GATHER_US`` per entry of
    the ``batch`` word matrices it gathers and multiplies, ``states *
    (states + 1)`` each. Building the table of ``kinds**k`` word matrices
    costs ``_MAC_US`` per multiply-add. This returns the k of least total
    estimated cost among those no longer than n - 1 whose table fits in
    ``_WORD_TABLE_CAP`` entries; since the per-step part falls as 1/k and the
    build cost only grows, k never falls as the batch or n grows.
    """
    width = states * (states + 1)
    per_step = _WORD_STEP_US + _GATHER_US * batch * width

    def cost(k: int) -> float:
        build = _MAC_US * states * width * sum(kinds ** length for length in range(2, k + 1))
        return (n - 1) / k * per_step + build

    best = 1
    for k in range(2, min(n - 1, _WORD_MAX) + 1):
        if kinds ** k * width > _WORD_TABLE_CAP:
            break
        if cost(k) < cost(best):
            best = k
    return best


def _forward_pass(chain: PairChain, table: np.ndarray, codes: np.ndarray,
                  word: Optional[int] = None) -> np.ndarray:
    """Natural-log probabilities of observation rows, one forward recursion for all.

    ``table[c, s]`` is the likelihood of symbol code c from pair state s and
    ``codes`` holds integer code rows of shape (B, n). The hidden pair state
    starts from the stationary law; each step renormalizes, so long rows are
    fine. Returns shape (B,), with -inf for a row of probability zero.

    After the first symbol the recursion advances ``word`` symbols per step
    (by default ``_word_length`` of the table and row shapes); the last step
    takes the ``(n - 1) % word`` symbols left over. The call first
    multiplies out every code word's step matrix, each followed by its
    row-sum column, into a table of shape (kinds**word, states, states + 1).
    Each step then gathers every row's own word matrix and makes one batched
    (B, 1, states) @ (B, states, states + 1) product and one
    renormalization: the per-step numpy call count does not depend on B or
    on the number of codes. A row that dies turns NaN from its next step on
    and is mapped to -inf at the end. A word's scale is the product of its
    symbols' scales and can underflow where theirs would not, so every row
    with a word scale below ``_SCALE_FLOOR`` (a dead row included) is scored
    again one symbol per step.
    """
    kinds, states = table.shape
    batch, n = codes.shape
    if word is None:
        word = _word_length(kinds, states, batch, n)
    word = max(1, min(word, n - 1))
    full, rest = divmod(n - 1, word)
    step = chain.transition[None] * table[:, None, :]
    step = np.concatenate([step, step.sum(axis=2, keepdims=True)], axis=2)
    walks = [(word, full, 1)] + ([(rest, 1, n - rest)] if rest else [])
    words = {}
    product = step
    for length in range(1, word + 1):
        if length > 1:
            product = (product[:, None, :, :states] @ step[None]).reshape(-1, states, states + 1)
        if length in (word, rest):
            words[length] = product
    low = np.zeros(batch, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = chain.pi * table[codes[:, 0]]
        scale = alpha.sum(axis=1)
        loglik = np.log(scale)
        alpha = (alpha / scale[:, None])[:, None, :]
        for length, count, first in walks:
            matrices = words[length]
            powers = kinds ** np.arange(length - 1, -1, -1)
            for start in range(0, count, _BLOCK):
                stop = min(start + _BLOCK, count)
                span = codes[:, first + start * length:first + stop * length]
                keys = (span.reshape(batch, stop - start, length) @ powers).T
                scales = np.empty(keys.shape)
                for i, key in enumerate(keys):
                    nxt = alpha @ matrices.take(key, axis=0)
                    scales[i] = nxt[:, 0, states]
                    alpha = nxt[:, :, :states] / nxt[:, :, states:]
                loglik += np.log(scales).sum(axis=0)
                if length > 1:
                    low |= ~(scales >= _SCALE_FLOOR).all(axis=0)
    if low.any():
        loglik[low] = _forward_pass(chain, table, codes[low], word=1)
    loglik[np.isnan(loglik)] = -np.inf
    return loglik


def forward_loglik(chain: PairChain, channel: Optional[BinaryChannel], observed) -> float:
    """Natural-log probability of an observed binary sequence.

    The hidden state runs over the pair chain started from its stationary
    law; each state emits its relay symbol, which is observed through
    ``channel`` (pass None for a noiseless observation). The forward
    recursion advances a word of several symbols per step and renormalizes
    after each, so sequences of length 10**5 and more are fine; it agrees
    with the one-symbol recursion to about 1e-12 relative. An observation
    with probability zero is reported as an error rather than mapped to
    -inf, since it signals a support mismatch.
    """
    obs = np.asarray(observed, dtype=int)
    if obs.ndim != 1 or obs.size == 0:
        raise ValidationError("observed sequence must be a nonempty 1-d array")
    if np.any((obs != 0) & (obs != 1)):
        raise ValidationError("observed symbols must be 0 or 1")
    loglik = float(_forward_pass(chain, _observation_table(chain, channel), obs[None, :])[0])
    if loglik == -math.inf:
        raise NumericalError("observed sequence has probability zero (support mismatch)")
    return loglik
