"""Shared fixtures and independent oracles.

Every oracle here is computed by a different route than the library uses:
the stationary oracle goes through an eigendecomposition, the sequence
likelihood oracle enumerates battery paths outright, and the closed-form
entropy constants were frozen from direct evaluation of the definitions,
and the binary-channel information measures go through a validated output
``Pmf`` and ``entropy`` instead of the rate kernels' array formulas.
The product-bound and steady-state oracles are those two scorer steps as
they were before their binary entropies were merged and their reductions
called as ufuncs.
The ascent oracle is the optimizer's lockstep coordinate ascent as it was
before it scored ahead: one call per (sweep, coordinate, direction) with
exactly the moved points it reads. The look-back ascent oracle is the
round-by-round ascent as it was before it became one walk per start: the
ascents' state in parallel lists, compacted as they stop, and a sweep that
restarts from the same point reading its scored values in a branch of its own.
The pair-chain oracle is the lift as first written: the transition split
by relay symbol through ``einsum``, pairs found and filled by nested loops.
The transition-tensor oracle is the four-deep loop the tensor was first
built with. The regularity oracle is the graph analysis as first written:
every communicating class labeled and scanned for exits. The pmf oracles
are the validation as first written: every check on its own numpy call, an
unconditional ``np.clip``, and policies validated one ``JointPmf`` or
``Pmf`` per level.
The Monte Carlo oracles are the scalar reference forms of the lab's
lockstep kernels: one codec trial walked slot by slot from a refilling
stock of uniforms, and the recharge simulation drawn as one full
(pending, horizon) matrix per round whose hits are found by a cumulative
sum. The path oracle is ``sample_path`` as first written, each state stored
into a numpy array as it is visited. The negative-binomial oracle is the
recharge law's range kernel before its coefficients were cached: the exact
integer recurrence rerun on every call.
"""

import itertools
import math
from bisect import bisect_left, bisect_right
from math import comb, exp, lgamma, log

import numpy as np
import pytest

from ehrelay import (
    ArrivalModel,
    BatterySpec,
    ConstraintError,
    JointPmf,
    Pmf,
    StatePolicy,
    binary_entropy,
    build_kernel,
    entropy,
    stationary,
    substream,
)
from ehrelay.battery import RegularityReport, energy_profile, transition_tensor
from ehrelay.errors import ValidationError
from ehrelay.optimize import _STEP0, _STEP_FLOOR

# Worked 3-state instance: capacity 2, cost 2, uniform source everywhere,
# independent 50/50 relay pulse when the battery is full.
WORKED_TABLES = (
    ((0.5, 0.0), (0.5, 0.0)),
    ((0.5, 0.0), (0.5, 0.0)),
    ((0.25, 0.25), (0.25, 0.25)),
)
WORKED_KERNEL = (
    (0.5, 0.5, 0.0),
    (0.0, 0.5, 0.5),
    (0.25, 0.25, 0.5),
)
WORKED_PI = (0.2, 0.4, 0.4)

# Frozen closed forms, evaluated independently from the definitions
# (binary entropy at the stated arguments, in bits).
H_01 = 0.4689955935892812            # h(0.1)
ONE_MINUS_H_01 = 0.5310044064107188  # 1 - h(0.1)
ONE_MINUS_H_005 = 0.7136030428840437  # 1 - h(0.05)
WORKED_RECEIVER = 0.21240176256428753  # 0.4 * (1 - h(0.1))
WORKED_PAIR_ENTROPY = 1.2             # sum_u pi_u H(kernel row u)


def output_entropy_given_input(inp: Pmf, ch) -> float:
    """H(output | input) in bits across a binary channel."""
    return float(inp.probs[0] * binary_entropy(ch.q1) + inp.probs[1] * binary_entropy(ch.q2))


def mutual_information(inp: Pmf, ch) -> float:
    """I(input; output) in bits across a binary channel, from the output law."""
    out = Pmf(inp.probs @ ch.rows, tol=1e-12)
    return max(entropy(out) - output_entropy_given_input(inp, ch), 0.0)


def worked_spec() -> BatterySpec:
    return BatterySpec(capacity=2, cost=2)


def worked_policy() -> StatePolicy:
    return StatePolicy.joint_policy(worked_spec(), WORKED_TABLES)


@pytest.fixture
def worked():
    spec = worked_spec()
    return spec, worked_policy(), ArrivalModel.deterministic()


def stationary_eig_oracle(kernel) -> np.ndarray:
    """Stationary law via the eigenvector of the transposed kernel.

    Deliberately a different method from the library's linear solve.
    """
    k = np.asarray(kernel, dtype=np.float64)
    w, v = np.linalg.eig(k.T)
    idx = int(np.argmin(np.abs(w - 1.0)))
    pi = np.real(v[:, idx])
    pi = pi / pi.sum()
    assert pi.min() > -1e-12
    return np.clip(pi, 0.0, None)


def random_joint_tables(spec: BatterySpec, rng: np.random.Generator,
                        eps: float = 1e-3) -> list:
    """Feasible interior joint tables: funded levels get a Dirichlet draw
    squeezed into the eps interior, idle levels a biased source."""
    tables = []
    for u in range(spec.states):
        if u >= spec.cost:
            q = eps + (1.0 - 4.0 * eps) * rng.dirichlet(np.ones(4))
            tables.append([[q[0], q[1]], [q[2], q[3]]])
        else:
            a = eps + (1.0 - 2.0 * eps) * rng.random()
            tables.append([[1.0 - a, 0.0], [a, 0.0]])
    return tables


def random_product_parts(spec: BatterySpec, rng: np.random.Generator,
                         eps: float = 1e-3) -> tuple[list, list]:
    """Interior source law plus per-level relay rows for the product schemes."""
    a = eps + (1.0 - 2.0 * eps) * rng.random()
    p_x1 = [1.0 - a, a]
    rows = []
    for u in range(spec.states):
        if u >= spec.cost:
            b = eps + (1.0 - 2.0 * eps) * rng.random()
            rows.append([1.0 - b, b])
        else:
            rows.append([1.0, 0.0])
    return p_x1, rows


def transition_tensor_oracle(spec: BatterySpec, arrival: ArrivalModel) -> np.ndarray:
    """A[u, x1, x2, u'] entry by entry, each charge added in increasing e."""
    profile = energy_profile(arrival, spec)
    width = profile.shape[1]
    states = spec.states
    tensor = np.zeros((states, 2, 2, states))
    for u in range(states):
        for x1 in (0, 1):
            for x2 in (0, 1):
                if x2 == 1 and u < spec.cost:
                    continue
                for e in range(width):
                    pe = profile[x1, e]
                    if pe == 0.0:
                        continue
                    dest = min(u + e - spec.cost * x2, spec.capacity)
                    tensor[u, x1, x2, dest] += pe
    return tensor


def float_array_oracle(values, what: str) -> np.ndarray:
    """The float array of ``values``; entries that are not numbers, or rows
    of unequal length, are a ``ValidationError``."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be an array of numbers") from None


def validated_vector_oracle(values, tol: float, what: str) -> np.ndarray:
    """``Pmf``'s checks and renormalization, one numpy call per check."""
    p = float_array_oracle(values, what)
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
    return p


def joint_table_oracle(table, tol: float) -> np.ndarray:
    """``JointPmf``'s checks and renormalization, one numpy call per check."""
    t = float_array_oracle(table, "joint pmf")
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
    return t


def _spending_oracle(spec: BatterySpec, spends) -> None:
    for u in range(min(spec.cost, spec.states)):
        if float(spends[u]) != 0.0:
            raise ConstraintError(
                f"policy spends at level {u}, below the transmission cost {spec.cost}"
            )


def joint_policy_oracle(spec: BatterySpec, tables, tol: float = 1e-9,
                        strict: bool = True) -> np.ndarray:
    """The tensor of ``StatePolicy.joint_policy``, validated one table at a time."""
    entries = []
    for table in tables:
        t = table.table if isinstance(table, JointPmf) else joint_table_oracle(table, tol)
        if t.shape != (2, 2):
            raise ValidationError("joint policy tables must be 2x2 (source x relay)")
        entries.append(t)
    if len(entries) != spec.states:
        raise ValidationError(
            f"joint policy needs one table per level (expected {spec.states}, got {len(entries)})"
        )
    tensor = np.stack(entries)
    if strict:
        _spending_oracle(spec, [t.sum(axis=0)[1] for t in tensor])
    return tensor


def product_policy_oracle(spec: BatterySpec, x1, x2_rows, tol: float = 1e-9,
                          strict: bool = True) -> tuple:
    """(source law, relay rows, tensor) of ``StatePolicy.product_policy``,
    validated one row at a time, the tensor from ``np.outer``."""
    src = x1.probs if isinstance(x1, Pmf) else validated_vector_oracle(x1, tol, "pmf")
    if src.size != 2:
        raise ValidationError("source pmf must be binary")
    rows = []
    for row in x2_rows:
        p = row.probs if isinstance(row, Pmf) else validated_vector_oracle(row, tol, "pmf")
        if p.size != 2:
            raise ValidationError("relay pmfs must be binary")
        rows.append(p)
    if len(rows) != spec.states:
        raise ValidationError(
            f"product policy needs one relay pmf per level (expected {spec.states}, got {len(rows)})"
        )
    if strict:
        _spending_oracle(spec, [p[1] for p in rows])
    return src, rows, np.stack([np.outer(src, p) for p in rows])


def pair_chain_oracle(spec: BatterySpec, policy: StatePolicy, arrival: ArrivalModel,
                      pi: Pmf) -> tuple:
    """(states, transition, pi, emissions) of ``pair_chain``, built pair by pair.

    A pair emits 1 when it can be reached by a pulse, read off the
    split ``q[u, x2, u'] = P(relay sends x2 and moves u -> u')``.
    """
    q = np.einsum("uab,uabv->ubv", policy.tensor(), transition_tensor(spec, arrival))
    level_kernel = q.sum(axis=1)
    states = spec.states
    labels = [(u, v)
              for u in range(states) for v in range(states)
              if level_kernel[u, v] > 0.0]
    emissions = np.array([1 if q[u, 1, v] > 0.0 else 0 for (u, v) in labels], dtype=np.int8)
    pis = np.array([pi[u] * level_kernel[u, v] for (u, v) in labels])
    t = np.zeros((len(labels), len(labels)))
    for i, (_, v) in enumerate(labels):
        for j, (src, dst) in enumerate(labels):
            if src == v:
                t[i, j] = level_kernel[src, dst]
    return tuple(labels), t, pis / pis.sum(), emissions


def exhaustive_observation_loglik(kernel, pi, ch_rows, observed) -> float:
    """log p(observed) by summing over every battery path.

    Valid for deterministic unit arrivals with cost >= 2, where a drop in
    level is possible only through a pulse, so the relay symbol on each
    transition is 1 exactly when the level decreases.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    pi = np.asarray(pi, dtype=np.float64)
    ch_rows = np.asarray(ch_rows, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.int64)
    states = kernel.shape[0]
    n = len(observed)
    paths = np.array(list(itertools.product(range(states), repeat=n + 1)),
                     dtype=np.int64)
    weight = pi[paths[:, 0]]
    for i in range(n):
        a, b = paths[:, i], paths[:, i + 1]
        weight = weight * kernel[a, b]
        pulse = (b < a).astype(np.int64)
        weight = weight * ch_rows[pulse, observed[i]]
    total = float(weight.sum())
    assert total > 0.0
    return math.log(total)


class _UniformStock:
    """Pre-drawn uniforms consumed one at a time, refilled in growing chunks."""

    def __init__(self, rng: np.random.Generator, chunk: int):
        self.rng = rng
        self.chunk = chunk
        self.stock: list[float] = []

    def take(self) -> float:
        if not self.stock:
            self.stock = self.rng.random(self.chunk)[::-1].tolist()
            if self.chunk < 65536:
                self.chunk *= 2
        return self.stock.pop()


def _draw_index(cum: np.ndarray, rng: np.random.Generator) -> int:
    return min(int(np.searchsorted(cum, rng.random(), side="right")), cum.size - 1)


def _per_book_exponent(lnq: float, count: int) -> float:
    if lnq >= 0.0:
        return math.inf
    log_count = math.log(count)
    if lnq > -30.0:
        return log_count + math.log(-math.log1p(-math.exp(lnq)))
    return log_count + lnq


def relay_codec_oracle(codec, blocks: int, cfg) -> tuple:
    """(p_incomplete, p_ambiguous, p_either) of ``relay_codec_trial``,
    walking each trial and each slot in scalar code."""
    spec, policy = codec.spec, codec.policy
    n = cfg.n
    pi = stationary(build_kernel(spec, policy, ArrivalModel.deterministic())).probs
    lengths, bits = codec.plan(n, pi)
    pad = codec.pad if codec.pad is not None else n
    joint = policy.tensor()
    source_rows = joint.sum(axis=2)
    p_x1 = source_rows[:, 1].tolist()
    spend_given = [[joint[u, x1, 1] / source_rows[u, x1] if source_rows[u, x1] > 0.0 else 0.0
                    for x1 in (0, 1)] for u in range(spec.states)]
    log_rows = np.full_like(source_rows, -np.inf)
    np.log(source_rows, out=log_rows, where=source_rows > 0.0)
    log_rows = log_rows.tolist()
    want = lengths.tolist()
    counts = np.zeros((3, blocks), dtype=np.int64)
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, f"codec/n={n}/blocks={blocks}", trial)
        stock = _UniformStock(rng, chunk=4 * n)
        level = _draw_index(np.cumsum(pi), rng)
        for b in range(blocks):
            if b > 0:
                forced = 0
                while level < spec.capacity and forced <= spec.capacity:
                    level = min(level + 1, spec.capacity)
                    forced += 1
            visits = [0] * spec.states
            lnq = [0.0] * spec.states
            overrun = False
            for _ in range(n):
                seen = visits[level]
                x1 = 1 if stock.take() < p_x1[level] else 0
                if seen < want[level]:
                    lnq[level] += log_rows[level][x1]
                elif seen >= want[level] + pad:
                    overrun = True
                visits[level] = seen + 1
                x2 = 1 if stock.take() < spend_given[level][x1] else 0
                level = min(level + x1 - spec.cost * x2, spec.capacity)
            miss = any(v < w for v, w in zip(visits, want)) or overrun
            log_total = -math.inf
            for u in range(spec.states):
                if bits[u] == 0 or visits[u] < lengths[u]:
                    continue
                term = _per_book_exponent(lnq[u], (1 << int(bits[u])) - 1)
                log_total = np.logaddexp(log_total, term)
            p_amb = 0.0 if log_total == -math.inf else float(
                -math.expm1(-math.exp(min(log_total, 700.0))))
            clash = stock.take() < p_amb
            counts[:, b] += (miss, clash, miss or clash)
    return tuple(counts / float(cfg.trials))


def sample_path_oracle(transition, init: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``sample_path``'s states, stored one numpy item per step."""
    t = np.asarray(transition, dtype=np.float64)
    states = t.shape[0]
    cum = np.cumsum(t, axis=1)
    cum[:, -1] = 1.0
    stocks: list[list[int]] = [[] for _ in range(states)]
    chunks = [1024] * states
    path = np.empty(n, dtype=np.int64)
    state = init
    for i in range(n):
        path[i] = state
        stock = stocks[state]
        if not stock:
            draws = np.searchsorted(cum[state], rng.random(chunks[state]), side="right")
            stocks[state] = stock = np.minimum(draws, states - 1)[::-1].tolist()
            if chunks[state] < 65536:
                chunks[state] *= 2
        state = stock.pop()
    return path


def h2_oracle(p) -> np.ndarray:
    """Binary entropy with the logarithm taken only where its argument is positive."""
    arr = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    comp = 1.0 - arr
    log_arr = np.zeros_like(arr)
    log_comp = np.zeros_like(arr)
    np.log2(arr, out=log_arr, where=arr > 0.0)
    np.log2(comp, out=log_comp, where=comp > 0.0)
    return (0.0 - arr * log_arr) - comp * log_comp


def per_level_receiver_bits_oracle(x2_rows: np.ndarray, ch2) -> np.ndarray:
    """``per_level_receiver_bits`` as first written, with its own binary entropy call."""
    noise = ch2.noise_bits
    zero, one = x2_rows[..., 0], x2_rows[..., 1]
    out0 = zero * ch2.q1 + one * (1.0 - ch2.q2)
    cond = zero * noise[0] + one * noise[1]
    return np.maximum(h2_oracle(out0) - cond, 0.0)


def _dot_rows_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def product_bounds_oracle(src: np.ndarray, rows: np.ndarray, pi: np.ndarray, ch1, ch2,
                          penalty: np.ndarray) -> tuple:
    """``product_bounds`` before its binary entropies were merged: one call for
    the first-hop output law, one inside the per-level receiver bits."""
    out0 = src[:, 0] * ch1.q1 + src[:, 1] * (1.0 - ch1.q2)
    relay = np.maximum(h2_oracle(out0) - _dot_rows_oracle(src, ch1.noise_bits), 0.0)
    receiver = (_dot_rows_oracle(pi, per_level_receiver_bits_oracle(rows, ch2))
                - _dot_rows_oracle(src, penalty))
    return relay, receiver


def solve_stationary_epilogue_oracle(k: np.ndarray) -> tuple:
    """``_solve_stationary`` before its positive-case epilogue took ufunc
    reductions: the stacked solve, then ``ndarray.min``, ``sum`` and ``max``
    and an ``np.ones`` verdict."""
    n = k.shape[-1]
    b = np.zeros((n, 1))
    b[-1, 0] = 1.0
    a = k.swapaxes(-1, -2) - np.eye(n)
    a[..., -1, :] = 1.0
    try:
        pi = np.linalg.solve(a, b.reshape((1,) * (a.ndim - 2) + b.shape))[..., 0]
    except np.linalg.LinAlgError:
        pi = np.full(a.shape[:-1], np.nan)
        for idx in np.ndindex(a.shape[:-2]):
            try:
                pi[idx] = np.linalg.solve(a[idx], b)[:, 0]
            except np.linalg.LinAlgError:
                pass
    if pi.min() > 0.0:
        total = pi.sum(axis=-1)
        if total.max() < np.inf:
            return pi / total[..., None], np.ones(pi.shape[:-1], dtype=bool)
    ok = np.isfinite(pi).all(axis=-1)
    pi = np.where(ok[..., None], pi, 0.0)
    ok &= pi.min(axis=-1) >= -1e-9
    pi = np.clip(pi, 0.0, None)
    total = pi.sum(axis=-1)
    ok &= total > 0.0
    pi = pi / np.where(ok, total, 1.0)[..., None]
    return pi, ok


def kernels_oracle(joint: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Level kernels as the four (x1, x2) cell terms, added left to right."""
    return (joint[..., 0, 0, None] * tensor[:, 0, 0, :]
            + joint[..., 0, 1, None] * tensor[:, 0, 1, :]
            + joint[..., 1, 0, None] * tensor[:, 1, 0, :]
            + joint[..., 1, 1, None] * tensor[:, 1, 1, :])


def regularity_oracle(adj: np.ndarray) -> RegularityReport:
    """The regularity report of adjacency ``adj`` as first written: every
    communicating class labeled from the transitive closure, then each one
    scanned for an edge that leaves it; one closed class is indecomposable."""
    n = adj.shape[0]
    reach = adj | np.eye(n, dtype=bool)
    while True:
        closure = reach | (reach @ reach)
        if np.array_equal(closure, reach):
            break
        reach = closure
    comm = reach & reach.T
    seen = []
    labels = np.full(n, -1, dtype=int)
    for i in range(n):
        if labels[i] >= 0:
            continue
        members = comm[i]
        labels[members] = len(seen)
        seen.append(members)
    closed = 0
    for members in seen:
        if not np.any(adj[members][:, ~members]):
            closed += 1
    diag = np.diag(adj)
    self_loop = int(np.argmax(diag)) if bool(diag.any()) else None
    return RegularityReport(indecomposable=(closed == 1), self_loop_state=self_loop)


def solve_stationary_oracle(k: np.ndarray) -> tuple:
    """The balance solve of a kernel stack with every row masked the long way:
    one solve per kernel, -1e-9 as the negativity gate, clip, renormalize."""
    n = k.shape[-1]
    pi = np.full(k.shape[:-1], np.nan)
    for idx in np.ndindex(k.shape[:-2]):
        a = k[idx].T - np.eye(n)
        a[-1, :] = 1.0
        b = np.zeros((n, 1))
        b[-1, 0] = 1.0
        try:
            pi[idx] = np.linalg.solve(a, b)[:, 0]
        except np.linalg.LinAlgError:
            pass
    ok = np.isfinite(pi).all(axis=-1)
    pi = np.where(ok[..., None], pi, 0.0)
    ok &= pi.min(axis=-1) >= -1e-9
    pi = np.clip(pi, 0.0, None)
    total = pi.sum(axis=-1)
    ok &= total > 0.0
    return pi / np.where(ok, total, 1.0)[..., None], ok


def ascend_oracle(problem, starts: np.ndarray, iters: int):
    """The lockstep ascent scoring, at every (sweep, coordinate, direction),
    the moved points of the ascents still running in one counted call."""
    thetas = np.clip(starts.astype(np.float64), 0.0, 1.0)
    best = problem(thetas)
    steps = np.full(len(thetas), _STEP0)
    running = np.ones(len(thetas), dtype=bool)
    for _ in range(iters):
        if not running.any():
            break
        improved = np.zeros(len(thetas), dtype=bool)
        for i in range(problem.dims):
            for sign in (1.0, -1.0):
                rows = np.flatnonzero(running)
                cand = thetas[rows]
                cand[:, i] = np.minimum(np.maximum(cand[:, i] + sign * steps[rows], 0.0), 1.0)
                moved = cand[:, i] != thetas[rows, i]
                rows, cand = rows[moved], cand[moved]
                if not rows.size:
                    continue
                values = problem(cand)
                up = values > best[rows]
                rows = rows[up]
                best[rows], thetas[rows] = values[up], cand[up]
                improved[rows] = True
        stalled = running & ~improved
        steps[stalled] *= 0.5
        running &= ~(stalled & (steps < _STEP_FLOOR))
    return thetas, best


def lookback_ascend_oracle(problem, starts: np.ndarray, values: np.ndarray, iters: int):
    """Cyclic coordinate ascent with a halving step, inside the unit cube.

    ``values`` holds the starts' values, which the caller has scored; they
    count once more in ``evaluations`` as the ascents begin from them. Each
    start climbs exactly as if it ran alone, with its own point, step, sweep
    position and exit. A sweep walks the 2 * dims moves in a fixed order:
    move k shifts coordinate k // 2 up (even k) or down (odd k) by the step,
    clipped to the cube, and the ascent takes a move only if it is strictly
    better. A sweep that takes no move halves the step; an ascent stops at
    the step floor or after ``iters`` sweeps.

    Each round scores, in one uncounted ``score`` call, every running
    ascent's whole neighbourhood: all 2 * dims moves from its current point,
    less those the clip keeps in place. Each ascent then reads on from its
    sweep position to its first better move, or to its sweep's end. A sweep
    that ends after a move was taken is followed, if another sweep is
    allowed, by one from the same point at the same step, whose values are
    already scored: the ascent goes on reading them from move 0 in the same
    round, re-reading (and counting) the moves from its old position on,
    which are no better. So a round ends for an ascent when it takes a move,
    halves its step or stops, and a search makes as many calls as its
    busiest ascent would make alone. Every row is scored on its own, so the
    walk reads the values a move-by-move walk would, and ``evaluations``
    grows only by the moves it reads. The rounds' bookkeeping is per ascent,
    in Python lists; the points stay in arrays. Returns the final points and
    their values, one row per start.
    """
    thetas = starts.astype(np.float64)
    best = values.astype(np.float64)
    problem.evaluations += len(thetas)
    count, dims = thetas.shape
    width = 2 * dims
    sign = np.where(np.arange(width) % 2 == 0, 1.0, -1.0)
    # The running ascents' state, one row or entry each, compacted as they stop.
    live = list(range(count if iters > 0 else 0))
    point = thetas[live]
    shift = np.repeat(sign[None] * _STEP0, len(live), axis=0)  # each move's shift
    value = best[live].tolist()
    steps = [_STEP0] * len(live)
    at = [0] * len(live)  # each ascent's next move in its sweep
    sweeps = [0] * len(live)
    improved = [False] * len(live)
    while live:
        old = point.repeat(2, axis=1)  # move k shifts coordinate k // 2
        new = np.minimum(np.maximum(old + shift, 0.0), 1.0)
        moved = new != old
        rows, cols = moved.nonzero()
        points = point[rows]
        points[np.arange(rows.size), cols // 2] = new[moved]
        scored = problem.score(points).tolist()
        rows, cols = rows.tolist(), cols.tolist()
        reads, done, lo = 0, [], 0
        for j in range(len(live)):
            stop = bisect_right(rows, j, lo)
            ks, vs = cols[lo:stop], scored[lo:stop]
            lo, n = stop, stop - lo
            i = bisect_left(ks, at[j])
            hit = next((t for t in range(i, n) if vs[t] > value[j]), n)
            reads += min(hit + 1, n) - i
            if hit == n and improved[j] and sweeps[j] + 1 < iters:
                # The sweep ends after a move was taken, and the next one starts
                # from this point at this step: its values were just scored, and
                # those from the old position on are no better.
                sweeps[j] += 1
                improved[j] = False
                hit = next((t for t in range(n) if vs[t] > value[j]), n)
                reads += min(hit + 1, n)
            if hit < n:
                k = ks[hit]
                value[j] = vs[hit]
                point[j, k // 2] = new[j, k]
                improved[j] = True
                at[j] = k + 1
                if at[j] < width:
                    continue
            elif not improved[j]:
                steps[j] *= 0.5
                shift[j] = sign * steps[j]
            sweeps[j] += 1
            at[j] = 0
            improved[j] = False
            if sweeps[j] >= iters or steps[j] < _STEP_FLOOR:
                done.append(j)
        problem.evaluations += reads
        if done:
            idx = [live[j] for j in done]
            thetas[idx] = point[done]
            best[idx] = [value[j] for j in done]
            keep = [j for j in range(len(live)) if j not in done]
            point, shift = point[keep], shift[keep]
            live, value, steps, at, sweeps, improved = (
                [seq[j] for j in keep] for seq in (live, value, steps, at, sweeps, improved))
    return thetas, best


def nb_pmf_oracle(start: int, stop: int, k: int, p: float) -> np.ndarray:
    """``timing._nb_pmf`` with no cache: the coefficients rebuilt on each call."""
    out = np.zeros(stop - start)
    first = max(start, k)
    if first >= stop:
        return out
    coef, c = [], comb(first - 1, k - 1)
    for z in range(first, stop):
        try:
            coef.append(float(c))
        except OverflowError:
            break
        c = c * z // (z - k + 1)
    q = 1.0 - p
    linear = first + len(coef)
    powers = [q ** (z - k) for z in range(first, linear)]
    out[first - start:linear - start] = np.array(coef) * p**k * np.array(powers)
    if linear < stop and q > 0.0:  # with q == 0 every entry past z = k is 0
        base = k * log(p) - lgamma(k)
        out[linear - start:] = [exp(lgamma(z) - lgamma(z - k + 1) + base + (z - k) * log(q))
                                for z in range(linear, stop)]
    return out
