"""Seeded Monte Carlo experiments behind the stochastic claims.

Every experiment draws from substreams derived by hashing an experiment
label and a trial index into the root seed, so results depend only on
(seed, config) and never on scheduling. Budgets are desk-scale and hard:
paths are capped at ten million steps and materialized codebooks at 2^20
words; the asymptotic statements are checked as finite-size trends, not by
brute force.

Covered: battery occupancy against the steady state, concentration of the
per-symbol log-likelihoods at the destination, exact-match collisions in
conditionally drawn codebooks, the recharge-time law, and the relay
decoder's two error events (incomplete reception and ambiguous reception).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .battery import (
    ArrivalModel,
    BatterySpec,
    PairChain,
    StatePolicy,
    _forward_pass,
    _observation_table,
    _require_policy,
    _steady_state,
    build_kernel,
)
from .errors import BudgetError, NumericalError, ValidationError
from .pmf import BinaryChannel, JointPmf, _require_integers, _require_reals
from .timing import ZNoise, z_pmf

MAX_STEPS = 10_000_000
MAX_CODEBOOK = 2**20
_LN2 = math.log(2.0)
_Z_BLOCK_ROWS = 1024
_Z_HORIZON_QUANTILE = 0.9  # z_empirical's round length: about one row in ten runs a second round
_CODEC_STOCK_BUDGET = 2**22  # uniforms pre-drawn per lockstep group of codec trials


@dataclass(frozen=True)
class RunConfig:
    """Root seed, path length (or sample count), and repetition count."""

    seed: int
    n: int
    trials: int = 1

    def __post_init__(self):
        _require_integers(f"run seed, n and trials must be integers, got {self.seed!r}, "
                          f"{self.n!r} and {self.trials!r}", self.seed, self.n, self.trials)
        if self.n < 1:
            raise ValidationError("need at least one step or sample")
        if self.n > MAX_STEPS:
            raise BudgetError(f"n = {self.n} exceeds the desk-scale cap {MAX_STEPS}")
        if self.trials < 1:
            raise ValidationError("need at least one trial")


def substream(seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Independent generator for one (experiment, trial) cell.

    The label is hashed so distinct experiments cannot share a stream even
    when their numeric parameters coincide; the trial index keeps parallel
    trials reproducible regardless of execution order.
    """
    return _seeded_rng(seed, label, index)


def _seeded_rng(seed: int, label: str, *tail: int) -> np.random.Generator:
    """The lab's and the optimizer's one seeding rule: seed mod 2^64, label hash, tail."""
    _require_integers(f"seeds and stream indices must be integers, got {(seed, *tail)}", seed, *tail)
    tag = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")
    entropy = (int(seed) & (2**64 - 1), tag, *map(int, tail))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def sample_path(transition, init: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample n states of a finite Markov chain, starting from ``init``.

    Next-state draws are pre-generated per current state in growing blocks
    and consumed as the path visits that state, which keeps the per-step
    work to a list pop plus an integer copy.
    """
    _require_integers(f"initial state and path length must be integers, got {init!r} and {n!r}",
                      init, n)
    t = np.asarray(transition, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValidationError("transition must be a square matrix")
    states = t.shape[0]
    if not 0 <= init < states:
        raise ValidationError("initial state out of range")
    if n < 1:
        raise ValidationError("path length must be positive")
    cum = np.cumsum(t, axis=1)
    cum[:, -1] = 1.0
    stocks: list[list[int]] = [[] for _ in range(states)]
    chunks = [1024] * states
    path = []
    state = init
    for _ in range(n):
        path.append(state)
        stock = stocks[state]
        if not stock:
            stocks[state] = stock = _draw_index(cum[state], rng, chunks[state])[::-1].tolist()
            if chunks[state] < 65536:
                chunks[state] *= 2
        state = stock.pop()
    return np.array(path, dtype=np.int64)


def _draw_index(cum: np.ndarray, rng: np.random.Generator, size: Optional[int] = None):
    """Inverse-CDF draw from cumulative row ``cum``, capped at its last index.

    One uniform gives an int; ``size`` uniforms, drawn in one call, give an
    array of indices.
    """
    idx = np.minimum(np.searchsorted(cum, rng.random(size), side="right"), cum.size - 1)
    return int(idx) if size is None else idx


def _sample_paths(transition: np.ndarray, starts: np.ndarray, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Sample one n-state path from each start, all rows in lockstep.

    Every uniform is drawn up front, one row of B per step; each step then
    counts, for all rows at once, the cumulative-row edges at or below the
    row's uniform. Returns a (B, n) array of states.
    """
    cum = np.cumsum(transition, axis=1)
    edges = cum[:, :-1]  # the last edge is 1 and no uniform reaches it
    u = rng.random((n - 1, len(starts)))
    paths = np.empty((n, len(starts)), dtype=np.intp)
    paths[0] = state = np.asarray(starts, dtype=np.intp)
    for i in range(n - 1):
        paths[i + 1] = state = (edges[state] <= u[i][:, None]).sum(axis=1)
    return paths.T


@dataclass(frozen=True)
class OccupancyResult:
    frequencies: np.ndarray
    stationary: Optional[np.ndarray]
    max_deviation: Optional[float]


def simulate_states(spec: BatterySpec, policy: StatePolicy, arrival: ArrivalModel,
                    cfg: RunConfig, initial_state: int = 0) -> OccupancyResult:
    """Visit frequencies of the battery level over simulated slot dynamics.

    Runs ``cfg.trials`` independent paths of ``cfg.n`` steps each and pools
    the visit counts. The steady state is attached for comparison when it
    exists; chains without one still simulate fine and report None there.
    """
    kernel = build_kernel(spec, policy, arrival)
    if not 0 <= initial_state < spec.states:
        raise ValidationError("initial state outside the battery range")
    counts = np.zeros(spec.states, dtype=np.int64)
    label = f"occupancy/cost={spec.cost}/capacity={spec.capacity}/start={initial_state}"
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, label, trial)
        path = sample_path(kernel, initial_state, cfg.n, rng)
        counts += np.bincount(path, minlength=spec.states)
    freq = counts / float(cfg.n * cfg.trials)
    try:
        pi = _steady_state(kernel)[0].probs
    except NumericalError:
        return OccupancyResult(frequencies=freq, stationary=None, max_deviation=None)
    return OccupancyResult(frequencies=freq, stationary=pi,
                           max_deviation=float(np.abs(freq - pi).max()))


@dataclass(frozen=True)
class AepResult:
    n: int
    marginal_bits: np.ndarray
    joint_bits: np.ndarray

    @property
    def marginal_mean(self) -> float:
        return float(self.marginal_bits.mean())

    @property
    def marginal_std(self) -> float:
        return float(self.marginal_bits.std(ddof=1)) if self.marginal_bits.size > 1 else 0.0

    @property
    def joint_mean(self) -> float:
        return float(self.joint_bits.mean())

    @property
    def joint_std(self) -> float:
        return float(self.joint_bits.std(ddof=1)) if self.joint_bits.size > 1 else 0.0


def empirical_aep(chain: PairChain, ch2: Optional[BinaryChannel], cfg: RunConfig) -> AepResult:
    """Concentration of the destination's per-symbol log-likelihoods.

    Each trial samples a relay sequence from the pair chain, passes it
    through the second hop (None means a clean wire), and scores both
    -(1/n) log2 p(received sequence) and -(1/n) log2 p(relay, received).
    The marginal uses the forward recursion over the hidden pair state; the
    joint factors into the exact chain probability of the relay sequence
    plus the memoryless channel term, so joint >= marginal holds per trial.
    Every trial is drawn first and the sequences are then scored in two
    forward passes: relay rows against the noiseless table and received
    rows against the second-hop table. A clean wire needs only the first.
    """
    n, trials = cfg.n, cfg.trials
    pair_cum = np.cumsum(chain.pi)
    relay = np.empty((trials, n), dtype=np.int8)
    received = np.empty_like(relay)
    log_channel = np.zeros(trials)
    rows = None if ch2 is None else ch2.rows  # P(y | x2), rows indexed by x2
    label = f"aep/states={len(chain.states)}/refined={chain.refined}"
    for trial in range(trials):
        rng = substream(cfg.seed, label, trial)
        start = _draw_index(pair_cum, rng)
        path = sample_path(chain.transition, start, n, rng)
        x2 = chain.emissions[path]
        relay[trial] = x2
        if rows is not None:
            y = (rng.random(n) < rows[x2, 1]).astype(np.int8)
            log_channel[trial] = float(np.log(rows[x2, y]).sum())
            received[trial] = y
    log_chain = _forward_pass(chain, _observation_table(chain, None), relay)
    log_received = (log_chain if ch2 is None
                    else _forward_pass(chain, _observation_table(chain, ch2), received))
    if not (np.all(np.isfinite(log_chain)) and np.all(np.isfinite(log_received))):
        raise NumericalError("a sampled sequence has probability zero (support mismatch)")
    marginal = -log_received / (n * _LN2)
    joint = -(log_chain + log_channel) / (n * _LN2)
    return AepResult(n=n, marginal_bits=marginal, joint_bits=joint)


def _conditional_tables(joint: JointPmf):
    """Marginal over the conditioning symbol and rows p(x | u)."""
    table = joint.table
    p_u = table.sum(axis=1)
    rows = np.zeros_like(table)
    live = p_u > 0.0
    rows[live] = table[live] / p_u[live, None]
    return p_u, rows


def _log_codebook_size(n: int, rate_bits: float) -> float:
    """ln(2^{n R} - 1), -inf when the book has a single word."""
    t = n * rate_bits * _LN2
    if t <= 0.0:
        return -math.inf
    if t < 30.0:
        words = math.floor(math.exp(t))
        return -math.inf if words <= 1 else math.log(words - 1)
    return t


@dataclass(frozen=True)
class CollisionResult:
    n: int
    rate_grid: tuple
    trials: int
    method: str
    fractions: np.ndarray
    mean_probability: Optional[np.ndarray]

    @property
    def fraction(self) -> float:
        return float(self.fractions[0])


def collision_curve(joint: JointPmf, n: int, rate_grid, cfg: RunConfig,
                    method: str = "conditional") -> CollisionResult:
    """Exact-match collision frequencies across a grid of codebook rates.

    A trial draws the conditioning sequence and the reference codeword, then
    asks whether any of the other 2^{nR} - 1 conditionally independent words
    equals the reference. The conditional method computes that probability
    exactly from the realized reference (it is 1 - (1 - q)^{count} with q the
    word's conditional probability) and flips one coin against it; the same
    coin serves every grid point, so the reported fractions are monotone in
    the rate by construction. The materialize method draws the book
    explicitly and is capped at 2^20 words. ``n`` must be at least 1 and
    every rate finite and nonnegative.
    """
    if method not in ("conditional", "materialize"):
        raise ValidationError(f"unknown collision method {method!r}")
    grid = tuple(float(r) for r in rate_grid)
    if not grid or any(r < 0.0 for r in grid):
        raise ValidationError("rate grid must be nonempty and nonnegative")
    if not all(math.isfinite(r) for r in grid):
        raise ValidationError(f"codebook rates must be finite, got {grid}")
    _require_integers(f"codeword length must be an integer, got {n!r}", n)
    if n < 1:
        raise ValidationError(f"codeword length must be at least 1, got {n}")
    if n > MAX_STEPS:
        raise BudgetError(f"n = {n} exceeds the desk-scale cap {MAX_STEPS}")
    p_u, rows = _conditional_tables(joint)
    cum_u = np.cumsum(p_u)
    cum_x = np.cumsum(rows, axis=1)
    trials = cfg.trials
    label = f"collision/n={n}/alphabet={rows.shape}"
    if method == "materialize":
        fractions = np.empty(len(grid))
        for gi, rate in enumerate(grid):
            if n * rate > 20.0 + 1e-9:
                raise BudgetError(
                    f"codebook of 2^({n}*{rate}) words exceeds the cap 2^20"
                )
            words = int(math.floor(2.0 ** (n * rate)))
            hits = 0
            for trial in range(trials):
                rng = substream(cfg.seed, f"{label}/rate={rate!r}", trial)
                u_seq = _draw_index(cum_u, rng, n)
                ref = _conditional_draw(cum_x, u_seq, rng)
                remaining = words - 1
                while remaining > 0:
                    block = min(remaining, 8192)
                    cand = _conditional_draw(cum_x, u_seq, rng, count=block)
                    if bool(np.any(np.all(cand == ref[None, :], axis=1))):
                        hits += 1
                        break
                    remaining -= block
            fractions[gi] = hits / trials
        return CollisionResult(n=n, rate_grid=grid, trials=trials, method=method,
                               fractions=fractions, mean_probability=None)
    log_sizes = np.array([_log_codebook_size(n, r) for r in grid])
    probs = np.zeros((trials, len(grid)))
    flips = np.zeros((trials, len(grid)), dtype=bool)
    for trial in range(trials):
        rng = substream(cfg.seed, label, trial)
        u_seq = _draw_index(cum_u, rng, n)
        ref = _conditional_draw(cum_x, u_seq, rng)
        lnq = float(np.log(rows[u_seq, ref]).sum())
        coin = rng.random()
        for gi, log_size in enumerate(log_sizes):
            p = _collision_probability(log_size, lnq)
            probs[trial, gi] = p
            flips[trial, gi] = coin < p
    return CollisionResult(n=n, rate_grid=grid, trials=trials, method="conditional",
                           fractions=flips.mean(axis=0),
                           mean_probability=probs.mean(axis=0))


def _conditional_draw(cum_x: np.ndarray, u_seq: np.ndarray,
                      rng: np.random.Generator, count: Optional[int] = None) -> np.ndarray:
    """Draw one codeword (or ``count`` of them) from prod_i p(x | u_i)."""
    shape = (len(u_seq),) if count is None else (count, len(u_seq))
    draws = rng.random(shape)
    thresholds = cum_x[u_seq][..., :-1]
    return (draws[..., None] >= thresholds).sum(axis=-1)


def _collision_probability(log_size: float, lnq: float) -> float:
    """1 - (1 - e^{lnq})^{count} with count = e^{log_size}, stably."""
    if log_size == -math.inf:
        return 0.0
    return _collision_from_exponent(log_size + _word_exponent(lnq))


def _word_exponent(lnq: float) -> float:
    """ln(-log1p(-q)) for q = e^{lnq}: one word's share of the no-collision
    exponent, inf when the word is certain; ln q itself once q is tiny."""
    if lnq >= 0.0:
        return math.inf
    if lnq > -30.0:
        return math.log(-math.log1p(-math.exp(lnq)))
    return lnq


def _collision_from_exponent(log_total: float) -> float:
    """1 - exp(-e^{log_total}), the chance of at least one collision, with
    the exponent capped at 700 where the chance is 1 in double precision."""
    if log_total == -math.inf:
        return 0.0
    return float(-math.expm1(-math.exp(min(log_total, 700.0))))


def collision_experiment(joint: JointPmf, n: int, rate_bits: float, cfg: RunConfig,
                         method: str = "auto") -> CollisionResult:
    """Single-rate collision run; auto materializes when the book fits 2^20."""
    if method == "auto":
        method = "materialize" if n * rate_bits <= math.log2(MAX_CODEBOOK) else "conditional"
    return collision_curve(joint, n, (rate_bits,), cfg, method=method)


@dataclass(frozen=True)
class ZEmpiricalResult:
    values: np.ndarray
    counts: np.ndarray
    samples: int
    mean: float
    tv_distance: float
    reference: "IntegerPmf"


def z_empirical(cost: int, p1: float, overlap: bool, cfg: RunConfig) -> ZEmpiricalResult:
    """Per-slot simulation of the recharge time against its closed form.

    Slots draw Bernoulli(p1) charge arrivals until the battery holds the
    cost; the histogram of slot counts is compared to ``z_pmf`` by total
    variation (the reference truncation error is far below the tolerance of
    interest). Each round draws ``horizon`` slots for every pending sample,
    where ``horizon`` is the reference law's 0.9 quantile: the smallest
    support point whose cumulative probability reaches 0.9, capped at the
    last. Rows that fall short run further rounds, so about one sample in
    ten takes a second round and a few take more. Rounds are drawn in blocks
    of 1,024 samples; uniforms are drawn row-major, so the blocks consume
    the stream exactly as one (pending, horizon) draw would, and memory is
    bounded by 1,024 * horizon. A block's hits are found once, in row-major
    order: each row's hit count and the offset of its first hit give the
    slot of the hit that completes its charge, and a row that falls short
    carries its count into the next round.
    """
    noise = ZNoise(cost=cost, p1=p1, overlap=overlap)
    reference = z_pmf(noise)
    samples = cfg.n
    cdf = np.cumsum(reference.probs)
    at = min(int(np.searchsorted(cdf, _Z_HORIZON_QUANTILE)), cdf.size - 1)
    horizon = int(reference.values[at])
    # float() so that a numpy float names the stream its Python value names
    label = f"recharge/cost={cost}/p1={float(p1)!r}/overlap={overlap}"
    rng = substream(cfg.seed, label)
    out = np.empty(samples, dtype=np.int64)
    filled = 0
    while filled < samples:
        batch = min(65536, samples - filled)
        if overlap:
            targets = np.where(rng.random(batch) < p1, cost - 1, cost).astype(np.int64)
        else:
            targets = np.full(batch, cost, dtype=np.int64)
        done = np.zeros(batch, dtype=bool)
        z = np.zeros(batch, dtype=np.int64)
        successes = np.zeros(batch, dtype=np.int64)
        while not done.all():
            pending = np.flatnonzero(~done)
            for lo in range(0, pending.size, _Z_BLOCK_ROWS):
                idx = pending[lo:lo + _Z_BLOCK_ROWS]
                flat = np.flatnonzero(rng.random((idx.size, horizon)) < p1)
                counts = np.bincount(flat // horizon, minlength=idx.size)
                need = targets[idx] - successes[idx]
                found = counts >= need
                # the need-th hit of each found row, counted from its first
                nth = (np.cumsum(counts) - counts + need - 1)[found]
                z[idx[found]] += flat[nth] % horizon + 1
                done[idx[found]] = True
                rest = idx[~found]
                z[rest] += horizon
                successes[rest] += counts[~found]
        out[filled:filled + batch] = z
        filled += batch
    lo = int(min(out.min(), reference.values[0]))
    hi = int(max(out.max(), reference.values[-1]))
    values = np.arange(lo, hi + 1, dtype=np.int64)
    counts = np.bincount(out - lo, minlength=values.size)
    emp = counts / samples
    ref = np.zeros(values.size)
    ref[reference.values - lo] = reference.probs
    tv = 0.5 * float(np.abs(emp - ref).sum())
    return ZEmpiricalResult(values=values, counts=counts, samples=samples,
                            mean=float(out.mean()), tv_distance=tv, reference=reference)


@dataclass(frozen=True)
class CodecConfig:
    """Per-level subcodebook plan for the relay-side decoder experiment.

    ``rate_bits[u]`` is the nominal bits-per-symbol of level u's subcodebook;
    with block length n, level u gets a subcodeword of length
    floor(n * (pi_u - slack)) and a book of 2^floor(length * rate) words.
    ``pad`` bounds the extra symbols emitted after a subcodeword is spent;
    None sizes it so padding can never run out.
    """

    spec: BatterySpec
    policy: StatePolicy
    rate_bits: tuple
    slack: float
    pad: Optional[int] = None

    def __post_init__(self):
        if self.policy.mode != "joint":
            raise ValidationError("the codec experiment drives a joint per-level policy")
        _require_policy(self.spec, self.policy)
        _require_reals("subcodebook rate", *self.rate_bits)
        rates = tuple(float(r) for r in self.rate_bits)
        if len(rates) != self.spec.states:
            raise ValidationError("need one subcodebook rate per battery level")
        for r in rates:  # a subcodeword is a binary word; NaN fails the test too
            if not 0.0 <= r <= 1.0:
                raise ValidationError(
                    f"subcodebook rates must lie in [0, 1] bit per symbol, got {r!r}")
        object.__setattr__(self, "rate_bits", rates)
        _require_reals("occupancy slack", self.slack)
        if not 0.0 < self.slack < 1.0:
            raise ValidationError("occupancy slack must lie in (0, 1)")
        if self.pad is not None:
            _require_integers(f"pad length must be an integer, got {self.pad!r}", self.pad)
            if self.pad < 0:
                raise ValidationError("pad length must be nonnegative")

    def plan(self, n: int, pi: np.ndarray):
        """Subcodeword lengths and allocated bits at block length n."""
        lengths = np.floor(n * np.maximum(pi - self.slack, 0.0)).astype(np.int64)
        bits = np.floor(lengths * np.asarray(self.rate_bits)).astype(np.int64)
        bits[lengths == 0] = 0
        return lengths, bits


@dataclass(frozen=True)
class CodecResult:
    n: int
    blocks: int
    trials: int
    p_incomplete: np.ndarray
    p_ambiguous: np.ndarray
    p_either: np.ndarray
    subcode_lengths: np.ndarray
    bits_allocated: np.ndarray

    @property
    def total_bits(self) -> int:
        return int(self.bits_allocated.sum())


def relay_codec_trial(codec: CodecConfig, blocks: int, cfg: RunConfig) -> CodecResult:
    """Frequencies of the relay decoder's two error events, per block.

    Encoding walks the battery chain with a cursor per level: while at level
    u the source emits the next symbol of level u's subcodeword (then pad
    symbols, same law), the relay draws its symbol from the policy
    conditional, and the level updates noiselessly. A block fails with an
    incomplete reception when some level is visited fewer times than its
    subcodeword length, and with an ambiguous reception when another word of
    some level's book matches the received subcodeword exactly; the latter
    probability is computed exactly from the realized word and decided by
    one coin. Blocks after the first force-charge the battery to full (at
    most capacity extra slots) so every block starts from a known level.

    Each trial draws from its own substream: its starting level, then its
    whole stock of uniforms (two per slot and one coin per block) in one
    call. Trials then walk in lockstep, in groups whose stock fits a fixed
    budget, so each slot is a handful of array operations over the group.
    """
    _require_integers(f"block count must be an integer, got {blocks!r}", blocks)
    if blocks < 1:
        raise ValidationError("need at least one block")
    spec, policy = codec.spec, codec.policy
    n = cfg.n
    arrival = ArrivalModel.deterministic()
    kernel = build_kernel(spec, policy, arrival)
    pi = _steady_state(kernel)[0].probs
    lengths, bits = codec.plan(n, pi)
    pad = codec.pad if codec.pad is not None else n
    joint = policy.tensor()
    source_rows = joint.sum(axis=2)
    p_x1 = source_rows[:, 1]
    spend_given = np.zeros((spec.states, 2))
    np.divide(joint[:, :, 1], source_rows, out=spend_given, where=source_rows > 0.0)
    log_rows = np.full((spec.states, 2), -np.inf)
    np.log(source_rows, out=log_rows, where=source_rows > 0.0)
    pi_cum = np.cumsum(pi)
    incomplete = np.zeros(blocks, dtype=np.int64)
    ambiguous = np.zeros(blocks, dtype=np.int64)
    either = np.zeros(blocks, dtype=np.int64)
    label = f"codec/n={n}/blocks={blocks}"
    stride = 2 * n + 1
    group = max(1, _CODEC_STOCK_BUDGET // (blocks * stride))
    for lo in range(0, cfg.trials, group):
        trials = range(lo, min(lo + group, cfg.trials))
        start = np.empty(len(trials), dtype=np.intp)
        stock = np.empty((blocks * stride, len(trials)))
        for row, trial in enumerate(trials):
            rng = substream(cfg.seed, label, trial)
            start[row] = _draw_index(pi_cum, rng)
            stock[:, row] = rng.random(stock.shape[0])
        for b in range(blocks):
            if b > 0:
                start[:] = spec.capacity
            visits, lnq, overrun = _codec_walk(
                start, stock[b * stride:(b + 1) * stride - 1], spec, p_x1,
                spend_given.ravel(), log_rows.ravel(), lengths, lengths + pad)
            miss = (visits < lengths).any(axis=1) | overrun
            coins = stock[(b + 1) * stride - 1]
            clash = np.array([coin < _ambiguity_probability(lnq[r], visits[r], lengths, bits)
                              for r, coin in enumerate(coins)], dtype=bool)
            incomplete[b] += miss.sum()
            ambiguous[b] += clash.sum()
            either[b] += (miss | clash).sum()
    t = float(cfg.trials)
    return CodecResult(n=n, blocks=blocks, trials=cfg.trials,
                       p_incomplete=incomplete / t, p_ambiguous=ambiguous / t,
                       p_either=either / t, subcode_lengths=lengths,
                       bits_allocated=bits)


def _codec_walk(level, uniforms, spec, p_x1, spend_given, log_rows, want, limit):
    """One block of the encoding walk for every row of ``level`` at once.

    ``uniforms`` holds two rows per slot (the source draw, then the relay
    draw); ``spend_given`` and ``log_rows`` are indexed by 2 * level + x1.
    Returns the (rows, states) visit counts and summed log-probabilities of
    each level's subcodeword symbols, and whether a row emitted more than
    ``limit`` symbols at some level.
    """
    rows, states = level.size, spec.states
    base = np.arange(rows) * states
    visits = np.zeros(rows * states, dtype=np.int64)
    lnq = np.zeros(rows * states)
    overrun = np.zeros(rows, dtype=bool)
    for i in range(0, uniforms.shape[0], 2):
        cell = base + level
        seen = visits[cell]
        x1 = uniforms[i] < p_x1[level]
        pair = 2 * level + x1
        lnq[cell] += np.where(seen < want[level], log_rows[pair], 0.0)
        overrun |= seen >= limit[level]
        visits[cell] = seen + 1
        x2 = uniforms[i + 1] < spend_given[pair]
        level = np.minimum(level + x1 - spec.cost * x2, spec.capacity)
    return visits.reshape(rows, states), lnq.reshape(rows, states), overrun


def _ambiguity_probability(lnq, visits, lengths, bits) -> float:
    """Chance that another word of some fully received level's book matches
    the realized subcodeword, given each level's summed log-probability."""
    log_total = -math.inf
    for u in range(len(bits)):
        if bits[u] == 0 or visits[u] < lengths[u]:
            continue
        count = (1 << int(bits[u])) - 1
        log_total = np.logaddexp(log_total, math.log(count) + _word_exponent(float(lnq[u])))
    return _collision_from_exponent(log_total)


@dataclass(frozen=True)
class ReceiverSmokeResult:
    n: int
    message_bits: int
    trials: int
    p_error: float


def receiver_smoke_trial(chain: PairChain, ch2: BinaryChannel, message_bits: int,
                         cfg: RunConfig) -> ReceiverSmokeResult:
    """Tiny end-to-end destination decode over an explicit codebook.

    Each trial draws 2^message_bits relay sequences from the pair chain,
    sends the first through the second hop, and decodes by the largest exact
    joint score: the forward-recursion probability of the candidate sequence
    plus the memoryless channel term. The whole book is sampled in lockstep
    and scored in one forward pass. Capped at 12 message bits; this is a
    smoke test, not a rate claim.
    """
    _require_integers(f"message bits must be an integer, got {message_bits!r}", message_bits)
    if message_bits < 1 or message_bits > 12:
        raise BudgetError("receiver smoke test supports 1..12 message bits")
    words = 1 << message_bits
    n = cfg.n
    pair_cum = np.cumsum(chain.pi)
    rows = ch2.rows  # P(y | x2), rows indexed by x2
    errors = 0
    label = f"receiver/n={n}/bits={message_bits}"
    for trial in range(cfg.trials):
        rng = substream(cfg.seed, label, trial)
        starts = _draw_index(pair_cum, rng, words)
        book = chain.emissions[_sample_paths(chain.transition, starts, n, rng)]
        y = (rng.random(n) < rows[book[0], 1]).astype(np.int8)
        scores = _forward_pass(chain, _observation_table(chain, None), book)
        with np.errstate(divide="ignore"):
            scores = scores + np.log(rows[book, y[None, :]]).sum(axis=1)
        if int(np.argmax(scores)) != 0:
            errors += 1
    return ReceiverSmokeResult(n=n, message_bits=message_bits, trials=cfg.trials,
                               p_error=errors / float(cfg.trials))

