"""Shared fixtures and independent oracles.

Every oracle here is computed by a different route than the library uses:
the stationary oracle goes through an eigendecomposition, the sequence
likelihood oracle enumerates battery paths outright, and the closed-form
entropy constants were frozen from direct evaluation of the definitions,
and the binary-channel information measures go through a validated output
``Pmf`` and ``entropy`` instead of the rate kernels' array formulas.
The Monte Carlo oracles are the scalar reference forms of the lab's
lockstep kernels: one codec trial walked slot by slot from a refilling
stock of uniforms, and the recharge simulation drawn as one full
(pending, horizon) matrix per round.
"""

import itertools
import math

import numpy as np
import pytest

from ehrelay import (
    ArrivalModel,
    BatterySpec,
    Pmf,
    StatePolicy,
    ZNoise,
    binary_entropy,
    build_kernel,
    entropy,
    stationary,
    substream,
    z_pmf,
)

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


def z_empirical_oracle(cost: int, p1: float, overlap: bool, cfg) -> np.ndarray:
    """Every recharge-time sample ``z_empirical`` draws, each round's pending
    samples drawn as one (pending, horizon) matrix."""
    horizon = int(z_pmf(ZNoise(cost=cost, p1=p1, overlap=overlap)).values[-1]) + 8
    rng = substream(cfg.seed, f"recharge/cost={cost}/p1={p1!r}/overlap={overlap}")
    out = []
    while len(out) < cfg.n:
        batch = min(65536, cfg.n - len(out))
        if overlap:
            targets = np.where(rng.random(batch) < p1, cost - 1, cost)
        else:
            targets = np.full(batch, cost)
        done = np.zeros(batch, dtype=bool)
        z = np.zeros(batch, dtype=np.int64)
        successes = np.zeros(batch, dtype=np.int64)
        while not done.all():
            idx = np.flatnonzero(~done)
            cumhits = np.cumsum(rng.random((idx.size, horizon)) < p1, axis=1)
            cumhits += successes[idx][:, None]
            reached = cumhits >= targets[idx][:, None]
            found = reached.any(axis=1)
            z[idx[found]] += np.argmax(reached, axis=1)[found] + 1
            done[idx[found]] = True
            z[idx[~found]] += horizon
            successes[idx[~found]] = cumhits[~found, -1]
        z[targets == 0] = 0
        out.extend(z.tolist())
    return np.array(out, dtype=np.int64)
