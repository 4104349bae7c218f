"""Deterministic policy search over the rate expressions.

Each scheme's free parameters are packed into a unit cube: a coarse grid (or
a seeded random cloud when the grid would blow the evaluation budget) picks
starting points, and cyclic coordinate ascent with a halving step refines
them. Decoding from the cube clamps every probability away from zero by the
positivity floor, so every visited policy is feasible by construction and the
interior-policy conditions of the rate expressions hold automatically.

Runs are reproducible: the only randomness is a generator seeded from the
options plus a label describing the problem, and ties between equal-value
optima break lexicographically on the packed parameters.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from math import sqrt
from typing import Optional

import numpy as np

from .battery import BatterySpec, StatePolicy, _kernels, _solve_stationary
from .errors import ConstraintError, EhRelayError, ValidationError
from .pmf import BinaryChannel, Pmf
from .rates import (
    Model,
    RateBreakdown,
    _policy_rate,
    _Scheme,
    _scheme,
    product_bounds,
    second_hop_bounds,
)
from .timing import TimingRateResult, _timing_bounds, _wait_rule, timing_rate

_STEP0 = 0.25
_STEP_FLOOR = 1e-9
_RESIDUAL_GATE = 1e-8
_CHUNK = 512
_TIMING_BOX = (0.01, 0.99)


@dataclass(frozen=True)
class OptimizeOptions:
    """Knobs for the search; defaults are sized for single-digit-second runs."""

    grid_points: int = 21
    grid_budget: int = 20_000
    refine_iters: int = 200
    restarts: int = 8
    eps_pos: float = 1e-6
    seed: int = 0
    aux_sizes: tuple[int, ...] = (5,)

    def __post_init__(self):
        if self.grid_points < 2:
            raise ValidationError("grid must have at least two points per axis")
        if self.grid_budget < 1:
            raise ValidationError("grid budget must be at least one point")
        if self.refine_iters < 1:
            raise ValidationError("refinement needs at least one iteration")
        if self.restarts < 0:
            raise ValidationError("restarts must not be negative")
        if not 0.0 < self.eps_pos < 0.5:
            raise ValidationError("positivity floor must lie in (0, 0.5)")
        if not self.aux_sizes or any(a < 1 for a in self.aux_sizes):
            raise ValidationError("aux alphabet sizes must be positive")


@dataclass(frozen=True)
class OptimizeResult:
    model: Model
    breakdown: RateBreakdown
    theta: tuple
    policy_digest: str
    policy: Optional[StatePolicy] = None
    p_x1: Optional[Pmf] = None
    timing: Optional[TimingRateResult] = None
    evaluations: int = 0


def _breakdown_row(model: Model, spec: BatterySpec, breakdown: RateBreakdown) -> dict:
    """The battery and rate columns shared by rate, optimize and sweep rows."""
    return {
        "model": model.value,
        "cost": spec.cost,
        "capacity": spec.capacity,
        "relay_bound": breakdown.relay_bound,
        "receiver_bound": breakdown.receiver_bound,
        "rate": breakdown.rate,
        "achievable": breakdown.achievable,
        "binding": breakdown.binding,
    }


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(np.round(np.asarray(part, dtype=np.float64), 12)).tobytes())
    return h.hexdigest()[:12]


def _search_rng(opts: OptimizeOptions, label: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence((opts.seed & (2**64 - 1), tag)))


class _CubeProblem:
    """Batched value oracle over the unit cube with an evaluation counter.

    ``values`` scores a stack of points, shape (B, dims), and returns shape
    (B,), with -inf for an infeasible point. ``score`` runs ``values`` in
    chunks of at most ``_CHUNK`` rows, so memory stays flat however many
    points a search hands it; calling the problem scores the same way and
    counts one evaluation per point. ``_ascend`` scores ahead through
    ``score`` and counts only the points its walk reads.
    """

    dims: int

    def __init__(self):
        self.evaluations = 0

    def values(self, thetas: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def score(self, thetas: np.ndarray) -> np.ndarray:
        return np.concatenate([self.values(thetas[i:i + _CHUNK])
                               for i in range(0, len(thetas), _CHUNK)])

    def __call__(self, thetas: np.ndarray) -> np.ndarray:
        self.evaluations += len(thetas)
        return self.score(thetas)


def _dims(model: Model, spec: BatterySpec) -> int:
    """Number of cube coordinates a model's search runs over."""
    funded = max(spec.states - spec.cost, 0)
    if model is Model.SECOND_HOP:
        return min(spec.cost, spec.states) + 3 * funded
    if model is Model.TIMING:
        return 1
    return 1 + funded


def _chain_values(joint: np.ndarray, tensor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steady states of the kernels induced by a stack of joint tables.

    ``joint`` has shape (B, L, 2, 2) and ``tensor`` is the (L, 2, 2, L)
    transition tensor; returns ``(pi, ok)`` with shapes (B, L) and (B,).
    The search's rule for a steady state: one direct solve per kernel
    (``_solve_stationary``, which marks singular, non-finite and clearly
    negative solutions), then a residual max|pi K - pi| of at most
    ``_RESIDUAL_GATE``. There is no power-iteration fallback and no
    regularity check here; a kernel that fails scores -inf. The public
    ``stationary`` stays the strict path, and ``finalize`` re-checks the
    winning policy through it.
    """
    kernel = _kernels(joint, tensor)
    pi, ok = _solve_stationary(kernel)
    flow = (pi[..., None] * kernel).sum(axis=-2)
    ok &= np.abs(flow - pi).max(axis=-1) <= _RESIDUAL_GATE
    return pi, ok


def _scores(ok: np.ndarray, relay: np.ndarray, receiver: np.ndarray) -> np.ndarray:
    """Each row's rate, min of its two bounds, or -inf where its chain failed."""
    return np.where(ok, np.minimum(relay, receiver), -np.inf)


class _PolicyProblem(_CubeProblem):
    """Per-level policies of one scheme, scored over its transition tensor.

    ``finalize`` builds the winning policy once and rates it through the
    same ``_policy_rate`` as the public rate functions.
    """

    def __init__(self, scheme: _Scheme, eps: float):
        super().__init__()
        if 4.0 * eps > 1.0:
            raise ConstraintError(
                f"positivity floor {eps} leaves no room in a four-cell table"
            )
        self.scheme = scheme
        self.spec = spec = scheme.spec
        self.eps = eps
        self.funded = max(spec.states - spec.cost, 0)
        self.dims = _dims(scheme.model, spec)

    def policy(self, theta: np.ndarray) -> tuple[StatePolicy, dict]:
        """The policy at one point, and the result fields that describe it."""
        raise NotImplementedError

    def finalize(self, theta: np.ndarray):
        policy, extras = self.policy(theta)
        return _policy_rate(self.scheme, policy), {"policy": policy, **extras}


class _SecondHopProblem(_PolicyProblem):
    """Joint per-level tables against a noisy second hop, noiseless charging.

    Levels below the cost contribute one parameter (the source bias); funded
    levels contribute three, mapped onto the open 2x2 simplex through a
    conditional split and the affine interior squeeze.
    """

    def decode(self, thetas: np.ndarray) -> np.ndarray:
        """Joint tables, shape (B, L, 2, 2), for points of shape (B, dims)."""
        eps = self.eps
        m = min(self.spec.cost, self.spec.states)
        joint = np.zeros((len(thetas), self.spec.states, 2, 2))
        bias = eps + (1.0 - 2.0 * eps) * thetas[:, :m]
        joint[:, :m, 0, 0] = 1.0 - bias
        joint[:, :m, 1, 0] = bias
        if self.funded:
            abc = thetas[:, m:].reshape(len(thetas), self.funded, 3)
            a, b, c = abc[..., 0], abc[..., 1], abc[..., 2]
            cells = np.stack(
                [a * b, a * (1.0 - b), (1.0 - a) * c, (1.0 - a) * (1.0 - c)], axis=-1
            )
            joint[:, m:] = (eps + (1.0 - 4.0 * eps) * cells).reshape(
                len(thetas), self.funded, 2, 2)
        return joint

    def values(self, thetas: np.ndarray) -> np.ndarray:
        joint = self.decode(thetas)
        pi, ok = _chain_values(joint, self.scheme.tensor)
        return _scores(ok, *second_hop_bounds(joint, pi, self.scheme.ch2))

    def policy(self, theta: np.ndarray):
        joint = self.decode(theta[None])[0]
        policy = StatePolicy.joint_policy(self.spec, list(joint), tol=1e-9)
        return policy, {"policy_digest": _digest([joint])}


class _ProductProblem(_PolicyProblem):
    """Product policies for the noisy-charging schemes.

    One parameter sets the source bias, one per funded level sets the
    spending probability; all are clamped to [sqrt(eps), 1 - sqrt(eps)] so
    the product cells stay above the floor. The receiver penalty (charge
    entropy given the source symbol) is linear in the source law, so the
    scheme holds it per symbol.
    """

    def __init__(self, scheme: _Scheme, eps: float):
        super().__init__(scheme, eps)
        self.lo = sqrt(eps)
        self.span = 1.0 - 2.0 * self.lo

    def decode(self, thetas: np.ndarray):
        """Source laws (B, 2) and relay rows (B, L, 2) for points (B, dims)."""
        vals = self.lo + self.span * thetas
        p1 = vals[:, 0]
        src = np.stack([1.0 - p1, p1], axis=-1)
        rows = np.zeros((len(thetas), self.spec.states, 2))
        rows[:, :, 0] = 1.0
        if self.funded:
            rows[:, self.spec.cost:, 1] = vals[:, 1:]
            rows[:, self.spec.cost:, 0] = 1.0 - vals[:, 1:]
        return src, rows

    def values(self, thetas: np.ndarray) -> np.ndarray:
        src, rows = self.decode(thetas)
        joint = src[:, None, :, None] * rows[:, :, None, :]
        pi, ok = _chain_values(joint, self.scheme.tensor)
        s = self.scheme
        return _scores(ok, *product_bounds(src, rows, pi, s.ch1, s.ch2, s.penalty))

    def policy(self, theta: np.ndarray):
        probs, rows = self.decode(theta[None])
        src, rows = Pmf.binary(float(probs[0, 1])), rows[0]
        policy = StatePolicy.product_policy(self.spec, src, list(rows))
        return policy, {"p_x1": src, "policy_digest": _digest([src.probs, rows])}


class _TimingProblem(_CubeProblem):
    """Source bias for the spacing scheme, one dimension per search.

    ``values`` scores one point at a time through the array kernel
    ``_timing_bounds``, and keeps each distinct point's value (-inf for an
    infeasible one), so a point the search asks for again is not
    recomputed, whether the walk read it or the ascent scored it ahead.
    The evaluation counter still counts every request.
    """

    def __init__(self, spec: BatterySpec, ch1: Optional[BinaryChannel], aux_size: int,
                 wait_rule: str, wait_const: int, overlap: bool):
        super().__init__()
        if ch1 is None:
            raise ValidationError("timing optimization needs the first-hop channel")
        if spec.capacity != spec.cost:
            raise ConstraintError("timing scheme requires capacity equal to the cost")
        self.spec = spec
        self.dims = _dims(Model.TIMING, spec)
        self.ch1 = ch1
        self.overlap = overlap
        self.kwargs = dict(aux_size=aux_size, wait_rule=wait_rule,
                           wait_const=wait_const, overlap=overlap)
        aux, self.table, _ = _wait_rule(wait_rule, aux_size, wait_const)
        self.aux = aux.probs
        self.scores: dict[float, float] = {}

    @staticmethod
    def _p1(theta: np.ndarray) -> float:
        lo, hi = _TIMING_BOX
        return lo + (hi - lo) * float(theta[0])

    def _score(self, theta: np.ndarray) -> float:
        p1 = self._p1(theta)
        src = np.array([1.0 - p1, p1])
        src /= src.sum()  # what Pmf.binary(p1) holds
        try:
            return min(_timing_bounds(src, self.ch1, self.spec.cost, self.overlap,
                                      self.aux, self.table))
        except EhRelayError:
            return -np.inf

    def values(self, thetas: np.ndarray) -> np.ndarray:
        out = np.empty(len(thetas))
        for k, theta in enumerate(thetas):
            key = float(theta[0])
            if key not in self.scores:
                self.scores[key] = self._score(theta)
            out[k] = self.scores[key]
        return out

    def finalize(self, theta: np.ndarray):
        p1 = self._p1(theta)
        result = timing_rate(self.spec, Pmf.binary(p1), self.ch1, **self.kwargs)
        digest = _digest([[p1], result.scheme.aux.probs,
                          result.scheme.wait.astype(np.float64)])
        return result.breakdown, {"p_x1": Pmf.binary(p1), "timing": result,
                                  "policy_digest": digest}


def _start_points(dims: int, opts: OptimizeOptions, rng: np.random.Generator,
                  extra) -> np.ndarray:
    g = opts.grid_points
    while g >= 2 and g**dims > opts.grid_budget:
        g -= 1
    if g >= 2:
        axes = np.linspace(0.0, 1.0, g)
        mesh = np.meshgrid(*([axes] * dims), indexing="ij")
        cloud = np.stack(mesh, axis=-1).reshape(-1, dims)
    else:
        cloud = rng.random((opts.grid_budget, dims))
    center = np.full((1, dims), 0.5)
    blocks = [center, cloud, rng.random((opts.restarts, dims))]
    if extra:
        blocks.append(np.clip(np.asarray(extra, dtype=np.float64).reshape(-1, dims), 0.0, 1.0))
    return np.vstack(blocks)


def _ascend(problem: _CubeProblem, starts: np.ndarray, values: np.ndarray, iters: int):
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
    ascent's moves from its sweep position to the end of its sweep, from its
    current point; moves the clip keeps in place are not scored. Each ascent
    then advances to its first better move, or to its sweep's end, and
    resumes from there in the next round. So a search makes as many calls as
    its busiest ascent would make alone. Every row is scored on its own, so
    the walk reads the values a move-by-move walk would, and ``evaluations``
    grows only by the moves it reads. Returns the final points and their
    values, one row per start.
    """
    thetas = starts.astype(np.float64)
    best = values.astype(np.float64)
    problem.evaluations += len(thetas)
    count, dims = thetas.shape
    width = 2 * dims
    ks = np.arange(width)
    coord = ks // 2
    sign = np.where(ks % 2 == 0, 1.0, -1.0)
    steps = np.full(count, _STEP0)
    at = np.zeros(count, dtype=np.int64)  # each ascent's next move in its sweep
    sweeps = np.zeros(count, dtype=np.int64)
    improved = np.zeros(count, dtype=bool)
    live = np.arange(count if iters > 0 else 0)
    while live.size:
        old = thetas[live][:, coord]
        new = np.minimum(np.maximum(old + sign * steps[live, None], 0.0), 1.0)
        moved = (ks >= at[live, None]) & (new != old)
        points = np.repeat(thetas[live, None, :], width, axis=1)
        points[:, ks, coord] = new
        ahead = np.full(moved.shape, -np.inf)
        if moved.any():
            ahead[moved] = problem.score(points[moved])
        up = moved & (ahead > best[live, None])
        first = up.argmax(axis=1)
        took = up[np.arange(live.size), first]
        first[~took] = width
        problem.evaluations += int((moved & (ks <= first[:, None])).sum())
        rows = np.flatnonzero(took)
        best[live[rows]] = ahead[rows, first[rows]]
        thetas[live[rows]] = points[rows, first[rows]]
        improved[live[rows]] = True
        at[live] = first + 1
        ended = live[at[live] >= width]
        stalled = ended[~improved[ended]]
        steps[stalled] *= 0.5
        sweeps[ended] += 1
        at[ended] = 0
        improved[ended] = False
        done = (sweeps[live] >= iters) | (steps[live] < _STEP_FLOOR)
        live = live[~done]
    return thetas, best


def _run_search(problem: _CubeProblem, opts: OptimizeOptions, label: str,
                extra_starts) -> np.ndarray:
    """The winning point: the best final value, ties to the smallest point."""
    rng = _search_rng(opts, label)
    starts = _start_points(problem.dims, opts, rng, extra_starts)
    values = problem(starts)
    if not np.isfinite(values).any():
        raise ConstraintError("no feasible policy found anywhere on the search grid")
    order = np.argsort(-values, kind="stable")
    keep = [idx for idx in order[: max(1, opts.restarts + 1)] if np.isfinite(values[idx])]
    thetas, finals = _ascend(problem, starts[keep], values[keep], opts.refine_iters)
    return thetas[min(range(len(keep)), key=lambda i: (-finals[i], tuple(thetas[i])))]


def optimize(model, spec: BatterySpec, *, ch1: Optional[BinaryChannel] = None,
             ch2: Optional[BinaryChannel] = None,
             loss: Optional[tuple[Pmf, Pmf]] = None,
             wait_rule: str = "mod", wait_const: int = 1, overlap: bool = False,
             opts: OptimizeOptions = OptimizeOptions(),
             extra_starts=None) -> OptimizeResult:
    """Maximize a scheme's rate over its free policy parameters.

    Required ingredients by model: second-hop needs ``ch2``; timing needs
    ``ch1`` (and capacity equal to cost); both-hops needs both channels;
    random-loss needs both channels plus the pair of per-symbol loss laws.
    The reported breakdown is recomputed at the winning policy through the
    path the public rate functions take (the timing search through
    ``timing_rate``), so it satisfies exactly the invariants they enforce.
    """
    model = Model(model)
    label = f"optimize/{model.value}/cost={spec.cost}/capacity={spec.capacity}"
    if model is Model.TIMING:
        searches = [(f"{label}/aux={aux_size}",
                     _TimingProblem(spec, ch1, aux_size, wait_rule, wait_const, overlap))
                    for aux_size in opts.aux_sizes]
    else:
        scheme = _scheme(model, spec, ch1, ch2, loss)
        kind = _SecondHopProblem if model is Model.SECOND_HOP else _ProductProblem
        searches = [(label, kind(scheme, opts.eps_pos))]
    best = None
    for tag, problem in searches:
        theta = _run_search(problem, opts, tag, extra_starts)
        breakdown, extras = problem.finalize(theta)
        cand = OptimizeResult(model=model, breakdown=breakdown,
                              theta=tuple(float(t) for t in theta),
                              evaluations=problem.evaluations, **extras)
        if best is None or cand.breakdown.rate > best.breakdown.rate:
            best = cand
    return best


@dataclass(frozen=True)
class LossShape:
    """Loss laws specified once and zero-padded to each sweep's cost."""

    given_zero: tuple
    given_one: tuple

    def __post_init__(self):
        for vec in (self.given_zero, self.given_one):
            Pmf(vec)

    def pmfs(self, cost: int) -> tuple[Pmf, Pmf]:
        out = []
        for vec in (self.given_zero, self.given_one):
            if len(vec) > cost:
                raise ValidationError(
                    f"loss law has {len(vec)} entries but the cost is {cost}"
                )
            padded = np.zeros(cost)
            padded[: len(vec)] = vec
            out.append(Pmf(padded))
        return out[0], out[1]


@dataclass(frozen=True)
class SweepSpec:
    """A family of optimizations over a battery parameter.

    ``parameter`` is "cost" (capacity rides along, equal to the cost, so the
    spacing scheme stays admissible) or "capacity" (cost fixed via ``cost``;
    the spacing scheme is rejected because it needs capacity == cost).
    """

    models: tuple
    parameter: str
    values: tuple
    cost: Optional[int] = None
    ch1: Optional[BinaryChannel] = None
    ch2: Optional[BinaryChannel] = None
    loss: Optional[LossShape] = None
    wait_rule: str = "mod"
    wait_const: int = 1
    overlap: bool = False
    opts: OptimizeOptions = field(default_factory=OptimizeOptions)

    def __post_init__(self):
        models = tuple(Model(m) for m in self.models)
        object.__setattr__(self, "models", models)
        values = tuple(int(v) for v in self.values)
        if not values or any(v < 1 for v in values):
            raise ValidationError("sweep values must be positive integers")
        object.__setattr__(self, "values", values)
        if self.parameter == "cost":
            if any(v < 2 for v in values):
                raise ValidationError("costs below 2 are outside the model")
        elif self.parameter == "capacity":
            if self.cost is None or self.cost < 2:
                raise ValidationError("capacity sweeps need a fixed cost of at least 2")
            if any(v < self.cost for v in values):
                raise ValidationError("swept capacities must not fall below the cost")
            if Model.TIMING in models:
                raise ConstraintError(
                    "the spacing scheme needs capacity equal to the cost, "
                    "so it cannot ride a capacity sweep"
                )
        else:
            raise ValidationError("sweep parameter must be 'cost' or 'capacity'")
        # Bad or missing inputs fail here, not at the first cell of the model
        # that needs them: first the wait rule and the loss law's values, then
        # each model's requirements in sweep order, at the smallest swept spec.
        smallest = self.spec_for(min(values))
        if Model.TIMING in models:
            _wait_rule(self.wait_rule, self.opts.aux_sizes[0], self.wait_const)
        if Model.RANDOM_LOSS in models and self.loss is not None:
            self.loss.pmfs(smallest.cost)
        for model in models:
            if model is Model.TIMING:
                _TimingProblem(smallest, self.ch1, self.opts.aux_sizes[0], self.wait_rule,
                               self.wait_const, self.overlap)
            else:
                loss = self.loss.pmfs(smallest.cost) if (model is Model.RANDOM_LOSS
                                                         and self.loss is not None) else None
                _scheme(model, smallest, self.ch1, self.ch2, loss)

    def spec_for(self, value: int) -> BatterySpec:
        if self.parameter == "cost":
            return BatterySpec(capacity=value, cost=value)
        return BatterySpec(capacity=value, cost=self.cost)


def sweep(plan: SweepSpec) -> list[dict]:
    """Optimize every (model, value) cell and return rows in sweep order.

    Consecutive values of the same model warm-start from the previous
    optimum, padded by repeating the last coordinate when the dimension
    grows.
    """
    rows = []
    for model in plan.models:
        prev_theta: Optional[np.ndarray] = None
        for value in sorted(plan.values):
            spec = plan.spec_for(value)
            loss = plan.loss.pmfs(spec.cost) if (model is Model.RANDOM_LOSS
                                                 and plan.loss is not None) else None
            extra = None
            if prev_theta is not None:
                dims = _dims(model, spec)
                padded = np.full(dims, prev_theta[-1])
                padded[: min(dims, prev_theta.size)] = prev_theta[: min(dims, prev_theta.size)]
                extra = [padded]
            result = optimize(model, spec, ch1=plan.ch1, ch2=plan.ch2, loss=loss,
                              wait_rule=plan.wait_rule, wait_const=plan.wait_const,
                              overlap=plan.overlap, opts=plan.opts, extra_starts=extra)
            prev_theta = np.asarray(result.theta)
            rows.append({**_breakdown_row(model, spec, result.breakdown),
                         "policy_digest": result.policy_digest})
    return rows

