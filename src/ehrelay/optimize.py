"""Deterministic policy search over the rate expressions.

Each scheme's free parameters are packed into a unit cube: a coarse grid (or
a seeded random cloud when the grid would blow the evaluation budget) picks
starting points, and cyclic coordinate ascent with a halving step refines
them. Decoding from the cube clamps every probability away from zero by the
positivity floor, so every visited policy is feasible by construction and the
interior-policy conditions of the rate expressions hold automatically.

The timing scheme has one free parameter, the source bias, so its search is
a line search instead: the same starts, scored once each through the path
that ``timing_rate`` takes, then a golden-section refine (Kiefer,
"Sequential minimax search for a maximum", 1953) of the bracket around each
of the best local maxima among them.

Runs are reproducible: the only randomness is a generator seeded, by the
Monte Carlo lab's rule, from the options plus a label describing the problem,
and ties between equal-value optima break lexicographically on the packed
parameters.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field
from math import sqrt
from typing import Optional

import numpy as np

from .battery import BatterySpec, StatePolicy, _kernels, _solve_stationary
from .errors import BudgetError, ConstraintError, EhRelayError, ValidationError
from .mclab import MAX_STEPS, _seeded_rng
from .pmf import (BinaryChannel, Pmf, _require_bool, _require_integers, _require_reals,
                  _sequence)
from .rates import (
    Model,
    RateBreakdown,
    _policy_rate,
    _Scheme,
    _scheme,
    product_bounds,
    second_hop_bounds,
)
from .timing import (TimingRateResult, _spacing_bounds, _timing_inputs, _timing_laws,
                     _timing_result, _wait_rule)

_STEP0 = 0.25
_STEP_FLOOR = 1e-9
_RESIDUAL_GATE = 1e-8
_CHUNK = 512
_TIMING_BOX = (0.01, 0.99)
_GOLDEN = (sqrt(5.0) - 1.0) / 2.0
# Factors of a funded level's four cells among (a, b, c, 1-a, 1-b, 1-c).
_SPLIT_LEFT = np.array([0, 0, 3, 3])
_SPLIT_RIGHT = np.array([1, 4, 2, 5])


@dataclass(frozen=True)
class OptimizeOptions:
    """Knobs for the search; defaults are sized for single-digit-second runs.

    ``refine_iters`` caps the sweeps of each coordinate ascent, or, for the
    timing line search, the golden-section iterations of each bracket.
    ``restarts`` is the number of seeded random starts beside the grid; the
    cube searches climb from the best ``restarts + 1`` starts, and the line
    search refines around the best ``restarts + 1`` local maxima.
    """

    grid_points: int = 21
    grid_budget: int = 20_000
    refine_iters: int = 200
    restarts: int = 8
    eps_pos: float = 1e-6
    seed: int = 0
    aux_sizes: tuple[int, ...] = (5,)

    def __post_init__(self):
        aux_sizes = _sequence(self.aux_sizes, "aux_sizes")
        _require_integers("grid_points, grid_budget, refine_iters, restarts, seed and aux_sizes "
                          "must be integers", self.grid_points, self.grid_budget,
                          self.refine_iters, self.restarts, self.seed, *aux_sizes)
        if self.grid_points < 2:
            raise ValidationError("grid must have at least two points per axis")
        if self.grid_budget < 1:
            raise ValidationError("grid budget must be at least one point")
        if self.refine_iters < 1:
            raise ValidationError("refinement needs at least one iteration")
        if self.restarts < 0:
            raise ValidationError("restarts must not be negative")
        _require_reals("positivity floor", self.eps_pos)
        if not 0.0 < self.eps_pos < 0.5:
            raise ValidationError("positivity floor must lie in (0, 0.5)")
        if not aux_sizes or any(a < 1 for a in aux_sizes):
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


class _CubeProblem:
    """Batched value oracle over the unit cube with an evaluation counter.

    ``values`` scores a stack of points, shape (B, dims), and returns shape
    (B,), with -inf for an infeasible point. ``score`` runs ``values`` in
    chunks of at most ``_CHUNK`` rows, so memory stays flat however many
    points a search hands it; calling the problem scores the same way and
    counts one evaluation per point. ``_ascend`` scores the neighbourhoods
    its walks ask for through ``score``, and each ``_walk`` counts only the
    points it reads, once per read.
    """

    dims: int

    def __init__(self):
        self.evaluations = 0

    def values(self, thetas: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def score(self, thetas: np.ndarray) -> np.ndarray:
        if len(thetas) <= _CHUNK:
            return self.values(thetas)
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


def _chain_values(joint: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steady states of the kernels induced by a stack of joint tables.

    ``joint`` has shape (B, L, 2, 2) and ``cells`` is the scheme's
    ``_tensor_cells``; returns ``(pi, ok)`` with shapes (B, L) and (B,).
    The search's rule for a steady state: one direct solve per kernel
    (``_solve_stationary``, which marks singular, non-finite and clearly
    negative solutions), then a residual max|pi K - pi| of at most
    ``_RESIDUAL_GATE``. There is no power-iteration fallback and no
    regularity check here; a kernel that fails scores -inf. The public rate
    path's ``_steady_state`` stays strict, and ``finalize`` re-checks the
    winning policy through it.
    """
    kernel = _kernels(joint, cells)
    pi, ok = _solve_stationary(kernel)
    flow = np.add.reduce(pi[..., None] * kernel, axis=-2)
    ok &= np.maximum.reduce(np.abs(flow - pi), axis=-1) <= _RESIDUAL_GATE
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
            split = np.concatenate([abc, 1.0 - abc], axis=-1)  # a, b, c, 1-a, 1-b, 1-c
            # the cells a b, a (1-b), (1-a) c and (1-a)(1-c)
            cells = split.take(_SPLIT_LEFT, axis=-1) * split.take(_SPLIT_RIGHT, axis=-1)
            joint[:, m:] = (eps + (1.0 - 4.0 * eps) * cells).reshape(
                len(thetas), self.funded, 2, 2)
        return joint

    def values(self, thetas: np.ndarray) -> np.ndarray:
        joint = self.decode(thetas)
        pi, ok = _chain_values(joint, self.scheme.cells)
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
        # where each coordinate lands among P(source 1), P(spend) at each level
        self.slots = np.r_[0, np.arange(1 + self.spec.cost, 1 + self.spec.states)]

    def decode(self, thetas: np.ndarray):
        """Source laws (B, 2) and relay rows (B, L, 2) for points (B, dims).

        Both are views of one (B, 1 + L, 2) array of binary laws, the
        source's first; levels below the cost never spend.
        """
        p_one = np.zeros((len(thetas), 1 + self.spec.states))
        p_one[:, self.slots] = self.lo + self.span * thetas
        laws = np.empty(p_one.shape + (2,))
        laws[..., 1] = p_one
        np.subtract(1.0, p_one, out=laws[..., 0])
        return laws[:, 0], laws[:, 1:]

    def values(self, thetas: np.ndarray) -> np.ndarray:
        src, rows = self.decode(thetas)
        joint = src[:, None, :, None] * rows[:, :, None, :]
        pi, ok = _chain_values(joint, self.scheme.cells)
        s = self.scheme
        return _scores(ok, *product_bounds(src, rows, pi, s.ch1, s.ch2, s.penalty))

    def policy(self, theta: np.ndarray):
        probs, rows = self.decode(theta[None])
        src, rows = Pmf.binary(float(probs[0, 1])), rows[0]
        policy = StatePolicy.product_policy(self.spec, src, list(rows))
        return policy, {"p_x1": src, "policy_digest": _digest([src.probs, rows])}


class _TimingProblem(_CubeProblem):
    """Source bias for the spacing scheme, one dimension per search.

    Biases are scored and the winner reported through the path that
    ``timing_rate`` takes. A point whose laws cannot be built scores -inf,
    and the first such error is kept in ``error`` so that a search that
    finds nothing feasible can say why.
    """

    def __init__(self, spec: BatterySpec, ch1: Optional[BinaryChannel], aux_size: int,
                 wait_rule: str, wait_const: int, overlap: bool):
        super().__init__()
        _timing_inputs(spec, ch1)
        _require_bool("overlap", overlap)
        self.rule, _ = _wait_rule(wait_rule, aux_size, wait_const)
        self.spec, self.ch1, self.overlap = spec, ch1, overlap
        self.dims = _dims(Model.TIMING, spec)
        self.error: Optional[EhRelayError] = None

    @staticmethod
    def _p1(theta: np.ndarray) -> float:
        lo, hi = _TIMING_BOX
        return lo + (hi - lo) * float(theta[0])

    def _score(self, theta: np.ndarray) -> float:
        try:
            src, _, _, _, t_law = _timing_laws(self.spec, Pmf.binary(self._p1(theta)),
                                               self.ch1, self.rule, self.overlap)
        except EhRelayError as exc:
            self.error = self.error or exc
            return -np.inf
        return min(_spacing_bounds(src.probs, self.ch1, *t_law))

    def values(self, thetas: np.ndarray) -> np.ndarray:
        return np.array([self._score(theta) for theta in thetas], dtype=np.float64)

    def finalize(self, theta: np.ndarray):
        p1 = self._p1(theta)
        src = Pmf.binary(p1)
        result = _timing_result(self.spec, src, self.ch1, self.rule, self.overlap)
        digest = _digest([[p1], result.scheme.aux.probs,
                          result.scheme.wait.astype(np.float64)])
        return result.breakdown, {"p_x1": src, "timing": result, "policy_digest": digest}


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


def _walk(problem: _CubeProblem, point: np.ndarray, value: float, iters: int):
    """Cyclic coordinate ascent with a halving step from one start, inside the unit cube.

    A sweep tries the 2 * dims moves in a fixed order: move k shifts
    coordinate k // 2 up (even k) or down (odd k) by the step, clipped to the
    cube, and the walk takes a move only if it is strictly better. A sweep
    that takes no move halves the step; the walk stops at the step floor or
    after ``iters`` sweeps and returns its value. ``point`` is updated in
    place. ``iters`` must be at least one, so that the walk yields before it
    returns.

    Whenever its point or step has changed, the walk yields its step and is
    sent its whole neighbourhood there: the moves the clip does not keep in
    place, as the round's shared lists of move indices, values and moved
    coordinates, with the bounds of its share. A sweep that restarts from the
    same point at the same step still holds its values. Every move the walk
    reads counts one evaluation, so ``evaluations`` grows as it would for a
    move-by-move walk.
    """
    width, step, held = 2 * len(point), _STEP0, None
    for _ in range(iters):
        k, taken = 0, False  # the sweep's next move, and whether it took one
        while k < width:
            if held is None:
                held = yield step
            ks, vs, xs, lo, hi = held
            i = bisect_left(ks, k, lo, hi)
            hit = next((t for t in range(i, hi) if vs[t] > value), hi)
            problem.evaluations += min(hit + 1, hi) - i
            if hit == hi:
                break
            value, point[ks[hit] // 2], k = vs[hit], xs[hit], ks[hit] + 1
            taken, held = True, None
        if not taken:
            step, held = step * 0.5, None
            if step < _STEP_FLOOR:
                break
    return value


def _ascend(problem: _CubeProblem, starts: np.ndarray, values: np.ndarray, iters: int):
    """One ``_walk`` from each start, all batched into one scorer call per round.

    ``values`` holds the starts' values, which the caller has scored; they
    count once more in ``evaluations`` as the walks begin from them. Each
    round scores, in one uncounted ``score`` call, the whole neighbourhood of
    every walk that has yielded, in start order, and sends each walk its
    share; every row is scored on its own, so each walk reads what it would
    read alone, and a search makes as many calls as its busiest walk needs.
    Returns the final points and values, one row per start.
    """
    thetas = starts.astype(np.float64)
    best = values.astype(np.float64)
    problem.evaluations += len(thetas)
    sign = np.tile([1.0, -1.0], thetas.shape[1])
    walks = [_walk(problem, theta, value, iters) for theta, value in zip(thetas, best.tolist())]
    steps = {i: next(walk) for i, walk in enumerate(walks)}
    while steps:
        live = list(steps)
        point = thetas.take(live, axis=0)
        old = point.repeat(2, axis=1)  # move k shifts coordinate k // 2
        shift = np.multiply.outer(list(steps.values()), sign)  # each move's shift
        new = np.minimum(np.maximum(old + shift, 0.0), 1.0)
        moved = new != old
        rows, cols = moved.nonzero()
        points, xs = point.take(rows, axis=0), new[moved]
        points[np.arange(rows.size), cols // 2] = xs
        shared = cols.tolist(), problem.score(points).tolist(), xs.tolist()
        hi = 0
        for i, count in zip(live, np.bincount(rows, minlength=len(live)).tolist()):
            lo, hi = hi, hi + count
            try:
                steps[i] = walks[i].send((*shared, lo, hi))
            except StopIteration as stop:
                best[i] = stop.value
                del steps[i]
    return thetas, best


def _run_search(problem: _CubeProblem, opts: OptimizeOptions, label: str,
                extra_starts) -> np.ndarray:
    """The winning point: the best final value, ties to the smallest point."""
    rng = _seeded_rng(opts.seed, label)
    starts = _start_points(problem.dims, opts, rng, extra_starts)
    values = problem(starts)
    if not np.isfinite(values).any():
        raise ConstraintError("no feasible policy found anywhere on the search grid")
    order = np.argsort(-values, kind="stable")
    keep = [idx for idx in order[: max(1, opts.restarts + 1)] if np.isfinite(values[idx])]
    thetas, finals = _ascend(problem, starts[keep], values[keep], opts.refine_iters)
    return thetas[min(range(len(keep)), key=lambda i: (-finals[i], tuple(thetas[i])))]


def _golden(problem: _TimingProblem, a: float, b: float, best: tuple, iters: int) -> tuple:
    """Golden-section refine of the bracket [a, b] around ``best``.

    ``best`` is the (value, theta) of the bracket's scored point. Each
    iteration scores the golden points the bracket lacks (both in the first,
    one after) and keeps the better point's side, the left one on a tie. A
    scored point replaces ``best`` only if it is strictly better. The refine
    stops once the bracket is narrower than ``_STEP_FLOOR`` or after
    ``iters`` iterations.
    """
    inner = [None, None]  # (theta, value) of the left and right golden points
    for _ in range(iters):
        if b - a < _STEP_FLOOR:
            break
        golden = (b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        need = [k for k in (0, 1) if inner[k] is None]
        for k, value in zip(need, problem(np.array([[golden[k]] for k in need]))):
            inner[k] = (golden[k], float(value))
            if value > best[0]:
                best = (float(value), golden[k])
        (c, fc), (d, fd) = inner
        if fc >= fd:
            b, inner = d, [None, (c, fc)]
        else:
            a, inner = c, [(d, fd), None]
    return best


def _line_search(problem: _TimingProblem, opts: OptimizeOptions, label: str,
                 extra_starts) -> np.ndarray:
    """The winning point of a one-dimensional problem.

    The starts of ``_start_points`` are de-duplicated, sorted and scored in
    one call. Every finite point no worse than either neighbour is a local
    maximum; the best ``restarts + 1`` of them, ties to the smaller point,
    are each refined by ``_golden`` over the bracket between their
    neighbours (a boundary point brackets with itself). The winner is the
    best refined value, ties to the smallest point.
    """
    rng = _seeded_rng(opts.seed, label)
    xs = np.unique(_start_points(1, opts, rng, extra_starts)[:, 0])
    values = problem(xs[:, None])
    if not np.isfinite(values).any():
        cause = f" (first error: {problem.error})" if problem.error else ""
        raise ConstraintError("no feasible policy found anywhere on the search grid" + cause)
    left = np.concatenate([[-np.inf], values[:-1]])
    right = np.concatenate([values[1:], [-np.inf]])
    peaks = np.flatnonzero(np.isfinite(values) & (values >= left) & (values >= right))
    peaks = peaks[np.argsort(-values[peaks], kind="stable")][: opts.restarts + 1]
    last = len(xs) - 1
    finals = [_golden(problem, xs[max(i - 1, 0)], xs[min(i + 1, last)],
                      (float(values[i]), float(xs[i])), opts.refine_iters) for i in peaks]
    _, theta = min(finals, key=lambda vt: (-vt[0], vt[1]))
    return np.array([theta])


def _searches(model: Model, spec: BatterySpec, ch1: Optional[BinaryChannel],
              ch2: Optional[BinaryChannel], loss: Optional[tuple[Pmf, Pmf]], wait_rule: str,
              wait_const: int, overlap: bool, opts: OptimizeOptions) -> list:
    """The (label, problem) pairs of one ``optimize`` call; building them checks its inputs."""
    starts, dims = 1 + opts.grid_budget + opts.restarts, _dims(model, spec)
    if starts * dims > MAX_STEPS:
        raise BudgetError(f"{starts} starts of {dims} coordinates exceed the desk-scale cap "
                          f"of {MAX_STEPS} doubles")
    label = f"optimize/{model.value}/cost={spec.cost}/capacity={spec.capacity}"
    if model is Model.TIMING:
        return [(f"{label}/aux={aux_size}",
                 _TimingProblem(spec, ch1, aux_size, wait_rule, wait_const, overlap))
                for aux_size in opts.aux_sizes]
    kind = _SecondHopProblem if model is Model.SECOND_HOP else _ProductProblem
    return [(label, kind(_scheme(model, spec, ch1, ch2, loss), opts.eps_pos))]


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
    ``_searches`` checks them before any search runs; ``SweepSpec`` calls it too.
    The reported breakdown is recomputed at the winning policy through the
    path the public rate functions take (``timing_rate``'s for the timing
    search), so it satisfies exactly the invariants they enforce.
    """
    model = Model(model)
    search = _line_search if model is Model.TIMING else _run_search
    best = None
    for tag, problem in _searches(model, spec, ch1, ch2, loss, wait_rule, wait_const,
                                  overlap, opts):
        theta = search(problem, opts, tag, extra_starts)
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
    Each cell's searches are built here, in sweep order, by ``optimize``'s
    builder and thrown away, so bad input fails before any search runs.
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
        if not models:
            raise ValidationError("sweep.models must not be empty")
        object.__setattr__(self, "models", models)
        values = _sequence(self.values, "sweep values")
        _require_integers("sweep values must be positive integers", *values)
        if not values or any(v < 1 for v in values):
            raise ValidationError("sweep values must be positive integers")
        object.__setattr__(self, "values", tuple(int(v) for v in values))
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
        for model, spec in [(m, self.spec_for(v)) for m in models for v in sorted(values)]:
            _searches(model, spec, **self._inputs(model, spec))

    def spec_for(self, value: int) -> BatterySpec:
        if self.parameter == "cost":
            return BatterySpec(capacity=value, cost=value)
        return BatterySpec(capacity=value, cost=self.cost)

    def _inputs(self, model: Model, spec: BatterySpec) -> dict:
        """A cell's keyword arguments for ``_searches`` and ``optimize``."""
        loss = self.loss.pmfs(spec.cost) if model is Model.RANDOM_LOSS and self.loss else None
        return dict(ch1=self.ch1, ch2=self.ch2, loss=loss, wait_rule=self.wait_rule,
                    wait_const=self.wait_const, overlap=self.overlap, opts=self.opts)


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
            extra = None
            if prev_theta is not None:
                dims = _dims(model, spec)
                padded = np.full(dims, prev_theta[-1])
                padded[: min(dims, prev_theta.size)] = prev_theta[: min(dims, prev_theta.size)]
                extra = [padded]
            result = optimize(model, spec, **plan._inputs(model, spec), extra_starts=extra)
            prev_theta = np.asarray(result.theta)
            rows.append({**_breakdown_row(model, spec, result.breakdown),
                         "policy_digest": result.policy_digest})
    return rows

