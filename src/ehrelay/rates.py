"""Achievable-rate expressions for the two-hop harvesting link.

Every variant yields a min of two single-letter bounds: what the relay can
reliably absorb from the source (the relay bound) and what the destination
can reliably recover from the relay (the receiver bound). The receiver bound
averages a per-level quantity under the battery steady state; in the noisy
configurations it is corrected by the entropy the relay cannot predict about
its own charging, so it can go negative. The raw min is reported next to its
clamp at zero.

Model map:
  second-hop:  noiseless source-to-relay hop, noisy relay-to-destination hop,
               joint per-level policy.
  timing:      noisy first hop, noiseless second hop, message carried by the
               spacing of relay transmissions (see the timing module).
  both-hops:   noise on both hops, product policy.
  random-loss: both hops noisy plus random per-symbol energy loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .battery import (
    ArrivalModel,
    BatterySpec,
    StatePolicy,
    _kernels,
    _require_policy,
    _steady_state,
    _tensor_cells,
    _underfunded_levels,
    energy_profile,
    transition_tensor,
)
from .errors import ConstraintError, ValidationError
from .pmf import BinaryChannel, Pmf, _entropy_bits, _h2

CHANNEL_CLASS_TOL = 1e-9
BINDING_TIE = 1e-9


class Model(str, Enum):
    SECOND_HOP = "second-hop"
    TIMING = "timing"
    BOTH_HOPS = "both-hops"
    RANDOM_LOSS = "random-loss"

    @classmethod
    def _missing_(cls, value):
        choices = ", ".join(m.value for m in cls)
        raise ValidationError(f"unknown model {value!r} (choose from: {choices})")


@dataclass(frozen=True)
class RateBreakdown:
    """Both bounds, their min, the clamp at zero, and which side binds."""

    relay_bound: float
    receiver_bound: float
    rate: float
    achievable: float
    binding: str

    @classmethod
    def from_bounds(cls, relay: float, receiver: float) -> "RateBreakdown":
        rate = min(relay, receiver)
        if abs(relay - receiver) <= BINDING_TIE:
            binding = "both"
        elif receiver < relay:
            binding = "receiver"
        else:
            binding = "relay"
        return cls(relay_bound=relay, receiver_bound=receiver, rate=rate,
                   achievable=max(rate, 0.0), binding=binding)


def require_informative_second_hop(ch2: BinaryChannel) -> None:
    """The receiver bound degenerates when the output law ignores the input."""
    if abs(ch2.q1 + ch2.q2 - 1.0) <= CHANNEL_CLASS_TOL:
        raise ConstraintError(
            "second-hop output is independent of its input (q1 + q2 = 1)"
        )


def _output_zero(laws: np.ndarray, ch: BinaryChannel) -> np.ndarray:
    """P(output 0) of ``ch`` under each binary input law on the last axis."""
    return laws[..., 0] * ch.q1 + laws[..., 1] * (1.0 - ch.q2)


def _noise_given_input(laws: np.ndarray, ch: BinaryChannel) -> np.ndarray:
    """H(output | input) of ``ch`` under each binary input law on the last axis."""
    noise = ch.noise_bits
    return laws[..., 0] * noise[0] + laws[..., 1] * noise[1]


def per_level_receiver_bits(x2_rows: np.ndarray, ch2: BinaryChannel) -> np.ndarray:
    """I(relay symbol; destination symbol) at each level, over any leading batch axes."""
    return np.maximum(_h2(_output_zero(x2_rows, ch2)) - _noise_given_input(x2_rows, ch2), 0.0)


def per_level_source_entropy_bits(joint: np.ndarray) -> np.ndarray:
    """H(source symbol | relay symbol) at each level, over any leading batch axes.

    ``joint`` stacks (source x relay) tables on its last two axes.
    """
    flat = joint.reshape(joint.shape[:-2] + (4,))
    logs = np.log2(flat, out=np.zeros(flat.shape), where=flat > 0.0)
    h_joint = -np.add.reduce(flat * logs, axis=-1)
    h_x2 = _h2(joint[..., 0, 1] + joint[..., 1, 1])
    return np.maximum(h_joint - h_x2, 0.0)


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inner products over the last axis, one BLAS dot per row.

    Each row's result is what ``a[k] @ b[k]`` gives and does not depend on
    the other rows, so a policy scores the same in any batch.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def second_hop_bounds(joint: np.ndarray, pi: np.ndarray,
                      ch2: BinaryChannel) -> tuple[np.ndarray, np.ndarray]:
    """(relay, receiver) bounds of the second-hop scheme for a batch of policies.

    ``joint`` holds B stacks of per-level tables, shape (B, L, 2, 2), and
    ``pi`` their steady states, shape (B, L); both bounds come back with
    shape (B,). The relay bound averages H(source | relay symbol), the fresh
    randomness the source can embed per slot; the receiver bound averages the
    per-level second-hop information. Each row is computed on its own, so a
    policy's bounds do not depend on the batch it is scored in.
    """
    receiver = _dot_rows(pi, per_level_receiver_bits(joint.sum(axis=-2), ch2))
    relay = _dot_rows(pi, per_level_source_entropy_bits(joint))
    return relay, receiver


def product_bounds(src: np.ndarray, rows: np.ndarray, pi: np.ndarray,
                   ch1: BinaryChannel, ch2: BinaryChannel,
                   penalty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(relay, receiver) bounds of the product schemes for a batch of policies.

    ``src`` holds B source laws, shape (B, 2); ``rows`` the per-level relay
    laws, shape (B, L, 2); ``pi`` the steady states, shape (B, L). The relay
    bound is I(source; first-hop output). The receiver bound averages the
    per-level second-hop information and pays ``penalty``, the entropy of
    the charge given each source symbol, which the relay cannot predict.
    Both come back with shape (B,), each row computed on its own. The
    first-hop output law and the per-level second-hop ones share one binary
    entropy call; the per-level terms are ``per_level_receiver_bits``'s.
    """
    h = _h2(np.concatenate([_output_zero(src, ch1)[:, None], _output_zero(rows, ch2)], axis=1))
    relay = np.maximum(h[:, 0] - _dot_rows(src, ch1.noise_bits), 0.0)
    levels = np.maximum(h[:, 1:] - _noise_given_input(rows, ch2), 0.0)
    receiver = _dot_rows(pi, levels) - _dot_rows(src, penalty)
    return relay, receiver


def loss_penalty_bits(arrival: ArrivalModel, spec: BatterySpec) -> np.ndarray:
    """H(extracted energy | source symbol) for each source symbol, in bits."""
    profile = energy_profile(arrival, spec)
    return np.array([_entropy_bits(row / row.sum()) for row in profile])


def _charge_law(model: Model, ch1: Optional[BinaryChannel],
                loss: Optional[tuple[Pmf, Pmf]]) -> ArrivalModel:
    """The per-slot charge law of a per-level model.

    Second-hop charges noiselessly, both-hops through the first hop, and
    random-loss through the first hop and the per-symbol loss laws. Needs no
    second hop, so the Monte Carlo commands can drive a chain without one.
    No timing model gets here: its callers route it away or refuse it first.
    """
    model = Model(model)
    if model is Model.SECOND_HOP:
        return ArrivalModel.deterministic()
    if ch1 is None:
        raise ValidationError(f"the {model.value} scheme needs the first-hop channel")
    if model is Model.BOTH_HOPS:
        return ArrivalModel.first_hop(ch1)
    if loss is None:
        raise ValidationError("the random-loss scheme needs the loss laws")
    return ArrivalModel.lossy(ch1, loss[0], loss[1])


@dataclass(frozen=True)
class _Scheme:
    """A per-level model with everything its rate needs besides the policy.

    ``cells`` is the ``_tensor_cells`` of the charge law's transition tensor
    on ``spec``, read-only and built once for every policy the scheme rates:
    the layout every kernel is built from. ``penalty`` is the receiver's
    charge entropy given each source symbol; the second-hop scheme, whose
    charge is the source symbol, has none.
    """

    model: Model
    spec: BatterySpec
    ch1: Optional[BinaryChannel]
    ch2: BinaryChannel
    cells: np.ndarray
    penalty: Optional[np.ndarray]


def _scheme(model: Model, spec: BatterySpec, ch1: Optional[BinaryChannel] = None,
            ch2: Optional[BinaryChannel] = None,
            loss: Optional[tuple[Pmf, Pmf]] = None) -> _Scheme:
    """Check a per-level model's requirements and bind its charge law and penalty.

    Second-hop needs ``ch2``. Both-hops and random-loss need both channels
    and capacity >= cost, and random-loss also the pair of per-symbol loss
    laws. Every model needs a second hop whose output depends on its input.
    """
    model = Model(model)
    arrival = _charge_law(model, ch1, loss)
    if ch2 is None:
        raise ValidationError(f"the {model.value} scheme needs the second-hop channel")
    if model is not Model.SECOND_HOP and spec.capacity < spec.cost:
        raise ConstraintError(f"{model.value} scheme assumes capacity >= cost")
    require_informative_second_hop(ch2)
    if model is Model.SECOND_HOP:
        penalty = None
    elif model is Model.BOTH_HOPS:
        penalty = ch1.noise_bits
    else:
        penalty = loss_penalty_bits(arrival, spec)
    cells = _tensor_cells(transition_tensor(spec, arrival))
    return _Scheme(model, spec, ch1, ch2, cells, penalty)


def _policy_rate(scheme: _Scheme, policy: StatePolicy) -> RateBreakdown:
    """A scheme's rate at one policy: the batched bounds at B=1.

    The policy was checked where it entered (strict constructor,
    ``second_hop_rate`` or ``feasibility_check``), so its kernel is valid;
    the strict ``_steady_state`` still requires a regular chain. A
    second-hop policy is joint, the others are product policies.
    """
    kernel = _kernels(policy.tensor(), scheme.cells)
    pi = _steady_state(kernel)[0].probs[None]
    if scheme.model is Model.SECOND_HOP:
        relay, receiver = second_hop_bounds(policy.tensor()[None], pi, scheme.ch2)
    else:
        rows = np.stack([policy.x2_row(u) for u in range(scheme.spec.states)])
        relay, receiver = product_bounds(policy.x1.probs[None], rows[None], pi,
                                         scheme.ch1, scheme.ch2, scheme.penalty)
    return RateBreakdown.from_bounds(float(relay[0]), float(receiver[0]))


def second_hop_rate(spec: BatterySpec, policy: StatePolicy, ch2: BinaryChannel) -> RateBreakdown:
    """Rate of the joint per-level scheme when only the second hop is noisy.

    The bounds are those of ``second_hop_bounds`` at this one policy.
    """
    if policy.mode != "joint":
        raise ValidationError("second-hop rate expects a joint per-level policy")
    scheme = _scheme(Model.SECOND_HOP, spec, ch2=ch2)
    _require_policy(spec, policy)
    return _policy_rate(scheme, policy)


def both_hops_rate(spec: BatterySpec, p_x1, x2_rows, ch1: BinaryChannel,
                   ch2: BinaryChannel) -> RateBreakdown:
    """Rate of the product scheme when both hops are noisy.

    Charging happens through the first hop, so the receiver bound pays for
    the charge entropy the relay's own observations inject, H(first-hop
    output | source symbol).
    """
    scheme = _scheme(Model.BOTH_HOPS, spec, ch1, ch2)
    return _policy_rate(scheme, StatePolicy.product_policy(spec, p_x1, x2_rows))


def random_loss_rate(spec: BatterySpec, p_x1, x2_rows, ch1: BinaryChannel,
                     ch2: BinaryChannel, loss_given_zero: Pmf,
                     loss_given_one: Pmf) -> RateBreakdown:
    """Both hops noisy plus random energy loss on each charged symbol.

    The loss laws give the energy extracted from a received 0 and a received
    1 over {0, ..., cost-1}; the receiver bound pays H(extracted energy |
    source symbol) instead of the full first-hop output entropy.
    """
    scheme = _scheme(Model.RANDOM_LOSS, spec, ch1, ch2, (loss_given_zero, loss_given_one))
    return _policy_rate(scheme, StatePolicy.product_policy(spec, p_x1, x2_rows))


# Violations are compared against the floor with a tiny absolute slack so a
# probability constructed to sit exactly on the floor is not rejected for a
# final rounding ulp.
_FLOOR_SLACK = 1e-15


def feasibility_check(policy: StatePolicy, model: Model, spec: BatterySpec | None = None,
                      eps_pos: float = 1e-6) -> list[str]:
    """List every way a policy violates the conditions of a rate expression.

    Empty list means feasible. Checked: no spending below the cost threshold,
    and the positivity floor ``eps_pos`` on the entries each model requires
    interior (joint cells at funded levels and source marginals at unfunded
    ones for second-hop; product entries at funded levels for both-hops and
    random-loss, whose steady-state existence is instance-dependent and is
    checked when the rate is evaluated).
    """
    if spec is None:
        spec = policy.spec
    elif policy.spec != spec:
        return ["policy was built for a different battery geometry"]
    model = Model(model)
    if model is Model.TIMING:
        raise ValidationError("the timing scheme has no per-level policy to check")
    violations = [f"spending below cost at level {u}" for u in _underfunded_levels(policy)]
    joint = model is Model.SECOND_HOP
    if policy.mode != ("joint" if joint else "product"):
        violations.append("second-hop scheme requires a joint per-level policy" if joint
                          else "this scheme requires a product policy")
        return violations
    floor = eps_pos - _FLOOR_SLACK
    for u in range(spec.states):
        if u >= spec.cost:
            table = policy.joint_table(u)
            violations += [f"zero element at level {u} (source {x1}, relay {x2})"
                           for x1 in (0, 1) for x2 in (0, 1) if table[x1, x2] < floor]
        elif joint:
            row = policy.x1_row(u)
            violations += [f"source symbol {x1} below the positivity floor at level {u}"
                           for x1 in (0, 1) if row[x1] < floor]
    return violations


def uniform_policy(model: Model, spec: BatterySpec) -> StatePolicy:
    """The fully symmetric interior policy, handy as an optimization floor."""
    model = Model(model)
    if model is Model.SECOND_HOP:
        tables = [[[0.5, 0.0], [0.5, 0.0]] if u < spec.cost else [[0.25, 0.25], [0.25, 0.25]]
                  for u in range(spec.states)]
        return StatePolicy.joint_policy(spec, tables)
    if model is Model.TIMING:
        raise ValidationError("the timing scheme has no per-level policy")
    rows = [[1.0, 0.0] if u < spec.cost else [0.5, 0.5] for u in range(spec.states)]
    return StatePolicy.product_policy(spec, [0.5, 0.5], rows)
