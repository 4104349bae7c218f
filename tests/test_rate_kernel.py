"""The batched rate kernel shared by the public rate functions and the
optimizer: a policy's value must not depend on the batch it is scored in,
must match the public rate at the decoded policy, and a singular kernel in a
stack must cost only its own row."""

import importlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ehrelay import (
    ArrivalModel,
    BatterySpec,
    BinaryChannel,
    Model,
    OptimizeOptions,
    Pmf,
    binary_entropy,
    optimize,
    per_level_receiver_bits,
    per_level_source_entropy_bits,
    second_hop_bounds,
)
from ehrelay.battery import transition_tensor
from ehrelay.pmf import _h2
from ehrelay.rates import _scheme
from conftest import random_joint_tables

# The package attribute ``ehrelay.optimize`` is the function, not the module.
opt = importlib.import_module("ehrelay.optimize")

EPS = OptimizeOptions().eps_pos


@st.composite
def problems(draw):
    """A search problem of any batched model on a random battery and channels."""
    model = draw(st.sampled_from([Model.SECOND_HOP, Model.BOTH_HOPS, Model.RANDOM_LOSS]))
    cost = draw(st.integers(2, 6))
    low = 2 if model is Model.SECOND_HOP else max(cost, 2)
    spec = BatterySpec(capacity=draw(st.integers(low, 8)), cost=cost)
    q = st.floats(0.02, 0.98)
    ch1 = BinaryChannel(draw(q), draw(q))
    ch2 = BinaryChannel(draw(q), draw(q))
    assume(abs(ch2.q1 + ch2.q2 - 1.0) > 1e-6)
    loss = None
    if model is Model.RANDOM_LOSS:
        weights = [draw(st.integers(1, 99)) for _ in range(2 * cost)]
        loss = tuple(Pmf(np.array(w) / sum(w)) for w in (weights[:cost], weights[cost:]))
    scheme = _scheme(model, spec, ch1, ch2, loss)
    if model is Model.SECOND_HOP:
        return opt._SecondHopProblem(scheme, EPS)
    return opt._ProductProblem(scheme, EPS)


def _thetas(problem, seed: int, faces: bool = True) -> np.ndarray:
    """1-16 random cube points; with ``faces``, a fifth of the coordinates
    sit on 0 or 1, where decoding puts probabilities on the floor."""
    rng = np.random.default_rng(seed)
    thetas = rng.random((int(rng.integers(1, 17)), problem.dims))
    if faces:
        on_face = rng.random(thetas.shape) < 0.2
        thetas[on_face] = rng.integers(0, 2, size=int(on_face.sum()))
    return thetas


class TestBatchedKernel:
    @settings(max_examples=80, deadline=None)
    @given(problems(), st.integers(0, 2**32 - 1))
    def test_row_value_does_not_depend_on_its_batch(self, problem, seed):
        thetas = _thetas(problem, seed)
        batched = problem.values(thetas)
        for k in range(len(thetas)):
            assert batched[k] == problem.values(thetas[k:k + 1])[0]

    @settings(max_examples=80, deadline=None)
    @given(problems(), st.integers(0, 2**32 - 1))
    def test_matches_the_public_rate_at_the_decoded_policy(self, problem, seed):
        # Interior points only: on the faces a floor-level probability makes
        # the chain ill-conditioned, and the last-ulp renormalization that
        # the public policy types apply to the decoded tables moves the
        # steady state by up to ~1e-12 there. That gap is the conditioning
        # of the instance, not a difference between the two formulas.
        thetas = _thetas(problem, seed, faces=False)
        batched = problem.values(thetas)
        assert np.isfinite(batched).all()
        for theta, value in zip(thetas, batched):
            breakdown, _ = problem.finalize(theta)
            assert abs(breakdown.rate - value) <= 1e-12

    def test_h2_equals_binary_entropy(self):
        tiny = np.finfo(float).smallest_subnormal
        grid = np.concatenate([
            np.linspace(0.0, 1.0, 100_001),
            [0.0, 1.0, tiny, 2.0 * tiny, 1e-310, np.finfo(float).tiny,
             1e-300, 1e-17, 1.0 - 1e-16, np.nextafter(1.0, 0.0)],
        ])
        assert np.array_equal(_h2(grid), binary_entropy(grid))
        for p in grid[-10:]:
            assert float(_h2(p)) == binary_entropy(float(p))

    def test_per_level_helpers_take_batch_axes(self):
        rng = np.random.default_rng(3)
        spec = BatterySpec(capacity=5, cost=2)
        ch2 = BinaryChannel(0.9, 0.8)
        joint = np.stack([np.array(random_joint_tables(spec, rng)) for _ in range(6)])
        x2_rows = joint.sum(axis=-2)
        stacked_h = per_level_source_entropy_bits(joint)
        stacked_i = per_level_receiver_bits(x2_rows, ch2)
        assert stacked_h.shape == stacked_i.shape == (6, spec.states)
        for k in range(6):
            assert np.array_equal(stacked_h[k], per_level_source_entropy_bits(joint[k]))
            assert np.array_equal(stacked_i[k], per_level_receiver_bits(x2_rows[k], ch2))


class TestSingularRows:
    def test_decomposable_kernel_scores_minus_inf_on_its_row_only(self):
        spec = BatterySpec(capacity=2, cost=2)
        ch2 = BinaryChannel(0.9, 0.9)
        tensor = transition_tensor(spec, ArrivalModel.deterministic())
        rng = np.random.default_rng(11)
        joint = np.stack([np.array(random_joint_tables(spec, rng)) for _ in range(5)])
        # Level 0 never charges, levels 1 and 2 swap forever: two closed
        # classes, {0} and {1, 2}, so the balance equations are singular.
        joint[2] = [[[1.0, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [1.0, 0.0]],
                    [[0.0, 0.0], [0.0, 1.0]]]
        kernel = np.einsum("nuab,uabv->nuv", joint, tensor)
        a = np.swapaxes(kernel, -1, -2) - np.eye(spec.states)
        a[..., -1, :] = 1.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, np.ones(a.shape[:-1] + (1,)))

        pi, ok = opt._chain_values(joint, tensor)
        scores = opt._scores(ok, *second_hop_bounds(joint, pi, ch2))
        assert ok.tolist() == [True, True, False, True, True]
        assert scores[2] == -np.inf
        for k in (0, 1, 3, 4):
            pi1, ok1 = opt._chain_values(joint[k:k + 1], tensor)
            assert ok1[0] and np.array_equal(pi[k], pi1[0])
            assert scores[k] == opt._scores(ok1, *second_hop_bounds(joint[k:k + 1], pi1, ch2))[0]


class TestChunking:
    @pytest.mark.parametrize("chunk", [1, 7])
    def test_results_do_not_depend_on_the_chunk_size(self, monkeypatch, chunk):
        spec = BatterySpec(capacity=3, cost=2)
        kw = dict(ch1=BinaryChannel(0.95, 0.95), ch2=BinaryChannel(0.9, 0.9),
                  opts=OptimizeOptions(grid_points=5, grid_budget=300,
                                       refine_iters=20, restarts=3, seed=2))
        reference = optimize(Model.BOTH_HOPS, spec, **kw)
        monkeypatch.setattr(opt, "_CHUNK", chunk)
        again = optimize(Model.BOTH_HOPS, spec, **kw)
        assert again.theta == reference.theta
        assert again.policy_digest == reference.policy_digest
        assert again.evaluations == reference.evaluations
