import math
import re
import time
import warnings
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auquat import augmented as aug
from auquat import quaternion as qt
from auquat import optimization as opt
from auquat.errors import InfeasibleInit
from auquat.generation import NoiseModel, gen_handeye, gen_handeye_world, gen_posegraph
from auquat.tolerances import ALGEBRA_ATOL

RNG = np.random.default_rng(31415)


def _rand_auq(n=None, rng=RNG):
    return aug.random_auq(rng, n)


def _fd_gradient(problem, x, h=1e-6):
    flat = np.asarray(x, dtype=float).ravel().copy()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (
            opt.objective(problem, up.reshape(-1, 7)) - opt.objective(problem, down.reshape(-1, 7))
        ) / (2 * h)
    return grad


# ---------------------------------------------------------------------------
# residuals


def test_residual_handeye_trivial_and_exact():
    a = _rand_auq()
    np.testing.assert_allclose(
        opt.residual_handeye(aug.IDENTITY, a, a), np.zeros(7), atol=ALGEBRA_ATOL
    )
    problem, x_true = gen_handeye(m=6, seed=0)
    z = opt.residuals(problem, x_true[None])
    np.testing.assert_allclose(z, np.zeros_like(z), atol=ALGEBRA_ATOL)
    mismatched = opt.residual_handeye(_rand_auq(), problem.a[0], problem.b[1])
    assert aug.sigma_magnitude(mismatched) > 0


def test_residual_world_trivial_exact_and_continuous():
    a = _rand_auq()
    np.testing.assert_allclose(
        opt.residual_handeye_world(aug.IDENTITY, aug.IDENTITY, a, a), np.zeros(7), atol=0
    )
    problem, x_true, y_true = gen_handeye_world(m=5, seed=1)
    z = opt.residuals(problem, np.stack([x_true, y_true]))
    np.testing.assert_allclose(z, np.zeros_like(z), atol=ALGEBRA_ATOL)
    # residual grows continuously with a perturbation of y
    sizes = []
    for eps in (1e-6, 1e-4, 1e-2):
        y = y_true.copy()
        y[4] += eps
        z = opt.residual_handeye_world(x_true, y, problem.a[0], problem.b[0])
        sizes.append(aug.sigma_magnitude(z))
    assert 0 < sizes[0] < sizes[1] < sizes[2]
    np.testing.assert_allclose(sizes, [s * 1.0 for s in (1e-6, 1e-4, 1e-2)], rtol=1e-3)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0), st.floats(0.5, 2.0))
def test_handeye_kernels_match_the_compose_form(m, seed, log_scale, q_norm):
    """Both hand-eye kernels, and the exported residual functions that
    evaluate through them, give (a o x) - (x o b) and (a o x) - (y o b) to
    1e-14 relative to the magnitudes of the composed poses, at translations
    of 1e-3 to 1e3 and at a non-unit quaternion in x."""
    rng = np.random.default_rng(seed)

    def poses(n):
        t = 10.0**log_scale * rng.uniform(-1.0, 1.0, (n, 3))
        return np.concatenate([qt.random_unit(rng, n), t], axis=-1)

    a, b = poses(m), poses(m)
    x, y = poses(2)
    x[:4] *= q_norm
    handeye = opt.HandEyeProblem(a=a, b=b)
    world = opt.HandEyeWorldProblem(a=a, b=b)
    cases = [
        (handeye.residuals(x[None]), aug.compose(a, x), aug.compose(x, b)),
        (world.residuals(np.stack([x, y])), aug.compose(a, x), aug.compose(y, b)),
        (opt.residual_handeye(x, a, b), aug.compose(a, x), aug.compose(x, b)),
        (opt.residual_handeye_world(x, y, a[0], b[0]), aug.compose(a[0], x), aug.compose(y, b[0])),
    ]
    for z, left, right in cases:
        assert z.shape == left.shape
        size = np.linalg.norm(left, axis=-1) + np.linalg.norm(right, axis=-1)
        assert np.all(np.linalg.norm(z - (left - right), axis=-1) <= 1e-14 * size)


def test_residual_slam_trivial_exact_and_gauge_invariant():
    x = _rand_auq()
    np.testing.assert_allclose(opt.residual_slam(x, x, aug.IDENTITY), np.zeros(7), atol=ALGEBRA_ATOL)
    problem, x_true = gen_posegraph(n=8, loop_edges=6, seed=2)
    z = opt.residuals(problem, x_true)
    np.testing.assert_allclose(z, np.zeros_like(z), atol=ALGEBRA_ATOL)
    # left gauge shift leaves every residual unchanged
    xi, xj, y = _rand_auq(), _rand_auq(), _rand_auq()
    g = _rand_auq()
    np.testing.assert_allclose(
        opt.residual_slam(aug.compose(g, xi), aug.compose(g, xj), y),
        opt.residual_slam(xi, xj, y),
        atol=ALGEBRA_ATOL,
    )


def test_posegraph_residuals_follow_the_composition_law():
    """The w-form residuals [w, t_j - R(w)^T t_i] - y, w = q_i* q_j, of the
    problem and of residual_slam equal (x_i^-1 o x_j) - y on random poses."""
    rng = np.random.default_rng(35)
    problem = opt.PoseGraphProblem(edges=[[0, 1], [2, 1], [1, 3], [3, 0], [2, 3]],
                                   measurements=_rand_auq(5, rng=rng))
    for _ in range(20):
        x = _rand_auq(4, rng=rng)
        xi, xj, y = x[problem.edges[:, 0]], x[problem.edges[:, 1]], problem.measurements
        law = aug.compose(aug.auq_inverse(xi), xj) - y
        np.testing.assert_allclose(problem.residuals(x), law, rtol=0, atol=ALGEBRA_ATOL)
        np.testing.assert_allclose(opt.residual_slam(xi, xj, y), law, rtol=0, atol=ALGEBRA_ATOL)
        np.testing.assert_allclose(opt.residual_slam(xi[0], xj[0], y[0]), law[0],
                                   rtol=0, atol=ALGEBRA_ATOL)


def test_objective_values_and_sigma_weighting():
    problem, x_true = gen_handeye(m=4, seed=3)
    assert opt.objective(problem, x_true[None]) <= 1e-28
    # hand-computed single-pair case
    a = _rand_auq()
    b = _rand_auq()
    x = _rand_auq()
    single = opt.HandEyeProblem(a=a[None], b=b[None], sigma=2.0)
    z = opt.residual_handeye(x, a, b)
    direct = 0.5 * (np.sum(z[:4] ** 2) + 2.0 * np.sum(z[4:] ** 2))
    assert opt.objective(single, x[None]) == pytest.approx(direct, rel=1e-14)
    # doubling sigma scales only the translation contribution
    s1 = opt.HandEyeProblem(a=a[None], b=b[None], sigma=1.0)
    s2 = opt.HandEyeProblem(a=a[None], b=b[None], sigma=2.0)
    diff = opt.objective(s2, x[None]) - opt.objective(s1, x[None])
    assert diff == pytest.approx(0.5 * np.sum(z[4:] ** 2), rel=1e-12)


def test_slam_objective_gauge_invariance():
    problem, x_true = gen_posegraph(n=6, loop_edges=5, seed=4)
    x = _rand_auq(6)
    g = _rand_auq()
    shifted = aug.compose(g, x)
    assert abs(opt.objective(problem, x) - opt.objective(problem, shifted)) <= 1e-10


# ---------------------------------------------------------------------------
# gradients


@pytest.mark.parametrize("kind", ["handeye", "world", "slam"])
def test_gradient_matches_finite_differences(kind):
    if kind == "handeye":
        problem, _ = gen_handeye(m=5, seed=5, sigma=0.8)
        n = 1
    elif kind == "world":
        problem, _, _ = gen_handeye_world(m=5, seed=6, sigma=1.2)
        n = 2
    else:
        problem, _ = gen_posegraph(n=5, loop_edges=4, seed=7, sigma=0.6)
        n = 5
    for _ in range(5):
        x = _rand_auq(n)
        analytic = opt.gradient(problem, x)
        numeric = _fd_gradient(problem, x)
        assert np.linalg.norm(analytic - numeric) <= 1e-6 * np.linalg.norm(numeric)


@pytest.mark.parametrize("kind", ["handeye", "world", "slam"])
def test_linearize_jacobian_matches_finite_differences(kind):
    """Every column of the kernel's Jacobian against central differences of
    the kernel's residuals, at random feasible points."""
    if kind == "handeye":
        problem, _ = gen_handeye(m=5, seed=19, sigma=0.8)
    elif kind == "world":
        problem, _, _ = gen_handeye_world(m=5, seed=20, sigma=1.2)
    else:
        problem, _ = gen_posegraph(n=6, loop_edges=4, seed=21, sigma=0.6)
    rng = np.random.default_rng(22)
    h = 1e-6
    for _ in range(3):
        x = _rand_auq(problem.n_blocks, rng=rng)
        cols, jac = problem.linearize(x)
        m, s = cols.shape
        assert jac.shape == (m, s, 7, 7)
        for b in range(problem.n_blocks):
            for j in range(7):
                up, down = x.copy(), x.copy()
                up[b, j] += h
                down[b, j] -= h
                numeric = (problem.residuals(up) - problem.residuals(down)) / (2 * h)
                analytic = np.einsum("ms,msi->mi", cols == b, jac[..., j])
                assert np.linalg.norm(analytic - numeric) <= 1e-6 * np.linalg.norm(numeric)


_UNIT_QUATERNION = st.tuples(*[st.floats(-1, 1)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1)
_POSE = st.tuples(_UNIT_QUATERNION, st.tuples(*[st.floats(-10, 10)] * 3))


@settings(max_examples=60, deadline=None)
@given(_POSE, _POSE)
def test_posegraph_ambient_jacobian_is_tangent_blocks_plus_euler_term(pose_i, pose_j):
    """Each pose-graph residual is homogeneous in each quaternion block p,
    of degree 1 in its rotation and 2 in its translation, so its ambient
    Jacobian is J_tan B^T + r p^T for the tangent blocks J_tan in the basis
    B = L(p)[:, 1:] and r = [w, -2 R(w)^T t_i], read off x_i^-1 o x_j =
    [w, t_j - R(w)^T t_i].  The ambient side is central differences, exact
    but for rounding: each residual is quadratic in any one coordinate."""
    xi, xj = (aug.auq(np.array(q) / np.linalg.norm(q), t) for q, t in (pose_i, pose_j))
    y = _rand_auq(rng=np.random.default_rng(36))
    composed = aug.compose(aug.auq_inverse(xi), xj)
    r = np.concatenate([composed[:4], -2.0 * (xj[4:] - composed[4:])])
    tangent = opt._slam_blocks(xi[4:], *opt._slam_kernel(xi, xj))
    h = 1e-3
    for block, x in enumerate((xi, xj)):
        jac = np.hstack([tangent[block, :, :3] @ qt.left_matrix(x[:4])[:, 1:].T
                         + np.outer(r, x[:4]), tangent[block, :, 3:]])
        for c in range(7):
            up, down = x.copy(), x.copy()
            up[c] += h
            down[c] -= h
            args_up, args_down = ((up, xj), (down, xj)) if block == 0 else ((xi, up), (xi, down))
            numeric = (opt.residual_slam(*args_up, y) - opt.residual_slam(*args_down, y)) / (2 * h)
            np.testing.assert_allclose(jac[:, c], numeric, rtol=0, atol=1e-8)


def test_gradient_zero_at_noise_free_truth():
    problem, x_true = gen_handeye(m=5, seed=8)
    assert np.linalg.norm(opt.gradient(problem, x_true[None])) <= 1e-10


def test_translation_block_gradient():
    problem, _ = gen_handeye(m=4, seed=9)
    x = _rand_auq(1)
    analytic = opt.gradient(problem, x).reshape(1, 7)[:, 4:]
    h = 1e-6
    numeric = np.zeros(3)
    for i in range(3):
        up, down = x.copy(), x.copy()
        up[0, 4 + i] += h
        down[0, 4 + i] -= h
        numeric[i] = (opt.objective(problem, up) - opt.objective(problem, down)) / (2 * h)
    np.testing.assert_allclose(analytic[0], numeric, rtol=1e-6)


# ---------------------------------------------------------------------------
# pose error metric


def test_pose_error_cases():
    x = _rand_auq()
    assert opt.pose_error(x, x) == (0.0, 0.0)
    flipped = x.copy()
    flipped[:4] *= -1.0
    rot, trans = opt.pose_error(flipped, x)
    assert rot == 0.0 and trans == 0.0
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    quarter_turn = np.array([c, 0.0, 0.0, s, 1.0, 2.0, 3.0])
    base = np.array([1.0, 0, 0, 0, 1.0, 2.0, 3.0])
    rot, trans = opt.pose_error(quarter_turn, base)
    assert rot == pytest.approx(np.pi / 2, rel=1e-12)
    assert trans == 0.0


def test_pose_error_of_equal_poses_is_exactly_zero():
    """Either quaternion sign of the same pose reads rotation 0 exactly."""
    x = _rand_auq(10_000, rng=np.random.default_rng(32))
    negated = x.copy()
    negated[:, :4] *= -1.0
    for other in (x, negated):
        rot, trans = opt.pose_error(other, x)
        np.testing.assert_array_equal(rot, 0.0)
        np.testing.assert_array_equal(trans, 0.0)


def test_pose_error_resolves_a_nanoradian():
    x = _rand_auq(1000, rng=np.random.default_rng(33))
    axes = qt.random_unit(np.random.default_rng(34), 1000)[:, 1:]
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    turned = x.copy()
    turned[:, :4] = qt.qmul(x[:, :4], qt.qexp(0.5e-9 * axes))
    rot, _ = opt.pose_error(turned, x)
    np.testing.assert_allclose(rot, 1e-9, rtol=1e-6, atol=0)


def test_pose_error_of_a_nan_quaternion_is_nan():
    rot, trans = opt.pose_error(np.array([np.nan] * 4 + [0.0] * 3), aug.identity())
    assert np.isnan(rot) and trans == 0.0


# ---------------------------------------------------------------------------
# solver behaviour


def test_solver_descent_without_refinement():
    problem, _ = gen_handeye(m=5, seed=10)
    cfg = opt.SolverConfig(max_iters=150, restarts=1, seed=0)
    x0 = aug.random_auq(np.random.default_rng(0), problem.n_blocks)
    f0 = opt.objective(problem, x0)
    record = opt._descend(problem, x0, cfg)
    assert record.objective < f0
    # feasibility maintained
    np.testing.assert_allclose(qt.qnorm(record.solution[:, :4]), 1.0, atol=1e-9)


def test_solver_trace_is_monotone():
    problem, _ = gen_handeye(m=5, seed=11)
    cfg = opt.SolverConfig(max_iters=100, restarts=1)
    x = aug.random_auq(np.random.default_rng(1), problem.n_blocks)
    values = [opt.objective(problem, x)]
    for _ in range(30):
        record = opt._descend(problem, x, opt.SolverConfig(max_iters=1, restarts=1))
        x = record.solution
        values.append(record.objective)
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_noisy_handeye_runs_gauss_newton_from_the_first_iteration(monkeypatch):
    """Each restart assembles its normal equations once at its start point
    and once per accepted step, never through `gradient`, and the restarts
    together need few iterations."""
    problem, _ = gen_handeye(m=20, seed=7, noise=NoiseModel(0.01, 0.01, 7))
    assembled, per_restart = [], []
    normal_equations, descend = problem.normal_equations, opt._descend

    def counted_descend(*args):
        start = len(assembled)
        record = descend(*args)
        per_restart.append(len(assembled) - start)
        return record

    monkeypatch.setattr(problem, "normal_equations",
                        lambda *a: assembled.append(1) or normal_equations(*a))
    monkeypatch.setattr(opt, "_descend", counted_descend)
    monkeypatch.setattr(opt, "gradient", lambda *a: pytest.fail("the solver called gradient"))
    result = opt.solve(problem, opt.SolverConfig(seed=0))
    assert per_restart == [r.iterations + 1 for r in result.restarts]
    assert sum(r.iterations for r in result.restarts) <= 150


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the residuals are not invariant under "
                   "the double cover, so a negated b quaternion leaves f = 2 at the true pose")
@pytest.mark.parametrize("m,seed", [(5, 11), (50, 12)])
def test_negated_b_quaternion_solves_to_the_truth(m, seed):
    """The benchmark's known-fault instances: noise-free pairs whose first b
    quaternion is negated, the same rotation.  Every restart stalls near
    the truth today; a solver change that lets them converge must ship
    with the benchmark change that stops counting them as faults."""
    problem, x_true = gen_handeye(m, seed=seed)
    b = problem.b.copy()
    b[0, :4] *= -1.0
    result = opt.solve(opt.HandEyeProblem(a=problem.a, b=b, sigma=problem.sigma))
    rot, trans = opt.pose_error(result.solution[0], x_true)
    assert result.status == opt.STATUS_CONVERGED
    assert rot <= 1e-6 and trans <= 1e-6


_FAMILIES = {
    "handeye": lambda: gen_handeye(5, seed=3, noise=NoiseModel(0.01, 0.01, 3))[0],
    "world": lambda: gen_handeye_world(5, seed=4, noise=NoiseModel(0.01, 0.01, 4))[0],
    "posegraph": lambda: gen_posegraph(10, 10, seed=5, noise=NoiseModel(0.01, 0.01, 5))[0],
}


@pytest.mark.parametrize("kind", sorted(_FAMILIES))
def test_reused_buffers_do_not_alias(kind):
    """A problem reuses its x-independent pieces and buffers across
    assemblies, yet what it returns stays the caller's: H and g at x1 are
    those of a fresh problem, byte for byte, after assemblies at x2, and a
    later `linearize` leaves an earlier result as it was."""
    problem = _FAMILIES[kind]()
    rng = np.random.default_rng(17)
    x1, x2 = (opt._retract(_rand_auq(problem.n_blocks, rng=rng)) for _ in range(2))
    x1[problem.gauge] = x2[problem.gauge] = aug.IDENTITY
    hessian1, grad1 = problem.normal_equations(x1, problem.residuals(x1))
    z2 = opt.residuals(problem, x2)
    problem.normal_equations(x2, z2)[0]()
    fresh = _FAMILIES[kind]()
    fresh_hessian, fresh_grad = fresh.normal_equations(x1, fresh.residuals(x1))
    assert hessian1().tobytes() == fresh_hessian().tobytes()
    assert grad1.tobytes() == fresh_grad.tobytes()

    cols1, jac1 = problem.linearize(x1)
    kept = cols1.copy(), jac1.copy()
    problem.linearize(x2)
    assert cols1.tobytes() == kept[0].tobytes() and jac1.tobytes() == kept[1].tobytes()


@pytest.mark.parametrize("kind", sorted(_FAMILIES))
def test_reused_buffers_do_not_alias_interleaved(kind):
    """`linearize` and the assembly of a hand-eye problem rewrite one buffer,
    so neither result may change under the other: a `linearize` result
    stays as it was after an assembly at x2, and H and g at x1 are those of
    a fresh problem, byte for byte, after `linearize` at x2."""
    problem = _FAMILIES[kind]()
    rng = np.random.default_rng(23)
    x1, x2 = (opt._retract(_rand_auq(problem.n_blocks, rng=rng)) for _ in range(2))
    x1[problem.gauge] = x2[problem.gauge] = aug.IDENTITY
    cols1, jac1 = problem.linearize(x1)
    kept = cols1.copy(), jac1.copy()
    problem.normal_equations(x2, problem.residuals(x2))[0]()
    assert cols1.tobytes() == kept[0].tobytes() and jac1.tobytes() == kept[1].tobytes()

    hessian1, grad1 = problem.normal_equations(x1, problem.residuals(x1))
    problem.linearize(x2)
    fresh = _FAMILIES[kind]()
    fresh_hessian, fresh_grad = fresh.normal_equations(x1, fresh.residuals(x1))
    assert hessian1().tobytes() == fresh_hessian().tobytes()
    assert grad1.tobytes() == fresh_grad.tobytes()


def test_recover_handeye():
    problem, x_true = gen_handeye(m=5, seed=12)
    result = opt.solve(problem, opt.SolverConfig(seed=0))
    rot, trans = opt.pose_error(result.solution[0], x_true)
    assert result.objective <= 1e-16
    assert rot <= 1e-6 and trans <= 1e-6
    assert result.status == opt.STATUS_CONVERGED


def test_recover_handeye_single_pair_feasible():
    problem, _ = gen_handeye(m=1, seed=13)
    result = opt.solve(problem, opt.SolverConfig(seed=0))
    assert result.objective <= 1e-16  # minimizer possibly non-unique


def test_recover_world():
    problem, x_true, y_true = gen_handeye_world(m=8, seed=14)
    result = opt.solve(problem, opt.SolverConfig(seed=0))
    for sol, truth in zip(result.solution, (x_true, y_true)):
        rot, trans = opt.pose_error(sol, truth)
        assert rot <= 1e-6 and trans <= 1e-6
    assert result.objective <= 1e-16


def test_recover_posegraph_anchored():
    problem, x_true = gen_posegraph(n=10, loop_edges=11, seed=15)
    result = opt.solve(problem, opt.SolverConfig(seed=0))
    assert result.objective <= 1e-16
    np.testing.assert_array_equal(result.solution[0], aug.IDENTITY)
    rot, trans = opt.pose_error(result.solution, x_true)
    assert rot.max() <= 1e-5 and trans.max() <= 1e-5


def test_solve_uses_and_validates_init():
    problem, x_true = gen_handeye(m=5, seed=16)
    result = opt.solve(problem, opt.SolverConfig(restarts=1, seed=0), init=x_true[None])
    assert result.objective <= 1e-20
    bad = x_true[None].copy()
    bad[0, :4] *= 1.5
    with pytest.raises(InfeasibleInit):
        opt.solve(problem, init=bad)
    with pytest.raises(InfeasibleInit):
        opt.solve(problem, init=np.zeros((3, 7)))


@pytest.mark.parametrize("block, value", [(0, np.nan), (5, np.inf), (6, np.nan)])
def test_nonfinite_init_is_infeasible(block, value):
    problem, x_true = gen_handeye(m=5, seed=16)
    bad = x_true[None].copy()
    bad[0, block] = value
    with pytest.raises(InfeasibleInit):
        opt.solve(problem, init=bad)


def test_nonfinite_objective_raises():
    # translations large enough to overflow the squared residuals, and at
    # 1e308 the residuals themselves
    from auquat.errors import NonFiniteObjective

    for t in (1e200, 1e308):
        a = np.array([[1.0, 0, 0, 0, t, 0, 0]])
        b = np.array([[1.0, 0, 0, 0, -t, 0, 0]])
        problem = opt.HandEyeProblem(a=a, b=b)
        with pytest.raises(NonFiniteObjective):
            opt.solve(problem, opt.SolverConfig(restarts=1), init=aug.IDENTITY[None])


def test_restart_records_and_early_stop():
    problem, _ = gen_handeye(m=5, seed=17)
    result = opt.solve(problem, opt.SolverConfig(seed=0, restarts=10))
    assert 1 <= len(result.restarts) <= 10
    assert min(r.objective for r in result.restarts) == result.objective
    # the result is the chosen restart's record plus the list of all of them
    assert isinstance(result, opt.RestartRecord)
    chosen = [r for r in result.restarts if r.solution is result.solution]
    assert len(chosen) == 1
    assert (chosen[0].objective, chosen[0].grad_norm, chosen[0].iterations, chosen[0].status) == (
        result.objective, result.grad_norm, result.iterations, result.status)
    # the first converged restart ends the solve
    assert chosen[0] is result.restarts[-1]


def test_no_converged_restart_returns_the_lowest_objective():
    problem, _ = gen_handeye(m=20, seed=7, noise=NoiseModel(0.01, 0.01, 7))
    result = opt.solve(problem, opt.SolverConfig(grad_tol=1e-30, restarts=3))
    assert len(result.restarts) == 3
    assert all(r.status != opt.STATUS_CONVERGED for r in result.restarts)
    assert result.status != opt.STATUS_CONVERGED
    assert result.objective == min(r.objective for r in result.restarts)
    assert sum(r.solution is result.solution for r in result.restarts) == 1


def test_problem_validation():
    with pytest.raises(ValueError):
        opt.HandEyeProblem(a=np.zeros((2, 7)), b=np.zeros((2, 7)))  # zero quaternions
    a = _rand_auq(2)
    with pytest.raises(ValueError):
        opt.HandEyeProblem(a=a, b=a, sigma=-1.0)
    with pytest.raises(ValueError):
        opt.PoseGraphProblem(
            edges=[[0, 0]], measurements=_rand_auq(1), sigma=1.0
        )  # self loop
    with pytest.raises(ValueError):
        opt.PoseGraphProblem(edges=[[0, 5]], measurements=_rand_auq(1))


def _identities(*shape):
    return np.tile(aug.IDENTITY, shape + (1,))


_REFUSALS = {
    "pair counts differ": (lambda: opt.HandEyeProblem(a=_identities(2), b=_identities(3)),
                           "a and b must hold the same number of poses"),
    "no pairs": (lambda: opt.HandEyeProblem(a=np.zeros((0, 7)), b=np.zeros((0, 7))),
                 "at least one measurement pair is required"),
    "stacked a": (lambda: opt.HandEyeProblem(a=_identities(2, 3), b=_identities(3)),
                  "a must have shape (m, 7), got (2, 3, 7)"),
    "hand-eye sigma nan": (lambda: opt.HandEyeProblem(_identities(1), _identities(1), np.nan),
                           "sigma must be positive and finite"),
    "edges (m, 3)": (lambda: opt.PoseGraphProblem(edges=[[0, 1, 2]], measurements=_identities(1)),
                     "edges must have shape (m, 2)"),
    "measurement count": (lambda: opt.PoseGraphProblem([[0, 1], [1, 2]], _identities(3)),
                          "one measurement per edge is required"),
    **{f"graph sigma {s}": (lambda s=s: opt.PoseGraphProblem([[0, 1]], _identities(1), s),
                            "sigma must be positive and finite") for s in (0.0, np.inf, np.nan)},
    "initial length": (lambda: opt.PoseGraphProblem([[0, 1]], _identities(1), 1.0, _identities(3)),
                       "initial guess must cover every vertex"),
    **{f"grad_tol {g}": (lambda g=g: opt.SolverConfig(grad_tol=g),
                         "grad_tol must be positive and finite") for g in (0.0, np.inf, np.nan)},
    # counts that `range` would refuse mid-solve
    **{f"{f} {v!r}": (lambda f=f, v=v: opt.SolverConfig(**{f: v}),
                      f"{f} must be an integer, got {v!r}")
       for f, v in [("max_iters", 2.5), ("restarts", 2.5), ("max_iters", np.nan),
                    ("restarts", "3")]},
}


@pytest.mark.parametrize("build, message", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_problems_and_config_refuse_invalid_input(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_config_accepts_numpy_integer_counts():
    config = opt.SolverConfig(max_iters=np.int64(3), restarts=np.int32(2))
    problem, _ = gen_handeye(5, seed=3)
    assert len(opt.solve(problem, config).restarts) <= 2


def _reference_component_labels(n, edges):
    """Lowest vertex of the weakly connected component of every vertex."""
    adj = [[] for _ in range(n)]
    for i, j in edges.tolist():
        adj[i].append(j)
        adj[j].append(i)
    labels = np.full(n, -1)
    for root in range(n):
        if labels[root] >= 0:
            continue
        labels[root] = root
        queue = deque([root])
        while queue:
            for k in adj[queue.popleft()]:
                if labels[k] < 0:
                    labels[k] = root
                    queue.append(k)
    return labels


def _reference_tree_guess(problem, gauge):
    """Measurements chained by one breadth-first search from all gauge vertices."""
    x = np.tile(aug.identity(), (problem.n, 1))
    adj = [[] for _ in range(problem.n)]
    for k, (i, j) in enumerate(problem.edges):
        adj[i].append((j, k, True))
        adj[j].append((i, k, False))
    seen = set(gauge.tolist())
    queue = deque(gauge.tolist())
    while queue:
        i = queue.popleft()
        for j, k, forward in adj[i]:
            if j in seen:
                continue
            y = problem.measurements[k]
            x[j] = aug.compose(x[i], y if forward else aug.auq_inverse(y))
            seen.add(j)
            queue.append(j)
    return x


def test_gauge_and_tree_match_a_reference_walk():
    """The construction walk gives the gauge, the spanning-tree guess and the
    disconnected-graph warning of separate component and tree searches, on
    random graphs with several components; a graph with a vertex that no
    edge measures is refused, and the refusal names the lowest such vertex."""
    rng = np.random.default_rng(41)
    kinds = Counter()
    for t in range(250):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(0, n + 3))
        edges = rng.integers(0, n, (m, 2))
        edges = edges[edges[:, 0] != edges[:, 1]].reshape(-1, 2)
        if t % 2:  # relabel the measured vertices 0, 1, ..., so that every one is in an edge
            edges = np.unique(edges, return_inverse=True)[1].reshape(-1, 2)
        measurements = _rand_auq(len(edges), rng=rng).reshape(-1, 7)
        unmeasured = sorted(set(range(edges.max(initial=-1) + 1)) - set(edges.ravel().tolist()))
        if not len(edges) or unmeasured:
            kinds["unmeasured" if unmeasured else "empty"] += 1
            message = f"vertex {unmeasured[0]} is in no" if unmeasured else "at least one edge"
            with pytest.raises(ValueError, match=message):
                opt.PoseGraphProblem(edges=edges, measurements=measurements)
            continue
        n = edges.max() + 1
        labels = _reference_component_labels(n, edges)
        roots = np.unique(labels[edges.ravel()])
        gauge = np.union1d(roots, [0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            problem = opt.PoseGraphProblem(edges=edges, measurements=measurements)
        connected = bool(np.all(labels == labels[0]))
        kinds["connected" if connected else "disconnected"] += 1
        assert problem.n == n
        assert [w.category for w in caught] == ([] if connected else [UserWarning])
        np.testing.assert_array_equal(problem.gauge, gauge)
        assert problem.initial_guess().tobytes() == _reference_tree_guess(problem, gauge).tobytes()
    # refused, connected and disconnected graphs are all exercised
    assert len(kinds) == 4 and min(kinds.values()) >= 20, kinds


def _reference_tree_depth(n, edges):
    """Largest breadth-first distance from a component's lowest vertex."""
    labels = _reference_component_labels(n, edges)
    adj = [[] for _ in range(n)]
    for i, j in edges.tolist():
        adj[i].append(j)
        adj[j].append(i)
    dist = np.where(labels == np.arange(n), 0, -1)
    queue = deque(np.flatnonzero(dist == 0).tolist())
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if dist[j] < 0:
                dist[j] = dist[i] + 1
                queue.append(j)
    return int(dist.max())


def _graph_at_scale(kind):
    if kind == "random":
        return gen_posegraph(n=200, loop_edges=200, seed=29)[0]
    chain = gen_posegraph(n=300, loop_edges=0, seed=30)[0]
    if kind == "chain":
        return chain
    if kind == "reversed chain":  # every tree arc points from the child to its parent
        return opt.PoseGraphProblem(edges=chain.edges[:, ::-1],
                                    measurements=aug.auq_inverse(chain.measurements))
    first, second = (gen_posegraph(n=n, loop_edges=n, seed=n)[0] for n in (120, 80))
    with pytest.warns(UserWarning, match="not weakly connected"):
        return opt.PoseGraphProblem(
            edges=np.concatenate([first.edges, second.edges + 120]),
            measurements=np.concatenate([first.measurements, second.measurements]),
        )


@pytest.mark.parametrize("kind", ["random", "chain", "reversed chain", "two components"])
def test_level_chaining_matches_a_reference_walk_at_scale(kind):
    problem = _graph_at_scale(kind)
    labels = _reference_component_labels(problem.n, problem.edges)
    gauge = np.unique(labels)
    np.testing.assert_array_equal(problem.gauge, gauge)
    assert problem.initial_guess().tobytes() == _reference_tree_guess(problem, gauge).tobytes()


def test_level_chaining_composes_once_per_tree_depth(monkeypatch):
    problem = _graph_at_scale("random")
    depth = _reference_tree_depth(problem.n, problem.edges)
    calls = []
    compose = aug.compose
    monkeypatch.setattr(aug, "compose", lambda x, y: calls.append(len(x)) or compose(x, y))
    problem.initial_guess()
    assert depth < problem.n - 1 and len(calls) <= depth, (depth, calls)
    assert sum(calls) == problem.n - 1  # every tree arc, each once


def test_disconnected_graph_warns():
    edges = np.array([[0, 1], [2, 3]])
    with pytest.warns(UserWarning):
        opt.PoseGraphProblem(edges=edges, measurements=_rand_auq(2))


def test_disconnected_graph_warning_names_the_caller():
    with pytest.warns(UserWarning) as record:
        opt.PoseGraphProblem(edges=np.array([[0, 1], [2, 3]]), measurements=_rand_auq(2))
    assert record[0].filename == __file__


def test_connected_graph_does_not_warn():
    problem, _ = gen_posegraph(n=4, loop_edges=2, seed=18)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        opt.PoseGraphProblem(
            edges=problem.edges, measurements=problem.measurements
        )


@pytest.mark.parametrize(
    "edges, message",
    [
        ([], "at least one edge"),
        (np.zeros((0, 2), dtype=int), "at least one edge"),
        ([[0, 1], [1, -1]], "nonnegative, got -1"),
        ([[0, 1.7]], "must be integers"),
        ([[0.0, 1.0]], "must be integers"),
        ([[0, 1], [1, 3]], "vertex 2 is in no EDGE record"),
        ([[1, 2], [3, 4]], "vertex 0 is in no EDGE record"),
        # a float index is refused as such, before the vertices are counted
        ([[0.0, 2.0]], "must be integers"),
    ],
)
def test_posegraph_refuses_an_unmeasured_or_invalid_vertex(edges, message):
    with pytest.raises(ValueError, match=message):
        opt.PoseGraphProblem(edges=edges, measurements=_rand_auq(len(edges)).reshape(-1, 7))


def test_posegraph_vertex_count_is_read_off_the_edges():
    problem = opt.PoseGraphProblem(edges=[[0, 1], [2, 0], [1, 2]], measurements=_rand_auq(3))
    assert (problem.n, problem.n_blocks) == (3, 3)
    with pytest.raises(TypeError):
        opt.PoseGraphProblem(n=3, edges=problem.edges, measurements=problem.measurements)


def test_posegraph_refuses_a_huge_index_without_sizing_by_it():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="vertex 2 is in no EDGE record"):
        opt.PoseGraphProblem(edges=[[0, 1], [1, 3_000_000]], measurements=_rand_auq(2))
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# Gauss-Newton step


@settings(max_examples=200, deadline=None)
@given(_UNIT_QUATERNION, st.tuples(*[st.floats(-10, 10, allow_subnormal=False)] * 3))
@example((-1.0, 0.0, 0.0, 0.0), (1.0, -2.0, 3.0))
@example((-1.0, 1e-9, -1e-9, 1e-9), (0.5, 0.25, -4.0))
@example((-0.5, 0.5, -0.5, 0.5), (0.0, 0.0, 0.0))
def test_tangent_bases_are_right_perturbations(q, delta):
    """At unit p, p_0 < 0 and p near -1 included, the tangent bases B are
    orthonormal and orthogonal to p, and B delta is the right perturbation
    p [0, delta]."""
    p, delta = np.array(q) / np.linalg.norm(q), np.array(delta)
    basis = opt._tangent_bases(p)
    np.testing.assert_allclose(basis.T @ basis, np.eye(3), rtol=0, atol=1e-15)
    np.testing.assert_allclose(p @ basis, 0.0, rtol=0, atol=1e-15)
    # math.hypot: np.linalg.norm squares first, so a tiny delta's norm underflows to 0
    np.testing.assert_allclose(basis @ delta, qt.qmul(p, qt.vector_quat(delta)),
                               rtol=0, atol=1e-14 * math.hypot(*delta))


def _lift(problem, x) -> np.ndarray:
    """The (7k, 6k) map from tangent coordinates of the free blocks to ambient
    ones, [[B, 0], [0, I]] per block for the tangent bases B, which are
    orthonormal and orthogonal to their quaternions: lift lift^T is the
    projection onto the tangent spaces."""
    free = opt._free_blocks(problem)
    k = len(free)
    lift = np.zeros((k, 7, k, 6))
    lift[np.arange(k), :4, np.arange(k), :3] = opt._tangent_bases(x[free, :4])
    lift[np.arange(k), 4:, np.arange(k), 3:] = np.eye(3)
    return lift.reshape(7 * k, 6 * k)


def _projected_jacobian(problem, x) -> np.ndarray:
    """The dense weighted (7m, 7k) ambient Jacobian of the free blocks from
    `linearize`, each block's columns projected onto its tangent space."""
    free = opt._free_blocks(problem)
    col_of = {int(b): c for c, b in enumerate(free)}
    sqrt_w = np.sqrt(opt._component_weights(problem))
    cols, jblocks = problem.linearize(x)
    jac = np.zeros((len(cols), 7, len(free), 7))
    for r in range(len(cols)):
        for b, jb in zip(cols[r], jblocks[r] * sqrt_w[:, None]):
            if int(b) in col_of:
                p = x[b, :4]
                jac[r, :, col_of[int(b)], :4] += jb[:, :4] @ (np.eye(4) - np.outer(p, p))
                jac[r, :, col_of[int(b)], 4:] += jb[:, 4:]
    return jac.reshape(7 * len(cols), 7 * len(free))


@pytest.mark.parametrize("kind", ["handeye", "world", "posegraph"])
def test_gauss_newton_step_matches_dense_lstsq(kind):
    """The step in ambient coordinates, which does not depend on the tangent
    bases, equals the minimum-norm least-squares step of the projected dense
    Jacobian, which spans the same columns."""
    rng = np.random.default_rng(7)
    if kind == "handeye":
        problem, x_true = gen_handeye(m=6, seed=3, sigma=0.5)
        x = x_true[None]
    elif kind == "world":
        problem, x_true, y_true = gen_handeye_world(m=6, seed=4, sigma=2.0)
        x = np.stack([x_true, y_true])
    else:
        problem, x = gen_posegraph(n=8, loop_edges=6, seed=5)
    x = opt._retract(x + 0.05 * rng.normal(size=x.shape))
    x[problem.gauge] = aug.IDENTITY
    z = problem.residuals(x)
    hessian, grad = problem.normal_equations(x, z)
    step = _lift(problem, x) @ opt._gauss_newton_step(hessian(), grad).ravel()
    sqrt_w = np.sqrt(opt._component_weights(problem))
    reference, *_ = np.linalg.lstsq(_projected_jacobian(problem, x), -(z * sqrt_w).ravel(),
                                    rcond=None)
    assert np.linalg.norm(step - reference) <= 1e-9 * np.linalg.norm(reference)


@pytest.mark.parametrize("kind", ["handeye", "world", "posegraph"])
def test_normal_equations_equal_the_per_residual_block_sum(kind):
    """H and g, lifted to ambient coordinates through the tangent bases, equal
    P J^T J P and P J^T z for the weighted ambient Jacobian J of `linearize`
    and the projection P onto the tangent spaces of the free blocks, summed
    here residual by residual."""
    rng = np.random.default_rng(8)
    if kind == "handeye":
        problem, _ = gen_handeye(m=7, seed=9, sigma=0.7, noise=NoiseModel(0.1, 0.1, 9))
    elif kind == "world":
        problem, *_ = gen_handeye_world(m=7, seed=10, sigma=1.6, noise=NoiseModel(0.1, 0.1, 10))
    else:
        problem, _ = gen_posegraph(n=7, loop_edges=5, seed=11, sigma=0.6)
    x = opt._retract(_rand_auq(problem.n_blocks, rng=rng))
    x[problem.gauge] = aug.IDENTITY
    z = problem.residuals(x)
    hessian, grad = problem.normal_equations(x, z)
    lift = _lift(problem, x)
    jac = _projected_jacobian(problem, x).reshape(len(z), 7, -1)
    zw = z * np.sqrt(opt._component_weights(problem))
    hess_ref, grad_ref = np.zeros((jac.shape[-1],) * 2), np.zeros(jac.shape[-1])
    for jr, zr in zip(jac, zw):
        grad_ref += jr.T @ zr
        hess_ref += jr.T @ jr
    lifted_hess = lift @ hessian() @ lift.T
    assert np.linalg.norm(lifted_hess - hess_ref) <= 1e-12 * np.linalg.norm(hess_ref)
    assert np.linalg.norm(lift @ grad.ravel() - grad_ref) <= 1e-12 * np.linalg.norm(grad_ref)


def test_a_converged_start_never_assembles_the_normal_matrix(monkeypatch):
    """A clean pose graph's spanning-tree start meets grad_tol, so its solve
    forms g and stops; H, needed only for a step, is never built."""
    problem, _ = gen_posegraph(25, 25, 22)
    monkeypatch.setattr(opt, "_hessian", lambda *a: pytest.fail("H was assembled"))
    result = opt.solve(problem, opt.SolverConfig(max_iters=0))
    assert (result.iterations, result.status) == (0, opt.STATUS_CONVERGED)


@pytest.mark.parametrize("kind", ["handeye", "world", "slam"])
def test_stopping_gradient_is_the_projected_gradient(kind):
    """g of the normal equations is the public ambient gradient written in
    the tangent bases B of the free blocks, component by component: B^T
    grad_q f in the rotation rows and grad_t f in the translation rows.  B
    is orthonormal, so |g| is the norm of the projected gradient."""
    if kind == "handeye":
        problem, _ = gen_handeye(m=5, seed=24, sigma=0.8)
    elif kind == "world":
        problem, _, _ = gen_handeye_world(m=5, seed=25, sigma=1.2)
    else:
        problem, _ = gen_posegraph(n=6, loop_edges=4, seed=26, sigma=0.6)
    rng = np.random.default_rng(27)
    for _ in range(3):
        x = opt._retract(_rand_auq(problem.n_blocks, rng=rng))
        x[problem.gauge] = aug.IDENTITY
        _, grad = problem.normal_equations(x, problem.residuals(x))
        free = opt._free_blocks(problem)
        g = opt.gradient(problem, x).reshape(-1, 7)[free]
        rows = np.einsum("kij,ki->kj", opt._tangent_bases(x[free, :4]), g[:, :4])
        expected = np.hstack([rows, g[:, 4:]])
        assert np.linalg.norm(grad - expected) <= 1e-12 * np.linalg.norm(expected)


def test_posegraph_solve_starts_from_the_problem_initial_guess():
    graph, _ = gen_posegraph(n=6, loop_edges=4, seed=28)
    x0 = _rand_auq(6, rng=np.random.default_rng(29))
    problem = opt.PoseGraphProblem(
        edges=graph.edges, measurements=graph.measurements, initial=x0
    )
    result = opt.solve(problem, opt.SolverConfig(max_iters=0, restarts=1))
    expected = x0.copy()
    expected[problem.gauge] = aug.IDENTITY
    np.testing.assert_allclose(result.solution, expected, rtol=0, atol=1e-15)


def test_an_initial_guess_solves_as_the_same_start_passed_to_solve():
    """`initial=` is normalized once, at construction, as `solve(init=...)`
    normalizes its start once, so the two routes take the same restarts,
    iterations and solution bits."""
    config = opt.SolverConfig(restarts=4)
    for s in range(40):
        noise = NoiseModel(0.01, 0.01, s) if s % 2 else None
        graph, _ = gen_posegraph(12 + s % 7, 10, s, 1.0, noise)
        start = aug.random_auq(np.random.default_rng(1000 + s), graph.n)
        given = opt.PoseGraphProblem(
            edges=graph.edges, measurements=graph.measurements, initial=start
        )
        passed = opt.PoseGraphProblem(edges=graph.edges, measurements=graph.measurements)
        a, b = opt.solve(given, config), opt.solve(passed, config, init=start)
        assert (len(a.restarts), a.iterations) == (len(b.restarts), b.iterations), s
        assert a.solution.tobytes() == b.solution.tobytes(), s


@pytest.mark.parametrize("kind", ["posegraph", "handeye", "world"])
def test_solve_that_starts_converged_takes_no_step(kind, monkeypatch):
    """A start whose tangent gradient already meets grad_tol ends its
    restart before any step: one assembly of the normal equations, one
    residual evaluation, and the gauge-fixed start returned bit for bit."""
    init = None
    if kind == "posegraph":
        problem, _ = gen_posegraph(25, 25, 22)
    elif kind == "handeye":
        problem, x_true = gen_handeye(10, seed=22)
        init = x_true[None]
    else:
        problem, *truth = gen_handeye_world(10, seed=22)
        init = np.stack(truth)
    start = problem.initial_guess() if init is None else aug.as_auq(init)
    start[problem.gauge] = aug.IDENTITY
    assembled, evaluated = [], []
    normal_equations, residuals = problem.normal_equations, opt.residuals
    monkeypatch.setattr(problem, "normal_equations",
                        lambda *a: assembled.append(1) or normal_equations(*a))
    monkeypatch.setattr(opt, "residuals", lambda *a: evaluated.append(1) or residuals(*a))
    result = opt.solve(problem, init=init)
    assert (result.iterations, result.status) == (0, opt.STATUS_CONVERGED)
    assert (len(assembled), len(evaluated)) == (1, 1)
    assert result.solution.tobytes() == start.tobytes()


@pytest.mark.parametrize("kind", ["handeye", "world", "posegraph"])
def test_a_solve_evaluates_each_point_once(kind, monkeypatch):
    """Every residual evaluation of a noisy solve is at a new point: the
    normal equations of an accepted point read the residuals its line
    search computed."""
    noise = NoiseModel(0.01, 0.01, 7)
    if kind == "handeye":
        problem, _ = gen_handeye(20, seed=7, noise=noise)
    elif kind == "world":
        problem, *_ = gen_handeye_world(20, seed=7, noise=noise)
    else:
        problem, _ = gen_posegraph(15, 15, 7, noise=noise)
    points = []
    residuals = problem.residuals
    monkeypatch.setattr(problem, "residuals", lambda x: points.append(x.tobytes()) or residuals(x))
    result = opt.solve(problem, opt.SolverConfig(restarts=2))
    assert sum(r.iterations for r in result.restarts) >= 3
    assert len(points) == len(set(points))


def test_solve_weakly_disconnected_graph(monkeypatch):
    """Two 3-cycles, only the first holding vertex 0.  The lowest vertex of
    the other is held too, so the normal equations are nonsingular and no
    step falls back to least squares.  The solve starts from identity
    blocks, because the spanning-tree start takes no step."""
    truth = _rand_auq(6, rng=np.random.default_rng(5))
    truth[0] = aug.IDENTITY
    edges = np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]])
    y = aug.compose(aug.auq_inverse(truth[edges[:, 0]]), truth[edges[:, 1]])
    with pytest.warns(UserWarning):
        problem = opt.PoseGraphProblem(edges=edges, measurements=y)
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    result = opt.solve(problem, init=np.tile(aug.IDENTITY, (6, 1)))
    assert result.objective <= 1e-16
    assert result.status == opt.STATUS_CONVERGED
    assert not calls


def test_pure_translation_pairs_take_the_lstsq_step(monkeypatch):
    """Pairs whose rotations are all the identity leave x's translation
    unobserved: a o x - x o b = [0, R(x)^T a_t - b_t], so the translation
    columns of J are exactly zero and H is singular.  Every step is then the
    minimum-norm least-squares one, which keeps the translation at 0."""
    x = np.array([np.sqrt(0.5), 0.0, 0.0, np.sqrt(0.5), 0.0, 0.0, 0.0])  # 90 degrees about z
    a_t = np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 3], [-2, 1, 0.5]])
    q = np.tile(aug.IDENTITY[:4], (5, 1))
    problem = opt.HandEyeProblem(a=np.hstack([q, a_t]), b=np.hstack([q, qt.rot_apply_T(x[:4], a_t)]))
    x0 = problem.initial_guess()
    hessian, _ = problem.normal_equations(x0, problem.residuals(x0))
    hess = hessian()
    assert not np.any(hess[3:]) and not np.any(hess[:, 3:])
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    result = opt.solve(problem)
    assert result.status == opt.STATUS_CONVERGED
    assert len(calls) >= result.iterations >= 1
    assert opt.pose_error(result.solution[0], x)[0] <= 1e-12
    assert np.all(result.solution[0, 4:] == 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_every_component_is_gauge_fixed(seed):
    """Two 3-cycles: vertex 0 and vertex 3, the lowest vertex of the other
    component, are both held at the identity, so Gauss-Newton from the
    identity sees a nonsingular H and converges in a few iterations."""
    truth = _rand_auq(6, rng=np.random.default_rng(seed))
    edges = np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]])
    y = aug.compose(aug.auq_inverse(truth[edges[:, 0]]), truth[edges[:, 1]])
    with pytest.warns(UserWarning):
        problem = opt.PoseGraphProblem(edges=edges, measurements=y)
    np.testing.assert_array_equal(problem.gauge, [0, 3])
    assert opt.objective(problem, problem.initial_guess()) <= 1e-28
    result = opt.solve(problem, opt.SolverConfig(restarts=1), init=np.tile(aug.IDENTITY, (6, 1)))
    assert result.status == opt.STATUS_CONVERGED
    assert result.iterations <= 20
    np.testing.assert_array_equal(result.solution[[0, 3]], np.tile(aug.IDENTITY, (2, 1)))


def test_every_start_holds_the_gauge():
    """Restart 0 from `initial` or from `init`, and every random restart,
    starts with the held vertices at the identity and keeps them there."""
    truth = _rand_auq(6, rng=np.random.default_rng(30))
    edges = np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]])
    y = aug.compose(aug.auq_inverse(truth[edges[:, 0]]), truth[edges[:, 1]])
    start = _rand_auq(6, rng=np.random.default_rng(31))
    with pytest.warns(UserWarning):
        problem = opt.PoseGraphProblem(edges=edges, measurements=y, initial=start)
    np.testing.assert_array_equal(problem.gauge, [0, 3])
    assert not np.any(np.all(start[problem.gauge] == aug.IDENTITY, axis=-1))
    held = np.tile(aug.IDENTITY, (2, 1))
    for init in (None, _rand_auq(6, rng=np.random.default_rng(32))):
        for max_iters in (0, 5):
            result = opt.solve(problem, opt.SolverConfig(max_iters, restarts=3), init=init)
            assert len(result.restarts) == 3 or max_iters > 0
            for record in result.restarts:
                assert record.solution[problem.gauge].tobytes() == held.tobytes()
