import warnings
from collections import deque

import numpy as np
import pytest

from auquat import augmented as aug
from auquat import quaternion as qt
from auquat import optimization as opt
from auquat.errors import InfeasibleInit
from auquat.generation import NoiseModel, gen_handeye, gen_handeye_world, gen_posegraph
from auquat.tolerances import ALGEBRA_ATOL

RNG = np.random.default_rng(31415)


def _rand_auq(n=None, rng=RNG):
    q = qt.random_unit(rng, n)
    t = rng.uniform(-1.0, 1.0, (3,) if n is None else (n, 3))
    return np.concatenate([q, t], axis=-1)


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
        z, cols, jac = problem.linearize(x)
        np.testing.assert_array_equal(z, problem.residuals(x))
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


# ---------------------------------------------------------------------------
# solver behaviour


def test_solver_descent_without_refinement():
    problem, _ = gen_handeye(m=5, seed=10)
    cfg = opt.SolverConfig(max_iters=150, restarts=1, seed=0)
    x0 = opt._random_init(problem, np.random.default_rng(0))
    f0 = opt.objective(problem, x0)
    record = opt._descend(problem, x0, cfg)
    assert record.objective < f0
    # feasibility maintained
    np.testing.assert_allclose(qt.qnorm(record.solution[:, :4]), 1.0, atol=1e-9)


def test_solver_trace_is_monotone():
    problem, _ = gen_handeye(m=5, seed=11)
    cfg = opt.SolverConfig(max_iters=100, restarts=1)
    x = opt._random_init(problem, np.random.default_rng(1))
    values = [opt.objective(problem, x)]
    for _ in range(30):
        record = opt._descend(problem, x, opt.SolverConfig(max_iters=1, restarts=1))
        x = record.solution
        values.append(record.objective)
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_noisy_handeye_runs_gauss_newton_from_the_first_iteration(monkeypatch):
    """Each restart linearizes once at its start point and once per
    accepted step, never through `gradient`, and the restarts together
    need few iterations."""
    problem, _ = gen_handeye(m=20, seed=7, noise=NoiseModel(0.01, 0.01, 7))
    linearized, per_restart = [], []
    linearize, descend = problem.linearize, opt._descend

    def counted_descend(*args):
        start = len(linearized)
        record = descend(*args)
        per_restart.append(len(linearized) - start)
        return record

    monkeypatch.setattr(problem, "linearize", lambda x: linearized.append(1) or linearize(x))
    monkeypatch.setattr(opt, "_descend", counted_descend)
    monkeypatch.setattr(opt, "gradient", lambda *a: pytest.fail("the solver called gradient"))
    result = opt.solve(problem, opt.SolverConfig(seed=0))
    assert len(result.restarts) == 1
    assert per_restart == [r.iterations + 1 for r in result.restarts]
    assert sum(r.iterations for r in result.restarts) <= 150


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
    # translations large enough to overflow the squared residuals
    a = np.array([[1.0, 0, 0, 0, 1e200, 0, 0]])
    b = np.array([[1.0, 0, 0, 0, -1e200, 0, 0]])
    problem = opt.HandEyeProblem(a=a, b=b)
    from auquat.errors import NonFiniteObjective

    with pytest.raises(NonFiniteObjective):
        opt.solve(problem, opt.SolverConfig(restarts=1), init=np.array([[1.0, 0, 0, 0, 0, 0, 0]]))


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
            n=3, edges=[[0, 0]], measurements=_rand_auq(1), sigma=1.0
        )  # self loop
    with pytest.raises(ValueError):
        opt.PoseGraphProblem(n=3, edges=[[0, 5]], measurements=_rand_auq(1))


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
    random graphs with several components and isolated vertices."""
    rng = np.random.default_rng(41)
    disconnected = 0
    for _ in range(250):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(0, n + 3))
        edges = rng.integers(0, n, (m, 2))
        edges = edges[edges[:, 0] != edges[:, 1]].reshape(-1, 2)
        labels = _reference_component_labels(n, edges)
        roots = np.unique(labels[edges.ravel()])
        gauge = np.union1d(roots, [0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            problem = opt.PoseGraphProblem(
                n=n, edges=edges, measurements=_rand_auq(len(edges), rng=rng).reshape(-1, 7)
            )
        connected = bool(np.all(labels == labels[0]))
        disconnected += not connected
        assert [w.category for w in caught] == ([] if connected else [UserWarning])
        np.testing.assert_array_equal(problem.gauge, gauge)
        assert problem.initial_guess().tobytes() == _reference_tree_guess(problem, gauge).tobytes()
    assert 50 <= disconnected <= 200  # both kinds of graph are exercised


def test_disconnected_graph_warns():
    edges = np.array([[0, 1]])
    y = _rand_auq(1)[None][0]
    with pytest.warns(UserWarning):
        opt.PoseGraphProblem(n=3, edges=edges, measurements=y.reshape(1, 7))


def test_disconnected_graph_warning_names_the_caller():
    y = _rand_auq(1).reshape(1, 7)
    with pytest.warns(UserWarning) as record:
        opt.PoseGraphProblem(n=3, edges=np.array([[0, 1]]), measurements=y)
    assert record[0].filename == __file__


def test_connected_graph_does_not_warn():
    problem, _ = gen_posegraph(n=4, loop_edges=2, seed=18)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        opt.PoseGraphProblem(
            n=problem.n, edges=problem.edges, measurements=problem.measurements
        )


# ---------------------------------------------------------------------------
# Gauss-Newton step


def _dense_lstsq_step(problem, x):
    """Reference step: lstsq on the dense weighted 7m x 6k tangent Jacobian."""
    free = opt._free_blocks(problem)
    col_of = {int(b): c for c, b in enumerate(free)}
    sqrt_w = np.sqrt(opt._component_weights(problem))
    z, cols, jblocks = problem.linearize(x)
    z = z * sqrt_w
    jac = np.zeros((len(z), 7, len(free), 6))
    for r in range(len(z)):
        for b, jb in zip(cols[r], jblocks[r] * sqrt_w[:, None]):
            if int(b) in col_of:
                c = col_of[int(b)]
                jac[r, :, c, :3] += jb[:, :4] @ opt._sphere_basis(x[b, :4])
                jac[r, :, c, 3:] += jb[:, 4:]
    delta, *_ = np.linalg.lstsq(jac.reshape(7 * len(z), -1), -z.ravel(), rcond=None)
    return delta.reshape(-1, 6)


@pytest.mark.parametrize("kind", ["handeye", "world", "posegraph"])
def test_gauss_newton_step_matches_dense_lstsq(kind):
    rng = np.random.default_rng(7)
    if kind == "handeye":
        problem, x_true = gen_handeye(m=6, seed=3, sigma=0.5)
        x = x_true[None]
    elif kind == "world":
        problem, x_true, y_true = gen_handeye_world(m=6, seed=4, sigma=2.0)
        x = np.stack([x_true, y_true])
    else:
        problem, x = gen_posegraph(n=8, loop_edges=6, seed=5)
    x = opt._retract(problem, x + 0.05 * rng.normal(size=x.shape))
    hess, grad, bases = opt._normal_equations(problem, x, opt._free_blocks(problem))
    delta = opt._gauss_newton_step(hess, grad)
    reference = _dense_lstsq_step(problem, x)
    assert delta.shape == reference.shape
    assert np.linalg.norm(delta - reference) <= 1e-9 * np.linalg.norm(reference)
    for b, basis in zip(opt._free_blocks(problem), bases):
        np.testing.assert_allclose(basis, opt._sphere_basis(x[b, :4]), atol=0)


@pytest.mark.parametrize("kind", ["handeye", "world", "slam"])
def test_stopping_gradient_is_the_projected_gradient(kind):
    """|g| of the normal equations is the norm of the public ambient
    gradient projected onto the tangent spaces, with gauge blocks zeroed."""
    if kind == "handeye":
        problem, _ = gen_handeye(m=5, seed=24, sigma=0.8)
    elif kind == "world":
        problem, _, _ = gen_handeye_world(m=5, seed=25, sigma=1.2)
    else:
        problem, _ = gen_posegraph(n=6, loop_edges=4, seed=26, sigma=0.6)
    rng = np.random.default_rng(27)
    for _ in range(3):
        x = opt._retract(problem, _rand_auq(problem.n_blocks, rng=rng))
        _, grad, _ = opt._normal_equations(problem, x, opt._free_blocks(problem))
        g = opt.gradient(problem, x).reshape(-1, 7)
        g[:, :4] -= np.sum(g[:, :4] * x[:, :4], axis=-1, keepdims=True) * x[:, :4]
        g[problem.gauge] = 0.0
        assert abs(np.linalg.norm(grad) - np.linalg.norm(g)) <= 1e-12 * np.linalg.norm(g)


def test_posegraph_solve_starts_from_the_problem_initial_guess():
    graph, _ = gen_posegraph(n=6, loop_edges=4, seed=28)
    x0 = _rand_auq(6, rng=np.random.default_rng(29))
    problem = opt.PoseGraphProblem(
        n=graph.n, edges=graph.edges, measurements=graph.measurements, initial=x0
    )
    result = opt.solve(problem, opt.SolverConfig(max_iters=0, restarts=1))
    expected = x0.copy()
    expected[problem.gauge] = aug.IDENTITY
    np.testing.assert_allclose(result.solution, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [6, 7])
def test_solve_weakly_disconnected_graph(n, monkeypatch):
    """Two 3-cycles, only the first holding vertex 0.  With n = 7 vertex 6
    has no edge, so the normal equations have zero rows and the step falls
    back to the minimum-norm least-squares solution."""
    truth = _rand_auq(n, rng=np.random.default_rng(5))
    truth[0] = aug.IDENTITY
    edges = np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]])
    y = aug.compose(aug.auq_inverse(truth[edges[:, 0]]), truth[edges[:, 1]])
    with pytest.warns(UserWarning):
        problem = opt.PoseGraphProblem(n=n, edges=edges, measurements=y)
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    result = opt.solve(problem)
    assert result.objective <= 1e-16
    assert result.status == opt.STATUS_CONVERGED
    assert bool(calls) == (n == 7)


@pytest.mark.parametrize("seed", range(5))
def test_every_component_is_gauge_fixed(seed):
    """Two 3-cycles: vertex 0 and vertex 3, the lowest vertex of the other
    component, are both held at the identity, so Gauss-Newton from the
    identity sees a nonsingular H and converges in a few iterations."""
    truth = _rand_auq(6, rng=np.random.default_rng(seed))
    edges = np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]])
    y = aug.compose(aug.auq_inverse(truth[edges[:, 0]]), truth[edges[:, 1]])
    with pytest.warns(UserWarning):
        problem = opt.PoseGraphProblem(n=6, edges=edges, measurements=y)
    np.testing.assert_array_equal(problem.gauge, [0, 3])
    assert opt.objective(problem, problem.initial_guess()) <= 1e-28
    result = opt.solve(problem, opt.SolverConfig(restarts=1), init=np.tile(aug.IDENTITY, (6, 1)))
    assert result.status == opt.STATUS_CONVERGED
    assert result.iterations <= 20
    np.testing.assert_array_equal(result.solution[[0, 3]], np.tile(aug.IDENTITY, (2, 1)))
