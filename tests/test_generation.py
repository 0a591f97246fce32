import tracemalloc

import numpy as np
import pytest

from auquat import augmented as aug
from auquat import generation as gen
from auquat import optimization as opt
from auquat import quaternion as qt
from auquat.tolerances import ALGEBRA_ATOL


def test_handeye_construction_identity():
    problem, x_true = gen.gen_handeye(m=7, seed=0)
    z = opt.residuals(problem, x_true[None])
    np.testing.assert_allclose(z, np.zeros_like(z), atol=ALGEBRA_ATOL)


def test_handeye_reproducible_and_distinct():
    p1, x1 = gen.gen_handeye(m=4, seed=9)
    p2, x2 = gen.gen_handeye(m=4, seed=9)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(p1.a, p2.a)
    np.testing.assert_array_equal(p1.b, p2.b)
    p3, _ = gen.gen_handeye(m=4, seed=10)
    assert np.abs(p1.a - p3.a).max() > 1e-3


def test_world_construction_identity_and_identity_truths():
    problem, x_true, y_true = gen.gen_handeye_world(m=6, seed=1)
    z = opt.residuals(problem, np.stack([x_true, y_true]))
    np.testing.assert_allclose(z, np.zeros_like(z), atol=ALGEBRA_ATOL)
    # x = y = e makes the pairs coincide
    a = gen.random_auq(3, n=4)
    b = aug.compose(aug.compose(aug.auq_inverse(aug.IDENTITY), a), aug.IDENTITY)
    np.testing.assert_allclose(a, b, atol=0)


def test_posegraph_construction_identity_and_anchor():
    problem, x_true = gen.gen_posegraph(n=9, loop_edges=7, seed=2)
    np.testing.assert_array_equal(x_true[0], aug.IDENTITY)
    z = opt.residuals(problem, x_true)
    np.testing.assert_allclose(z, np.zeros_like(z), atol=ALGEBRA_ATOL)
    assert len(problem.edges) == 8 + 7
    # chain edges come first
    np.testing.assert_array_equal(problem.edges[: 8, 0], np.arange(8))
    np.testing.assert_array_equal(problem.edges[: 8, 1], np.arange(1, 9))


def test_posegraph_two_vertices_single_edge():
    problem, x_true = gen.gen_posegraph(n=2, loop_edges=0, seed=3)
    np.testing.assert_allclose(problem.measurements[0], x_true[1], atol=ALGEBRA_ATOL)


def test_posegraph_rejects_too_many_arcs():
    with pytest.raises(ValueError):
        gen.gen_posegraph(n=3, loop_edges=100, seed=0)
    for n in range(2, 41):  # one arc more than the (n - 1)^2 off the chain
        with pytest.raises(ValueError, match=f"at most {(n - 1) ** 2} extra arcs"):
            gen.gen_posegraph(n, (n - 1) ** 2 + 1, seed=n)
    with pytest.raises(ValueError, match="at most 81 extra arcs, got -1"):
        gen.gen_posegraph(10, -1)


def test_perturb_zero_noise_is_identity():
    x = gen.random_auq(4)
    out = gen.perturb(x, gen.NoiseModel(0.0, 0.0, seed=1))
    np.testing.assert_array_equal(out, x)


def test_perturb_output_is_unit():
    x = gen.random_auq(5, n=100)
    out = gen.perturb(x, gen.NoiseModel(0.3, 0.5, seed=2))
    np.testing.assert_allclose(qt.qnorm(out[:, :4]), 1.0, atol=ALGEBRA_ATOL)


def test_perturb_rotation_scale_monte_carlo():
    # rotation pose error of the perturbation is |v| for v ~ N(0, s^2 I3),
    # whose root mean square is s * sqrt(3)
    s = 0.01
    x = gen.random_auq(6, n=10_000)
    out = gen.perturb(x, gen.NoiseModel(rot_sigma=s, trans_sigma=0.0, seed=7))
    rot, trans = opt.pose_error(out, x)
    assert trans.max() == 0.0
    rms = np.sqrt(np.mean(rot**2))
    assert rms == pytest.approx(s * np.sqrt(3.0), rel=0.05)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        gen.NoiseModel(rot_sigma=-0.1)


@pytest.mark.parametrize("sigma", [np.inf, np.nan])
@pytest.mark.parametrize("field", ["rot_sigma", "trans_sigma"])
def test_noise_model_rejects_non_finite_sigma(field, sigma):
    # an infinite trans_sigma used to give perturb an infinite translation
    with pytest.raises(ValueError, match="nonnegative and finite"):
        gen.NoiseModel(**{field: sigma})


def test_noisy_objective_trend_monte_carlo():
    # solved objective grows with the noise level (coarse trend over a
    # small ensemble, not per instance)
    levels = [0.0, 0.02, 0.05]
    means = []
    cfg = opt.SolverConfig(seed=0, restarts=2)
    for level in levels:
        values = []
        for seed in range(5):
            noise = gen.NoiseModel(level, level, seed=100 + seed) if level else None
            problem, _ = gen.gen_handeye(m=6, seed=seed, noise=noise)
            values.append(opt.solve(problem, cfg).objective)
        means.append(np.mean(values))
    assert means[0] <= means[1] <= means[2]


# every n up to 40 with no, one, n and all (n - 1)^2 extra arcs
_SWEEP = [
    (n, k, n) for n in range(2, 41) for k in sorted({0, 1, n, (n - 1) ** 2}) if k <= (n - 1) ** 2
]


@pytest.mark.parametrize(
    "n, loop_edges, seed", [(2, 0, 3), (6, 5, 1), (12, 20, 7), (200, 200, 29)] + _SWEEP
)
def test_posegraph_matches_reference_generator(n, loop_edges, seed):
    # the generator as first written, rebuilding the chain set per candidate
    rng = np.random.default_rng(seed)
    x_true = np.concatenate([aug.identity()[None, :], gen.random_auq(rng, n - 1)], axis=0)
    edges = [(i, i + 1) for i in range(n - 1)]
    candidates = [
        (i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in set(edges)
    ]
    if loop_edges:
        picks = rng.choice(len(candidates), size=loop_edges, replace=False)
        edges += [candidates[k] for k in sorted(picks)]
    edges = np.array(edges, dtype=int)
    y = aug.compose(aug.auq_inverse(x_true[edges[:, 0]]), x_true[edges[:, 1]])

    problem, truth = gen.gen_posegraph(n, loop_edges, seed=seed)
    np.testing.assert_array_equal(truth, x_true)
    np.testing.assert_array_equal(problem.edges, edges)
    np.testing.assert_array_equal(problem.measurements, aug.as_auq(y))


def test_posegraph_generator_memory_is_linear():
    # a list of all (n - 1)^2 candidate arcs would take about 90 MB here
    tracemalloc.start()
    try:
        gen.gen_posegraph(1000, 10, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _assert_within_criterion_5(solution, truth):
    rot, trans = opt.pose_error(solution, truth)
    assert np.max(rot) <= 0.05 and np.max(trans) <= 0.05


def test_noisy_world_instance():
    noise = gen.NoiseModel(rot_sigma=0.01, trans_sigma=0.01, seed=3)
    clean, x_clean, y_clean = gen.gen_handeye_world(m=20, seed=8)
    noisy, x_true, y_true = gen.gen_handeye_world(m=20, seed=8, noise=noise)
    again, _, _ = gen.gen_handeye_world(m=20, seed=8, noise=noise)
    np.testing.assert_array_equal(again.a, noisy.a)
    np.testing.assert_array_equal(again.b, noisy.b)
    np.testing.assert_array_equal(x_true, x_clean)
    np.testing.assert_array_equal(y_true, y_clean)
    # the noise moves every a and every b
    assert np.all(np.any(noisy.a != clean.a, axis=1))
    assert np.all(np.any(noisy.b != clean.b, axis=1))
    result = opt.solve(noisy, opt.SolverConfig(seed=0, restarts=4))
    _assert_within_criterion_5(result.solution[0], x_true)
    _assert_within_criterion_5(result.solution[1], y_true)


def test_noisy_posegraph_instance():
    noise = gen.NoiseModel(rot_sigma=0.01, trans_sigma=0.01, seed=4)
    clean, x_clean = gen.gen_posegraph(n=12, loop_edges=12, seed=9)
    noisy, x_true = gen.gen_posegraph(n=12, loop_edges=12, seed=9, noise=noise)
    again, _ = gen.gen_posegraph(n=12, loop_edges=12, seed=9, noise=noise)
    np.testing.assert_array_equal(again.measurements, noisy.measurements)
    np.testing.assert_array_equal(x_true, x_clean)
    np.testing.assert_array_equal(noisy.edges, clean.edges)
    assert np.all(np.any(noisy.measurements != clean.measurements, axis=1))
    result = opt.solve(noisy, opt.SolverConfig(seed=0, restarts=4))
    _assert_within_criterion_5(result.solution, x_true)
