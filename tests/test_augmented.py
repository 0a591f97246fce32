import re

import numpy as np
import pytest

from auquat import augmented as aug
from auquat import quaternion as qt
from auquat.errors import AVQClosureViolation, ZeroMagnitude
from auquat.tolerances import ALGEBRA_ATOL

RNG = np.random.default_rng(5150)
N_SAMPLES = 10_000


def _rand_auq(n=None, rng=RNG):
    return aug.random_auq(rng, n)


def _rand_aq(n, rng=RNG):
    return np.concatenate([rng.standard_normal((n, 4)), rng.uniform(-1, 1, (n, 3))], axis=-1)


# ---------------------------------------------------------------------------
# vector space operations


def test_add_zero_and_scale():
    x = _rand_aq(1)[0]
    np.testing.assert_array_equal(aug.aq_add(x, np.zeros(7)), x)
    np.testing.assert_array_equal(
        aug.aq_scale(2.0, [1.0, 0, 0, 0, 1, 2, 3]), [2.0, 0, 0, 0, 2, 4, 6]
    )


def test_add_associative():
    x, y, z = (_rand_aq(N_SAMPLES) for _ in range(3))
    np.testing.assert_allclose(
        aug.aq_add(aug.aq_add(x, y), z), aug.aq_add(x, aug.aq_add(y, z)), atol=ALGEBRA_ATOL
    )


# ---------------------------------------------------------------------------
# composition


def test_compose_identity():
    x = _rand_auq()
    np.testing.assert_array_equal(aug.compose(x, aug.IDENTITY), x)
    np.testing.assert_array_equal(aug.compose(aug.IDENTITY, x), x)


def test_compose_pure_translations_add():
    x = np.array([1.0, 0, 0, 0, 1, 2, 3])
    y = np.array([1.0, 0, 0, 0, 4, 5, 6])
    np.testing.assert_array_equal(aug.compose(x, y), [1.0, 0, 0, 0, 5, 7, 9])


def test_compose_half_turn_example():
    x = np.array([1.0, 0, 0, 0, 1, 2, 3])
    y = np.array([0.0, 0, 0, 1, 0, 0, 0])
    np.testing.assert_allclose(aug.compose(x, y), [0.0, 0, 0, 1, -1, -2, 3], atol=0)
    # cross-checked against the homogeneous-matrix oracle
    np.testing.assert_allclose(
        aug.to_homogeneous(aug.compose(x, y)),
        aug.to_homogeneous(x) @ aug.to_homogeneous(y),
        atol=ALGEBRA_ATOL,
    )


def test_compose_matches_matrix_form():
    # the closed-form R(q)^T application inside compose agrees with the
    # explicit matrix of the defining formula
    x = _rand_aq(1000)
    y = _rand_aq(1000)
    p, t = x[:, :4], x[:, 4:]
    q, u = y[:, :4], y[:, 4:]
    explicit = np.concatenate(
        [qt.qmul(p, q), u + np.einsum("bij,bj->bi", qt.rot_matrix_T(q), t)], axis=-1
    )
    np.testing.assert_allclose(aug.compose(x, y), explicit, atol=1e-13)


def test_compose_associative():
    x, y, z = (_rand_aq(N_SAMPLES) for _ in range(3))
    np.testing.assert_allclose(
        aug.compose(aug.compose(x, y), z), aug.compose(x, aug.compose(y, z)), atol=ALGEBRA_ATOL
    )


def test_unit_closure_and_group_axioms():
    x = _rand_auq(N_SAMPLES)
    y = _rand_auq(N_SAMPLES)
    prod = aug.compose(x, y)
    np.testing.assert_allclose(qt.qnorm(prod[:, :4]), 1.0, atol=ALGEBRA_ATOL)
    inv = aug.auq_inverse(x)
    eye = np.broadcast_to(aug.IDENTITY, x.shape)
    np.testing.assert_allclose(aug.compose(x, inv), eye, atol=ALGEBRA_ATOL)
    np.testing.assert_allclose(aug.compose(inv, x), eye, atol=ALGEBRA_ATOL)


def test_decomposition_rotation_after_translation():
    x = _rand_auq(N_SAMPLES)
    p, t = x[:, :4], x[:, 4:]
    rot_only = aug.aq(p, np.zeros_like(t))
    trans_only = aug.aq(np.broadcast_to(qt.IDENTITY, p.shape), t)
    np.testing.assert_array_equal(aug.compose(rot_only, trans_only), x)


# ---------------------------------------------------------------------------
# inverses


def test_aq_inverse_examples():
    np.testing.assert_array_equal(aug.aq_inverse(aug.IDENTITY), aug.IDENTITY)
    np.testing.assert_array_equal(
        aug.aq_inverse([1.0, 0, 0, 0, 1, 2, 3]), [1.0, 0, 0, 0, -1, -2, -3]
    )
    np.testing.assert_allclose(
        aug.aq_inverse([0.0, 0, 0, 1, 1, 2, 3]), [0.0, 0, 0, -1, 1, 2, -3], atol=0
    )


def test_aq_inverse_roundtrip_general():
    x = _rand_aq(N_SAMPLES)
    eye = np.broadcast_to(aug.IDENTITY, x.shape)
    np.testing.assert_allclose(aug.compose(x, aug.aq_inverse(x)), eye, atol=ALGEBRA_ATOL)
    np.testing.assert_allclose(aug.compose(aug.aq_inverse(x), x), eye, atol=ALGEBRA_ATOL)


def test_aq_inverse_zero_quaternion_raises():
    with pytest.raises(ZeroMagnitude):
        aug.aq_inverse([0.0, 0, 0, 0, 1, 2, 3])


def test_auq_inverse_agrees_with_general_inverse():
    x = _rand_auq(1000)
    np.testing.assert_allclose(aug.auq_inverse(x), aug.aq_inverse(x), atol=ALGEBRA_ATOL)


def test_auq_inverse_decomposition():
    # inverse = translate back, then rotate back
    x = _rand_auq(1000)
    p, t = x[:, :4], x[:, 4:]
    back_trans = aug.aq(np.broadcast_to(qt.IDENTITY, p.shape), -t)
    back_rot = aug.aq(qt.qconj(p), np.zeros_like(t))
    np.testing.assert_allclose(
        aug.auq_inverse(x), aug.compose(back_trans, back_rot), atol=ALGEBRA_ATOL
    )


# ---------------------------------------------------------------------------
# weighted magnitude


def test_sigma_magnitude_values():
    assert aug.sigma_magnitude(np.zeros(7)) == 0.0
    assert aug.sigma_magnitude([1.0, 0, 0, 0, 1, 0, 0], 1.0) == pytest.approx(np.sqrt(2.0), abs=0)
    assert aug.sigma_magnitude([0.0, 0, 0, 1, 2, 0, 0], 0.25) == pytest.approx(
        np.sqrt(2.0), abs=0
    )


def test_sigma_magnitude_rejects_bad_sigma():
    with pytest.raises(ValueError):
        aug.sigma_magnitude(np.zeros(7), 0.0)


@pytest.mark.parametrize("sigma", [np.inf, np.nan])
def test_sigma_magnitude_rejects_non_finite_sigma(sigma):
    # inf times a zero translation used to come back as nan
    with pytest.raises(ValueError, match="positive and finite"):
        aug.sigma_magnitude(np.array([1.0, 0, 0, 0, 0, 0, 0]), sigma)


def test_sigma_norm_axioms():
    x = _rand_aq(N_SAMPLES)
    y = _rand_aq(N_SAMPLES)
    sigma = 0.37
    mx = aug.sigma_magnitude(x, sigma)
    assert np.all(aug.sigma_magnitude(aug.aq_add(x, y), sigma) <= mx + aug.sigma_magnitude(y, sigma) + ALGEBRA_ATOL)
    scale = RNG.uniform(-3, 3, N_SAMPLES)
    np.testing.assert_allclose(
        aug.sigma_magnitude(aug.aq_scale(scale, x), sigma), np.abs(scale) * mx, atol=ALGEBRA_ATOL
    )


# ---------------------------------------------------------------------------
# logarithm, vector subspace, conjugation


def test_auq_log_values():
    np.testing.assert_array_equal(aug.auq_log(aug.IDENTITY), np.zeros(7))
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    got = aug.auq_log([c, s, 0, 0, 2, 4, 6])
    np.testing.assert_allclose(got, [0.0, np.pi / 4, 0, 0, 1, 2, 3], atol=1e-15)
    assert aug.is_avq(got)


def test_avq_conjugation_closure():
    x = _rand_auq(N_SAMPLES)
    y = aug.avq(RNG.standard_normal((N_SAMPLES, 3)), RNG.standard_normal((N_SAMPLES, 3)))
    out = aug.avq_conjugation(x, y)
    np.testing.assert_array_equal(out[:, 0], 0.0)


def test_avq_conjugation_identity_and_rotation():
    y = aug.avq([0.3, -0.2, 0.9], [1.0, 0.5, -0.1])
    np.testing.assert_allclose(aug.avq_conjugation(aug.IDENTITY, y), y, atol=ALGEBRA_ATOL)
    # for a pure rotation and a pure rotation-slot avq, the rotation slot
    # transforms by the quaternion sandwich
    q = qt.random_unit(99)
    x = aug.aq(q, np.zeros(3))
    r = np.array([0.4, -1.0, 0.7])
    out = aug.avq_conjugation(x, aug.avq(r, np.zeros(3)))
    sandwich = qt.qmul(qt.qmul(q, qt.vector_quat(r)), qt.qconj(q))
    np.testing.assert_allclose(out[:4], sandwich, atol=ALGEBRA_ATOL)


def test_avq_conjugation_flags_non_avq_input():
    x = _rand_auq()
    bad = np.array([1.0, 0, 0, 0, 0, 0, 0])  # scalar slot not zero
    with pytest.raises(AVQClosureViolation):
        aug.avq_conjugation(x, bad)


def test_avq_conjugation_flags_nan_scalar_slot():
    """NaN compares false with the tolerance, yet is_avq refuses it, so the
    conjugation must too rather than write the slot as 0."""
    y = aug.avq([np.nan, 0.0, 0.0], np.zeros(3))
    with pytest.raises(AVQClosureViolation, match="scalar slot nan exceeds tolerance"):
        aug.avq_conjugation(aug.identity(), y)


# ---------------------------------------------------------------------------
# point action and homogeneous oracle


def test_act_on_point_trivial():
    v = np.array([0.3, -0.4, 2.0])
    np.testing.assert_array_equal(aug.act_on_point(aug.IDENTITY, v), v)
    np.testing.assert_array_equal(
        aug.act_on_point([1.0, 0, 0, 0, 1, 2, 3], v), v + np.array([1.0, 2, 3])
    )


def test_action_composition_consistency():
    x = _rand_auq(1000)
    y = _rand_auq(1000)
    v = RNG.standard_normal((1000, 3))
    np.testing.assert_allclose(
        aug.act_on_point(aug.compose(x, y), v),
        aug.act_on_point(x, aug.act_on_point(y, v)),
        atol=ALGEBRA_ATOL,
    )


def test_act_matches_homogeneous():
    x = _rand_auq(1000)
    v = RNG.standard_normal((1000, 3))
    h = aug.to_homogeneous(x)
    hom = np.concatenate([v, np.ones((1000, 1))], axis=-1)
    np.testing.assert_allclose(
        aug.act_on_point(x, v), np.einsum("bij,bj->bi", h, hom)[:, :3], atol=ALGEBRA_ATOL
    )


def test_to_homogeneous_values_and_homomorphism():
    np.testing.assert_array_equal(aug.to_homogeneous(aug.IDENTITY), np.eye(4))
    h = aug.to_homogeneous([1.0, 0, 0, 0, 1, 2, 3])
    np.testing.assert_array_equal(h[:3, :3], np.eye(3))
    np.testing.assert_array_equal(h[:3, 3], [1.0, 2, 3])
    x = _rand_auq(N_SAMPLES)
    y = _rand_auq(N_SAMPLES)
    np.testing.assert_allclose(
        aug.to_homogeneous(aug.compose(x, y)),
        np.einsum("bij,bjk->bik", aug.to_homogeneous(x), aug.to_homogeneous(y)),
        atol=ALGEBRA_ATOL,
    )


# ---------------------------------------------------------------------------
# constructors and smoothness


def test_as_auq_normalizes_small_drift():
    x = _rand_auq()
    drifted = x.copy()
    drifted[:4] *= 1.0 + 1e-10
    fixed = aug.as_auq(drifted)
    assert abs(qt.qnorm(fixed[:4]) - 1.0) <= 1e-15


def test_as_auq_rejects_large_drift():
    x = _rand_auq()
    x[:4] *= 1.1
    with pytest.raises(ValueError):
        aug.as_auq(x)


def test_as_auq_rejects_non_finite():
    with pytest.raises(ValueError):
        aug.as_auq([np.nan, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        aug.as_auq([1.0, 0, 0, 0, np.inf, 0, 0])


def test_auq_normalizes_and_quat_part_reads_the_quaternion():
    p = np.array([0.6, 0.0, 0.8, 0.0]) * (1.0 + 1e-10)
    x = aug.auq(p, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(x[4:], [1.0, 2.0, 3.0])
    assert abs(qt.qnorm(x[:4]) - 1.0) <= 1e-15
    np.testing.assert_array_equal(aug.quat_part(x), x[:4])
    np.testing.assert_array_equal(aug.quat_part(np.stack([x, x])), np.stack([x[:4], x[:4]]))


_REFUSALS = {
    **{f"sigma-{s}": (lambda s=s: aug.sigma_magnitude(aug.IDENTITY, s),
                      "sigma must be positive and finite") for s in (0.0, -1.0, np.inf, np.nan)},
    "auq-non-unit": (lambda: aug.auq([2.0, 0.0, 0.0, 0.0], np.zeros(3)),
                     "quaternion norm deviates from 1 by 1.000e+00 (tol 1.0e-09)"),
    "auq-nan": (lambda: aug.auq([np.nan, 0.0, 0.0, 0.0], np.zeros(3)),
                "quaternion components must be finite"),
    "auq-inf-translation": (lambda: aug.auq([1.0, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0]),
                            "translation components must be finite"),
    "quat_part-0d": (lambda: aug.quat_part(1.0), "expected trailing dimension 7, got shape ()"),
    "quat_part-4": (lambda: aug.quat_part(aug.IDENTITY[:4]),
                    "expected trailing dimension 7, got shape (4,)"),
}


@pytest.mark.parametrize("build, message", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_pose_refusals_name_the_input(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def _fd_jacobian(func, x, h):
    cols = []
    for i in range(len(x)):
        dx = np.zeros(len(x))
        dx[i] = h
        cols.append((func(x + dx) - func(x - dx)) / (2 * h))
    return np.stack(cols, axis=-1)


def _tangent_fd(func, x, h):
    """Central differences of func along the tangent coordinates of the pose
    x: normalize(p + h B e_k) with B = L(p)[:, 1:] for k < 3, t + h e_k after."""
    basis = qt.left_matrix(x[:4])[:, 1:]
    cols = []
    for k in range(6):
        up, down = x.copy(), x.copy()
        if k < 3:
            up[:4], down[:4] = x[:4] + h * basis[:, k], x[:4] - h * basis[:, k]
            for y in (up, down):
                y[:4] /= np.linalg.norm(y[:4])
        else:
            up[1 + k] += h
            down[1 + k] -= h
        cols.append((func(up) - func(down)) / (2 * h))
    return np.stack(cols, axis=-1)


def _posegraph_blocks(xi, xj):
    from auquat.optimization import _slam_blocks, _slam_kernel

    return _slam_blocks(np.asarray(xi)[..., 4:], *_slam_kernel(xi, xj))


@pytest.mark.parametrize("h", [1e-3, 5e-4])
def test_compose_and_inverse_are_smooth(h):
    # central differences match the analytic Jacobians: d(x o y)/dx in the
    # ambient coordinates, where the map is linear in x, so the FD error is
    # pure roundoff; and the pose-graph tangent blocks of (x^-1 o y) - m,
    # where normalizing p + h B e_k scales the odd part of every residual
    # component by (1 + h^2)^(-1/2) or (1 + h^2)^(-1): an error of at most h^2 |J|
    from auquat.optimization import _compose_jac_left, residual_slam

    rng = np.random.default_rng(11)
    for _ in range(10):
        x, y, m = _rand_auq(rng=rng), _rand_auq(rng=rng), _rand_auq(rng=rng)
        jx = _fd_jacobian(lambda z: aug.compose(z, y), x, h)
        np.testing.assert_allclose(jx, _compose_jac_left(y), atol=1e-10)
        blocks = _posegraph_blocks(x, y)
        np.testing.assert_allclose(_tangent_fd(lambda z: residual_slam(z, y, m), x, h),
                                   blocks[0], atol=4 * h * h)
        np.testing.assert_allclose(_tangent_fd(lambda z: residual_slam(x, z, m), y, h),
                                   blocks[1], atol=4 * h * h)


def test_jacobian_builders_broadcast_like_rows():
    # one pose against a batch (the hand-eye kernel passes (m, 7) and (7,))
    # and a batch against a batch equal the row-by-row Jacobians exactly
    from auquat.optimization import _compose_jac_left

    rng = np.random.default_rng(12)
    one, xs, ys = _rand_auq(rng=rng), _rand_auq(6, rng), _rand_auq(6, rng)
    for x, y in [(xs, one), (one, ys), (xs, ys)]:
        rows = list(zip(np.broadcast_to(x, xs.shape), np.broadcast_to(y, ys.shape)))
        np.testing.assert_array_equal(_posegraph_blocks(x, y),
                                      [_posegraph_blocks(a, b) for a, b in rows])
    np.testing.assert_array_equal(_compose_jac_left(xs), [_compose_jac_left(a) for a in xs])
