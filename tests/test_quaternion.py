import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auquat import augmented as aug
from auquat import control as ctl
from auquat import dualquat as dqm
from auquat import motion
from auquat import optimization as opt
from auquat import quaternion as qt
from auquat.errors import ZeroMagnitude
from auquat.tolerances import ALGEBRA_ATOL

RNG = np.random.default_rng(20240811)
N_SAMPLES = 10_000


def _random_quats(n, rng=RNG):
    return rng.standard_normal((n, 4))


def _left_mult_oracle(p):
    """Independent 4x4 left-multiplication matrix, encoded directly from
    the product formula componentwise."""
    p0, p1, p2, p3 = p
    return np.array(
        [
            [p0, -p1, -p2, -p3],
            [p1, p0, -p3, p2],
            [p2, p3, p0, -p1],
            [p3, -p2, p1, p0],
        ]
    )


# ---------------------------------------------------------------------------
# qmul


def test_qmul_identity():
    q = np.array([0.3, -1.2, 0.5, 2.0])
    np.testing.assert_array_equal(qt.qmul(qt.IDENTITY, q), q)
    np.testing.assert_array_equal(qt.qmul(q, qt.IDENTITY), q)


def test_qmul_ij_is_k():
    i = np.array([0.0, 1.0, 0.0, 0.0])
    j = np.array([0.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(qt.qmul(i, j), [0.0, 0.0, 0.0, 1.0], atol=0)


def test_qmul_matches_matrix_oracle():
    p = _random_quats(200)
    q = _random_quats(200)
    got = qt.qmul(p, q)
    want = np.array([_left_mult_oracle(pk) @ qk for pk, qk in zip(p, q)])
    np.testing.assert_allclose(got, want, atol=ALGEBRA_ATOL)


def test_qmul_associative():
    p, q, s = (_random_quats(N_SAMPLES) for _ in range(3))
    np.testing.assert_allclose(
        qt.qmul(qt.qmul(p, q), s), qt.qmul(p, qt.qmul(q, s)), atol=ALGEBRA_ATOL
    )


def test_qmul_commutes_iff_vector_parts_parallel():
    # parallel vector parts commute
    p = np.array([0.7, 1.0, -2.0, 0.5])
    q = np.array([-0.2, 3.0, -6.0, 1.5])  # vector part = 3 * p vector part
    np.testing.assert_allclose(qt.qmul(p, q), qt.qmul(q, p), atol=ALGEBRA_ATOL)
    # non-parallel vector parts do not
    r = np.array([-0.2, 3.0, -6.0, 1.6])
    assert np.abs(qt.qmul(p, r) - qt.qmul(r, p)).max() > 1e-3


def test_qmul_unit_closure():
    u = qt.random_unit(RNG, N_SAMPLES // 2)
    v = qt.random_unit(RNG, N_SAMPLES // 2)
    np.testing.assert_allclose(qt.qnorm(qt.qmul(u, v)), 1.0, atol=ALGEBRA_ATOL)


# ---------------------------------------------------------------------------
# conjugate, norm, inverse


def test_qconj_basics():
    np.testing.assert_array_equal(qt.qconj([1.0, 0, 0, 0]), [1.0, 0, 0, 0])
    np.testing.assert_array_equal(qt.qconj([1.0, 2, 3, 4]), [1.0, -2, -3, -4])


def test_qconj_antihomomorphism():
    p = _random_quats(N_SAMPLES)
    q = _random_quats(N_SAMPLES)
    np.testing.assert_allclose(
        qt.qconj(qt.qmul(p, q)), qt.qmul(qt.qconj(q), qt.qconj(p)), atol=ALGEBRA_ATOL
    )


def test_vector_quat_characterization():
    v = qt.vector_quat([1.0, -2.0, 0.5])
    assert qt.is_vector_quat(v)
    np.testing.assert_array_equal(v, -qt.qconj(v))
    assert not qt.is_vector_quat([0.1, 1.0, 0.0, 0.0])


def test_qnorm():
    assert qt.qnorm([0.0, 0, 0, 0]) == 0.0
    assert qt.qnorm([1.0, 1, 1, 1]) == pytest.approx(2.0, abs=0)
    q = _random_quats(1000)
    np.testing.assert_allclose(qt.qnorm(q), np.sqrt(np.sum(q * q, axis=1)), atol=ALGEBRA_ATOL)


def test_qinv():
    np.testing.assert_array_equal(qt.qinv([1.0, 0, 0, 0]), [1.0, 0, 0, 0])
    np.testing.assert_allclose(qt.qinv([2.0, 0, 0, 0]), [0.5, 0, 0, 0], atol=0)
    u = qt.random_unit(RNG, 100)
    np.testing.assert_allclose(qt.qinv(u), qt.qconj(u), atol=ALGEBRA_ATOL)
    q = _random_quats(100)
    eye = np.broadcast_to(qt.IDENTITY, (100, 4))
    np.testing.assert_allclose(qt.qmul(q, qt.qinv(q)), eye, atol=ALGEBRA_ATOL)
    np.testing.assert_allclose(qt.qmul(qt.qinv(q), q), eye, atol=ALGEBRA_ATOL)


def test_qinv_zero_raises():
    with pytest.raises(ZeroMagnitude):
        qt.qinv([0.0, 0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# cross matrix and rotation matrix


# finite floats of every magnitude, and the entries whose signs and NaNs a
# reordered product would give away
_CROSS_ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.5]),
)


def _cross_shapes(m):
    return st.sampled_from([((3,), (3,)), ((m, 3), (3,)), ((m, 1, 3), (3, 3))])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(_cross_shapes), st.data())
def test_cross_is_numpy_cross_bit_for_bit(shapes, data):
    """At the shapes the algebra passes: (m, 1, 3) x (3, 3) is rot_matrix_T's."""
    a, b = (
        np.array(data.draw(st.lists(_CROSS_ENTRIES, min_size=n, max_size=n))).reshape(shape)
        for shape in shapes
        for n in [int(np.prod(shape))]
    )
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = qt._cross(a, b), np.cross(a, b)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_cross_matrix_zero():
    np.testing.assert_array_equal(qt.cross_matrix([0.0, 0, 0]), np.zeros((3, 3)))


def test_cross_matrix_convention():
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    np.testing.assert_array_equal(qt.cross_matrix(q) @ p, [0.0, 0.0, 1.0])
    v = RNG.standard_normal((500, 3))
    w = RNG.standard_normal((500, 3))
    tq = qt.cross_matrix(w)
    np.testing.assert_allclose(
        np.einsum("bij,bj->bi", tq, v), np.cross(v, w), atol=ALGEBRA_ATOL
    )
    # T(-q) = T(q)^T
    np.testing.assert_array_equal(qt.cross_matrix(-w), np.swapaxes(tq, -1, -2))


def test_rot_matrix_identity_and_axis_flip():
    np.testing.assert_array_equal(qt.rot_matrix_T([1.0, 0, 0, 0]), np.eye(3))
    np.testing.assert_allclose(
        qt.rot_matrix_T([0.0, 0, 0, 1]), np.diag([-1.0, -1.0, 1.0]), atol=0
    )


def test_rot_matrix_orthogonal_for_unit():
    q = qt.random_unit(RNG, 1000)
    r = qt.rot_matrix(q)
    eye = np.einsum("bij,bkj->bik", r, r)
    np.testing.assert_allclose(eye, np.broadcast_to(np.eye(3), eye.shape), atol=ALGEBRA_ATOL)
    np.testing.assert_allclose(np.linalg.det(r), 1.0, atol=1e-10)


def test_sandwich_identity():
    q = qt.random_unit(RNG, N_SAMPLES)
    t = RNG.standard_normal((N_SAMPLES, 3))
    sandwich = qt.qmul(qt.qmul(q, qt.vector_quat(t)), qt.qconj(q))
    np.testing.assert_allclose(sandwich[:, 0], 0.0, atol=ALGEBRA_ATOL)
    np.testing.assert_allclose(sandwich[:, 1:], qt.rot_apply(q, t), atol=ALGEBRA_ATOL)


def test_rot_apply_matches_matrix():
    q = _random_quats(1000)
    t = RNG.standard_normal((1000, 3))
    np.testing.assert_allclose(
        qt.rot_apply_T(q, t), np.einsum("bij,bj->bi", qt.rot_matrix_T(q), t), atol=1e-13
    )
    np.testing.assert_allclose(
        qt.rot_apply(q, t), np.einsum("bij,bj->bi", qt.rot_matrix(q), t), atol=1e-13
    )


def test_rot_matrix_multiplicative_general_quats():
    p = _random_quats(N_SAMPLES)
    q = _random_quats(N_SAMPLES)
    lhs = qt.rot_matrix(qt.qmul(p, q))
    rhs = np.einsum("bij,bjk->bik", qt.rot_matrix(p), qt.rot_matrix(q))
    np.testing.assert_allclose(lhs, rhs, atol=ALGEBRA_ATOL)


def test_rot_matrix_conjugate_transposes():
    q = _random_quats(N_SAMPLES)
    np.testing.assert_allclose(
        qt.rot_matrix(qt.qconj(q)), np.swapaxes(qt.rot_matrix(q), -1, -2), atol=0
    )


# ---------------------------------------------------------------------------
# matrices read off the products, against the products and the closed forms


def _with_zeros(shape):
    x = RNG.standard_normal(shape)
    x[RNG.random(shape) < 0.25] = 0.0
    return x


def _rot_apply_closed_form(q, t):
    """R(q) t written out with its own sign on the cross term."""
    q0, qv = q[..., :1], q[..., 1:]
    dot = np.sum(qv * t, axis=-1, keepdims=True)
    scale = q0 * q0 - np.sum(qv * qv, axis=-1, keepdims=True)
    return 2.0 * dot * qv + scale * t + 2.0 * q0 * np.cross(qv, t)


def _rot_matrix_T_closed_form(q):
    """2 qv qv^T + (q0^2 - qv.qv) I - 2 q0 T(qv)^T with T written entry by entry."""
    q0, qv = q[..., 0], q[..., 1:]
    v1, v2, v3 = qv[..., 0], qv[..., 1], qv[..., 2]
    zero = np.zeros_like(v1)
    skew = np.stack(
        [
            np.stack([zero, v3, -v2], axis=-1),
            np.stack([-v3, zero, v1], axis=-1),
            np.stack([v2, -v1, zero], axis=-1),
        ],
        axis=-2,
    )
    outer = 2.0 * qv[..., :, None] * qv[..., None, :]
    scale = q0 * q0 - np.sum(qv * qv, axis=-1)
    return (
        outer
        + scale[..., None, None] * np.eye(3)
        - 2.0 * q0[..., None, None] * np.swapaxes(skew, -1, -2)
    )


def _apply(matrix, x):
    return (matrix @ x[..., None])[..., 0]


# (shape of the matrix argument, shape of the other factor): 1-D, batched
# and broadcast against each other
_SHAPES = [((), ()), ((300,), (300,)), ((4, 1), (1, 5)), ((), (6,))]


@pytest.mark.parametrize("left_batch, right_batch", _SHAPES)
def test_product_matrices_match_the_products(left_batch, right_batch):
    p, q = _with_zeros(left_batch + (4,)), _with_zeros(right_batch + (4,))
    np.testing.assert_allclose(_apply(qt.left_matrix(p), q), qt.qmul(p, q), atol=ALGEBRA_ATOL)
    np.testing.assert_allclose(_apply(qt.right_matrix(p), q), qt.qmul(q, p), atol=ALGEBRA_ATOL)
    v, w = _with_zeros(left_batch + (3,)), _with_zeros(right_batch + (3,))
    np.testing.assert_allclose(_apply(qt.cross_matrix(v), w), np.cross(w, v), atol=ALGEBRA_ATOL)
    # every entry is +-1 or 0 times one component, so the entries are exact
    assert qt.left_matrix(p).shape == left_batch + (4, 4)
    np.testing.assert_array_equal(
        qt.left_matrix(p).reshape(-1, 4, 4), [_left_mult_oracle(pk) for pk in p.reshape(-1, 4)]
    )


@pytest.mark.parametrize("batch", [(), (300,), (4, 5)])
def test_rotations_match_their_closed_forms(batch):
    q, t = _with_zeros(batch + (4,)), _with_zeros(batch + (3,))
    np.testing.assert_array_equal(qt.rot_apply(q, t), _rot_apply_closed_form(q, t))
    np.testing.assert_array_equal(qt.rot_matrix_T(q), _rot_matrix_T_closed_form(q))
    np.testing.assert_array_equal(qt.rot_matrix(q), np.swapaxes(_rot_matrix_T_closed_form(q), -1, -2))


# ---------------------------------------------------------------------------
# log / exp


def test_qlog_identity():
    np.testing.assert_array_equal(qt.qlog([1.0, 0, 0, 0]), np.zeros(4))


def test_qlog_direct_value():
    q = np.array([np.cos(np.pi / 3), np.sin(np.pi / 3), 0.0, 0.0])
    np.testing.assert_allclose(qt.qlog(q), [0.0, np.pi / 3, 0.0, 0.0], atol=1e-15)


def test_qexp_values():
    np.testing.assert_array_equal(qt.qexp([0.0, 0.0, 0.0]), [1.0, 0, 0, 0])
    got = qt.qexp(np.array([0.0, np.pi / 2, 0.0, 0.0]))
    np.testing.assert_allclose(got, [np.cos(np.pi / 2), 1.0, 0.0, 0.0], atol=1e-15)


def test_qexp_rejects_nonzero_scalar():
    with pytest.raises(ValueError):
        qt.qexp([0.5, 1.0, 0.0, 0.0])


def test_qexp_rejects_a_nan_scalar():
    # a NaN scalar slot must not pass for 0 and map to the identity
    with pytest.raises(ValueError):
        qt.qexp([np.nan, 0.0, 0.0, 0.0])


def test_exp_log_roundtrip_random():
    q = qt.random_unit(RNG, N_SAMPLES)
    back = qt.qexp(qt.qlog(q))
    sign = np.sign(np.sum(back * q, axis=1, keepdims=True))
    np.testing.assert_allclose(sign * back, q, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(
        st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
    ).filter(lambda v: 1e-6 < np.linalg.norm(v) <= 1.0),
    st.floats(1e-3, np.pi - 1e-3),
)
def test_log_exp_roundtrip_hypothesis(direction, angle):
    v = np.asarray(direction) / np.linalg.norm(direction) * angle
    np.testing.assert_allclose(qt.qlog_vec(qt.qexp(v)), v, atol=1e-10)


def test_qlog_degenerate_axis_is_zero():
    np.testing.assert_array_equal(qt.qlog([-1.0, 0.0, 0.0, 0.0]), np.zeros(4))


@pytest.mark.parametrize("q", [[np.nan] * 4, [0.5, np.nan, 0.5, 0.5]])
def test_qlog_of_a_nan_vector_part_is_nan(q):
    # a NaN |qv| must not pass for the degenerate axis, which maps to 0
    assert np.all(np.isnan(qt.qlog_vec(q)))


@pytest.mark.parametrize("angle", [1e-6, 1e-9, 1e-11, 1e-13, 1e-100])
def test_qlog_keeps_relative_precision_near_identity(angle):
    # arccos(q0) loses half the digits here and returns 0 below ~1.5e-8
    v = angle * np.array([0.6, 0.0, -0.8])
    np.testing.assert_allclose(qt.qlog_vec(qt.qexp(v)), v, rtol=1e-13, atol=0)


def test_qlog_angle_does_not_depend_on_memory_layout():
    # the same quaternions, row-major and column-major, give the same bits
    # of th l; a sum of squares in memory order differs in 17 646 of these th
    q = qt.random_unit(0, 200_000)
    np.testing.assert_array_equal(qt.qlog_vec(np.ascontiguousarray(q)),
                                  qt.qlog_vec(np.asfortranarray(q)))


# ---------------------------------------------------------------------------
# random sampling


def test_random_unit_is_unit_and_deterministic():
    q1 = qt.random_unit(123)
    q2 = qt.random_unit(123)
    np.testing.assert_array_equal(q1, q2)
    assert abs(qt.qnorm(q1) - 1.0) <= ALGEBRA_ATOL


def test_random_unit_symmetric_on_sphere():
    q = qt.random_unit(7, 100_000)
    np.testing.assert_allclose(qt.qnorm(q), 1.0, atol=ALGEBRA_ATOL)
    assert abs(q[:, 0].mean()) < 0.01


# ---------------------------------------------------------------------------
# one array contract for every algebra entry point

_GAINS = ctl.Gains(np.ones(3), np.ones(3))

# each entry passes `bad` in one argument slot and valid values in the others
_ENTRY_POINTS = {
    "qmul": lambda bad: qt.qmul(bad, qt.IDENTITY),
    "qmul q": lambda bad: qt.qmul(qt.IDENTITY, bad),
    "qconj": qt.qconj,
    "qlog_vec": qt.qlog_vec,
    "qexp": qt.qexp,
    "ensure_unit": qt.ensure_unit,
    "cross_matrix": qt.cross_matrix,
    "compose": lambda bad: aug.compose(bad, aug.IDENTITY),
    "compose y": lambda bad: aug.compose(aug.IDENTITY, bad),
    "as_auq": aug.as_auq,
    "aq": lambda bad: aug.aq(bad, np.zeros(3)),
    "aq t": lambda bad: aug.aq(qt.IDENTITY, bad),
    "aq_inverse": aug.aq_inverse,
    "auq_inverse": aug.auq_inverse,
    "dq": lambda bad: dqm.dq(bad, np.zeros(4)),
    "dq_mul": lambda bad: dqm.dq_mul(bad, dqm.IDENTITY),
    "dq_mul q": lambda bad: dqm.dq_mul(dqm.IDENTITY, bad),
    "from_auq": dqm.from_auq,
    "to_auq": dqm.to_auq,
    "quat_from_rotvec": motion.quat_from_rotvec,
    "pose_error": lambda bad: opt.pose_error(bad, aug.IDENTITY),
    "lyapunov": ctl.lyapunov,
    "proportional_control": lambda bad: ctl.proportional_control(bad, _GAINS),
    "Twist": lambda bad: ctl.Twist(bad, np.zeros(3)),
    "Twist v": lambda bad: ctl.Twist(np.zeros(3), bad),
}


@pytest.mark.parametrize("bad", [1.0, np.ones((2, 5))], ids=["0-d", "trailing-5"])
@pytest.mark.parametrize("call", _ENTRY_POINTS.values(), ids=_ENTRY_POINTS.keys())
def test_entry_points_refuse_a_wrong_trailing_dimension(call, bad):
    with pytest.raises(ValueError, match="expected trailing dimension"):
        call(bad)
