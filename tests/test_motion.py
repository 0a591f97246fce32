import re

import numpy as np
import pytest

from auquat import augmented as aug
from auquat import motion
from auquat import quaternion as qt
from auquat.errors import OutOfRange
from auquat.tolerances import ALGEBRA_ATOL

RNG = np.random.default_rng(55)


def _rand_rotvec(max_angle, rng=RNG):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return axis * rng.uniform(0.0, max_angle)


# ---------------------------------------------------------------------------
# projection q -> rotation vector


def test_rotvec_from_quat_identity_branch():
    np.testing.assert_array_equal(motion.rotvec_from_quat([1.0, 0, 0, 0]), np.zeros(3))
    np.testing.assert_array_equal(motion.rotvec_from_quat([-1.0, 0, 0, 0]), np.zeros(3))


def test_rotvec_from_quat_of_nan_is_nan():
    assert np.all(np.isnan(motion.rotvec_from_quat([np.nan] * 4)))


def test_rotvec_from_quat_direct_value():
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    np.testing.assert_allclose(
        motion.rotvec_from_quat([c, s, 0.0, 0.0]), [np.pi / 2, 0.0, 0.0], atol=1e-14
    )


def test_rotvec_limit_jump_at_antipode():
    axis = np.array([0.0, 0.0, 1.0])
    for delta in (1e-3, 1e-6):
        near = np.concatenate([[-np.cos(delta / 2)], np.sin(delta / 2) * axis])
        out = motion.rotvec_from_quat(near)
        assert np.linalg.norm(out) == pytest.approx(2 * np.pi - delta, abs=1e-9)
    assert motion.rotvec_jump(axis, 1e-6) >= 2 * np.pi - 1e-3


def test_rotvec_continuous_away_from_antipode():
    # sampled modulus of continuity on the region q0 >= -0.8: an input
    # step of 1e-4 moves the output by at most 1e-3
    rng = np.random.default_rng(4)
    step = 1e-4
    for _ in range(500):
        q = qt.random_unit(rng)
        if q[0] < -0.8 + 0.01:
            continue
        d = rng.standard_normal(4)
        d -= (d @ q) * q
        d /= np.linalg.norm(d)
        q2 = q + step * d
        q2 /= np.linalg.norm(q2)
        if q2[0] < -0.8:
            continue
        jump = np.linalg.norm(motion.rotvec_from_quat(q2) - motion.rotvec_from_quat(q))
        assert jump <= 1e-3


# ---------------------------------------------------------------------------
# lift rotation vector -> quaternion


def test_quat_from_rotvec_values():
    np.testing.assert_array_equal(motion.quat_from_rotvec([0.0, 0, 0]), [1.0, 0, 0, 0])
    got = motion.quat_from_rotvec([np.pi, 0.0, 0.0])
    np.testing.assert_allclose(got, [np.cos(np.pi / 2), 1.0, 0.0, 0.0], atol=1e-15)


def test_quat_from_rotvec_range():
    with pytest.raises(OutOfRange):
        motion.quat_from_rotvec([2 * np.pi, 0.0, 0.0])


def test_lift_project_roundtrip():
    for _ in range(500):
        r = _rand_rotvec(2 * np.pi - 1e-6)
        np.testing.assert_allclose(
            motion.rotvec_from_quat(motion.quat_from_rotvec(r)), r, atol=1e-9
        )


@pytest.mark.parametrize("angle", [1e-7, 1e-9])
def test_lift_project_roundtrip_small_angles(angle):
    rng = np.random.default_rng(56)
    for _ in range(100):
        axis = rng.standard_normal(3)
        r = angle * axis / np.linalg.norm(axis)
        got = motion.rotvec_from_quat(motion.quat_from_rotvec(r))
        np.testing.assert_allclose(got, r, rtol=0, atol=1e-12 * angle)


# ---------------------------------------------------------------------------
# rotation-vector composition


def test_oplus_identity_and_same_axis():
    r = np.array([0.3, -0.1, 0.7])
    np.testing.assert_allclose(motion.rot_oplus(r, np.zeros(3)), r, atol=1e-12)
    got = motion.rot_oplus([np.pi / 2, 0, 0], [np.pi / 2, 0, 0])
    np.testing.assert_allclose(got, [np.pi, 0, 0], atol=1e-12)


def test_oplus_agrees_with_quaternion_lift_away_from_wrap():
    # total angle stays below pi, so the lifted product has q0 > 0 and the
    # composed rotation vector must lift straight back to it
    rng = np.random.default_rng(6)
    for _ in range(500):
        r = _rand_rotvec(0.9, rng)
        s = _rand_rotvec(0.9, rng)
        lifted = qt.qmul(motion.quat_from_rotvec(r), motion.quat_from_rotvec(s))
        np.testing.assert_allclose(
            motion.quat_from_rotvec(motion.rot_oplus(r, s)), lifted, atol=ALGEBRA_ATOL
        )


def test_oplus_wrap_jump():
    axis = np.array([1.0, 0.0, 0.0])
    delta = 1e-6
    below = motion.rot_oplus(np.pi * axis, (np.pi - delta) * axis)
    above = motion.rot_oplus(np.pi * axis, (np.pi + delta - 2e-7) * axis)
    at = motion.rot_oplus(np.pi * axis, np.pi * axis)
    assert np.linalg.norm(below) == pytest.approx(2 * np.pi - delta, abs=1e-9)
    assert np.linalg.norm(at) == 0.0
    assert np.linalg.norm(above) > 2 * np.pi - 1e-3
    assert motion.oplus_jump(axis, delta) >= 2 * np.pi - 1e-3


# ---------------------------------------------------------------------------
# motion composition and the report


def test_motion_compose_identity_and_translations():
    x = motion.Motion(np.array([0.2, 0.1, -0.4]), np.array([1.0, 2.0, 3.0]))
    out = motion.motion_compose(x, motion.identity_motion())
    np.testing.assert_allclose(out.r, x.r, atol=1e-12)
    np.testing.assert_allclose(out.t, x.t, atol=1e-12)
    a = motion.Motion(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    b = motion.Motion(np.zeros(3), np.array([0.0, 2.0, 0.0]))
    out = motion.motion_compose(a, b)
    np.testing.assert_allclose(out.t, [1.0, 2.0, 0.0], atol=0)


def test_motion_compose_matches_pose_lift():
    # angles below pi/2 each keep the composition away from the wrap, so
    # lifting the composed motion reproduces the composed pose exactly
    rng = np.random.default_rng(8)
    for _ in range(200):
        x = motion.Motion(_rand_rotvec(1.2, rng), rng.uniform(-1, 1, 3))
        y = motion.Motion(_rand_rotvec(1.2, rng), rng.uniform(-1, 1, 3))
        lifted = aug.compose(
            aug.aq(motion.quat_from_rotvec(x.r), x.t), aug.aq(motion.quat_from_rotvec(y.r), y.t)
        )
        out = motion.motion_compose(x, y)
        np.testing.assert_allclose(
            aug.aq(motion.quat_from_rotvec(out.r), out.t), lifted, atol=ALGEBRA_ATOL
        )


def test_motion_range_invariant():
    with pytest.raises(OutOfRange):
        motion.Motion(np.array([2 * np.pi, 0.0, 0.0]), np.zeros(3))


@pytest.mark.parametrize(
    "r, t, error",
    [
        ([np.nan, 0.0, 0.0], [0.0, 0.0, 0.0], OutOfRange),
        ([0.0, 0.0, 0.0], [np.inf, 0.0, 0.0], ValueError),
        ([0.0, 0.0, 0.0], [0.0, np.nan, 0.0], ValueError),
    ],
)
def test_motion_rejects_non_finite_parts(r, t, error):
    with pytest.raises(error):
        motion.Motion(np.array(r), np.array(t))


def test_nan_rotation_vector_is_out_of_range():
    # |r| >= 2 pi is False for NaN, which must not lift or compose to a rotation
    with pytest.raises(OutOfRange):
        motion.quat_from_rotvec([np.nan, 0.0, 0.0])
    with pytest.raises(OutOfRange):
        motion.rot_oplus([np.nan, 0.0, 0.0], [0.0, 0.0, 1.0])


def test_discontinuity_report():
    table = motion.discontinuity_report([0.0, 0.0, 1.0], [1e-6, 1e-4, 1e-2, 1.0])
    assert table.shape == (4, 3)
    np.testing.assert_allclose(table[:, 0], [1e-6, 1e-4, 1e-2, 1.0])
    # small offsets: jump within 1e-3 of a full turn
    assert np.all(table[:2, 1:] >= 2 * np.pi - 1e-3)
    # jumps shrink smoothly as the offset grows
    assert np.all(np.diff(table[:, 1]) < 0)
    assert np.all(np.diff(table[:, 2]) < 0)
    with pytest.raises(ValueError):
        motion.discontinuity_report([0.0, 0.0, 1.0], [-1.0])
    with pytest.raises(ValueError):
        motion.discontinuity_report([0.0, 0.0, 0.0], [1e-6])
    with pytest.raises(ValueError, match="at least one offset"):
        motion.discontinuity_report([0.0, 0.0, 1.0], [])
    assert motion.discontinuity_report([0.0, 0.0, 1.0], [np.pi]).shape == (1, 3)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: motion.Motion(np.zeros(2), np.zeros(3)), "motion parts must be 3-vectors"),
        (lambda: motion.Motion(np.zeros(3), np.zeros((1, 3))), "motion parts must be 3-vectors"),
        *[(lambda d=d: motion.discontinuity_report([0.0, 0.0, 1.0], [1e-3, d]),
           "offsets must lie in (0, pi]") for d in (0.0, -1.0, np.inf, np.nan, 4.0, 10.0)],
    ],
    ids=["rotvec-2", "translation-1x3", "offset-0", "offset-negative", "offset-inf", "offset-nan",
         "offset-4", "offset-10"],
)
def test_motion_refusals_name_the_input(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
