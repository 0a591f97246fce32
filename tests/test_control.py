from types import SimpleNamespace

import numpy as np
import pytest

from auquat import augmented as aug
from auquat import control as ctl
from auquat import quaternion as qt
from auquat.errors import StepDiverged
from auquat.tolerances import ALGEBRA_ATOL

RNG = np.random.default_rng(42424)
N_SAMPLES = 10_000


def _rand_auq(n=None, rng=RNG):
    q = qt.random_unit(rng, n)
    t = rng.uniform(-1.0, 1.0, (3,) if n is None else (n, 3))
    return np.concatenate([q, t], axis=-1)


def _rand_gains(rng=RNG):
    return ctl.Gains(rng.uniform(0.2, 2.0, 3), rng.uniform(0.2, 2.0, 3))


# ---------------------------------------------------------------------------
# error pose


def test_error_zero_when_on_target():
    x = _rand_auq()
    np.testing.assert_allclose(ctl.error_auq(x, x), aug.IDENTITY, atol=ALGEBRA_ATOL)


def test_error_from_identity_is_target():
    xd = _rand_auq()
    np.testing.assert_allclose(ctl.error_auq(aug.IDENTITY, xd), xd, atol=ALGEBRA_ATOL)


def test_error_closed_form_agrees_with_composition():
    x = _rand_auq(N_SAMPLES)
    xd = _rand_auq(N_SAMPLES)
    composed = ctl.error_auq(x, xd)
    pe = qt.qmul(qt.qconj(x[:, :4]), xd[:, :4])
    te = -qt.rot_apply_T(pe, x[:, 4:]) + xd[:, 4:]
    np.testing.assert_allclose(composed, np.concatenate([pe, te], axis=-1), atol=ALGEBRA_ATOL)
    # rotation error factorizes through the individual rotation matrices
    np.testing.assert_allclose(
        qt.rot_matrix(pe),
        np.einsum("bji,bjk->bik", qt.rot_matrix(x[:, :4]), qt.rot_matrix(xd[:, :4])),
        atol=ALGEBRA_ATOL,
    )


# ---------------------------------------------------------------------------
# error angular velocity


def test_error_angular_velocity_trivial():
    w = np.array([0.1, -0.2, 0.3])
    np.testing.assert_allclose(
        ctl.error_angular_velocity(qt.IDENTITY, w, w), np.zeros(3), atol=ALGEBRA_ATOL
    )
    wd = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(
        ctl.error_angular_velocity(qt.IDENTITY, w, wd), wd - w, atol=ALGEBRA_ATOL
    )


def test_error_angular_velocity_is_vector_quaternion():
    pe = qt.random_unit(RNG, N_SAMPLES)
    w = RNG.standard_normal((N_SAMPLES, 3))
    sandwich = qt.qmul(qt.qmul(qt.qconj(pe), qt.vector_quat(w)), pe)
    np.testing.assert_allclose(sandwich[:, 0], 0.0, atol=ALGEBRA_ATOL)


def test_error_angular_velocity_matrix_oracle():
    pe = qt.random_unit(RNG, 1000)
    w = RNG.standard_normal((1000, 3))
    wd = RNG.standard_normal((1000, 3))
    got = ctl.error_angular_velocity(pe, w, wd)
    sandwich = qt.qmul(qt.qmul(qt.qconj(pe), qt.vector_quat(w)), pe)
    want = wd - sandwich[:, 1:]
    np.testing.assert_allclose(got, want, atol=ALGEBRA_ATOL)


# ---------------------------------------------------------------------------
# twist from rates and the state derivative


def test_twist_trivial_cases():
    xe = _rand_auq()
    d = np.array([0.5, -1.0, 2.0])
    xi = ctl.twist_from_error_rates(xe, d, np.zeros(3))
    np.testing.assert_allclose(xi.v, 2.0 * d, atol=0)
    xe_origin = aug.aq(xe[:4], np.zeros(3))
    we = np.array([0.3, 0.1, -0.2])
    xi = ctl.twist_from_error_rates(xe_origin, d, we)
    np.testing.assert_allclose(xi.v, 2.0 * d, atol=0)


def test_twist_substitution_reconstructs_rates():
    # plugging the twist back into the group derivative must reproduce
    # [pe we_quat / 2, te_dot]
    for _ in range(200):
        xe = _rand_auq()
        te_dot = RNG.standard_normal(3)
        we = RNG.standard_normal(3)
        xi = ctl.twist_from_error_rates(xe, te_dot, we)
        xdot = ctl.state_derivative(xe, xi)
        np.testing.assert_allclose(
            xdot[:4], 0.5 * qt.qmul(xe[:4], qt.vector_quat(we)), atol=ALGEBRA_ATOL
        )
        np.testing.assert_allclose(xdot[4:], te_dot, atol=ALGEBRA_ATOL)


def test_twist_matches_corrected_expansion():
    # expanding ve = 2 te_dot - R(we_quat)^T te with a zero scalar slot
    # gives 2 te_dot - 2 (we.te) we + (we.we) te
    for _ in range(200):
        xe = _rand_auq()
        te = xe[4:]
        te_dot = RNG.standard_normal(3)
        we = RNG.standard_normal(3)
        xi = ctl.twist_from_error_rates(xe, te_dot, we)
        expansion = 2.0 * te_dot - 2.0 * (we @ te) * we + (we @ we) * te
        np.testing.assert_allclose(xi.v, expansion, atol=ALGEBRA_ATOL)


def test_state_derivative_cases():
    xe = _rand_auq()
    zero = ctl.Twist(np.zeros(3), np.zeros(3))
    np.testing.assert_allclose(ctl.state_derivative(xe, zero), np.zeros(7), atol=0)
    w = np.array([0.3, -0.6, 0.2])
    v = np.array([1.0, 0.0, -2.0])
    at_identity = ctl.state_derivative(aug.IDENTITY, ctl.Twist(w, v))
    np.testing.assert_allclose(at_identity, np.concatenate([[0.0], 0.5 * w, 0.5 * v]), atol=0)
    xi = ctl.Twist(w, v)
    got = ctl.state_derivative(xe, xi)
    np.testing.assert_allclose(
        got[:4], 0.5 * qt.qmul(xe[:4], qt.vector_quat(w)), atol=ALGEBRA_ATOL
    )


# ---------------------------------------------------------------------------
# proportional law and Lyapunov function


def test_proportional_control_values():
    g = ctl.Gains(np.ones(3), np.ones(3))
    xi = ctl.proportional_control(aug.IDENTITY, g)
    np.testing.assert_array_equal(xi.w, np.zeros(3))
    np.testing.assert_array_equal(xi.v, np.zeros(3))
    xi = ctl.proportional_control([1.0, 0, 0, 0, 1, 0, 0], g)
    np.testing.assert_array_equal(xi.w, np.zeros(3))
    np.testing.assert_allclose(xi.v, [-2.0, 0.0, 0.0], atol=0)


def test_proportional_control_linear_in_gains():
    xe = _rand_auq()
    g1 = ctl.Gains([1.0, 1, 1], [1.0, 1, 1])
    g2 = ctl.Gains([2.0, 2, 2], [1.0, 1, 1])
    np.testing.assert_allclose(
        ctl.proportional_control(xe, g2).w, 2.0 * ctl.proportional_control(xe, g1).w, atol=0
    )


def test_gains_validation():
    with pytest.raises(ValueError):
        ctl.Gains([1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    g = ctl.Gains([0.5, 2.0, 1.0], [0.3, 1.0, 1.0])
    assert g.k_min == 0.3


def test_lyapunov_values():
    assert ctl.lyapunov(aug.IDENTITY) == 0.0
    assert ctl.lyapunov([1.0, 0, 0, 0, 3, 4, 0]) == pytest.approx(25.0, abs=1e-12)
    c, s = np.cos(np.pi / 2), np.sin(np.pi / 2)
    v = ctl.lyapunov([c, s, 0, 0, 0, 0, 0], ctl.LyapunovWeights(alpha=2.0, beta=1.0))
    assert v == pytest.approx(2.0 * (np.pi / 2) ** 2, rel=1e-12)


def test_lyapunov_weights_validation():
    with pytest.raises(ValueError):
        ctl.LyapunovWeights(alpha=0.0)


# ---------------------------------------------------------------------------
# closed-loop integration


def test_constant_trace_at_target():
    x = _rand_auq()
    trace = ctl.integrate(x, x, _rand_gains(), dt=1e-3, steps=50)
    np.testing.assert_allclose(trace.V, 0.0, atol=1e-28)
    np.testing.assert_allclose(
        trace.xe, np.broadcast_to(aug.IDENTITY, trace.xe.shape), atol=1e-14
    )


def test_pure_translation_decays_like_scalar_ode():
    k = 0.8
    gains = ctl.Gains(np.ones(3), k * np.ones(3))
    x0 = np.array([1.0, 0, 0, 0, 0.0, 0.0, 0.0])
    xd = np.array([1.0, 0, 0, 0, 0.7, -0.4, 0.2])
    dt, steps = 1e-3, 2000
    trace = ctl.integrate(x0, xd, gains, dt, steps)
    expected = trace.te[0] * np.exp(-k * trace.time[-1])
    np.testing.assert_allclose(trace.te[-1], expected, rtol=1e-10)
    # same closed form under the literal group dynamics (we = 0)
    trace2 = ctl.integrate(x0, xd, gains, dt, steps, dynamics=ctl.DYNAMICS_TWIST)
    np.testing.assert_allclose(trace2.te[-1], expected, rtol=1e-10)


def test_decay_envelope_small_ensemble():
    rng = np.random.default_rng(7)
    n = 20
    x0 = _rand_auq(n, rng)
    xd = _rand_auq(n, rng)
    kr = rng.uniform(0.2, 2.0, (n, 3))
    kt = rng.uniform(0.2, 2.0, (n, 3))
    dt, steps = 1e-3, 2000
    res = ctl.integrate_batch(x0, xd, kr, kt, dt, steps)
    k_min = np.minimum(kr.min(axis=1), kt.min(axis=1))
    bound = res.V[:, :1] * np.exp(-2.0 * k_min[:, None] * np.arange(steps + 1) * dt)
    assert np.all(res.V <= bound * 1.01 + 1e-300)
    assert np.all(np.diff(res.V, axis=1) <= 1e-9)
    assert res.max_renorm.max() <= 1e-8


# error rotations [cos th, l sin th] that take each branch of the log
_START_ROTATIONS = {
    "identity": [1.0, 0.0, 0.0, 0.0],
    "near-pi": [np.cos(np.pi - 1e-7), 0.0, np.sin(np.pi - 1e-7), 0.0],
    "negative-scalar": [-0.6, 0.0, 0.48, 0.64],
    "tiny-theta": [np.cos(1e-9), np.sin(1e-9) * 0.6, 0.0, np.sin(1e-9) * 0.8],
    "random": None,
}


def test_single_trace_matches_batch():
    # integrate steps on Python floats, integrate_batch on (1,) arrays:
    # the same arithmetic must give the same bits
    for dynamics in (ctl.DYNAMICS_EXPONENTIAL, ctl.DYNAMICS_TWIST):
        for start, rotation in _START_ROTATIONS.items():
            rng = np.random.default_rng(3)
            x0, xd = _rand_auq(rng=rng), _rand_auq(rng=rng)
            if rotation is not None:
                x0, xd[:4] = aug.IDENTITY, rotation
            gains = _rand_gains(rng)
            trace = ctl.integrate(x0, xd, gains, 1e-3, 200, dynamics=dynamics)
            res = ctl.integrate_batch(
                x0[None], xd[None], gains.kr[None], gains.kt[None], 1e-3, 200, dynamics=dynamics
            )
            case = f"{start} start, {dynamics} dynamics"
            np.testing.assert_allclose(trace.V, res.V[0], atol=0, err_msg=case)
            np.testing.assert_allclose(trace.xe[-1], res.xe_final[0], atol=0, err_msg=case)


def test_single_plant_kernel_runs_on_floats(monkeypatch):
    # the float kernel takes no log of an array; the only call left is
    # the one that derives theta from all kept states after the loop
    calls = []
    log_vec = qt._log_vec

    def counted(q):
        calls.append(q.shape)
        return log_vec(q)

    monkeypatch.setattr(qt, "_log_vec", counted)
    x0, xd, gains = _rand_auq(), _rand_auq(), _rand_gains()
    counts = []
    for steps in (10, 1000):
        calls.clear()
        ctl.integrate(x0, xd, gains, 1e-3, steps)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2


def test_batch_gains_of_shape_3_are_shared():
    rng = np.random.default_rng(8)
    x0, xd = _rand_auq(4, rng), _rand_auq(4, rng)
    kr, kt = rng.uniform(0.2, 2.0, (2, 3))
    shared = ctl.integrate_batch(x0, xd, kr, kt, 1e-3, 20)
    tiled = ctl.integrate_batch(x0, xd, np.tile(kr, (4, 1)), np.tile(kt, (4, 1)), 1e-3, 20)
    np.testing.assert_array_equal(shared.V, tiled.V)


@pytest.mark.parametrize(
    "x0_shape,xd_shape,kr_shape",
    [
        ((7,), (7,), (3,)),
        ((0, 7), (0, 7), (3,)),
        ((2, 7), (3, 7), (3,)),
        ((1, 2, 7), (1, 2, 7), (3,)),
        ((2, 6), (2, 6), (3,)),
        ((2, 7), (2, 7), (2, 4)),
        ((2, 7), (2, 7), (3, 3)),
    ],
    ids=["single-row", "empty", "mismatched-rows", "3d", "six-wide", "gain-width", "gain-rows"],
)
def test_integrate_batch_rejects_bad_shapes(x0_shape, xd_shape, kr_shape):
    def poses(shape):
        return np.broadcast_to(aug.IDENTITY, shape[:-1] + (7,))[..., : shape[-1]].copy()

    with pytest.raises(ValueError):
        ctl.integrate_batch(poses(x0_shape), poses(xd_shape), np.ones(kr_shape), np.ones(3),
                            1e-3, 5)


def test_twist_dynamics_can_grow_transiently():
    # rotation and translation errors aligned on one axis: the group-ODE
    # translation slot -Kt te + (we.te) we - (we.we)/2 te becomes
    # (-kt + |we|^2 / 2) te, which grows while the rotation error is large
    angle = np.pi / 2
    xe0 = np.array([np.cos(angle / 2), np.sin(angle / 2), 0.0, 0.0, 1.0, 0.0, 0.0])
    x0 = aug.IDENTITY.copy()
    xd = xe0  # from identity, the error equals the target
    gains = ctl.Gains([2.0, 2.0, 2.0], [0.2, 0.2, 0.2])
    twist = ctl.integrate(x0, xd, gains, 1e-3, 3000, dynamics=ctl.DYNAMICS_TWIST)
    assert twist.V.max() > twist.V[0] * 1.5  # transient growth
    exponential = ctl.integrate(x0, xd, gains, 1e-3, 3000)
    assert np.all(np.diff(exponential.V) <= 1e-9)  # default stays monotone


def test_group_translation_slot_differs_by_half_w2_te():
    # quantifies the gap between the two closed-loop derivatives
    for _ in range(100):
        xe = _rand_auq()
        gains = _rand_gains()
        xi = ctl.proportional_control(xe, gains)
        group = ctl.state_derivative(xe, xi)
        te = xe[4:]
        we = xi.w
        expected_gap = 0.5 * (we @ we) * te
        exp_td = -gains.kt * te + (we @ te) * we - (we @ we) * te
        np.testing.assert_allclose(group[4:] - exp_td, expected_gap, atol=ALGEBRA_ATOL)


def test_near_branch_flagging():
    # error rotation close to the log branch boundary at theta = pi
    eps = 5e-3
    pe = np.array([-np.cos(eps), np.sin(eps), 0.0, 0.0])
    xd = aug.aq(pe, np.zeros(3))
    trace = ctl.integrate(aug.IDENTITY, xd, _rand_gains(), 1e-3, 5)
    assert trace.near_branch[0]


def test_diverging_step_raises():
    with pytest.raises(StepDiverged):
        ctl.integrate(_rand_auq(), _rand_auq(), _rand_gains(), dt=1e300, steps=5)


@pytest.mark.parametrize("dynamics", [ctl.DYNAMICS_EXPONENTIAL, ctl.DYNAMICS_TWIST])
@pytest.mark.parametrize("dt,step", [(1e300, 1), (1e10, 8)])
def test_divergence_step_is_the_same_on_floats_and_arrays(dt, step, dynamics):
    # the step indices are those of the array kernel the float path replaced
    rng = np.random.default_rng(5)
    x0, xd, gains = _rand_auq(rng=rng), _rand_auq(rng=rng), _rand_gains(rng)
    message = f"non-finite state at step {step}$"
    with pytest.raises(StepDiverged, match=message):
        ctl.integrate(x0, xd, gains, dt, 20, dynamics=dynamics)
    with pytest.raises(StepDiverged, match=message):
        ctl.integrate_batch(x0[None], xd[None], gains.kr, gains.kt, dt, 20, dynamics=dynamics)


def test_rising_lyapunov_function_is_a_diverged_step():
    # unit gains: dt = 2.5 lies past RK4's stability interval, so the state
    # stays finite while V, which the exponential dynamics never raise, grows
    xd = np.array([0.6, 0.8, 0.0, 0.0, 0.5, -0.3, 0.2])
    gains = ctl.Gains(np.ones(3), np.ones(3))
    with pytest.raises(StepDiverged, match=r"at step 1: dt = 2\.5 is too large for the gains$"):
        ctl.integrate(aug.IDENTITY, xd, gains, 2.5, 200)
    assert np.all(np.diff(ctl.integrate(aug.IDENTITY, xd, gains, 2.0, 200).V) < 0.0)
    # the twist dynamics may raise V transiently and are not checked
    twist = ctl.integrate(aug.IDENTITY, xd, gains, 2.5, 200, dynamics=ctl.DYNAMICS_TWIST)
    assert twist.V[1] > twist.V[0]


def test_batch_lyapunov_overflow_warns():
    # the RK4 loop ignores overflow; V of a finite state is derived outside it
    xd = aug.aq(qt.IDENTITY, [1e200, 0.0, 0.0])
    with pytest.warns(RuntimeWarning, match="overflow"):
        ctl.integrate_batch(aug.IDENTITY[None], xd[None], np.ones(3), np.ones(3), 1e-3, 3)


def test_float_arithmetic_error_is_a_diverged_step():
    # Python floats raise ZeroDivisionError where arrays give nan: here a
    # square root stubbed to 0 makes the renormalization norm 0
    ops = SimpleNamespace(sqrt=lambda x: 0.0 * x, atan2=ctl._FLOAT_OPS.atan2,
                          axis_scale=ctl._FLOAT_OPS.axis_scale)
    xe = tuple(_rand_auq().tolist())
    with pytest.raises(StepDiverged, match="non-finite state at step 1$"):
        ctl._run(xe, (1.0,) * 3, (1.0,) * 3, 1e-3, 5, 1.0, ops, lambda *args: None)


def test_integrate_rejects_bad_dt():
    with pytest.raises(ValueError):
        ctl.integrate(_rand_auq(), _rand_auq(), _rand_gains(), dt=0.0, steps=5)


def test_unknown_dynamics_rejected():
    with pytest.raises(ValueError):
        ctl.integrate(_rand_auq(), _rand_auq(), _rand_gains(), 1e-3, 5, dynamics="euler")


def test_steps_must_be_non_negative():
    x0, xd = _rand_auq(), _rand_auq()
    with pytest.raises(ValueError, match="steps"):
        ctl.integrate(x0, xd, _rand_gains(), 1e-3, -1)
    with pytest.raises(ValueError, match="steps"):
        ctl.integrate_batch(x0[None], xd[None], np.ones((1, 3)), np.ones((1, 3)), 1e-3, -1)
    trace = ctl.integrate(x0, xd, _rand_gains(), 1e-3, 0)
    assert trace.xe.shape == (1, 7)
    np.testing.assert_allclose(trace.xe[0], ctl.error_auq(x0, xd), atol=ALGEBRA_ATOL)


def test_rotation_decays_below_arccos_resolution():
    # theta(T) = theta0 exp(-Kr T) = 1e-3 exp(-20) ~ 2.06e-12; a log taken
    # as arccos(q0) reads 0 once theta < ~1.5e-8 and rotation stops there
    theta0, kr, dt, steps = 1e-3, 2.0, 1e-3, 10_000
    xd = np.array([np.cos(theta0), np.sin(theta0), 0.0, 0.0, 0.1, 0.0, 0.0])
    gains = ctl.Gains(kr * np.ones(3), np.ones(3))
    trace = ctl.integrate(aug.IDENTITY, xd, gains, dt, steps)
    exact = theta0 * np.exp(-kr * dt * steps)
    assert np.linalg.norm(trace.xe[-1, 1:4]) <= 2.0 * exact
    np.testing.assert_allclose(np.linalg.norm(trace.theta[-1]), exact, rtol=1e-3)


# ---------------------------------------------------------------------------
# the RK4 kernel against its definitions


def _kernel_states(rng):
    xe = _rand_auq(200, rng)
    xe[0, :4] = qt.IDENTITY  # theta = 0
    xe[1, :4] = [np.cos(np.pi - 1e-7), np.sin(np.pi - 1e-7), 0.0, 0.0]  # theta near pi
    xe[2, :4] = [-np.cos(1e-3), 0.0, np.sin(1e-3), 0.0]
    return xe, rng.uniform(0.2, 2.0, (200, 3)), rng.uniform(0.2, 2.0, (200, 3))


def _assert_matches(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * max(1.0, np.abs(want).max()))


def test_kernel_derivative_matches_group_ode():
    xe, kr, kt = _kernel_states(np.random.default_rng(11))
    got = np.stack(
        ctl._closed_loop_derivative(
            tuple(xe.T), tuple(kr.T), tuple(kt.T), ctl._WW_WEIGHT[ctl.DYNAMICS_TWIST], ctl._ARRAY_OPS
        ),
        axis=-1,
    )
    for b in range(len(xe)):
        xi = ctl.proportional_control(xe[b], ctl.Gains(kr[b], kt[b]))
        _assert_matches(got[b], ctl.state_derivative(xe[b], xi))


def test_kernel_derivative_matches_exponential_closed_form():
    xe, kr, kt = _kernel_states(np.random.default_rng(12))
    got = np.stack(
        ctl._closed_loop_derivative(
            tuple(xe.T), tuple(kr.T), tuple(kt.T), ctl._WW_WEIGHT[ctl.DYNAMICS_EXPONENTIAL],
            ctl._ARRAY_OPS,
        ),
        axis=-1,
    )
    p, t = xe[:, :4], xe[:, 4:]
    w = -2.0 * kr * qt.qlog_vec(p)
    wt = np.sum(w * t, axis=-1, keepdims=True)
    ww = np.sum(w * w, axis=-1, keepdims=True)
    _assert_matches(got[:, :4], 0.5 * qt.qmul(p, qt.vector_quat(w)))
    _assert_matches(got[:, 4:], -kt * t + wt * w - ww * t)


def test_trace_columns_match_per_row_definitions():
    # start 5e-3 inside the log branch margin so near_branch flips early
    pe = np.array([-np.cos(5e-3), np.sin(5e-3), 0.0, 0.0])
    gains = ctl.Gains([1.0, 0.5, 2.0], [0.3, 1.0, 1.5])
    weights = ctl.LyapunovWeights(alpha=2.0, beta=0.5)
    trace = ctl.integrate(aug.IDENTITY, aug.aq(pe, [0.2, -0.1, 0.3]), gains, 1e-3, 300, weights)
    assert trace.near_branch.any() and not trace.near_branch.all()
    for k in range(trace.steps + 1):
        theta = qt.qlog_vec(trace.xe[k, :4])
        np.testing.assert_allclose(trace.theta[k], theta, rtol=1e-15, atol=0)
        np.testing.assert_allclose(trace.we[k], -2.0 * gains.kr * theta, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(trace.te[k], trace.xe[k, 4:])
        np.testing.assert_allclose(trace.V[k], ctl.lyapunov(trace.xe[k], weights), rtol=1e-15)
        assert trace.near_branch[k] == (
            np.linalg.norm(theta) >= np.pi - ctl.LOG_BRANCH_MARGIN
        )


def _per_step_integrate(x0, xd, gains, dt, steps, dynamics):
    # reference: the integrator before the shared kernel, recording each
    # step through compose/qmul and the per-step record
    def derivative(xe):
        p, t = xe[:4], xe[4:]
        w = -2.0 * gains.kr * qt.qlog_vec(p)
        if dynamics == ctl.DYNAMICS_TWIST:
            return 0.5 * aug.compose(xe, aug.avq(w, -2.0 * gains.kt * t))
        p_dot = 0.5 * qt.qmul(p, qt.vector_quat(w))
        t_dot = -gains.kt * t + (w @ t) * w - (w @ w) * t
        return np.concatenate([p_dot, t_dot])

    xe = ctl.error_auq(aug.as_auq(x0), aug.as_auq(xd))
    xes, renorm = [xe], [0.0]
    for _ in range(steps):
        k1 = derivative(xe)
        k2 = derivative(xe + 0.5 * dt * k1)
        k3 = derivative(xe + 0.5 * dt * k2)
        k4 = derivative(xe + dt * k3)
        out = xe + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        norm = np.linalg.norm(out[:4])
        xe = np.concatenate([out[:4] / norm, out[4:]])
        xes.append(xe)
        renorm.append(abs(norm - 1.0))
    return np.array(xes), np.array(renorm)


@pytest.mark.parametrize("dynamics", [ctl.DYNAMICS_EXPONENTIAL, ctl.DYNAMICS_TWIST])
def test_kernel_matches_per_step_integrator(dynamics):
    rng = np.random.default_rng(21)
    x0, xd = _rand_auq(rng=rng), _rand_auq(rng=rng)
    gains = _rand_gains(rng)
    trace = ctl.integrate(x0, xd, gains, 1e-3, 2000, dynamics=dynamics)
    xes, renorm = _per_step_integrate(x0, xd, gains, 1e-3, 2000, dynamics)
    np.testing.assert_allclose(trace.xe, xes, rtol=0, atol=1e-10)
    np.testing.assert_allclose(trace.renorm, renorm, rtol=0, atol=1e-14)
