"""Pose-error kinematics and the proportional set-point controller.

The error pose between the current pose x and the target xd is
xe = x^-1 o xd = [pe, te].  Its kinematics on the pose group read

    d/dt xe = (1/2) (xe o xi_e),    xi_e = [we_quat, ve],

with we the error angular velocity and ve = 2 te_dot - R(we_quat)^T te
the generalized translation rate.  The proportional law

    xi_e = -2 [0, Kr theta_e, Kt te],    [0, theta_e] = log(pe),

drives xe to the identity.  Two closed-loop integrations are provided:

* "exponential" (default): the quaternion slot follows (1/2) pe we_quat
  and the translation slot follows

      te_dot = -Kt te + (we . te) we - (we . we) te,

  for which the Lyapunov function V = alpha |theta_e|^2 + beta |te|^2
  decays monotonically with V(T) <= V(0) exp(-2 kmin T), kmin the
  smallest gain entry.

* "twist": the literal group ODE d/dt xe = (1/2)(xe o xi_e).  Its
  translation slot works out to -Kt te + (we . te) we - (we . we)/2 te,
  whose indefinite cross terms allow |te| to grow transiently while the
  rotation error is large (see the tests for a quantified example), so
  the uniform exponential envelope above does not hold for it.

Both share the quaternion slot and differ only in the weight, 1 or 1/2,
on (we . we) te.  Two fixed-step RK4 loops integrate them, each shaped
to its data and both taking the same floating-point operations in the
same order on each plant:

* integrate steps one plant as seven Python floats (p0, p1, p2, p3, t1,
  t2, t3), unrolled, and derives theta_e, V, we and the log-branch flag
  from the kept states after the loop;
* integrate_batch steps B plants as one (7, B) array, one plant a
  column, with the per-plant dot products added row by row, and derives
  V from blocks of kept states.

One loop cannot serve both: numpy's per-call overhead makes the stacked
loop cost about ten times the float loop per step at B = 1, and a loop
over plants in Python would pay the float loop B times.  atan2 is
numpy's in both, and the kept states are laid out as integrate keeps
them before V is derived, so each plant of a batch gets its integrate
run's V, final state and largest renormalization residual to the last
bit, and a batch raises StepDiverged when a plant's own integrate run
would.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import augmented as aug
from . import quaternion as quat
from .errors import StepDiverged
from .tolerances import LOG_AXIS_EPS, LOG_BRANCH_MARGIN, LYAPUNOV_RISE_RTOL

DYNAMICS_EXPONENTIAL = "exponential"
DYNAMICS_TWIST = "twist"


@dataclass(frozen=True)
class Gains:
    """Diagonal controller gains, all entries positive and finite."""

    kr: np.ndarray
    kt: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kr", np.asarray(self.kr, dtype=float))
        object.__setattr__(self, "kt", np.asarray(self.kt, dtype=float))
        if self.kr.shape != (3,) or self.kt.shape != (3,):
            raise ValueError("gains must be 3-vectors")
        quat._positive_finite("gain entries", self.kr, self.kt)

    @property
    def k_min(self) -> float:
        return float(min(self.kr.min(), self.kt.min()))


@dataclass(frozen=True)
class LyapunovWeights:
    """Positive weights of V = alpha |theta_e|^2 + beta |te|^2."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        quat._positive_finite("weights", self.alpha, self.beta)


@dataclass(frozen=True)
class Twist:
    """Tangent element [w_quat, v]: angular velocity and translation rate."""

    w: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", quat._trailing(self.w, 3))
        object.__setattr__(self, "v", quat._trailing(self.v, 3))

    def as_aq(self) -> np.ndarray:
        """Embed as the augmented vector quaternion [0, w, v]."""
        return aug.avq(self.w, self.v)


@dataclass
class ControlTrace:
    """Per-step record of a closed-loop integration."""

    time: np.ndarray
    xe: np.ndarray
    theta: np.ndarray
    te: np.ndarray
    V: np.ndarray
    we: np.ndarray
    dt: float
    renorm: np.ndarray
    near_branch: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.time) - 1


@dataclass
class EnsembleResult:
    """Lyapunov traces of a batch of independent closed loops."""

    V: np.ndarray
    xe_final: np.ndarray
    max_renorm: np.ndarray
    dt: float


def error_auq(x, xd) -> np.ndarray:
    """Pose error xe = x^-1 o xd = [pe, -R(pe)^T t + td]."""
    return aug.compose(aug.auq_inverse(x), xd)


def error_angular_velocity(pe, w, wd) -> np.ndarray:
    """Error angular velocity wd - R(pe)^T w, the vector part of
    wd_quat - pe* w_quat pe."""
    return np.asarray(wd, dtype=float) - quat.rot_apply_T(pe, w)


def twist_from_error_rates(xe, te_dot, we) -> Twist:
    """Twist [we_quat, ve] with ve = 2 te_dot - R(we_quat)^T te.

    This is the defining relation making d/dt xe = (1/2)(xe o xi_e) hold;
    R is the (non-unit) rotation-matrix polynomial of the vector
    quaternion [0, we], so R^T te = 2 (we . te) we - |we|^2 te.
    """
    te = aug.trans_part(xe)
    ve = 2.0 * np.asarray(te_dot, dtype=float) - quat.rot_apply_T(quat.vector_quat(we), te)
    return Twist(we, ve)


def proportional_control(xe, gains: Gains) -> Twist:
    """Proportional law xi_e = -2 [0, Kr theta_e, Kt te]."""
    xe = quat._trailing(xe, 7)
    theta = quat.qlog_vec(xe[..., :4])
    return Twist(-2.0 * gains.kr * theta, -2.0 * gains.kt * xe[..., 4:])


def state_derivative(xe, xi: Twist) -> np.ndarray:
    """Group tangent (1/2)(xe o xi) as a general AQ."""
    return 0.5 * aug.compose(xe, xi.as_aq())


def lyapunov(xe, weights: LyapunovWeights = LyapunovWeights()) -> np.ndarray | float:
    """V = alpha |theta_e|^2 + beta |te|^2."""
    xe = quat._trailing(xe, 7)
    return _lyapunov_of(quat.qlog_vec(xe[..., :4]), xe[..., 4:], weights)


def _lyapunov_of(theta, te, weights: LyapunovWeights):
    a, b = theta * theta, te * te  # added left to right, as np.sum adds fewer than 8 terms
    return (weights.alpha * (a[..., 0] + a[..., 1] + a[..., 2])
            + weights.beta * (b[..., 0] + b[..., 1] + b[..., 2]))


# Weight c on (we . we) te in the translation slot of each closed loop.
_WW_WEIGHT = {DYNAMICS_EXPONENTIAL: 1.0, DYNAMICS_TWIST: 0.5}
_HALF_PI = np.pi / 2


def _float_derivative(kr, kt, ww_weight: float):
    """The closed loop's derivative on seven Python floats.

    kr and kt are the gains as three floats each.  Returns
    derivative(p0, p1, p2, p3, t1, t2, t3) -> the seven derivative floats.
    With h = Kr theta_e = -we / 2, both dynamics share the rotation slot
    (1/2) pe [0, we] = [pv . h, h x pv - p0 h]; the translation slot
    -Kt te + (we . te) we - c (we . we) te reads
    4 (h . te) h - (Kt + 4 c h . h) te with c = ww_weight.  The log's
    scale theta / |pv| is 0 where qlog_vec reads the zero rotation:
    theta >= pi/2 is its p0 <= 0.  math.atan2 differs from np.arctan2 in
    the last ulp on some inputs, hence numpy's, as on arrays.
    """
    kr1, kr2, kr3 = kr
    kt1, kt2, kt3 = kt
    g4 = 4.0 * ww_weight
    sqrt, atan2 = math.sqrt, np.arctan2

    def derivative(p0, p1, p2, p3, t1, t2, t3):
        vn = sqrt(p1 * p1 + p2 * p2 + p3 * p3)
        th = float(atan2(vn, p0))
        s = 0.0 if vn <= LOG_AXIS_EPS and (vn == 0.0 or th >= _HALF_PI) else th / vn
        h1, h2, h3 = kr1 * (p1 * s), kr2 * (p2 * s), kr3 * (p3 * s)
        ht = 4.0 * (h1 * t1 + h2 * t2 + h3 * t3)
        g = g4 * (h1 * h1 + h2 * h2 + h3 * h3)
        return (
            p1 * h1 + p2 * h2 + p3 * h3,
            h2 * p3 - h3 * p2 - p0 * h1,
            h3 * p1 - h1 * p3 - p0 * h2,
            h1 * p2 - h2 * p1 - p0 * h3,
            ht * h1 - (kt1 + g) * t1,
            ht * h2 - (kt2 + g) * t2,
            ht * h3 - (kt3 + g) * t3,
        )

    return derivative


def _stacked_derivative(kr, kt, ww_weight: float):
    """The closed loop's derivative on a (7, B) state, one plant a column.

    kr and kt are (3, B) gain rows.  Returns
    derivative(p0, pv, t, dp0, dpv, dt), which reads the state's rows p0
    (B,), pv (3, B) and t (3, B) and writes the derivative into the rows
    dp0, dpv and dt.  Every element takes _float_derivative's operations
    in the same order: dot products add their three row products left to
    right, and the cross product h x pv reads row-rolled copies
    (1, 2, 3, 1, 2) of pv and h.  A division by a zero |pv| is
    overwritten by the zero rotation's 0; the caller ignores numpy's
    divide errors.  Its cost is numpy's per-call overhead, so the common
    ufuncs are bound once, outputs are passed positionally and constants
    are 0-d arrays, which numpy takes faster than Python floats.
    """
    four, g4 = np.array(4.0), np.array(4.0 * ww_weight)
    pr, hr = np.empty((2, 5, kr.shape[1]))  # rows p1 p2 p3 p1 p2 and h1 h2 h3 h1 h2
    pv, h, prod = pr[:3], hr[:3], np.empty((3, kr.shape[1]))
    vn, th, s, ht, g = np.empty((5, kr.shape[1]))
    # views made once, as slicing costs about as much as a small ufunc call:
    # the rows (2, 3, 1) and (3, 1, 2), and the wrapped rows 4, 5 with their source
    p231, p312, p_wrap, p_lead = pr[1:4], pr[2:], pr[3:], pr[:2]
    h231, h312, h_wrap, h_lead = hr[1:4], hr[2:], hr[3:], hr[:2]
    prod1, prod2, prod3 = prod
    add, sub, mul = np.add, np.subtract, np.multiply

    def derivative(p0, pvx, t, dp0, dpv, dt):
        pv[...] = pvx
        p_wrap[...] = p_lead
        mul(pv, pv, prod)
        np.sqrt(add(add(prod1, prod2, vn), prod3, vn), vn)
        np.divide(np.arctan2(vn, p0, th), vn, s)
        if np.fmin.reduce(vn) <= LOG_AXIS_EPS:  # some column may read the zero rotation
            s[vn <= np.where(th >= _HALF_PI, LOG_AXIS_EPS, 0.0)] = 0.0
        mul(kr, mul(pv, s, h), h)
        h_wrap[...] = h_lead
        mul(pv, h, prod)
        add(add(prod1, prod2, dp0), prod3, dp0)
        mul(h, t, prod)
        mul(add(add(prod1, prod2, ht), prod3, ht), four, ht)
        mul(h, h, prod)
        mul(add(add(prod1, prod2, g), prod3, g), g4, g)
        sub(mul(h231, p312, dpv), mul(h312, p231, prod), dpv)
        sub(dpv, mul(p0, h, prod), dpv)
        sub(mul(ht, h, dt), mul(add(kt, g, prod), t, prod), dt)

    return derivative


def _start(x0, xd, dt: float, steps: int, dynamics: str):
    """Validate a run; return its initial error pose and its ww_weight."""
    quat._positive_finite("dt", dt)
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ValueError(f"steps must be a non-negative integer, got {steps!r}")
    if dynamics not in _WW_WEIGHT:
        raise ValueError(f"unknown dynamics {dynamics!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        xe = error_auq(aug.as_auq(x0), aug.as_auq(xd))
    if not np.all(np.isfinite(xe)):
        raise ValueError("the start error pose x0^-1 o xd is not finite")
    return xe, _WW_WEIGHT[dynamics]


def _check_no_rise(V, dt: float, batch: bool) -> None:
    """Raise StepDiverged at the first step where a plant's V rises by more
    than LYAPUNOV_RISE_RTOL relative to its previous V.

    V is (B, steps + 1), one plant a row, scanned in blocks of at most 64
    steps.  The message names the earliest rising step and, for a batch,
    the lowest plant rising there.  A V that is inf at both steps
    (inf - inf, an overflow) is no rise.
    """
    for start in range(0, V.shape[1] - 1, 64):
        end = min(start + 64, V.shape[1] - 1)
        prev, cur = V[:, start:end], V[:, start + 1 : end + 1]
        with np.errstate(invalid="ignore"):
            rising = cur - prev > LYAPUNOV_RISE_RTOL * prev
        steps = np.flatnonzero(rising.any(axis=0))
        if steps.size:
            b, i = np.flatnonzero(rising[:, steps[0]])[0], start + steps[0] + 1
            prefix = f"plant {b}: " if batch else ""
            raise StepDiverged(f"{prefix}V rose from {V[b, i - 1]:.6g} to {V[b, i]:.6g} at step "
                               f"{i}: dt = {dt:g} is too large for the gains")


def integrate(
    x0,
    xd,
    gains: Gains,
    dt: float,
    steps: int,
    weights: LyapunovWeights = LyapunovWeights(),
    dynamics: str = DYNAMICS_EXPONENTIAL,
) -> ControlTrace:
    """Integrate the closed loop from x0 toward xd with fixed-step RK4.

    The quaternion part is renormalized after every step and residuals
    recorded.  StepDiverged is raised if the state leaves the finite
    range and, for exponential dynamics, if V rises by more than
    LYAPUNOV_RISE_RTOL in one step: V never rises in exact arithmetic,
    so dt is then past RK4's stability range for the gains.  The loop
    steps on seven Python floats and keeps only the states; theta, V, we
    and the branch flag are derived from them afterwards.
    """
    xe, ww_weight = _start(x0, xd, dt, steps, dynamics)
    f = _float_derivative(gains.kr.tolist(), gains.kt.tolist(), ww_weight)
    sqrt, isfinite = math.sqrt, math.isfinite
    half, sixth = 0.5 * dt, dt / 6.0
    p0, p1, p2, p3, t1, t2, t3 = state = xe.tolist()
    states, renorm = array("d", state), array("d", [0.0])  # flat and compact
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            try:
                a0, a1, a2, a3, a4, a5, a6 = f(p0, p1, p2, p3, t1, t2, t3)
                b0, b1, b2, b3, b4, b5, b6 = f(p0 + half * a0, p1 + half * a1, p2 + half * a2,
                                               p3 + half * a3, t1 + half * a4, t2 + half * a5,
                                               t3 + half * a6)
                c0, c1, c2, c3, c4, c5, c6 = f(p0 + half * b0, p1 + half * b1, p2 + half * b2,
                                               p3 + half * b3, t1 + half * b4, t2 + half * b5,
                                               t3 + half * b6)
                d0, d1, d2, d3, d4, d5, d6 = f(p0 + dt * c0, p1 + dt * c1, p2 + dt * c2,
                                               p3 + dt * c3, t1 + dt * c4, t2 + dt * c5,
                                               t3 + dt * c6)
                p0 = p0 + sixth * (a0 + d0 + 2.0 * (b0 + c0))
                p1 = p1 + sixth * (a1 + d1 + 2.0 * (b1 + c1))
                p2 = p2 + sixth * (a2 + d2 + 2.0 * (b2 + c2))
                p3 = p3 + sixth * (a3 + d3 + 2.0 * (b3 + c3))
                t1 = t1 + sixth * (a4 + d4 + 2.0 * (b4 + c4))
                t2 = t2 + sixth * (a5 + d5 + 2.0 * (b5 + c5))
                t3 = t3 + sixth * (a6 + d6 + 2.0 * (b6 + c6))
                norm = sqrt(p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3)
                p0, p1, p2, p3 = p0 / norm, p1 / norm, p2 / norm, p3 / norm
            except ArithmeticError:  # floats raise where arrays turn inf or nan
                raise StepDiverged(f"non-finite state at step {i}") from None
            state = p0, p1, p2, p3, t1, t2, t3
            # an inf or nan component makes the sum non-finite; a finite
            # sum can overflow, so only then is each component checked
            if not isfinite(p0 + p1 + p2 + p3 + t1 + t2 + t3) and not all(map(isfinite, state)):
                raise StepDiverged(f"non-finite state at step {i}")
            states.extend(state)
            renorm.append(abs(norm - 1.0))
    states = np.frombuffer(states).reshape(steps + 1, 7)
    theta = quat.qlog_vec(states[:, :4])
    te = states[:, 4:].copy()
    V = _lyapunov_of(theta, te, weights)
    if dynamics == DYNAMICS_EXPONENTIAL:
        _check_no_rise(V[None], dt, batch=False)
    return ControlTrace(
        time=np.arange(steps + 1) * dt,
        xe=states,
        theta=theta,
        te=te,
        V=V,
        we=-2.0 * gains.kr * theta,
        dt=dt,
        renorm=np.frombuffer(renorm),
        near_branch=np.linalg.norm(theta, axis=-1) >= np.pi - LOG_BRANCH_MARGIN,
    )


def integrate_batch(
    x0,
    xd,
    kr,
    kt,
    dt: float,
    steps: int,
    weights: LyapunovWeights = LyapunovWeights(),
    dynamics: str = DYNAMICS_EXPONENTIAL,
) -> EnsembleResult:
    """Integrate a batch of independent closed loops, tracing only V.

    x0, xd have shape (B, 7) with B >= 1; kr, kt broadcast to (B, 3).
    Used by the decay-bound verification.  The loop steps one (7, B)
    state; V is derived from blocks of kept states laid out as rows of 7,
    as integrate keeps them, so each plant's V equals its integrate V.
    A batch raises StepDiverged when some plant's own integrate run
    would: at a non-finite state and, for exponential dynamics, at a rise
    of V; the message names the lowest plant that is non-finite, or
    rising, at the earliest such step.
    """
    x0, xd = np.asarray(x0, dtype=float), np.asarray(xd, dtype=float)
    if x0.ndim != 2 or len(x0) < 1 or xd.shape != x0.shape:  # _start checks the 7 columns
        raise ValueError(f"x0 and xd must have shape (B, 7), got {x0.shape} and {xd.shape}")
    xe, ww_weight = _start(x0, xd, dt, steps, dynamics)
    kr, kt = (np.broadcast_to(np.asarray(k, dtype=float), (len(xe), 3)) for k in (kr, kt))
    quat._positive_finite("gain entries", kr, kt)
    f = _stacked_derivative(kr.T.copy(), kt.T.copy(), ww_weight)

    x = xe.T.copy()  # one plant a column
    p, xT = x[:4], x.T
    k1, k2, k3, stage = np.empty((4,) + x.shape)
    # each (7, B) buffer's rows p0, pv and t, as the derivative reads and writes them
    X, K1, K2, K3, S = ((a[0], a[1:4], a[4:]) for a in (x, k1, k2, k3, stage))
    sq0, sq1, sq2, sq3 = squares = k2[:4]  # free once k2 is summed in
    V, norm, max_renorm = np.empty((len(xe), steps + 1)), np.empty(len(xe)), np.zeros(len(xe))
    block = np.empty((min(steps + 1, 64), len(xe), 7))  # states whose V is still to derive
    # bound ufuncs and 0-d arrays, as in _stacked_derivative
    half, sixth, step, two, one = map(np.array, (0.5 * dt, dt / 6.0, float(dt), 2.0, 1.0))
    add, sub, mul = np.add, np.subtract, np.multiply
    err = np.geterr()  # V is derived under the caller's settings, not under the loop's
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(steps + 1):
            if i:
                f(*X, *K1)
                add(x, mul(k1, half, stage), stage)
                f(*S, *K2)
                add(x, mul(k2, half, stage), stage)
                f(*S, *K3)
                add(x, mul(k3, step, stage), stage)
                add(k2, k3, k2)
                f(*S, *K3)  # k4, in k3's place: k2 now holds k2 + k3
                add(add(k1, k3, k1), mul(k2, two, k2), k1)
                add(x, mul(k1, sixth, k1), x)
                mul(p, p, squares)
                np.sqrt(add(add(add(sq0, sq1, norm), sq2, norm), sq3, norm), norm)
                np.divide(p, norm, p)
                # numpy 2 deprecates np.maximum's positional output
                np.maximum(max_renorm, np.abs(sub(norm, one, norm), norm), out=max_renorm)
            j = i % len(block)
            block[j] = xT
            if j == len(block) - 1 or i == steps:
                # the first non-finite kept state is the diverged step
                bad = np.flatnonzero(~np.isfinite(block[: j + 1]).all(axis=(1, 2)))
                if bad.size:
                    plant = np.flatnonzero(~np.isfinite(block[bad[0]]).all(axis=1))[0]
                    raise StepDiverged(f"plant {plant}: non-finite state at step {i - j + bad[0]}")
                with np.errstate(**err):
                    V[:, i - j : i + 1] = lyapunov(block[: j + 1].reshape(-1, 7),
                                                   weights).reshape(j + 1, -1).T
    if dynamics == DYNAMICS_EXPONENTIAL:
        _check_no_rise(V, dt, batch=True)
    return EnsembleResult(V=V, xe_final=x.T.copy(), max_renorm=max_renorm, dt=dt)
