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
on (we . we) te, so one fixed-step RK4 kernel on the seven error columns
(p0, p1, p2, p3, t1, t2, t3) serves both and every run.  integrate runs
it on Python floats and derives theta_e, V, we and the log-branch flag
from the kept states after the loop; integrate_batch runs the same
arithmetic on (B,) arrays and derives V from blocks of kept states.
atan2 is numpy's on both paths, so B = 1 agrees to the last bit.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import augmented as aug
from . import quaternion as quat
from .errors import StepDiverged
from .tolerances import AXIS_EPS, LYAPUNOV_RISE_RTOL

DYNAMICS_EXPONENTIAL = "exponential"
DYNAMICS_TWIST = "twist"

# theta within this of the log branch boundary at pi gets flagged in traces.
LOG_BRANCH_MARGIN = 1e-2


def _positive_finite(values) -> bool:
    values = np.asarray(values, dtype=float)
    return bool(np.all((values > 0.0) & (values < np.inf)))


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
        if not (_positive_finite(self.kr) and _positive_finite(self.kt)):
            raise ValueError("gain entries must be positive and finite")

    @property
    def k_min(self) -> float:
        return float(min(self.kr.min(), self.kt.min()))


@dataclass(frozen=True)
class LyapunovWeights:
    """Positive weights of V = alpha |theta_e|^2 + beta |te|^2."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if not _positive_finite([self.alpha, self.beta]):
            raise ValueError("weights must be positive and finite")


@dataclass(frozen=True)
class Twist:
    """Tangent element [w_quat, v]: angular velocity and translation rate."""

    w: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.w.shape[-1] != 3 or self.v.shape[-1] != 3:
            raise ValueError("twist components must have trailing dimension 3")

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
    return Twist(np.asarray(we, dtype=float), ve)


def proportional_control(xe, gains: Gains) -> Twist:
    """Proportional law xi_e = -2 [0, Kr theta_e, Kt te]."""
    xe = aug._as_aq(xe)
    theta = quat.qlog_vec(xe[..., :4])
    return Twist(-2.0 * gains.kr * theta, -2.0 * gains.kt * xe[..., 4:])


def state_derivative(xe, xi: Twist) -> np.ndarray:
    """Group tangent (1/2)(xe o xi) as a general AQ."""
    return 0.5 * aug.compose(xe, xi.as_aq())


def lyapunov(xe, weights: LyapunovWeights = LyapunovWeights()) -> np.ndarray | float:
    """V = alpha |theta_e|^2 + beta |te|^2."""
    xe = aug._as_aq(xe)
    return _lyapunov_of(quat.qlog_vec(xe[..., :4]), xe[..., 4:], weights)


def _lyapunov_of(theta, te, weights: LyapunovWeights):
    return weights.alpha * np.sum(theta * theta, axis=-1) + weights.beta * np.sum(
        te * te, axis=-1
    )


# Weight c on (we . we) te in the translation slot of each closed loop.
_WW_WEIGHT = {DYNAMICS_EXPONENTIAL: 1.0, DYNAMICS_TWIST: 0.5}


# The kernel's operations beyond + - * / on float and on (B,) array columns;
# axis_scale is theta / |pv|, 0 on the log's degenerate axis.  math.atan2
# differs from np.arctan2 in the last ulp on some inputs, hence numpy's.
_FLOAT_OPS = SimpleNamespace(
    sqrt=math.sqrt, atan2=lambda y, x: float(np.arctan2(y, x)),
    axis_scale=lambda vn, th: th / vn if vn > AXIS_EPS else 0.0)
_ARRAY_OPS = SimpleNamespace(
    sqrt=np.sqrt, atan2=np.arctan2,
    axis_scale=lambda vn, th: np.where(vn > AXIS_EPS, th / np.maximum(vn, AXIS_EPS), 0.0))


def _closed_loop_derivative(xe, kr, kt, ww_weight: float, ops) -> tuple:
    """Derivative of the closed loop on the seven error columns xe.

    xe, kr and kt are columns of Python floats or of (B,) arrays.  With
    h = Kr theta_e = -we / 2, both dynamics share the rotation slot
    (1/2) pe [0, we] = [pv . h, h x pv - p0 h]; the translation slot
    -Kt te + (we . te) we - c (we . we) te reads
    4 (h . te) h - (Kt + 4 c h . h) te with c = ww_weight.
    """
    p0, p1, p2, p3, t1, t2, t3 = xe
    vn = ops.sqrt(p1 * p1 + p2 * p2 + p3 * p3)
    s = ops.axis_scale(vn, ops.atan2(vn, p0))
    h1, h2, h3 = kr[0] * (p1 * s), kr[1] * (p2 * s), kr[2] * (p3 * s)
    ht = 4.0 * (h1 * t1 + h2 * t2 + h3 * t3)
    g = 4.0 * ww_weight * (h1 * h1 + h2 * h2 + h3 * h3)
    return (
        p1 * h1 + p2 * h2 + p3 * h3,
        h2 * p3 - h3 * p2 - p0 * h1,
        h3 * p1 - h1 * p3 - p0 * h2,
        h1 * p2 - h2 * p1 - p0 * h3,
        ht * h1 - (kt[0] + g) * t1,
        ht * h2 - (kt[1] + g) * t2,
        ht * h3 - (kt[2] + g) * t3,
    )


def _rk4_step(xe, kr, kt, dt, ww_weight, ops):
    """One classical RK4 step; returns the renormalized columns and the
    pre-normalization norm residual."""
    k1 = _closed_loop_derivative(xe, kr, kt, ww_weight, ops)
    k2 = _closed_loop_derivative([x + 0.5 * dt * k for x, k in zip(xe, k1)], kr, kt, ww_weight, ops)
    k3 = _closed_loop_derivative([x + 0.5 * dt * k for x, k in zip(xe, k2)], kr, kt, ww_weight, ops)
    k4 = _closed_loop_derivative([x + dt * k for x, k in zip(xe, k3)], kr, kt, ww_weight, ops)
    p0, p1, p2, p3, t1, t2, t3 = [
        x + dt / 6.0 * (a + d + 2.0 * (b + c)) for x, a, b, c, d in zip(xe, k1, k2, k3, k4)
    ]
    norm = ops.sqrt(p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3)
    return (p0 / norm, p1 / norm, p2 / norm, p3 / norm, t1, t2, t3), abs(norm - 1.0)


def _start(x0, xd, dt: float, steps: int, dynamics: str):
    """Validate a run; return its initial error pose and its ww_weight."""
    if not _positive_finite(dt):
        raise ValueError("dt must be positive and finite")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if dynamics not in _WW_WEIGHT:
        raise ValueError(f"unknown dynamics {dynamics!r}")
    x0 = aug.as_auq(np.asarray(x0, dtype=float))
    xd = aug.as_auq(np.asarray(xd, dtype=float))
    return error_auq(x0, xd), _WW_WEIGHT[dynamics]


def _run(xe, kr, kt, dt, steps, ww_weight, ops, on_step):
    """The RK4 loop shared by integrate and integrate_batch.

    Calls on_step(i, state, residual) on the start (i = 0) and after each
    step; raises StepDiverged at the first step whose state is not finite
    or whose float arithmetic raises where arrays would turn inf or nan.
    """
    on_step(0, xe, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            try:
                xe, residual = _rk4_step(xe, kr, kt, dt, ww_weight, ops)
                diverged = not np.isfinite(xe).all()
            except ArithmeticError:
                diverged = True
            if diverged:
                raise StepDiverged(f"non-finite state at step {i}")
            on_step(i, xe, residual)
    return xe


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
    steps on Python floats and keeps only the states; theta, V, we and
    the branch flag are derived from them afterwards.
    """
    xe, ww_weight = _start(x0, xd, dt, steps, dynamics)
    states, renorm = array("d"), array("d")  # flat and compact, unlike lists of tuples

    def keep(i, state, residual):
        states.extend(state)
        renorm.append(residual)

    _run(xe.tolist(), gains.kr.tolist(), gains.kt.tolist(), dt, steps, ww_weight, _FLOAT_OPS, keep)
    states = np.frombuffer(states).reshape(steps + 1, 7)
    theta = quat.qlog_vec(states[:, :4])
    te = states[:, 4:].copy()
    V = _lyapunov_of(theta, te, weights)
    if dynamics == DYNAMICS_EXPONENTIAL:
        rises = np.flatnonzero(np.diff(V) > LYAPUNOV_RISE_RTOL * V[:-1])
        if rises.size:
            i = rises[0] + 1
            raise StepDiverged(f"V rose from {V[i - 1]:.6g} to {V[i]:.6g} at step {i}: "
                               f"dt = {dt:g} is too large for the gains")
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
    Used by the decay-bound verification.
    """
    x0, xd = np.asarray(x0, dtype=float), np.asarray(xd, dtype=float)
    if x0.ndim != 2 or len(x0) < 1 or x0.shape[1] != 7 or xd.shape != x0.shape:
        raise ValueError(f"x0 and xd must have shape (B, 7), got {x0.shape} and {xd.shape}")
    xe, ww_weight = _start(x0, xd, dt, steps, dynamics)
    kr, kt = (np.broadcast_to(np.asarray(k, dtype=float), (len(xe), 3)) for k in (kr, kt))
    if not (_positive_finite(kr) and _positive_finite(kt)):
        raise ValueError("gain entries must be positive and finite")

    V, max_renorm = np.empty((len(xe), steps + 1)), np.zeros(len(xe))
    block = np.empty((min(steps + 1, 64), 7, len(xe)))  # states whose V is still to derive
    err = np.geterr()  # V is derived under the caller's settings, not under _run's

    def keep(i, state, residual):
        np.maximum(max_renorm, residual, out=max_renorm)
        j = i % len(block)
        block[j] = state
        if j == len(block) - 1 or i == steps:
            with np.errstate(**err):
                V[:, i - j : i + 1] = lyapunov(block[: j + 1].transpose(0, 2, 1), weights).T

    columns = _run(tuple(xe.T.copy()), tuple(kr.T.copy()), tuple(kt.T.copy()), dt, steps,
                   ww_weight, _ARRAY_OPS, keep)
    return EnsembleResult(V=V, xe_final=np.stack(columns, axis=-1), max_renorm=max_renorm, dt=dt)
