"""Six-component motion representation [rotation vector, translation].

The rotation vector r = theta * l (angle theta in [0, 2 pi), unit axis
l) is the briefest rigid-motion encoding, but projecting it out of a
unit quaternion,

    q -> 2 log(q) = 2 atan2(|qv|, q0) / |qv| * qv    (0 when qv = 0),

is discontinuous at q0 = -1: the limit of the output norm there is
2 pi while the point itself, whose axis is degenerate, maps to 0.
Composing rotation vectors by lifting through quaternions inherits a
matching jump where the summed angle wraps past 2 pi.
discontinuity_report measures both jumps; they are why the 7-component
pose algebra, which stays smooth, is used for optimization instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import augmented as aug
from . import quaternion as quat
from .errors import OutOfRange

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Motion:
    """Rotation vector (|r| < 2 pi) plus finite translation."""

    r: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        if self.r.shape != (3,) or self.t.shape != (3,):
            raise ValueError("motion parts must be 3-vectors")
        if not np.linalg.norm(self.r) < TWO_PI:  # NaN fails this too
            raise OutOfRange("rotation vector norm must lie in [0, 2 pi)")
        if not np.all(np.isfinite(self.t)):
            raise ValueError("translation must be finite")


def identity_motion() -> Motion:
    return Motion(np.zeros(3), np.zeros(3))


def rotvec_from_quat(q) -> np.ndarray:
    """Project a unit quaternion to its rotation vector 2 qlog_vec(q).

    The angle 2 atan2(|qv|, q0) keeps full relative precision near the
    identity.  Discontinuous at q0 = -1: the output norm tends to 2 pi
    there, while q0 = -1 itself has a degenerate axis and maps to 0.
    """
    return 2.0 * quat.qlog_vec(q)


def quat_from_rotvec(r) -> np.ndarray:
    """Lift a rotation vector to the half-angle unit quaternion.

    r = theta * l maps to [cos(theta/2), l sin(theta/2)]; requires
    |r| < 2 pi, raising OutOfRange beyond or for NaN.
    """
    r = quat._trailing(r, 3)
    if not np.all(np.linalg.norm(r, axis=-1) < TWO_PI):
        raise OutOfRange("rotation vector norm must lie in [0, 2 pi)")
    return quat.qexp(0.5 * r)


def rot_oplus(r, s) -> np.ndarray:
    """Compose rotation vectors through the quaternion lift.

    The output angle is canonical in [0, 2 pi).  The map is
    discontinuous where the composition wraps to the zero rotation.
    """
    return rotvec_from_quat(quat.qmul(quat_from_rotvec(r), quat_from_rotvec(s)))


def motion_compose(x: Motion, y: Motion) -> Motion:
    """Compose motions by lifting to poses, composing, and projecting back."""
    lifted = aug.compose(
        aug.aq(quat_from_rotvec(x.r), x.t), aug.aq(quat_from_rotvec(y.r), y.t)
    )
    return Motion(rotvec_from_quat(lifted[:4]), lifted[4:])


def _unit_axis(axis) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)  # nan or inf when a component is
    if not 0.0 < n < np.inf:
        raise ValueError("axis must be nonzero and finite")
    return axis / n


def rotvec_jump(axis, delta: float) -> float:
    """Measured jump of rotvec_from_quat at q0 = -1 along a fixed axis.

    Compares |output| at the unit quaternion with q0 = -cos(delta/2)
    (approach point) against the singular quaternion q0 = -1 itself.
    """
    axis = _unit_axis(axis)
    near = np.concatenate([[-np.cos(0.5 * delta)], np.sin(0.5 * delta) * axis])
    at = np.array([-1.0, 0.0, 0.0, 0.0])
    return float(
        abs(np.linalg.norm(rotvec_from_quat(near)) - np.linalg.norm(rotvec_from_quat(at)))
    )


def oplus_jump(axis, delta: float) -> float:
    """Measured jump of rot_oplus at the 2 pi wrap along a fixed axis.

    Same-axis angles pi and pi - delta compose to norm 2 pi - delta,
    while pi and pi compose to the zero vector.
    """
    axis = _unit_axis(axis)
    near = np.linalg.norm(rot_oplus(np.pi * axis, (np.pi - delta) * axis))
    at = np.linalg.norm(rot_oplus(np.pi * axis, np.pi * axis))
    return float(abs(near - at))


def discontinuity_report(axis, deltas) -> np.ndarray:
    """Table of jump magnitudes, one row (delta, rotvec jump, oplus jump)
    per offset; both jumps approach 2 pi as delta goes to 0.  Offsets lie
    in (0, pi]: beyond pi the approach point is no longer near q0 = -1."""
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    if deltas.size == 0:
        raise ValueError("need at least one offset")
    if not np.all((deltas > 0.0) & (deltas <= np.pi)):  # NaN fails this too
        raise ValueError("offsets must lie in (0, pi]")
    rows = [(d, rotvec_jump(axis, d), oplus_jump(axis, d)) for d in deltas]
    return np.array(rows)
