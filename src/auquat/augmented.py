"""Augmented quaternion algebra.

An augmented quaternion (AQ) is a 7-vector [p0, p1, p2, p3, t1, t2, t3]:
a quaternion part followed by a translation part.  The composition rule

    x o y = [p q,  u + R(q)^T t]      for x = [p, t], y = [q, u]

makes the augmented unit quaternions (AUQ: unit quaternion part) a group
representing rigid-body poses: x acts on a point v as R(p)(v + t), i.e.
translate first, then rotate.

All operations broadcast over leading batch dimensions and follow
quaternion's array contract; aq_inverse raises ZeroMagnitude, as qinv does.
"""

from __future__ import annotations

import numpy as np

from . import quaternion as quat
from .errors import AVQClosureViolation
from .tolerances import AVQ_SCALAR_TOL

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
IDENTITY.setflags(write=False)


def identity() -> np.ndarray:
    """Fresh copy of the identity element e = [1, 0, 0, 0, 0, 0, 0]."""
    return IDENTITY.copy()


def aq(p, t) -> np.ndarray:
    """Assemble an AQ from quaternion and translation parts."""
    return quat._join(quat._trailing(p, 4), quat._trailing(t, 3))


def random_auq(seed=None, n: int | None = None) -> np.ndarray:
    """Random pose: uniform unit quaternion, translation uniform in [-1, 1]^3."""
    rng = np.random.default_rng(seed)
    q = quat.random_unit(rng, n)
    t = rng.uniform(-1.0, 1.0, (3,) if n is None else (n, 3))
    return np.concatenate([q, t], axis=-1)


def quat_part(x) -> np.ndarray:
    return quat._trailing(x, 7)[..., :4]


def trans_part(x) -> np.ndarray:
    return quat._trailing(x, 7)[..., 4:]


def as_auq(x) -> np.ndarray:
    """Validate the unit invariant and return x with the quaternion part
    exactly normalized.  Rejects non-finite input and quaternion norms off
    1 by more than UNIT_NORMALIZE_TOL."""
    x = quat._trailing(x, 7)
    if not np.all(np.isfinite(x[..., 4:])):
        raise ValueError("translation components must be finite")
    p = quat.ensure_unit(x[..., :4])
    return np.concatenate([p, x[..., 4:]], axis=-1)


def auq(p, t) -> np.ndarray:
    """Assemble an AUQ, validated and normalized as as_auq does."""
    return as_auq(aq(p, t))


def aq_add(x, y) -> np.ndarray:
    """Componentwise vector-space addition."""
    return quat._trailing(x, 7) + quat._trailing(y, 7)


def aq_scale(a, x) -> np.ndarray:
    """Componentwise scalar multiple."""
    return np.asarray(a, dtype=float)[..., None] * quat._trailing(x, 7)


def compose(x, y) -> np.ndarray:
    """Composition x o y = [p q, u + R(q)^T t]."""
    x = quat._trailing(x, 7)
    y = quat._trailing(y, 7)
    p, t = x[..., :4], x[..., 4:]
    q, u = y[..., :4], y[..., 4:]
    return np.concatenate([quat.qmul(p, q), u + quat.rot_apply_T(q, t)], axis=-1)


def aq_inverse(x) -> np.ndarray:
    """Inverse [p^-1, -R(p^-1)^T t] = [p^-1, -R(p) t / |p|^4] of a general AQ.

    The quaternion part is quaternion.qinv(p), which raises ZeroMagnitude
    when |p| is at or below the invertibility threshold.
    """
    x = quat._trailing(x, 7)
    p_inv = quat.qinv(x[..., :4])
    return np.concatenate([p_inv, -quat.rot_apply_T(p_inv, x[..., 4:])], axis=-1)


def auq_inverse(x) -> np.ndarray:
    """Inverse [p*, -R(p) t] specialized to unit quaternion parts.

    Assumes the unit invariant; use aq_inverse for general AQs.
    """
    x = quat._trailing(x, 7)
    p, t = x[..., :4], x[..., 4:]
    return np.concatenate([quat.qconj(p), -quat.rot_apply(p, t)], axis=-1)


def sigma_magnitude(x, sigma: float = 1.0) -> np.ndarray | float:
    """Weighted magnitude sqrt(|p|^2 + sigma |t|^2), sigma positive and finite."""
    quat._positive_finite("sigma", sigma)
    x = quat._trailing(x, 7)
    p2 = np.sum(x[..., :4] ** 2, axis=-1)
    t2 = np.sum(x[..., 4:] ** 2, axis=-1)
    return np.sqrt(p2 + sigma * t2)


def auq_log(x) -> np.ndarray:
    """Logarithm [cos(th/2), l sin(th/2), t] -> [0, (th/2) l, t/2].

    The rotation slot is qlog of the quaternion part; the translation
    slot is halved.  The result is an augmented vector quaternion.
    """
    x = quat._trailing(x, 7)
    return np.concatenate([quat.qlog(x[..., :4]), 0.5 * x[..., 4:]], axis=-1)


def avq(r, t) -> np.ndarray:
    """Assemble the augmented vector quaternion [0, r, t]."""
    return aq(quat.vector_quat(r), t)


def is_avq(y) -> bool:
    """True when |scalar slot| <= AVQ_SCALAR_TOL."""
    return bool(np.all(np.abs(quat._trailing(y, 7)[..., 0]) <= AVQ_SCALAR_TOL))


def avq_conjugation(x, y) -> np.ndarray:
    """Conjugation x o y o x^-1 of an AVQ y by an invertible AQ x.

    The subspace of augmented vector quaternions is closed under this
    map; a scalar slot that is_avq refuses (above AVQ_SCALAR_TOL, or NaN)
    raises AVQClosureViolation (an arithmetic bug, not a domain error).
    """
    out = compose(compose(x, y), aq_inverse(x))
    if not is_avq(out):
        worst = float(np.max(np.abs(out[..., 0])))
        raise AVQClosureViolation(f"conjugation scalar slot {worst:.3e} exceeds tolerance")
    out[..., 0] = 0.0
    return out


def act_on_point(x, v) -> np.ndarray:
    """Apply the pose x to a point: v -> R(p)(v + t).

    Assumes a unit quaternion part; matches the homogeneous-matrix action.
    """
    x = quat._trailing(x, 7)
    p, t = x[..., :4], x[..., 4:]
    return quat.rot_apply(p, np.asarray(v, dtype=float) + t)


def to_homogeneous(x) -> np.ndarray:
    """4x4 homogeneous matrix [R(p), R(p) t; 0, 1] of a pose.

    Multiplicative: to_homogeneous(compose(x, y)) equals the matrix
    product of the individual images.
    """
    x = quat._trailing(x, 7)
    p, t = x[..., :4], x[..., 4:]
    out = np.zeros(x.shape[:-1] + (4, 4))
    out[..., :3, :3] = quat.rot_matrix(p)
    out[..., :3, 3] = quat.rot_apply(p, t)
    out[..., 3, 3] = 1.0
    return out
