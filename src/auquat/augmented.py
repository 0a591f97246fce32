"""Augmented quaternion algebra.

An augmented quaternion (AQ) is a 7-vector [p0, p1, p2, p3, t1, t2, t3]:
a quaternion part followed by a translation part.  The composition rule

    x o y = [p q,  u + R(q)^T t]      for x = [p, t], y = [q, u]

makes the augmented unit quaternions (AUQ: unit quaternion part) a group
representing rigid-body poses: x acts on a point v as R(p)(v + t), i.e.
translate first, then rotate.

All operations broadcast over leading batch dimensions.
"""

from __future__ import annotations

import numpy as np

from . import quaternion as quat
from .errors import AVQClosureViolation, NotInvertible
from .tolerances import AVQ_SCALAR_TOL, ZERO_MAGNITUDE

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
IDENTITY.setflags(write=False)


def identity() -> np.ndarray:
    """Fresh copy of the identity element e = [1, 0, 0, 0, 0, 0, 0]."""
    return IDENTITY.copy()


def _as_aq(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 7:
        raise ValueError(f"expected trailing dimension 7, got shape {x.shape}")
    return x


def aq(p, t) -> np.ndarray:
    """Assemble an AQ from quaternion and translation parts."""
    p = quat._as_quat(p)
    t = quat._as_vec3(t)
    batch = np.broadcast_shapes(p.shape[:-1], t.shape[:-1])
    p = np.broadcast_to(p, batch + (4,))
    t = np.broadcast_to(t, batch + (3,))
    return np.concatenate([p, t], axis=-1)


def random_auq(seed=None, n: int | None = None) -> np.ndarray:
    """Random pose: uniform unit quaternion, translation uniform in [-1, 1]^3."""
    rng = np.random.default_rng(seed)
    q = quat.random_unit(rng, n)
    t = rng.uniform(-1.0, 1.0, (3,) if n is None else (n, 3))
    return np.concatenate([q, t], axis=-1)


def quat_part(x) -> np.ndarray:
    return _as_aq(x)[..., :4]


def trans_part(x) -> np.ndarray:
    return _as_aq(x)[..., 4:]


def as_auq(x) -> np.ndarray:
    """Validate the unit invariant and return x with the quaternion part
    exactly normalized.  Rejects non-finite input and quaternion norms off
    1 by more than UNIT_NORMALIZE_TOL."""
    x = _as_aq(x)
    if not np.all(np.isfinite(x[..., 4:])):
        raise ValueError("translation components must be finite")
    p = quat.ensure_unit(x[..., :4])
    return np.concatenate([p, x[..., 4:]], axis=-1)


def auq(p, t) -> np.ndarray:
    """Assemble an AUQ, normalizing/validating the quaternion part."""
    return aq(quat.ensure_unit(p), t)


def aq_add(x, y) -> np.ndarray:
    """Componentwise vector-space addition."""
    return _as_aq(x) + _as_aq(y)


def aq_scale(a, x) -> np.ndarray:
    """Componentwise scalar multiple."""
    return np.asarray(a, dtype=float)[..., None] * _as_aq(x)


def compose(x, y) -> np.ndarray:
    """Composition x o y = [p q, u + R(q)^T t]."""
    x = _as_aq(x)
    y = _as_aq(y)
    p, t = x[..., :4], x[..., 4:]
    q, u = y[..., :4], y[..., 4:]
    return np.concatenate([quat.qmul(p, q), u + quat.rot_apply_T(q, t)], axis=-1)


def aq_inverse(x) -> np.ndarray:
    """Inverse [p^-1, -R(p) t / |p|^4] of a general AQ.

    Raises NotInvertible when the quaternion part magnitude is at or
    below the invertibility threshold.
    """
    x = _as_aq(x)
    p, t = x[..., :4], x[..., 4:]
    n2 = np.sum(p * p, axis=-1, keepdims=True)
    if np.any(np.sqrt(n2) <= ZERO_MAGNITUDE):
        raise NotInvertible("quaternion part magnitude too small to invert")
    return np.concatenate([quat.qconj(p) / n2, -quat.rot_apply(p, t) / (n2 * n2)], axis=-1)


def auq_inverse(x) -> np.ndarray:
    """Inverse [p*, -R(p) t] specialized to unit quaternion parts.

    Assumes the unit invariant; use aq_inverse for general AQs.
    """
    x = _as_aq(x)
    p, t = x[..., :4], x[..., 4:]
    return np.concatenate([quat.qconj(p), -quat.rot_apply(p, t)], axis=-1)


def sigma_magnitude(x, sigma: float = 1.0) -> np.ndarray | float:
    """Weighted magnitude sqrt(|p|^2 + sigma |t|^2), sigma positive and finite."""
    if not 0.0 < sigma < np.inf:
        raise ValueError("sigma must be positive and finite")
    x = _as_aq(x)
    p2 = np.sum(x[..., :4] ** 2, axis=-1)
    t2 = np.sum(x[..., 4:] ** 2, axis=-1)
    return np.sqrt(p2 + sigma * t2)


def auq_log(x) -> np.ndarray:
    """Logarithm [cos(th/2), l sin(th/2), t] -> [0, (th/2) l, t/2].

    The rotation slot is qlog of the quaternion part; the translation
    slot is halved.  The result is an augmented vector quaternion.
    """
    x = _as_aq(x)
    return np.concatenate([quat.qlog(x[..., :4]), 0.5 * x[..., 4:]], axis=-1)


def avq(r, t) -> np.ndarray:
    """Assemble the augmented vector quaternion [0, r, t]."""
    return aq(quat.vector_quat(r), t)


def is_avq(y) -> bool:
    """True when |scalar slot| <= AVQ_SCALAR_TOL."""
    return bool(np.all(np.abs(_as_aq(y)[..., 0]) <= AVQ_SCALAR_TOL))


def avq_conjugation(x, y) -> np.ndarray:
    """Conjugation x o y o x^-1 of an AVQ y by an invertible AQ x.

    The subspace of augmented vector quaternions is closed under this
    map; a scalar slot above AVQ_SCALAR_TOL raises AVQClosureViolation
    (an arithmetic bug, not a domain error).
    """
    out = compose(compose(_as_aq(x), _as_aq(y)), aq_inverse(x))
    if np.any(np.abs(out[..., 0]) > AVQ_SCALAR_TOL):
        worst = float(np.max(np.abs(out[..., 0])))
        raise AVQClosureViolation(f"conjugation scalar slot {worst:.3e} exceeds tolerance")
    out[..., 0] = 0.0
    return out


def act_on_point(x, v) -> np.ndarray:
    """Apply the pose x to a point: v -> R(p)(v + t).

    Assumes a unit quaternion part; matches the homogeneous-matrix action.
    """
    x = _as_aq(x)
    p, t = x[..., :4], x[..., 4:]
    return quat.rot_apply(p, np.asarray(v, dtype=float) + t)


def to_homogeneous(x) -> np.ndarray:
    """4x4 homogeneous matrix [R(p), R(p) t; 0, 1] of a pose.

    Multiplicative: to_homogeneous(compose(x, y)) equals the matrix
    product of the individual images.
    """
    x = _as_aq(x)
    p, t = x[..., :4], x[..., 4:]
    out = np.zeros(x.shape[:-1] + (4, 4))
    out[..., :3, :3] = quat.rot_matrix(p)
    out[..., :3, 3] = quat.rot_apply(p, t)
    out[..., 3, 3] = 1.0
    return out
