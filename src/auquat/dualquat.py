"""Minimal dual-quaternion arithmetic used as an independent pose oracle.

A dual quaternion is an 8-vector [standard part; dual part].  A unit
dual quaternion has a unit standard part and satisfies the
orthogonality condition q qd* + qd q* = 0; together these make it an
alternative rigid-pose representation against which the 7-component
pose algebra is cross-checked.
"""

from __future__ import annotations

import numpy as np

from . import quaternion as quat
from .errors import ConstraintViolated
from .tolerances import ALGEBRA_ATOL

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
IDENTITY.setflags(write=False)


def _as_dq(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != 8:
        raise ValueError(f"expected trailing dimension 8, got shape {q.shape}")
    return q


def dq(std, dual) -> np.ndarray:
    """Assemble a dual quaternion from standard and dual parts."""
    std = quat._as_quat(std)
    dual = quat._as_quat(dual)
    batch = np.broadcast_shapes(std.shape[:-1], dual.shape[:-1])
    std = np.broadcast_to(std, batch + (4,))
    dual = np.broadcast_to(dual, batch + (4,))
    return np.concatenate([std, dual], axis=-1)


def dq_mul(p, q) -> np.ndarray:
    """Product [ps qs; ps qd + pd qs]."""
    p = _as_dq(p)
    q = _as_dq(q)
    ps, pd = p[..., :4], p[..., 4:]
    qs, qd = q[..., :4], q[..., 4:]
    return np.concatenate(
        [quat.qmul(ps, qs), quat.qmul(ps, qd) + quat.qmul(pd, qs)], axis=-1
    )


def dq_conj(q) -> np.ndarray:
    """Conjugate [qs*; qd*]."""
    q = _as_dq(q)
    return np.concatenate([quat.qconj(q[..., :4]), quat.qconj(q[..., 4:])], axis=-1)


def orthogonality_defect(q) -> np.ndarray:
    """Quaternion qs qd* + qd qs*; zero exactly on unit dual quaternions."""
    q = _as_dq(q)
    qs, qd = q[..., :4], q[..., 4:]
    return quat.qmul(qs, quat.qconj(qd)) + quat.qmul(qd, quat.qconj(qs))


def check_unit(q, atol: float = ALGEBRA_ATOL) -> np.ndarray:
    """Validate both unit-dual-quaternion invariants, returning q.

    Raises ConstraintViolated when |qs| deviates from 1 or the
    orthogonality defect exceeds atol.
    """
    q = _as_dq(q)
    dev = np.abs(quat.qnorm(q[..., :4]) - 1.0)
    if np.any(dev > atol):
        raise ConstraintViolated(f"standard part norm deviates by {float(np.max(dev)):.3e}")
    defect = np.linalg.norm(orthogonality_defect(q), axis=-1)
    if np.any(defect > atol):
        raise ConstraintViolated(f"orthogonality defect {float(np.max(defect)):.3e}")
    return q


def from_auq(x) -> np.ndarray:
    """Image [p; p [0, t] / 2] of a pose under the dual-quaternion embedding.

    Multiplicative: from_auq(compose(x, y)) = dq_mul(from_auq(x), from_auq(y)).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 7:
        raise ValueError(f"expected trailing dimension 7, got shape {x.shape}")
    p, t = x[..., :4], x[..., 4:]
    return np.concatenate([p, 0.5 * quat.qmul(p, quat.vector_quat(t))], axis=-1)


def to_auq(q, atol: float = ALGEBRA_ATOL) -> np.ndarray:
    """Recover the 7-component pose: translation quaternion 2 qs* qd.

    Validates the input invariants and that the recovered translation
    quaternion has a vanishing scalar slot.
    """
    q = check_unit(q, atol)
    t_quat = 2.0 * quat.qmul(quat.qconj(q[..., :4]), q[..., 4:])
    if np.any(np.abs(t_quat[..., 0]) > 1e-10):
        raise ConstraintViolated("recovered translation has a non-zero scalar slot")
    return np.concatenate([q[..., :4], t_quat[..., 1:]], axis=-1)
