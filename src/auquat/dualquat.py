"""Minimal dual-quaternion arithmetic used as an independent pose oracle.

A dual quaternion is an 8-vector [standard part; dual part].  A unit
dual quaternion has a unit standard part and satisfies the
orthogonality condition q qd* + qd q* = 0; together these make it an
alternative rigid-pose representation against which the 7-component
pose algebra is cross-checked.  Arguments are read through quaternion's
array contract, as in the pose algebra.
"""

from __future__ import annotations

import numpy as np

from . import quaternion as quat
from .errors import ConstraintViolated
from .tolerances import ALGEBRA_ATOL

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
IDENTITY.setflags(write=False)


def dq(std, dual) -> np.ndarray:
    """Assemble a dual quaternion from standard and dual parts."""
    return quat._join(quat._trailing(std, 4), quat._trailing(dual, 4))


def dq_mul(p, q) -> np.ndarray:
    """Product [ps qs; ps qd + pd qs]."""
    p = quat._trailing(p, 8)
    q = quat._trailing(q, 8)
    ps, pd = p[..., :4], p[..., 4:]
    qs, qd = q[..., :4], q[..., 4:]
    return np.concatenate(
        [quat.qmul(ps, qs), quat.qmul(ps, qd) + quat.qmul(pd, qs)], axis=-1
    )


def dq_conj(q) -> np.ndarray:
    """Conjugate [qs*; qd*]."""
    q = quat._trailing(q, 8)
    return np.concatenate([quat.qconj(q[..., :4]), quat.qconj(q[..., 4:])], axis=-1)


def orthogonality_defect(q) -> np.ndarray:
    """Quaternion qs qd* + qd qs*; zero exactly on unit dual quaternions."""
    q = quat._trailing(q, 8)
    qs, qd = q[..., :4], q[..., 4:]
    return quat.qmul(qs, quat.qconj(qd)) + quat.qmul(qd, quat.qconj(qs))


def check_unit(q) -> np.ndarray:
    """Validate both unit-dual-quaternion invariants, returning q.

    Raises ConstraintViolated when |qs| deviates from 1 or the
    orthogonality defect exceeds ALGEBRA_ATOL.
    """
    q = quat._trailing(q, 8)
    dev = np.abs(quat.qnorm(q[..., :4]) - 1.0)
    if not np.all(dev <= ALGEBRA_ATOL):
        raise ConstraintViolated(f"standard part norm deviates by {float(np.max(dev)):.3e}")
    defect = np.linalg.norm(orthogonality_defect(q), axis=-1)
    if not np.all(defect <= ALGEBRA_ATOL):
        raise ConstraintViolated(f"orthogonality defect {float(np.max(defect)):.3e}")
    return q


def from_auq(x) -> np.ndarray:
    """Image [p; p [0, t] / 2] of a pose under the dual-quaternion embedding.

    Multiplicative: from_auq(compose(x, y)) = dq_mul(from_auq(x), from_auq(y)).
    """
    x = quat._trailing(x, 7)
    p, t = x[..., :4], x[..., 4:]
    return np.concatenate([p, 0.5 * quat.qmul(p, quat.vector_quat(t))], axis=-1)


def to_auq(q) -> np.ndarray:
    """Recover the 7-component pose: translation quaternion 2 qs* qd.

    Validates the input invariants.  The scalar slot of the translation
    quaternion, 2 <qs, qd>, is then the orthogonality defect's, at most
    ALGEBRA_ATOL, and is dropped.
    """
    q = check_unit(q)
    t_quat = 2.0 * quat.qmul(quat.qconj(q[..., :4]), q[..., 4:])
    return np.concatenate([q[..., :4], t_quat[..., 1:]], axis=-1)
