"""Quaternion arithmetic in scalar-first [q0, q1, q2, q3] layout.

Quaternions are plain float ndarrays with trailing dimension 4; every
function broadcasts over arbitrary leading batch dimensions.  The
product convention is the Hamilton one,

    p q = [p0 q0 - p.q,  p0 q + q0 p + p x q],

and the rotation derived from it maps R(q) t to the vector part of the
sandwich q [0, t] q* for unit q (active rotation).  Each formula is
written once: the product in qmul, the rotation in rot_apply_T.  The
matrices L(p), Rm(q) and T(v) are read off qmul and np.cross through
constant tables, and R(q)^T off rot_apply_T applied to the unit vectors.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroMagnitude
from .tolerances import AXIS_EPS, UNIT_NORMALIZE_TOL, ZERO_MAGNITUDE

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
IDENTITY.setflags(write=False)


def _as_quat(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != 4:
        raise ValueError(f"expected trailing dimension 4, got shape {q.shape}")
    return q


def _as_vec3(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != 3:
        raise ValueError(f"expected trailing dimension 3, got shape {v.shape}")
    return v


def qmul(p, q) -> np.ndarray:
    """Hamilton product of two quaternions."""
    p = _as_quat(p)
    q = _as_quat(q)
    p0, pv = p[..., :1], p[..., 1:]
    q0, qv = q[..., :1], q[..., 1:]
    scalar = p0 * q0 - np.sum(pv * qv, axis=-1, keepdims=True)
    vector = p0 * qv + q0 * pv + np.cross(pv, qv)
    return np.concatenate([scalar, vector], axis=-1)


def _table(product, n: int) -> np.ndarray:
    """Row k holds the n x n matrix of a -> product(a, e_k), flattened, so
    that product(a, b) = (b @ table).reshape(n, n) @ a for the bilinear
    product on n-vectors."""
    e = np.eye(n)
    return np.stack([product(e, e_k).T for e_k in e]).reshape(n, n * n)


def _from_table(v: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The matrix sum_k v_k table[k]; every entry is +-v_k or 0, so exact."""
    n = v.shape[-1]
    return (v @ table).reshape(v.shape[:-1] + (n, n))


_QMUL_RIGHT = _table(qmul, 4)
_QMUL_LEFT = _table(lambda q, p: qmul(p, q), 4)
_CROSS_RIGHT = _table(np.cross, 3)
_E3 = np.eye(3)


def qconj(q) -> np.ndarray:
    """Conjugate [q0, -q1, -q2, -q3]."""
    q = _as_quat(q)
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def qnorm(q) -> np.ndarray | float:
    """Euclidean magnitude sqrt(q0^2 + q1^2 + q2^2 + q3^2)."""
    return np.linalg.norm(_as_quat(q), axis=-1)


def qinv(q) -> np.ndarray:
    """Inverse q* / |q|^2.

    Raises ZeroMagnitude when any input magnitude is at or below the
    invertibility threshold.
    """
    q = _as_quat(q)
    n2 = np.sum(q * q, axis=-1, keepdims=True)
    if np.any(np.sqrt(n2) <= ZERO_MAGNITUDE):
        raise ZeroMagnitude("quaternion magnitude too small to invert")
    return qconj(q) / n2


def ensure_unit(q) -> np.ndarray:
    """Validate that q is finite and unit within UNIT_NORMALIZE_TOL; return
    it exactly normalized."""
    q = _as_quat(q)
    if not np.all(np.isfinite(q)):
        raise ValueError("quaternion components must be finite")
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(np.abs(n - 1.0) > UNIT_NORMALIZE_TOL):
        worst = float(np.max(np.abs(n - 1.0)))
        raise ValueError(
            f"quaternion norm deviates from 1 by {worst:.3e} (tol {UNIT_NORMALIZE_TOL:.1e})"
        )
    return q / n


def vector_quat(v) -> np.ndarray:
    """Embed a 3-vector as the vector quaternion [0, v]."""
    v = _as_vec3(v)
    zero = np.zeros(v.shape[:-1] + (1,))
    return np.concatenate([zero, v], axis=-1)


def is_vector_quat(q) -> bool:
    """True when |scalar part| <= AXIS_EPS, i.e. q = -q*."""
    return bool(np.all(np.abs(_as_quat(q)[..., 0]) <= AXIS_EPS))


def cross_matrix(v) -> np.ndarray:
    """Matrix T(v) with p x v = T(v) p  (and p x v = T(p)^T v)."""
    return _from_table(_as_vec3(v), _CROSS_RIGHT)


def rot_matrix_T(q) -> np.ndarray:
    """Transposed rotation matrix R(q)^T: its column j is R(q)^T e_j.

    Defined for arbitrary quaternions (no normalization inside); for unit q
    the transpose R(q) is a proper rotation.
    """
    return np.swapaxes(rot_apply_T(_as_quat(q)[..., None, :], _E3), -1, -2)


def rot_matrix(q) -> np.ndarray:
    """Rotation matrix R(q), the transpose of rot_matrix_T(q)."""
    return np.swapaxes(rot_matrix_T(q), -1, -2)


def rot_apply_T(q, t) -> np.ndarray:
    """R(q)^T t = 2 (qv.t) qv + (q0^2 - qv.qv) t - 2 q0 qv x t, without
    forming the matrix."""
    q = _as_quat(q)
    t = _as_vec3(t)
    q0, qv = q[..., :1], q[..., 1:]
    dot = np.sum(qv * t, axis=-1, keepdims=True)
    scale = q0 * q0 - np.sum(qv * qv, axis=-1, keepdims=True)
    return 2.0 * dot * qv + scale * t - 2.0 * q0 * np.cross(qv, t)


def rot_apply(q, t) -> np.ndarray:
    """R(q) t = R(q*)^T t without forming the matrix."""
    return rot_apply_T(qconj(q), t)


def qlog(q) -> np.ndarray:
    """Logarithm of a unit quaternion [cos th, l sin th] -> [0, th l].

    th = atan2(|qv|, q0) is taken on the short arc [0, pi]; a degenerate
    axis (vector part below AXIS_EPS) maps to the zero vector quaternion.
    """
    q = _as_quat(q)
    zero = np.zeros(q.shape[:-1] + (1,))
    return np.concatenate([zero, _log_vec(q)], axis=-1)


def qlog_vec(q) -> np.ndarray:
    """Vector part of qlog(q): the rotation vector th l with th in [0, pi]."""
    return _log_vec(_as_quat(q))


def _log_vec(q: np.ndarray) -> np.ndarray:
    """qlog_vec without input validation, for inner loops.

    atan2 keeps full relative precision near the identity, where the
    inverse cosine of q0 rounds every th below about 1.5e-8 to zero.
    """
    qv = q[..., 1:]
    vn = np.sqrt(np.einsum("...i,...i->...", qv, qv))[..., None]
    theta = np.arctan2(vn, q[..., :1])
    return np.where(vn > AXIS_EPS, qv * (theta / np.maximum(vn, AXIS_EPS)), 0.0)


def qexp(v) -> np.ndarray:
    """Exponential [0, th l] -> [cos th, l sin th].

    Accepts either a vector quaternion (trailing dim 4, zero scalar slot)
    or a bare 3-vector th l.  The zero vector maps to the identity.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1] == 4:
        if np.any(np.abs(v[..., 0]) > AXIS_EPS):
            raise ValueError("scalar slot of a vector quaternion must be 0")
        v = v[..., 1:]
    v = _as_vec3(v)
    theta = np.linalg.norm(v, axis=-1, keepdims=True)
    # sin(theta)/theta via sinc keeps the removable singularity exact at 0.
    vector = v * np.sinc(theta / np.pi)
    return np.concatenate([np.cos(theta), vector], axis=-1)


def random_unit(seed=None, n: int | None = None) -> np.ndarray:
    """Uniform random unit quaternion(s): normalized standard normals.

    seed may be an int (fresh deterministic stream) or a Generator to
    draw from.  Returns shape (4,) or (n, 4).
    """
    rng = np.random.default_rng(seed)  # a Generator comes back unchanged
    shape = (4,) if n is None else (n, 4)
    q = rng.standard_normal(shape)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def left_matrix(p) -> np.ndarray:
    """4x4 matrix L(p) with p q = L(p) q."""
    return _from_table(_as_quat(p), _QMUL_LEFT)


def right_matrix(q) -> np.ndarray:
    """4x4 matrix Rm(q) with p q = Rm(q) p."""
    return _from_table(_as_quat(q), _QMUL_RIGHT)
