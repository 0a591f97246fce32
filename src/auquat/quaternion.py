"""Quaternion arithmetic in scalar-first [q0, q1, q2, q3] layout.

Quaternions are plain float ndarrays with trailing dimension 4; every
function broadcasts over arbitrary leading batch dimensions.  The
product convention is the Hamilton one,

    p q = [p0 q0 - p.q,  p0 q + q0 p + p x q],

and the rotation derived from it maps R(q) t to the vector part of the
sandwich q [0, t] q* for unit q (active rotation).  Each formula is
written once: the product in qmul, the cross product in _cross, the
rotation in rot_apply_T.  The matrices L(p), Rm(q) and T(v) are read off
qmul and _cross through constant tables, R(q)^T off rot_apply_T
applied to the unit vectors, and the quadratic forms in q of R(q)^T t
off rot_apply_T through a constant table too.

One array contract serves the algebra: every entry point here and in
augmented, dualquat and control reads its arguments through _trailing,
which refuses a 0-d or wrongly sized one with a ValueError, and _join
assembles parts.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroMagnitude
from .tolerances import AXIS_EPS, LOG_AXIS_EPS, UNIT_NORMALIZE_TOL, ZERO_MAGNITUDE

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
IDENTITY.setflags(write=False)


def _trailing(x, n: int) -> np.ndarray:
    """x as a float array whose last axis has length n."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (n,):
        raise ValueError(f"expected trailing dimension {n}, got shape {x.shape}")
    return x


def _positive_finite(name: str, *values) -> None:
    """Raise ValueError naming the values unless every entry is positive and finite."""
    if not all(np.all((v > 0.0) & (v < np.inf)) for v in map(np.asarray, values)):
        raise ValueError(f"{name} must be positive and finite")


def _join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Concatenate a and b on the last axis, broadcasting the other axes."""
    batch = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    return np.concatenate([np.broadcast_to(c, batch + c.shape[-1:]) for c in (a, b)], axis=-1)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product a x b of float arrays with trailing dimension 3.

    numpy's cross without its per-call overhead on small arrays: the same
    products and differences into the same output layout, so even a NaN
    payload comes out bit for bit as in numpy's result, broadcast alike.
    """
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2]
    np.multiply(a2, b3, out=out[..., 0])
    out[..., 0] -= a3 * b2
    np.multiply(a3, b1, out=out[..., 1])
    out[..., 1] -= a1 * b3
    np.multiply(a1, b2, out=out[..., 2])
    out[..., 2] -= a2 * b1
    return out


def qmul(p, q) -> np.ndarray:
    """Hamilton product of two quaternions."""
    p = _trailing(p, 4)
    q = _trailing(q, 4)
    p0, pv = p[..., :1], p[..., 1:]
    q0, qv = q[..., :1], q[..., 1:]
    scalar = p0 * q0 - np.sum(pv * qv, axis=-1, keepdims=True)
    vector = p0 * qv + q0 * pv + _cross(pv, qv)
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
_CROSS_RIGHT = _table(_cross, 3)
_E3 = np.eye(3)


def qconj(q) -> np.ndarray:
    """Conjugate [q0, -q1, -q2, -q3]."""
    q = _trailing(q, 4)
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def qnorm(q) -> np.ndarray | float:
    """Euclidean magnitude sqrt(q0^2 + q1^2 + q2^2 + q3^2)."""
    return np.linalg.norm(_trailing(q, 4), axis=-1)


def qinv(q) -> np.ndarray:
    """Inverse q* / |q|^2.

    Raises ZeroMagnitude when any input magnitude is at or below the
    invertibility threshold.
    """
    q = _trailing(q, 4)
    n2 = np.sum(q * q, axis=-1, keepdims=True)
    if np.any(np.sqrt(n2) <= ZERO_MAGNITUDE):
        raise ZeroMagnitude("quaternion magnitude too small to invert")
    return qconj(q) / n2


def ensure_unit(q) -> np.ndarray:
    """Validate that q is finite and unit within UNIT_NORMALIZE_TOL; return
    it exactly normalized."""
    q = _trailing(q, 4)
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
    return _join(np.zeros(1), _trailing(v, 3))


def is_vector_quat(q) -> bool:
    """True when |scalar part| <= AXIS_EPS, i.e. q = -q*."""
    return bool(np.all(np.abs(_trailing(q, 4)[..., 0]) <= AXIS_EPS))


def cross_matrix(v) -> np.ndarray:
    """Matrix T(v) with p x v = T(v) p  (and p x v = T(p)^T v)."""
    return _from_table(_trailing(v, 3), _CROSS_RIGHT)


def rot_matrix_T(q) -> np.ndarray:
    """Transposed rotation matrix R(q)^T: its column j is R(q)^T e_j.

    Defined for arbitrary quaternions (no normalization inside); for unit q
    the transpose R(q) is a proper rotation.
    """
    return np.swapaxes(rot_apply_T(_trailing(q, 4)[..., None, :], _E3), -1, -2)


def rot_matrix(q) -> np.ndarray:
    """Rotation matrix R(q), the transpose of rot_matrix_T(q)."""
    return np.swapaxes(rot_matrix_T(q), -1, -2)


def rot_apply_T(q, t) -> np.ndarray:
    """R(q)^T t = 2 (qv.t) qv + (q0^2 - qv.qv) t - 2 q0 qv x t, without
    forming the matrix."""
    q = _trailing(q, 4)
    t = _trailing(t, 3)
    q0, qv = q[..., :1], q[..., 1:]
    dot = np.sum(qv * t, axis=-1, keepdims=True)
    scale = q0 * q0 - np.sum(qv * qv, axis=-1, keepdims=True)
    return 2.0 * dot * qv + scale * t - 2.0 * q0 * _cross(qv, t)


# Row k holds the forms G_j(e_k) of rot_T_forms, flattened, read off rot_apply_T
# by polarization, G[a, b] = (Q(e_a + e_b) - Q(e_a - e_b)) / 4 for the quadratic
# Q(q) = R(q)^T e_k; every argument and entry is a small integer, so exact.
_E4 = np.eye(4)
_ROT_T_FORMS = ((rot_apply_T((_E4[:, None] + _E4)[:, :, None], _E3)
                 - rot_apply_T((_E4[:, None] - _E4)[:, :, None], _E3)) / 4.0
                ).transpose(2, 3, 0, 1).reshape(3, 48)


def rot_T_forms(t) -> np.ndarray:
    """Symmetric matrices G_j(t), shape (..., 3, 4, 4), with (R(q)^T t)_j =
    q^T G_j(t) q for every quaternion q, so d(R(q)^T t)/dq has rows 2 G_j(t) q."""
    t = _trailing(t, 3)
    return (t @ _ROT_T_FORMS).reshape(t.shape[:-1] + (3, 4, 4))


def rot_apply(q, t) -> np.ndarray:
    """R(q) t = R(q*)^T t without forming the matrix."""
    return rot_apply_T(qconj(q), t)


def qlog(q) -> np.ndarray:
    """Logarithm of a unit quaternion [cos th, l sin th] -> [0, th l].

    th = atan2(|qv|, q0) is taken on the short arc [0, pi]; see qlog_vec
    for the quaternions that map to the zero vector quaternion.
    """
    return vector_quat(qlog_vec(q))


def qlog_vec(q) -> np.ndarray:
    """Vector part of qlog(q): the rotation vector th l with th in [0, pi].

    atan2 keeps full relative precision near the identity, where the
    inverse cosine of q0 rounds every th below about 1.5e-8 to zero.  Only
    qv = 0, and |qv| <= LOG_AXIS_EPS at q0 <= 0, read as the zero rotation.
    A NaN component gives NaN, not the zero rotation.  |qv|^2 is (q1^2 +
    q2^2) + q3^2, as in both RK4 loops of control, in any memory layout.
    """
    q = _trailing(q, 4)
    qv = q[..., 1:]
    vn = np.sqrt(qv[..., :1] ** 2 + qv[..., 1:2] ** 2 + qv[..., 2:] ** 2)
    theta = np.arctan2(vn, q[..., :1])
    zero = vn <= np.where(q[..., :1] > 0.0, 0.0, LOG_AXIS_EPS)
    return np.where(zero, 0.0 * theta, qv * (theta / np.where(zero, 1.0, vn)))


def qexp(v) -> np.ndarray:
    """Exponential [0, th l] -> [cos th, l sin th].

    Accepts either a vector quaternion (trailing dim 4, zero scalar slot)
    or a bare 3-vector th l.  The zero vector maps to the identity.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] == (4,):
        if not is_vector_quat(v):
            raise ValueError("scalar slot of a vector quaternion must be 0")
        v = v[..., 1:]
    v = _trailing(v, 3)
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
    return _from_table(_trailing(p, 4), _QMUL_LEFT)


def right_matrix(q) -> np.ndarray:
    """4x4 matrix Rm(q) with p q = Rm(q) p."""
    return _from_table(_trailing(q, 4), _QMUL_RIGHT)
