"""Sphere-constrained least squares over pose variables.

Three problem families share one machinery.  Each residual is the
ambient 7-vector difference of two composed poses:

    hand-eye            z_i  = (a_i o x) - (x o b_i)
    hand-eye + world    z_i  = (a_i o x) - (y o b_i)
    pose graph          z_ij = (x_i^-1 o x_j) - y_ij
                             = [w, t_j - R(w)^T t_i] - y_ij,   w = q_i* q_j

and the objective is (1/2) sum |z|_sigma^2 with the sigma-weighted
magnitude (translation components weighted by sigma).  The feasible set
is a product of unit 3-spheres (one per pose block) times R^3 factors.

Each problem class is its own kernel, which the solver reads only
through `residuals(x)`, the (m, 7) residuals z at the (n, 7) pose blocks
x; `normal_equations(x, z)`, at x for the k blocks `_free_blocks` lists,
a thunk for H (6k, 6k), which only a step calls, and g (k, 6); `gauge`,
the blocks held at the identity; and `initial_guess()` (identity blocks;
for pose graphs `initial`, or else a spanning-forest chaining of the
measurements).  `gradient()` reads `linearize(x)`: the (m, s) blocks
`cols` each residual depends on and the (m, s, 7, 7) ambient Jacobians
dz/dx[cols].  Every family writes H and g in one tangent basis, that of
`_tangent_bases`: the right perturbations L(p)[:, 1:] (p [0, e_k] for
the quaternion p; Sola, Deray and Atchuthan, 2018), which are
orthonormal, so |g| is the norm of the projected gradient.

A hand-eye residual is linear in the pose blocks but for R(q)^T t_a, q
the quaternion of x, so each hand-eye problem forms the matrices of its
pairs once (L(a) - Rm(b) and I - R(b)^T; for the world problem L(a),
Rm(b) and R(b)^T): `residuals` is a few batched products, and
`linearize` fills in only the 3x4 block d(R(q)^T t_a)/dq.  The tangent
Jacobian is one dense (7m, 6s) matrix, so H and g are one product each.

Nothing that does not depend on x is formed twice.  Each problem forms
once the component weights W and sqrt(W) and, for hand-eye, one ambient
Jacobian buffer (holding the pair matrices) and the (7s, 6s) lift
[[B, 0], [0, I]] with its I blocks.  `linearize` and each assembly
rewrite only the 3x4 blocks 2 G(t_a) q in the buffer, and an assembly
the bases B in the lift.  `linearize` returns a copy of the buffer, and
the tangent Jacobian, H and g are new arrays: the caller owns them all.
So one hand-eye problem object is for one thread at a time.

A pose-graph residual takes one quaternion product and no inverse, and
its tangent blocks are closed-form (`_slam_blocks`).  g and H are summed
from them at positions fixed per problem; `linearize` reads the ambient
Jacobian off the same blocks.

Each restart is one tangent-space Gauss-Newton loop.  It evaluates each
point once, and has g assembled from the residuals of the point it
accepts.  Before each step it tests |g|, so a converged start takes no
step, and only a step assembles H.  Steps (minimum-norm least squares
only for a singular system) are halved until the objective falls and
retracted by renormalizing every quaternion block.

A pose graph's objective is invariant under a left translation of each
weakly connected component, so its gauge is the lowest vertex of every
component; a vertex that no edge measures is refused.  One breadth-first
walk at construction yields both the gauge and the spanning forest;
`initial_guess()` chains the forest one depth level at a time, with one
batched `compose` per level.  `solve` sets the gauge blocks of every
start to the identity, and no step moves them.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import augmented as aug
from . import quaternion as quat
from .errors import InfeasibleInit, NonFiniteObjective

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_STALLED = "stalled"


# ---------------------------------------------------------------------------
# problems


def _unit_blocks(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[-1] != 7:
        raise ValueError(f"{what} must have shape (m, 7), got {x.shape}")
    return aug.as_auq(x)


def _free_blocks(problem) -> np.ndarray:
    """The blocks not held, ascending: the rows of every g, tangent basis and step."""
    return np.setdiff1d(np.arange(problem.n_blocks), problem.gauge)


def _component_weights(problem) -> np.ndarray:
    """The weights W of the residual components: 1 for the quaternion, sigma
    for the translation."""
    return np.array([1.0] * 4 + [problem.sigma] * 3)


def _sqrt_component_weights(problem) -> np.ndarray:
    return np.sqrt(problem._weights)


def _tangent_bases(p) -> np.ndarray:
    """The orthonormal bases (..., 4, 3) L(p)[:, 1:] of the tangent spaces of
    S^3 at unit p: the right perturbations, B delta = p [0, delta]."""
    return quat.left_matrix(p)[..., 1:]


@dataclass
class HandEyeProblem:
    """Measurement pairs (a_i, b_i) constraining one unknown pose x.

    At least two pairs with independent rotation axes are needed for a
    well-posed rotation; the solver does not enforce this.
    """

    a: np.ndarray
    b: np.ndarray
    sigma: float = 1.0
    n_blocks = 1
    gauge = np.zeros(0, dtype=int)  # no held blocks: every block is free
    _weights = cached_property(_component_weights)
    _sqrt_weights = cached_property(_sqrt_component_weights)

    def __post_init__(self):
        self.a = _unit_blocks(self.a, "a")
        self.b = _unit_blocks(self.b, "b")
        if self.a.shape != self.b.shape:
            raise ValueError("a and b must hold the same number of poses")
        if len(self.a) < 1:
            raise ValueError("at least one measurement pair is required")
        quat._positive_finite("sigma", self.sigma)

    @cached_property
    def _kernel(self) -> _PairKernel:
        return _handeye_kernel(self.a, self.b)

    def residuals(self, x) -> np.ndarray:
        return self._kernel.residuals(x)

    def linearize(self, x) -> tuple[np.ndarray, np.ndarray]:
        return self._kernel.cols, np.swapaxes(self._kernel.jacobian(x).copy(), -3, -2)

    @cached_property
    def _lift(self) -> tuple[np.ndarray, np.ndarray]:
        """The (7s, 6s) block-diagonal [[B, 0], [0, I]] of the s blocks, its I
        blocks written once, and the (s, 4, 3) view of its B blocks, which
        each assembly rewrites."""
        s = self.n_blocks
        lift = np.zeros((s, 7, s, 6))
        diagonal = np.einsum("bibj->bij", lift)  # a writable view of the blocks (b, :, b, :)
        diagonal[:, 4:, 3:] = np.eye(3)
        return lift.reshape(7 * s, 6 * s), diagonal[:, :4, :3]

    def normal_equations(self, x, z) -> tuple[Callable[[], np.ndarray], np.ndarray]:
        """The sqrt(W)-weighted tangent Jacobian J of the blocks is one dense
        (7m, 6s) matrix, so H and g are one product each."""
        lift, bases = self._lift
        bases[...] = _tangent_bases(x[:, :4])
        jt = self._kernel.jacobian(x).reshape(-1, len(lift)) @ lift
        jt.reshape(len(z), 7, -1)[...] *= self._sqrt_weights[:, None]  # in place, through a view
        return (lambda: jt.T @ jt), ((z * self._sqrt_weights).ravel() @ jt).reshape(-1, 6)

    def initial_guess(self) -> np.ndarray:
        return np.tile(aug.identity(), (self.n_blocks, 1))


@dataclass
class HandEyeWorldProblem(HandEyeProblem):
    """Pairs (a_i, b_i) constraining two unknowns: x and the world pose y."""

    n_blocks = 2

    @cached_property
    def _kernel(self) -> _PairKernel:
        return _world_kernel(self.a, self.b)


@dataclass
class PoseGraphProblem:
    """Relative pose measurements y_ij on directed edges of a graph.

    The vertices are 0, ..., n - 1, and every one must be in an edge, so
    `n` is read off `edges`.  Vertex 0 is held at the identity during
    solves (gauge fixing).  A weakly disconnected graph is not
    identifiable; it is accepted with a warning, and the lowest vertex of
    every other component is held at the identity too.  `gauge` lists the
    held vertices.  Construction walks the graph once, breadth first from
    each lowest unreached vertex in turn; the walk's roots give `gauge` and
    its tree arcs, grouped by the depth of their child, the chaining of
    `initial_guess()`.
    """

    edges: np.ndarray
    measurements: np.ndarray
    sigma: float = 1.0
    initial: np.ndarray | None = None
    n: int = field(init=False)
    _weights = cached_property(_component_weights)
    _sqrt_weights = cached_property(_sqrt_component_weights)

    def __post_init__(self):
        self.edges = np.asarray(self.edges)
        if self.edges.size == 0:
            raise ValueError("a pose graph needs at least one edge")
        if self.edges.ndim != 2 or self.edges.shape[1] != 2:
            raise ValueError("edges must have shape (m, 2)")
        if not np.issubdtype(self.edges.dtype, np.integer):
            raise ValueError(f"edge indices must be integers, got dtype {self.edges.dtype}")
        self.measurements = _unit_blocks(self.measurements, "measurements")
        if len(self.measurements) != len(self.edges):
            raise ValueError("one measurement per edge is required")
        vertices = np.unique(self.edges)
        if vertices[0] < 0:
            raise ValueError(f"edge indices must be nonnegative, got {vertices[0]}")
        self.n = len(vertices)
        if vertices[-1] >= self.n:  # the first k with vertices[k] > k is missing
            raise ValueError(f"vertex {np.argmax(vertices != np.arange(self.n))} "
                             "is in no EDGE record")
        if np.any(self.edges[:, 0] == self.edges[:, 1]):
            raise ValueError("self loops are not allowed")
        quat._positive_finite("sigma", self.sigma)
        if self.initial is not None:
            self.initial = _unit_blocks(self.initial, "initial")
            if len(self.initial) != self.n:
                raise ValueError("initial guess must cover every vertex")
        adj: list[list[tuple[int, int, bool]]] = [[] for _ in range(self.n)]
        for k, (i, j) in enumerate(self.edges.tolist()):
            adj[i].append((j, k, True))
            adj[j].append((i, k, False))
        depth = [-1] * self.n
        gauge, arcs = [], []  # arcs: (depth of child, parent, child, edge, edge points to child)
        for root in range(self.n):
            if depth[root] >= 0:
                continue
            depth[root] = 0
            gauge.append(root)
            queue = deque([root])
            while queue:
                i = queue.popleft()
                for j, k, forward in adj[i]:
                    if depth[j] < 0:
                        depth[j] = depth[i] + 1
                        arcs.append((depth[j], i, j, k, forward))
                        queue.append(j)
        self.gauge = np.array(gauge)
        self._arcs = np.array(arcs, dtype=int)
        if len(gauge) > 1:
            # stacklevel 3: past the dataclass __init__ to its caller
            warnings.warn("pose graph is not weakly connected; solution is not unique",
                          stacklevel=3)

    @property
    def n_blocks(self) -> int:
        return self.n

    def residuals(self, x) -> np.ndarray:
        return residual_slam(x[self.edges[:, 0]], x[self.edges[:, 1]], self.measurements)

    def linearize(self, x) -> tuple[np.ndarray, np.ndarray]:
        """The ambient Jacobians from the tangent blocks J_tan.  z_ij is
        homogeneous in each quaternion block p, of degree 1 in its rotation and
        2 in its translation, so dz/dp p = r = [w, -2u]; L(p) = [p, B] with
        L(p) L(p)^T = |p|^2 I then gives dz/dp = [r, J_tan] L(p)^T / |p|^2."""
        xi, xj = x[self.edges[:, 0]], x[self.edges[:, 1]]
        w, *_, u = kernel = _slam_kernel(xi, xj)
        jac = np.empty((len(w), 2, 7, 7))
        jac[..., 1:] = _slam_blocks(xi[:, 4:], *kernel)
        jac[..., 0] = np.concatenate([w, -2.0 * u], axis=-1)[:, None]
        p = np.stack([xi[:, :4], xj[:, :4]], axis=1)
        jac[..., :4] = (jac[..., :4] @ np.swapaxes(quat.left_matrix(p), -1, -2)
                        / np.sum(p * p, axis=-1)[..., None, None])
        return self.edges, jac

    @cached_property
    def _slots(self) -> tuple[np.ndarray, np.ndarray]:
        """The free blocks, and the (m, 2, 6) rows of g (and of H) that the
        tangent blocks of each edge go to; a held block's go to a spare block."""
        free = _free_blocks(self)
        col = np.full(self.n, len(free))
        col[free] = np.arange(len(free))
        return free, 6 * col[self.edges][..., None] + np.arange(6)

    def normal_equations(self, x, z) -> tuple[Callable[[], np.ndarray], np.ndarray]:
        """g and H summed from the 6x6 tangent blocks of every edge, which
        `_slam_blocks` writes in the bases `_tangent_bases` of the blocks."""
        free, slots = self._slots
        k, sqrt_w = len(free), self._sqrt_weights
        xi = x[self.edges[:, 0]]
        jt = _slam_blocks(xi[:, 4:], *_slam_kernel(xi, x[self.edges[:, 1]]))
        jt *= sqrt_w[:, None]
        grad = np.bincount(slots.ravel(), ((z * sqrt_w)[:, None, None, :] @ jt).ravel(), 6 * k + 6)
        return (lambda: _hessian(jt, slots, k)), grad[:-6].reshape(k, 6)

    @cached_property
    def _levels(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The walk's tree arcs by the depth of their child: (parents,
        children, measurements oriented parent -> child) per level.  Built
        at the first chaining, so a graph given `initial` never inverts a
        measurement."""
        level, parent, child, edge, forward = self._arcs.T
        y = self.measurements[edge]
        y[forward == 0] = aug.auq_inverse(y[forward == 0])
        order = np.argsort(level, kind="stable")
        return [(parent[a], child[a], y[a])
                for a in np.split(order, np.flatnonzero(np.diff(level[order])) + 1)]

    def initial_guess(self) -> np.ndarray:
        """A copy of `initial`, else the tree arcs chained one depth level at
        a time: x[child] = x[parent] o y for every arc of a level at once."""
        if self.initial is not None:
            return self.initial.copy()
        x = np.tile(aug.identity(), (self.n, 1))
        for parent, child, y in self._levels:
            x[child] = aug.compose(x[parent], y)
        return x


Problem = HandEyeProblem | HandEyeWorldProblem | PoseGraphProblem


# ---------------------------------------------------------------------------
# residuals, objective, gradient


class _PairKernel:
    """The residuals z = (a o x) - (y o b) of one hand-eye family from
    per-problem matrices, broadcast over the pairs (a, b); y is x for
    hand-eye.  For x = [q, t], z is linear in the pose blocks but for
    R(q)^T t_a = [q^T G_j(t_a) q]_j (quaternion.rot_T_forms), so

        z = lin x + [0, q^T G(t_a) q - t_b],    dz/dx = lin + [[0, 0], [2 G(t_a) q, 0]]

    where lin (..., s, 7, 7) is dz/dx with x's translation-by-quaternion
    block zero, and the second term is in the block of x.  lin is stored
    laid out (..., 7, s, 7), row-major in the residual components, so that
    z is one product and `jacobian`'s buffer is one dense (7m, 7s) matrix.
    """

    def __init__(self, lin, a, b):
        s = lin.shape[-3]
        self.batch = lin.shape[:-3]
        self.cols = np.broadcast_to(np.arange(s), self.batch + (s,))
        self._rows = np.ascontiguousarray(np.swapaxes(lin, -3, -2))
        self._dense = self._rows.reshape(-1, 7 * s)
        self._forms = quat.rot_T_forms(a[..., 4:]).reshape(-1, 4)  # (12 m, 4)
        self._t_b = b[..., 4:]

    def residuals(self, x) -> np.ndarray:
        """The (..., 7) residuals at the (s, 7) pose blocks x."""
        q = x[0, :4]
        z = (self._dense @ x.ravel()).reshape(self.batch + (7,))
        z[..., 4:] += ((self._forms @ q).reshape(-1, 4) @ q).reshape(self.batch + (3,))
        z[..., 4:] -= self._t_b
        return z

    @cached_property
    def _jac(self) -> np.ndarray:
        """The one buffer `jacobian` rewrites, made at its first call."""
        return self._rows.copy()

    def jacobian(self, x) -> np.ndarray:
        """The ambient Jacobians dz/dx at x, laid out as lin: the kernel's one
        buffer, its translation-by-quaternion block rewritten at x, valid until
        the next call."""
        self._jac[..., 4:, 0, :4] = 2.0 * (self._forms @ x[0, :4]).reshape(self.batch + (3, 4))
        return self._jac


def _jacobian(qq, tt) -> np.ndarray:
    """The (..., 7, 7) Jacobian [[qq, 0], [0, tt]] of a map [p, t] -> [p', t']
    whose p' and t' depend on p and t alone, broadcast over the blocks."""
    out = np.zeros(np.broadcast_shapes(qq.shape[:-2], tt.shape[:-2]) + (7, 7))
    out[..., :4, :4] = qq
    out[..., 4:, 4:] = tt
    return out


def _compose_jac_left(y) -> np.ndarray:
    """d compose(x, y) / d x = [[Rm(q), 0], [0, R(q)^T]] for y = [q, u]."""
    q = np.asarray(y, dtype=float)[..., :4]
    return _jacobian(quat.right_matrix(q), quat.rot_matrix_T(q))


def _pairs(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a and b broadcast alike, and [[L(p_a), 0], [0, I]]: d(a o x)/dx but for
    its x-dependent block."""
    a, b = np.broadcast_arrays(quat._trailing(a, 7), quat._trailing(b, 7))
    return a, b, _jacobian(quat.left_matrix(a[..., :4]), np.eye(3))


def _handeye_kernel(a, b) -> _PairKernel:
    """(a o x) - (x o b) = [(L(p_a) - Rm(p_b)) q, R(q)^T t_a + (I - R(p_b)^T) t - t_b]."""
    a, b, left = _pairs(a, b)
    return _PairKernel((left - _compose_jac_left(b))[..., None, :, :], a, b)


def _world_kernel(a, b) -> _PairKernel:
    """(a o x) - (y o b) = [L(p_a) q - Rm(p_b) r, R(q)^T t_a + t - R(p_b)^T s - t_b]
    for y = [r, s]."""
    a, b, left = _pairs(a, b)
    return _PairKernel(np.stack([left, -_compose_jac_left(b)], axis=-3), a, b)


def _single_poses(*poses) -> np.ndarray:
    """(s, 7) pose blocks of single poses."""
    return np.stack([np.reshape(quat._trailing(p, 7), 7) for p in poses])


def residual_handeye(x, a, b) -> np.ndarray:
    """Ambient residual (a o x) - (x o b) of one pose x, broadcast over the pairs."""
    return _handeye_kernel(a, b).residuals(_single_poses(x))


def residual_handeye_world(x, y, a, b) -> np.ndarray:
    """Ambient residual (a o x) - (y o b) of one pose x and y each, broadcast over the pairs."""
    return _world_kernel(a, b).residuals(_single_poses(x, y))


def _slam_kernel(xi, xj) -> tuple[np.ndarray, ...]:
    """w = q_i* q_j = L(q_i)^T q_j, L(w), Rm(w), R(w)^T (of t -> w* [0, t] w,
    so a block of L(w)^T Rm(w)) and u = R(w)^T t_i of the poses x_i =
    [q_i, t_i] and x_j: x_i^-1 o x_j = [w, t_j - u] with no inverse."""
    w = (np.swapaxes(quat.left_matrix(xi[..., :4]), -1, -2) @ xj[..., :4, None])[..., 0]
    left, right = quat.left_matrix(w), quat.right_matrix(w)
    rot_t = (np.swapaxes(left, -1, -2) @ right)[..., 1:, 1:]
    return w, left, right, rot_t, (rot_t @ xi[..., 4:, None])[..., 0]


def _slam_blocks(ti, w, left, right, rot_t, u) -> np.ndarray:
    """The (..., 2, 7, 6) Jacobians of z_ij in x_i and x_j along the tangent
    bases [[B, 0], [0, I]] for B = `_tangent_bases`(p) = L(p)[:, 1:] of the
    quaternion p of each pose, T = quaternion.cross_matrix:

        x_i: [[-Rm(w)[:, 1:], 0], [-2 R(w)^T T(t_i), -R(w)^T]]
        x_j: [[ L(w)[:, 1:],  0], [ 2 T(u),           I     ]]

    as the perturbation p [0, e_k] of q_i or q_j moves w by -[0, e_k] w or
    w [0, e_k], and u by 2 R(w)^T (e_k x t_i) or 2 u x e_k."""
    jt = np.zeros(w.shape[:-1] + (2, 7, 6))
    jt[..., 0, :4, :3] = -right[..., 1:]
    jt[..., 0, 4:, :3] = -2.0 * rot_t @ quat.cross_matrix(ti)
    jt[..., 0, 4:, 3:] = -rot_t
    jt[..., 1, :4, :3] = left[..., 1:]
    jt[..., 1, 4:, :3] = 2.0 * quat.cross_matrix(u)
    jt[..., 1, 4:, 3:] = np.eye(3)
    return jt


def _hessian(jt, slots, k) -> np.ndarray:
    """A pose graph's H (6k, 6k): the products J_s^T J_t of the (m, 2, 7, 6)
    tangent blocks jt summed at the rows `slots` (PoseGraphProblem._slots)
    and their columns, the spare block cut off."""
    n = 6 * k + 6
    blocks = np.swapaxes(jt, 2, 3)[:, :, None] @ jt[:, None]  # (m, 2, 2, 6, 6)
    at = n * slots[:, :, None, :, None] + slots[:, None, :, None, :]
    return np.bincount(at.ravel(), blocks.ravel(), n * n).reshape(n, n)[:-6, :-6]


def residual_slam(xi, xj, yij) -> np.ndarray:
    """Ambient residual (xi^-1 o xj) - yij = [w, t_j - R(w)^T t_i] - yij, w = q_i* q_j.

    Invariant under a common left factor on xi and xj, which is the
    gauge freedom resolved by holding vertex 0.
    """
    xi, xj = quat._trailing(xi, 7), quat._trailing(xj, 7)
    w, *_, u = _slam_kernel(xi, xj)
    return np.concatenate([w, xj[..., 4:] - u], axis=-1) - np.asarray(yij, dtype=float)


def _as_blocks(problem: Problem, x) -> np.ndarray:
    n = problem.n_blocks
    x = np.asarray(x, dtype=float)
    if x.ndim == 1 and x.size == 7 * n:
        x = x.reshape(n, 7)
    if x.shape != (n, 7):
        raise ValueError(f"expected {n} pose blocks, got shape {x.shape}")
    return x


def residuals(problem: Problem, x) -> np.ndarray:
    """Stacked residual block matrix of shape (m, 7)."""
    return problem.residuals(_as_blocks(problem, x))


def _evaluate(problem: Problem, x) -> tuple[np.ndarray, float]:
    """The residuals z at x and the objective f they give."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, handled by callers
        z = residuals(problem, x)
        return z, 0.5 * float(((z * z) @ problem._weights).sum())


def objective(problem: Problem, x) -> float:
    """(1/2) sum of squared sigma-weighted residual magnitudes."""
    return _evaluate(problem, x)[1]


def gradient(problem: Problem, x) -> np.ndarray:
    """Ambient gradient of the objective, flattened to length 7 n."""
    x = _as_blocks(problem, x)
    z = problem.residuals(x)
    cols, jac = problem.linearize(x)
    grad = np.zeros((problem.n_blocks, 7))
    np.add.at(grad, cols, np.einsum("msij,mi->msj", jac, z * problem._weights))
    return grad.ravel()


def pose_error(x, x_true) -> tuple[np.ndarray | float, np.ndarray | float]:
    """(rotation geodesic distance in rad, translation distance).

    The rotation part is 2 |qlog_vec(w)| for w = p* p_true taken with a
    nonnegative scalar part, so it is invariant under the quaternion
    double cover and exactly 0 for equal poses.
    """
    x = quat._trailing(x, 7)
    x_true = quat._trailing(x_true, 7)
    w = quat.qmul(quat.qconj(x[..., :4]), x_true[..., :4])
    w = np.where(w[..., :1] < 0.0, -w, w)
    rot = 2.0 * np.linalg.norm(quat.qlog_vec(w), axis=-1)
    trans = np.linalg.norm(x[..., 4:] - x_true[..., 4:], axis=-1)
    if rot.ndim == 0:
        return float(rot), float(trans)
    return rot, trans


# ---------------------------------------------------------------------------
# solver


@dataclass
class SolverConfig:
    """Stopping rule and restart strategy.

    Each restart takes at most max_iters tangent-space Gauss-Newton
    steps and stops converged, before a step, once its tangent gradient
    norm is at most grad_tol.  At most `restarts` restarts run; the first
    converged one ends the solve.  Quaternion blocks are renormalized
    after every ambient update.
    """

    max_iters: int = 60
    grad_tol: float = 1e-10
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        quat._positive_finite("grad_tol", self.grad_tol)
        for name, count in (("max_iters", self.max_iters), ("restarts", self.restarts)):
            if not isinstance(count, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {count!r}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass
class RestartRecord:
    solution: np.ndarray
    objective: float
    grad_norm: float
    iterations: int
    status: str


@dataclass
class SolveResult(RestartRecord):
    restarts: list[RestartRecord] = field(default_factory=list)


def _retract(x) -> np.ndarray:
    """x with every quaternion block renormalized, in place."""
    q = x[:, :4]
    q /= np.sqrt(np.add.reduce(q * q, axis=-1, keepdims=True))
    return x


def _norm(g) -> float:
    """The Euclidean norm of g, as np.linalg.norm(g) computes it."""
    g = g.ravel()
    return math.sqrt(g.dot(g))


def _check_init(problem: Problem, init) -> np.ndarray:
    try:
        return aug.as_auq(_as_blocks(problem, init))
    except ValueError as exc:
        raise InfeasibleInit(f"infeasible initial guess: {exc}") from None


def _gauss_newton_step(hess, grad) -> np.ndarray:
    """The (k, 6) step solving H delta = -g; lstsq only when H is singular, as when
    identity-rotation hand-eye pairs leave x's translation unobserved (zero J columns)."""
    try:
        delta = np.linalg.solve(hess, -grad.ravel())
    except np.linalg.LinAlgError:
        delta, *_ = np.linalg.lstsq(hess, -grad.ravel(), rcond=None)
    return delta.reshape(grad.shape)


def _descend(problem: Problem, x, cfg: SolverConfig) -> RestartRecord:
    """Tangent-space Gauss-Newton with step halving from a feasible x.

    x's gauge blocks must be the identity; the step is zero there, so
    every trial point keeps them exactly.

    g is formed at x and after each accepted step, which strictly lowers
    f, and H only for a step.  The loop ends before a step once |g| <=
    grad_tol, else when the cap is spent, no halved step lowers f, or the
    relative decrease is at rounding level; the last |g| sets the status.
    """
    z, f = _evaluate(problem, x)
    if not np.isfinite(f):
        raise NonFiniteObjective("objective is not finite at the initial point")
    free = _free_blocks(problem)
    hessian, grad = problem.normal_equations(x, z)
    g_norm = _norm(grad)
    step = np.zeros_like(x)  # zero on the held blocks throughout
    iterations = 0
    status = STATUS_STALLED
    for _ in range(cfg.max_iters):
        if g_norm <= cfg.grad_tol:
            break
        delta = _gauss_newton_step(hessian(), grad)
        if not np.isfinite(delta).all():
            break
        step[free, :4] = np.einsum("kij,kj->ki", _tangent_bases(x[free, :4]), delta[:, :3])
        step[free, 4:] = delta[:, 3:]
        alpha = 1.0
        while alpha >= 2.0 ** -24:
            x_new = _retract(x + alpha * step)
            z_new, f_new = _evaluate(problem, x_new)
            if np.isfinite(f_new) and f_new < f:
                break
            alpha *= 0.5
        else:  # no halved step lowers the objective
            break
        improvement = f - f_new
        x, z, f = x_new, z_new, f_new
        iterations += 1
        hessian, grad = problem.normal_equations(x, z)
        g_norm = _norm(grad)
        if improvement <= 1e-15 * f:
            break
    else:  # the cap was spent
        status = STATUS_MAX_ITERS

    if g_norm <= cfg.grad_tol:
        status = STATUS_CONVERGED
    return RestartRecord(x, f, g_norm, iterations, status)


def solve(problem: Problem, config: SolverConfig | None = None, init=None) -> SolveResult:
    """Minimize the problem objective over the feasible pose blocks.

    Restart 0 starts from `init` when given, else from
    problem.initial_guess(); later restarts draw random feasible points
    from config.seed.  Every start's gauge blocks are set to the
    identity.  Restarting stops at the first converged restart,
    which is returned; if none converges, the lowest-objective one is.
    """
    cfg = config if config is not None else SolverConfig()
    rng = np.random.default_rng(cfg.seed)
    x0 = problem.initial_guess() if init is None else _check_init(problem, init)
    records: list[RestartRecord] = []
    for r in range(cfg.restarts):
        x = x0 if r == 0 else aug.random_auq(rng, problem.n_blocks)
        x[problem.gauge] = aug.IDENTITY
        records.append(_descend(problem, x, cfg))
        if records[-1].status == STATUS_CONVERGED:
            break
    # only the last record can be converged
    best = min(records, key=lambda r: (r.status != STATUS_CONVERGED, r.objective))
    return SolveResult(**vars(best), restarts=records)
