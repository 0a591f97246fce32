"""Sphere-constrained least squares over pose variables.

Three problem families share one machinery.  Each residual is the
ambient 7-vector difference of two composed poses:

    hand-eye            z_i  = (a_i o x) - (x o b_i)
    hand-eye + world    z_i  = (a_i o x) - (y o b_i)
    pose graph          z_ij = (x_i^-1 o x_j) - y_ij

and the objective is (1/2) sum |z|_sigma^2 with the sigma-weighted
magnitude (translation components weighted by sigma).  The feasible set
is a product of unit 3-spheres (one per pose block) times R^3 factors.

Each problem class is its own kernel, which the solver reads only
through `residuals(x)`, the (m, 7) residuals z at the (n, 7) pose blocks
x; `linearize(x)`, the (m, s) blocks `cols` each residual depends on and
the (m, s, 7, 7) ambient Jacobians dz/dx[cols] (s = 1 for hand-eye, 2
otherwise); `dense`, true when every residual depends on every block;
`gauge`, the blocks held at the identity; and `initial_guess()`
(identity blocks; for pose graphs `initial`, or else a spanning-forest
chaining of the measurements).  The gradient J^T W z and the
Gauss-Newton step both read `linearize`.

A hand-eye residual is linear in the pose blocks but for R(q)^T t_a, q
the quaternion of x, so each hand-eye problem forms the matrices of its
pairs once (L(a) - Rm(b) and I - R(b)^T; for the world problem L(a),
Rm(b) and R(b)^T): `residuals` is a few batched products, and
`linearize` fills in only the 3x4 block d(R(q)^T t_a)/dq.

Each restart is one tangent-space Gauss-Newton loop.  It evaluates each
point once, and forms the tangent gradient g from the residuals of the
point it accepts.  Before each step it tests |g|, so a converged start
takes no step, and only a step assembles H.  For a dense problem the
tangent Jacobian is one (7m, 6k) matrix, and H and g are one product
each; otherwise they are summed from the 6x6 tangent blocks of every
residual.  Steps (minimum-norm least squares only for a singular
system) are halved until the objective falls and retracted by
renormalizing every quaternion block.

A pose graph's objective is invariant under a left translation of each
weakly connected component, so its gauge is the lowest vertex of every
component; a vertex that no edge measures is refused.  One breadth-first
walk at construction yields both the gauge and the spanning forest;
`initial_guess()` chains the forest one depth level at a time, with one
batched `compose` per level.  `solve` sets the gauge blocks of every
start to the identity, and no step moves them.
"""

from __future__ import annotations

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
    gauge = np.zeros(0, dtype=int)  # no held blocks
    dense = True  # every residual reads every block

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
        return self._kernel.cols, self._kernel.jacobian(x)

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
    dense = False  # each residual reads its edge's two vertices

    def __post_init__(self):
        self.edges = np.asarray(self.edges)
        if self.edges.size == 0:
            raise ValueError("a pose graph needs at least one edge")
        if self.edges.ndim != 2 or self.edges.shape[1] != 2:
            raise ValueError("edges must have shape (m, 2)")
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
        if not np.issubdtype(self.edges.dtype, np.integer):
            raise ValueError(f"edge indices must be integers, got dtype {self.edges.dtype}")
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
        xi, xj = x[self.edges[:, 0]], x[self.edges[:, 1]]
        jac = np.stack([_compose_jac_left(xj) @ _auq_inverse_jac(xi),
                        _compose_jac_right(aug.auq_inverse(xi), xj)], axis=1)
        return self.edges, jac

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
    z is one product and the Jacobians are a view of one dense matrix.
    """

    def __init__(self, lin, a, b):
        s = lin.shape[-3]
        self.batch = lin.shape[:-3]
        self.cols = np.broadcast_to(np.arange(s), self.batch + (s,))
        self._rows = np.ascontiguousarray(np.swapaxes(lin, -3, -2))
        self._forms = quat.rot_T_forms(a[..., 4:]).reshape(-1, 4)  # (12 m, 4)
        self._t_b = b[..., 4:]

    def residuals(self, x) -> np.ndarray:
        """The (..., 7) residuals at the (s, 7) pose blocks x."""
        q = x[0, :4]
        z = (self._rows.reshape(-1, x.size) @ x.ravel()).reshape(self.batch + (7,))
        z[..., 4:] += (np.reshape(self._forms @ q, (-1, 4)) @ q).reshape(self.batch + (3,))
        z[..., 4:] -= self._t_b
        return z

    def jacobian(self, x) -> np.ndarray:
        """The (..., s, 7, 7) ambient Jacobians dz/dx at x: lin with x's
        translation-by-quaternion block filled in."""
        jac = self._rows.copy()
        jac[..., 4:, 0, :4] = 2.0 * (self._forms @ x[0, :4]).reshape(self.batch + (3, 4))
        return np.swapaxes(jac, -3, -2)


def _pairs(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """a and b broadcast alike, and [[L(p_a), 0], [0, I]]: d(a o x)/dx but for
    its x-dependent block."""
    a, b = np.broadcast_arrays(quat._trailing(a, 7), quat._trailing(b, 7))
    return a, b, _jacobian(quat.left_matrix(a[..., :4]), np.zeros((3, 4)), np.eye(3))


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


def residual_slam(xi, xj, yij) -> np.ndarray:
    """Ambient residual (xi^-1 o xj) - yij.

    Invariant under a common left factor on xi and xj, which is the
    gauge freedom resolved by holding vertex 0.
    """
    return aug.compose(aug.auq_inverse(xi), xj) - np.asarray(yij, dtype=float)


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


def _component_weights(problem: Problem) -> np.ndarray:
    return np.array([1.0] * 4 + [problem.sigma] * 3)


def _evaluate(problem: Problem, x) -> tuple[np.ndarray, float]:
    """The residuals z at x and the objective f they give."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, handled by callers
        z = residuals(problem, x)
        return z, 0.5 * float(np.sum((z * z) @ _component_weights(problem)))


def objective(problem: Problem, x) -> float:
    """(1/2) sum of squared sigma-weighted residual magnitudes."""
    return _evaluate(problem, x)[1]


def gradient(problem: Problem, x) -> np.ndarray:
    """Ambient gradient of the objective, flattened to length 7 n."""
    x = _as_blocks(problem, x)
    z = problem.residuals(x)
    cols, jac = problem.linearize(x)
    grad = np.zeros((problem.n_blocks, 7))
    np.add.at(grad, cols, np.einsum("msij,mi->msj", jac, z * _component_weights(problem)))
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
# jacobian blocks (ambient, 7x7 per residual)


def _jacobian(qq, tq, tt) -> np.ndarray:
    """The (..., 7, 7) Jacobian [[qq, 0], [tq, tt]] of a map [p, t] -> [p', t']
    whose p' depends on p alone, broadcast over the blocks' batch shapes."""
    batch = np.broadcast_shapes(qq.shape[:-2], tq.shape[:-2], tt.shape[:-2])
    out = np.zeros(batch + (7, 7))
    out[..., :4, :4] = qq
    out[..., 4:, :4] = tq
    out[..., 4:, 4:] = tt
    return out


def _d_rot_dq(p, t) -> np.ndarray:
    """Derivative of R(p) t with respect to p, shape (..., 3, 4)."""
    p0, pv = p[..., 0:1], p[..., 1:]
    col0 = 2.0 * p0 * t + 2.0 * quat._cross(pv, t)
    dot = np.sum(pv * t, axis=-1)[..., None, None]
    eye = np.eye(3)
    cols = (
        2.0 * pv[..., :, None] * t[..., None, :]
        + 2.0 * dot * eye
        - 2.0 * t[..., :, None] * pv[..., None, :]
        + 2.0 * p0[..., None] * quat.cross_matrix(t)
    )
    return np.concatenate([col0[..., :, None], cols], axis=-1)


def _compose_jac_left(y) -> np.ndarray:
    """d compose(x, y) / d x = [[Rm(q), 0], [0, R(q)^T]] for y = [q, u]."""
    q = np.asarray(y, dtype=float)[..., :4]
    return _jacobian(quat.right_matrix(q), np.zeros((3, 4)), quat.rot_matrix_T(q))


def _compose_jac_right(x, y) -> np.ndarray:
    """d compose(x, y) / d y = [[L(p), 0], [d(R(q)^T t)/dq, I]] for x = [p, t].

    R(q)^T t = R(q*) t, so its q-derivative is that of R at q* with the
    last three columns negated (qconj of each row); both steps are exact.
    """
    x = np.asarray(x, dtype=float)
    q = np.asarray(y, dtype=float)[..., :4]
    d_dq = quat.qconj(_d_rot_dq(quat.qconj(q), x[..., 4:]))
    return _jacobian(quat.left_matrix(x[..., :4]), d_dq, np.eye(3))


def _auq_inverse_jac(x) -> np.ndarray:
    """d [p*, -R(p) t] / d [p, t] = [[diag(1, -1, -1, -1), 0], [-d(R(p) t)/dp, -R(p)]]."""
    x = np.asarray(x, dtype=float)
    p, t = x[..., :4], x[..., 4:]
    return _jacobian(np.diag(quat.qconj(np.ones(4))), -_d_rot_dq(p, t), -quat.rot_matrix(p))


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


def _sphere_basis(p) -> np.ndarray:
    """Orthonormal bases (..., 4, 3) of the tangent spaces of S^3 at unit p."""
    u = np.array(p, dtype=float)
    u[..., 0] += np.where(u[..., 0] >= 0.0, 1.0, -1.0)
    scale = 2.0 / np.sum(u * u, axis=-1)
    h = np.eye(4) - scale[..., None, None] * u[..., :, None] * u[..., None, :]
    return h[..., 1:]


def _free_blocks(problem: Problem) -> np.ndarray:
    return np.setdiff1d(np.arange(problem.n_blocks), problem.gauge)


def _retract(x) -> np.ndarray:
    out = x.copy()
    out[:, :4] /= np.linalg.norm(out[:, :4], axis=-1, keepdims=True)
    return out


def _check_init(problem: Problem, init) -> np.ndarray:
    try:
        return aug.as_auq(_as_blocks(problem, init))
    except ValueError as exc:
        raise InfeasibleInit(f"infeasible initial guess: {exc}") from None


def _normal_equations(
    problem: Problem, x, z, free
) -> tuple[Callable[[], np.ndarray], np.ndarray, np.ndarray]:
    """Tangent normal equations of the free blocks: (hessian, g (k, 6), bases
    (k, 4, 3)), where hessian() assembles H (6k, 6k) when a step needs it.

    J is the sqrt(W)-weighted Jacobian in the tangent bases; each basis is
    orthonormal and orthogonal to its quaternion, so |g| = |J^T sqrt(W) z|
    is the norm of the projected gradient.  When every residual reads every
    block (`problem.dense`), J is one dense (7m, 6k) matrix and g one
    product; else g is summed from each residual's blocks J_s^T z.
    """
    k = len(free)
    bases = _sphere_basis(x[free, :4])
    sqrt_w = np.sqrt(_component_weights(problem))
    cols, jac = problem.linearize(x)
    z = z * sqrt_w
    if problem.dense:
        s = problem.n_blocks
        # block-diagonal [[basis, 0], [0, I]] of the free blocks; zero at a held block
        tangent = np.zeros((s, 7, k, 6))
        tangent[free, :4, np.arange(k), :3] = bases
        tangent[free, 4:, np.arange(k), 3:] = np.eye(3)
        # the (7m, 7s) ambient Jacobian times the (7s, 6k) tangent bases, then weighted
        jt = np.swapaxes(jac, 1, 2).reshape(-1, 7 * s) @ tangent.reshape(7 * s, 6 * k)
        rows = jt.reshape(len(z), 7, 6 * k)
        rows *= sqrt_w[:, None]
        return (lambda: _hessian(jt, None, k)), (z.ravel() @ jt).reshape(k, 6), bases
    col = np.full(problem.n_blocks, -1)
    col[free] = np.arange(k)
    # tangent Jacobians (m, s, 7, 6); a gauge block's is zero and adds to column 0
    c = col[cols]
    held = c < 0
    c[held] = 0
    jt = np.empty(jac.shape[:-1] + (6,))
    jt[..., :3] = jac[..., :4] @ bases[c]
    jt[..., 3:] = jac[..., 4:]
    jt *= sqrt_w[:, None]
    jt[held] = 0.0
    grad = np.zeros((k, 6))
    np.add.at(grad, c, np.einsum("msia,mi->msa", jt, z))
    return (lambda: _hessian(jt, c, k)), grad, bases


def _hessian(jt, c, k) -> np.ndarray:
    """H = J^T J (6k, 6k) of the tangent Jacobian of _normal_equations: one
    product of the dense (7m, 6k) J when c is None, else the sum of the 6x6
    blocks J_s^T J_t of the (m, s, 7, 6) residual blocks jt at free columns c."""
    if c is None:
        return jt.T @ jt
    # laid out (k, 6, k, 6) so that the 6k x 6k matrix is a view, not a copy
    hess = np.zeros((k, 6, k, 6))
    blocks = np.swapaxes(jt, 2, 3)[:, :, None] @ jt[:, None]  # J_s^T J_t, (m, s, s, 6, 6)
    np.add.at(hess, (c[:, :, None], slice(None), c[:, None, :]), blocks)
    return hess.reshape(6 * k, 6 * k)


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
    hessian, grad, bases = _normal_equations(problem, x, z, free)
    iterations = 0
    status = STATUS_STALLED
    for _ in range(cfg.max_iters):
        if np.linalg.norm(grad) <= cfg.grad_tol:
            break
        delta = _gauss_newton_step(hessian(), grad)
        if not np.all(np.isfinite(delta)):
            break
        step = np.zeros_like(x)
        step[free, :4] = np.einsum("kij,kj->ki", bases, delta[:, :3])
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
        hessian, grad, bases = _normal_equations(problem, x, z, free)
        if improvement <= 1e-15 * f:
            break
    else:  # the cap was spent
        status = STATUS_MAX_ITERS

    g_norm = float(np.linalg.norm(grad))
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
