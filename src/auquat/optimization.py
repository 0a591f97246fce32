"""Sphere-constrained least squares over pose variables.

Three problem families share one machinery.  Each residual is the
ambient 7-vector difference of two composed poses:

    hand-eye            z_i  = (a_i o x) - (x o b_i)
    hand-eye + world    z_i  = (a_i o x) - (y o b_i)
    pose graph          z_ij = (x_i^-1 o x_j) - y_ij

and the objective is (1/2) sum |z|_sigma^2 with the sigma-weighted
magnitude (translation components weighted by sigma).  The feasible set
is a product of unit 3-spheres (one per pose block) times R^3 factors.
Each restart is one Gauss-Newton loop on its tangent spaces: the step
solves the normal equations, summed from the 6x6 tangent blocks of every
residual (the minimum-norm least-squares step is taken only when they
are singular), is halved until the objective falls, and is retracted by
renormalizing every quaternion block.  Restart 0 starts from the
identity (a spanning-tree chaining of the measurements for pose graphs),
later restarts from random feasible points.  For pose graphs the
objective is invariant under a left translation of each weakly connected
component, so the anchor vertex, and the lowest vertex of every other
component that has an edge, is pinned to the identity.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import augmented as aug
from . import quaternion as quat
from .errors import InfeasibleInit, NonFiniteObjective
from .tolerances import UNIT_NORMALIZE_TOL

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

    def __post_init__(self):
        self.a = _unit_blocks(self.a, "a")
        self.b = _unit_blocks(self.b, "b")
        if self.a.shape != self.b.shape:
            raise ValueError("a and b must hold the same number of poses")
        if len(self.a) < 1:
            raise ValueError("at least one measurement pair is required")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")

    @property
    def n_blocks(self) -> int:
        return 1

    @property
    def pair_count(self) -> int:
        return len(self.a)


@dataclass
class HandEyeWorldProblem(HandEyeProblem):
    """Pairs (a_i, b_i) constraining two unknowns: x and the world pose y."""

    @property
    def n_blocks(self) -> int:
        return 2


@dataclass
class PoseGraphProblem:
    """Relative pose measurements y_ij on directed edges of a graph.

    Vertex `anchor` is held at the identity during solves (gauge fixing).
    A weakly disconnected graph is not identifiable; it is accepted with
    a warning, and the lowest vertex of every other component that has an
    edge is held at the identity too.  `gauge` lists the held vertices.
    """

    n: int
    edges: np.ndarray
    measurements: np.ndarray
    sigma: float = 1.0
    anchor: int = 0
    initial: np.ndarray | None = None

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=int)
        if self.edges.ndim != 2 or self.edges.shape[1] != 2:
            raise ValueError("edges must have shape (m, 2)")
        self.measurements = _unit_blocks(self.measurements, "measurements")
        if len(self.measurements) != len(self.edges):
            raise ValueError("one measurement per edge is required")
        if self.n < 2:
            raise ValueError("need at least two vertices")
        if np.any(self.edges < 0) or np.any(self.edges >= self.n):
            raise ValueError("edge indices out of range")
        if np.any(self.edges[:, 0] == self.edges[:, 1]):
            raise ValueError("self loops are not allowed")
        if not 0 <= self.anchor < self.n:
            raise ValueError("anchor index out of range")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if self.initial is not None:
            self.initial = _unit_blocks(self.initial, "initial")
            if len(self.initial) != self.n:
                raise ValueError("initial guess must cover every vertex")
        self._labels = _component_labels(self.n, self.edges)
        roots = np.unique(self._labels[self.edges.ravel()])
        roots = roots[roots != self._labels[self.anchor]]
        self.gauge = np.sort(np.append(roots, self.anchor))
        if not self._weakly_connected():
            warnings.warn("pose graph is not weakly connected; solution is not unique",
                          stacklevel=2)

    def _weakly_connected(self) -> bool:
        return bool(np.all(self._labels == self._labels[0]))

    @property
    def n_blocks(self) -> int:
        return self.n


def _component_labels(n: int, edges: np.ndarray) -> np.ndarray:
    """Lowest vertex of the weakly connected component of every vertex."""
    adj = [[] for _ in range(n)]
    for i, j in edges.tolist():
        adj[i].append(j)
        adj[j].append(i)
    labels = np.full(n, -1)
    for root in range(n):
        if labels[root] >= 0:
            continue
        labels[root] = root
        queue = deque([root])
        while queue:
            for k in adj[queue.popleft()]:
                if labels[k] < 0:
                    labels[k] = root
                    queue.append(k)
    return labels


Problem = HandEyeProblem | HandEyeWorldProblem | PoseGraphProblem


# ---------------------------------------------------------------------------
# residuals, objective, gradient


def residual_handeye(x, a, b) -> np.ndarray:
    """Ambient residual (a o x) - (x o b)."""
    return aug.compose(a, x) - aug.compose(x, b)


def residual_handeye_world(x, y, a, b) -> np.ndarray:
    """Ambient residual (a o x) - (y o b)."""
    return aug.compose(a, x) - aug.compose(y, b)


def residual_slam(xi, xj, yij) -> np.ndarray:
    """Ambient residual (xi^-1 o xj) - yij.

    Invariant under a common left factor on xi and xj, which is the
    gauge freedom resolved by anchoring.
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
    x = _as_blocks(problem, x)
    if isinstance(problem, HandEyeWorldProblem):
        return residual_handeye_world(x[0], x[1], problem.a, problem.b)
    if isinstance(problem, HandEyeProblem):
        return residual_handeye(x[0], problem.a, problem.b)
    xi = x[problem.edges[:, 0]]
    xj = x[problem.edges[:, 1]]
    return residual_slam(xi, xj, problem.measurements)


def _component_weights(problem: Problem) -> np.ndarray:
    return np.array([1.0] * 4 + [problem.sigma] * 3)


def objective(problem: Problem, x) -> float:
    """(1/2) sum of squared sigma-weighted residual magnitudes."""
    z = residuals(problem, x)
    with np.errstate(over="ignore"):  # overflow surfaces as inf, handled by callers
        return 0.5 * float(np.sum((z * z) @ _component_weights(problem)))


def gradient(problem: Problem, x) -> np.ndarray:
    """Ambient gradient of the objective, flattened to length 7 n."""
    x = _as_blocks(problem, x)
    z = residuals(problem, x)
    wz = z * _component_weights(problem)
    if isinstance(problem, HandEyeWorldProblem):
        jx = _compose_jac_right(problem.a, x[0])
        jy = -_compose_jac_left(problem.b, like=x[1])
        gx = np.einsum("mij,mi->j", jx, wz)
        gy = np.einsum("mij,mi->j", jy, wz)
        return np.concatenate([gx, gy])
    if isinstance(problem, HandEyeProblem):
        jx = _compose_jac_right(problem.a, x[0]) - _compose_jac_left(problem.b, like=x[0])
        return np.einsum("mij,mi->j", jx, wz)
    ji, jj = _slam_edge_jacobians(problem, x)
    grad = np.zeros((problem.n, 7))
    np.add.at(grad, problem.edges[:, 0], np.einsum("mij,mi->mj", ji, wz))
    np.add.at(grad, problem.edges[:, 1], np.einsum("mij,mi->mj", jj, wz))
    return grad.ravel()


def pose_error(x, x_true) -> tuple[np.ndarray | float, np.ndarray | float]:
    """(rotation geodesic distance in rad, translation distance).

    The rotation part 2 arccos(|<p, p_true>|) is invariant under the
    quaternion double cover.
    """
    x = np.asarray(x, dtype=float)
    x_true = np.asarray(x_true, dtype=float)
    dot = np.abs(np.sum(x[..., :4] * x_true[..., :4], axis=-1))
    rot = 2.0 * np.arccos(np.clip(dot, 0.0, 1.0))
    trans = np.linalg.norm(x[..., 4:] - x_true[..., 4:], axis=-1)
    if rot.ndim == 0:
        return float(rot), float(trans)
    return rot, trans


# ---------------------------------------------------------------------------
# jacobian blocks (ambient, 7x7 per residual)


def _d_rot_T_dq(q, t) -> np.ndarray:
    """Derivative of R(q)^T t with respect to q, shape (..., 3, 4)."""
    q0, qv = q[..., 0:1], q[..., 1:]
    col0 = 2.0 * q0 * t - 2.0 * np.cross(qv, t)
    dot = np.sum(qv * t, axis=-1)[..., None, None]
    eye = np.eye(3)
    cols = (
        2.0 * qv[..., :, None] * t[..., None, :]
        + 2.0 * dot * eye
        - 2.0 * t[..., :, None] * qv[..., None, :]
        - 2.0 * q0[..., None] * quat.cross_matrix(t)
    )
    return np.concatenate([col0[..., :, None], cols], axis=-1)


def _d_rot_dq(p, t) -> np.ndarray:
    """Derivative of R(p) t with respect to p, shape (..., 3, 4)."""
    p0, pv = p[..., 0:1], p[..., 1:]
    col0 = 2.0 * p0 * t + 2.0 * np.cross(pv, t)
    dot = np.sum(pv * t, axis=-1)[..., None, None]
    eye = np.eye(3)
    cols = (
        2.0 * pv[..., :, None] * t[..., None, :]
        + 2.0 * dot * eye
        - 2.0 * t[..., :, None] * pv[..., None, :]
        + 2.0 * p0[..., None] * quat.cross_matrix(t)
    )
    return np.concatenate([col0[..., :, None], cols], axis=-1)


def _compose_jac_left(y, like) -> np.ndarray:
    """d compose(x, y) / d x; depends only on y.  Shape (..., 7, 7)."""
    y = np.asarray(y, dtype=float)
    batch = np.broadcast_shapes(y.shape[:-1], np.shape(like)[:-1])
    out = np.zeros(batch + (7, 7))
    out[..., :4, :4] = quat.right_matrix(y[..., :4])
    out[..., 4:, 4:] = quat.rot_matrix_T(y[..., :4])
    return out


def _compose_jac_right(x, y) -> np.ndarray:
    """d compose(x, y) / d y.  Shape (..., 7, 7)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    batch = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    out = np.zeros(batch + (7, 7))
    out[..., :4, :4] = quat.left_matrix(x[..., :4])
    out[..., 4:, :4] = _d_rot_T_dq(
        np.broadcast_to(y[..., :4], batch + (4,)), np.broadcast_to(x[..., 4:], batch + (3,))
    )
    out[..., 4:, 4:] = np.eye(3)
    return out


def _auq_inverse_jac(x) -> np.ndarray:
    """d [p*, -R(p) t] / d [p, t].  Shape (..., 7, 7)."""
    x = np.asarray(x, dtype=float)
    p, t = x[..., :4], x[..., 4:]
    out = np.zeros(x.shape[:-1] + (7, 7))
    out[..., :4, :4] = np.diag([1.0, -1.0, -1.0, -1.0])
    out[..., 4:, :4] = -_d_rot_dq(p, t)
    out[..., 4:, 4:] = -quat.rot_matrix(p)
    return out


def _slam_edge_jacobians(problem: PoseGraphProblem, x) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge ambient Jacobians of the residual wrt x_i and x_j."""
    xi = x[problem.edges[:, 0]]
    xj = x[problem.edges[:, 1]]
    inv_i = aug.auq_inverse(xi)
    ji = _compose_jac_left(xj, like=xj) @ _auq_inverse_jac(xi)
    jj = _compose_jac_right(inv_i, xj)
    return ji, jj


def _block_jacobians(problem: Problem, x) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Rows of the full Jacobian as (block column index, edge rows, (m,7,7))."""
    if isinstance(problem, HandEyeWorldProblem):
        m = problem.pair_count
        rows = np.arange(m)
        return [
            (np.zeros(m, dtype=int), rows, _compose_jac_right(problem.a, x[0])),
            (np.ones(m, dtype=int), rows, -_compose_jac_left(problem.b, like=x[1])),
        ]
    if isinstance(problem, HandEyeProblem):
        m = problem.pair_count
        rows = np.arange(m)
        jac = _compose_jac_right(problem.a, x[0]) - _compose_jac_left(problem.b, like=x[0])
        return [(np.zeros(m, dtype=int), rows, jac)]
    ji, jj = _slam_edge_jacobians(problem, x)
    rows = np.arange(len(problem.edges))
    return [(problem.edges[:, 0], rows, ji), (problem.edges[:, 1], rows, jj)]


# ---------------------------------------------------------------------------
# solver


@dataclass
class SolverConfig:
    """Stopping rules and restart strategy.

    Each restart runs at most max_iters tangent-space Gauss-Newton
    iterations.  The retraction is fixed: quaternion blocks are
    renormalized after every ambient update.
    """

    max_iters: int = 60
    grad_tol: float = 1e-10
    restarts: int = 10
    seed: int = 0
    target_objective: float = 1e-18

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


@dataclass
class RestartRecord:
    solution: np.ndarray
    objective: float
    grad_norm: float
    iterations: int
    status: str


@dataclass
class SolveResult:
    solution: np.ndarray
    objective: float
    grad_norm: float
    iterations: int
    status: str
    restarts: list[RestartRecord] = field(default_factory=list)


def _sphere_basis(p) -> np.ndarray:
    """Orthonormal bases (..., 4, 3) of the tangent spaces of S^3 at unit p."""
    u = np.array(p, dtype=float)
    u[..., 0] += np.where(u[..., 0] >= 0.0, 1.0, -1.0)
    scale = 2.0 / np.sum(u * u, axis=-1)
    h = np.eye(4) - scale[..., None, None] * u[..., :, None] * u[..., None, :]
    return h[..., 1:]


def _free_blocks(problem: Problem) -> np.ndarray:
    free = np.arange(problem.n_blocks)
    if isinstance(problem, PoseGraphProblem):
        free = np.setdiff1d(free, problem.gauge)
    return free


def _project_gradient(problem: Problem, x, grad_blocks) -> np.ndarray:
    """Tangent projection per quaternion block; gauge blocks zeroed."""
    out = grad_blocks.copy()
    p = x[:, :4]
    radial = np.sum(out[:, :4] * p, axis=-1, keepdims=True)
    out[:, :4] -= radial * p
    if isinstance(problem, PoseGraphProblem):
        out[problem.gauge] = 0.0
    return out


def _retract(problem: Problem, x) -> np.ndarray:
    out = x.copy()
    out[:, :4] /= np.linalg.norm(out[:, :4], axis=-1, keepdims=True)
    if isinstance(problem, PoseGraphProblem):
        out[problem.gauge] = aug.IDENTITY
    return out


def _default_init(problem: Problem) -> np.ndarray:
    if isinstance(problem, PoseGraphProblem):
        return _spanning_tree_init(problem)
    return np.tile(aug.identity(), (problem.n_blocks, 1))


def _random_init(problem: Problem, rng) -> np.ndarray:
    n = problem.n_blocks
    x = np.concatenate([quat.random_unit(rng, n), rng.uniform(-1.0, 1.0, (n, 3))], axis=-1)
    if isinstance(problem, PoseGraphProblem):
        x[problem.gauge] = aug.IDENTITY
    return x


def _spanning_tree_init(problem: PoseGraphProblem) -> np.ndarray:
    """Chain poses along BFS trees of measurements from the gauge vertices."""
    x = np.tile(aug.identity(), (problem.n, 1))
    adj: list[list[tuple[int, int, bool]]] = [[] for _ in range(problem.n)]
    for k, (i, j) in enumerate(problem.edges):
        adj[i].append((j, k, True))
        adj[j].append((i, k, False))
    seen = set(problem.gauge.tolist())
    queue = deque(problem.gauge.tolist())
    while queue:
        i = queue.popleft()
        for j, k, forward in adj[i]:
            if j in seen:
                continue
            y = problem.measurements[k]
            x[j] = aug.compose(x[i], y if forward else aug.auq_inverse(y))
            seen.add(j)
            queue.append(j)
    return x


def _check_init(problem: Problem, init) -> np.ndarray:
    init = np.asarray(init, dtype=float)
    if init.ndim == 1 and init.size == 7 * problem.n_blocks:
        init = init.reshape(problem.n_blocks, 7)
    if init.shape != (problem.n_blocks, 7):
        raise InfeasibleInit(f"initial guess must have {problem.n_blocks} pose blocks")
    dev = np.abs(np.linalg.norm(init[:, :4], axis=-1) - 1.0)
    if np.any(dev > UNIT_NORMALIZE_TOL):
        raise InfeasibleInit(f"initial quaternion norm deviates by {float(dev.max()):.3e}")
    return _retract(problem, init)


def _gauss_newton_step(problem: Problem, x, free) -> tuple[np.ndarray, np.ndarray]:
    """Tangent Gauss-Newton step of the free blocks: (delta (k, 6), bases (k, 4, 3)).

    The normal equations H delta = -g are summed from the 6x6 blocks
    J_s^T J_t and J_s^T z of every residual.  The minimum-norm
    least-squares solution is taken only when H is singular.
    """
    k = len(free)
    col = np.full(problem.n_blocks, -1)
    col[free] = np.arange(k)
    bases = _sphere_basis(x[free, :4])
    sqrt_w = np.sqrt(_component_weights(problem))
    z = residuals(problem, x) * sqrt_w
    # per block list: tangent Jacobian and free column of every residual row;
    # a row the list does not reach, or reaches only at a gauge vertex, keeps a
    # zero Jacobian, so the column 0 it points at receives nothing
    terms = []
    for block_idx, rows, jblocks in _block_jacobians(problem, x):
        keep = col[block_idx] >= 0
        c, r = col[block_idx[keep]], rows[keep]
        jb = jblocks[keep] * sqrt_w[:, None]
        jt = np.zeros((len(z), 7, 6))
        jt[r, :, :3] = jb[..., :4] @ bases[c]
        jt[r, :, 3:] = jb[..., 4:]
        cols = np.zeros(len(z), dtype=int)
        cols[r] = c
        terms.append((jt, cols))
    # laid out (k, 6, k, 6) so that the 6k x 6k matrix is a view, not a copy
    hess = np.zeros((k, 6, k, 6))
    grad = np.zeros((k, 6))
    for jt_s, c_s in terms:
        np.add.at(grad, c_s, np.einsum("mia,mi->ma", jt_s, z))
        for jt_t, c_t in terms:
            np.add.at(hess, (c_s, slice(None), c_t), np.swapaxes(jt_s, 1, 2) @ jt_t)
    hess = hess.reshape(6 * k, 6 * k)
    try:
        delta = np.linalg.solve(hess, -grad.ravel())
    except np.linalg.LinAlgError:
        delta, *_ = np.linalg.lstsq(hess, -grad.ravel(), rcond=None)
    return delta.reshape(k, 6), bases


def _descend(problem: Problem, x, cfg: SolverConfig) -> RestartRecord:
    """Tangent-space Gauss-Newton with step halving from a feasible x.

    A step is accepted once the objective strictly falls.  The loop ends
    when the cap is spent, no halved step lowers the objective, or the
    relative decrease drops to rounding level; the status then comes
    from the projected gradient norm.
    """
    f = objective(problem, x)
    if not np.isfinite(f):
        raise NonFiniteObjective("objective is not finite at the initial point")
    free = _free_blocks(problem)
    iterations = 0
    status = STATUS_STALLED
    for _ in range(cfg.max_iters):
        delta, bases = _gauss_newton_step(problem, x, free)
        if not np.all(np.isfinite(delta)) or np.linalg.norm(delta) <= 1e-16 * (1.0 + np.linalg.norm(x)):
            break
        step = np.zeros_like(x)
        step[free, :4] = np.einsum("kij,kj->ki", bases, delta[:, :3])
        step[free, 4:] = delta[:, 3:]
        alpha = 1.0
        while alpha >= 2.0 ** -24:
            x_new = _retract(problem, x + alpha * step)
            f_new = objective(problem, x_new)
            if np.isfinite(f_new) and f_new < f:
                break
            alpha *= 0.5
        else:  # no halved step lowers the objective
            break
        improvement = f - f_new
        x, f = x_new, f_new
        iterations += 1
        if f <= 1e-30 or improvement <= 1e-15 * max(f, 1e-300):
            break
    else:  # the cap was spent
        status = STATUS_MAX_ITERS

    g = _project_gradient(problem, x, gradient(problem, x).reshape(-1, 7))
    g_norm = float(np.linalg.norm(g))
    if g_norm <= cfg.grad_tol:
        status = STATUS_CONVERGED
    return RestartRecord(x, f, g_norm, iterations, status)


def solve(problem: Problem, config: SolverConfig | None = None, init=None) -> SolveResult:
    """Minimize the problem objective over the feasible pose blocks.

    Restart 0 starts from `init` when given, else from a deterministic
    default (identity blocks; spanning-tree chaining for pose graphs);
    later restarts draw random feasible points from config.seed.
    Restarting stops early once the best objective reaches
    config.target_objective.
    """
    cfg = config if config is not None else SolverConfig()
    rng = np.random.default_rng(cfg.seed)
    if init is not None:
        init = _check_init(problem, init)

    best: RestartRecord | None = None
    records: list[RestartRecord] = []
    for r in range(max(1, cfg.restarts)):
        if r == 0:
            x0 = init.copy() if init is not None else _default_init(problem)
        else:
            x0 = _random_init(problem, rng)
        record = _descend(problem, x0, cfg)
        records.append(record)
        if best is None or record.objective < best.objective:
            best = record
        if best.objective <= cfg.target_objective:
            break
    return SolveResult(
        solution=best.solution,
        objective=best.objective,
        grad_norm=best.grad_norm,
        iterations=best.iterations,
        status=best.status,
        restarts=records,
    )
