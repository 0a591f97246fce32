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
through `residuals(x)`, the (m, 7) residuals at the (n, 7) pose blocks
x; `linearize(x)`, the residuals z, the (m, s) blocks `cols` each one
depends on and the (m, s, 7, 7) ambient Jacobians dz/dx[cols] (s = 1 for
hand-eye, 2 otherwise); `gauge`, the blocks held at the identity; and
`initial_guess()` (identity blocks; for pose graphs `initial`, or else a
spanning-forest chaining of the measurements).  The gradient J^T W z and
the Gauss-Newton step both read `linearize`.  Each restart is one
tangent-space Gauss-Newton loop.  It assembles the normal equations from
the 6x6 tangent blocks of every residual at its start and after each
accepted step, and stops on their tangent gradient norm.  Steps
(minimum-norm least squares only for a singular system) are halved until
the objective falls and retracted by renormalizing every quaternion
block.  A pose graph's objective is invariant under a left translation
of each weakly connected component, so its gauge is vertex 0 and the
lowest vertex of every other component with an edge.  One breadth-first
walk at construction yields both the gauge and the spanning forest.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field

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
    gauge = np.zeros(0, dtype=int)  # no held blocks

    def __post_init__(self):
        self.a = _unit_blocks(self.a, "a")
        self.b = _unit_blocks(self.b, "b")
        if self.a.shape != self.b.shape:
            raise ValueError("a and b must hold the same number of poses")
        if len(self.a) < 1:
            raise ValueError("at least one measurement pair is required")
        if not 0.0 < self.sigma < np.inf:
            raise ValueError("sigma must be positive and finite")

    @property
    def n_blocks(self) -> int:
        return 1

    @property
    def pair_count(self) -> int:
        return len(self.a)

    def residuals(self, x) -> np.ndarray:
        return residual_handeye(x[0], self.a, self.b)

    def linearize(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        jac = _compose_jac_right(self.a, x[0]) - _compose_jac_left(self.b)
        return self.residuals(x), np.zeros((self.pair_count, 1), dtype=int), jac[:, None]

    def initial_guess(self) -> np.ndarray:
        return np.tile(aug.identity(), (self.n_blocks, 1))


@dataclass
class HandEyeWorldProblem(HandEyeProblem):
    """Pairs (a_i, b_i) constraining two unknowns: x and the world pose y."""

    @property
    def n_blocks(self) -> int:
        return 2

    def residuals(self, x) -> np.ndarray:
        return residual_handeye_world(x[0], x[1], self.a, self.b)

    def linearize(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        jac = np.empty((self.pair_count, 2, 7, 7))
        jac[:, 0] = _compose_jac_right(self.a, x[0])
        jac[:, 1] = -_compose_jac_left(self.b)
        return self.residuals(x), np.tile([0, 1], (self.pair_count, 1)), jac


@dataclass
class PoseGraphProblem:
    """Relative pose measurements y_ij on directed edges of a graph.

    Vertex 0 is held at the identity during solves (gauge fixing).  A
    weakly disconnected graph is not identifiable; it is accepted with a
    warning, and the lowest vertex of every other component that has an
    edge is held at the identity too.  `gauge` lists the held vertices.
    Construction walks the graph once, breadth first from each lowest
    unreached vertex in turn; the walk's roots give `gauge` and its tree
    arcs the chaining of `initial_guess()`.
    """

    n: int
    edges: np.ndarray
    measurements: np.ndarray
    sigma: float = 1.0
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
        if not 0.0 < self.sigma < np.inf:
            raise ValueError("sigma must be positive and finite")
        if self.initial is not None:
            self.initial = _unit_blocks(self.initial, "initial")
            if len(self.initial) != self.n:
                raise ValueError("initial guess must cover every vertex")
        adj: list[list[tuple[int, int, bool]]] = [[] for _ in range(self.n)]
        for k, (i, j) in enumerate(self.edges.tolist()):
            adj[i].append((j, k, True))
            adj[j].append((i, k, False))
        seen = [False] * self.n
        gauge, self._arcs = [], []  # arcs: (parent, child, edge, edge points to child)
        for root in range(self.n):
            if seen[root]:
                continue
            seen[root] = True
            if root == 0 or adj[root]:
                gauge.append(root)
            queue = deque([root])
            while queue:
                i = queue.popleft()
                for j, k, forward in adj[i]:
                    if not seen[j]:
                        seen[j] = True
                        self._arcs.append((i, j, k, forward))
                        queue.append(j)
        self.gauge = np.array(sorted(gauge))
        if len(self._arcs) < self.n - 1:
            # stacklevel 3: past the dataclass __init__ to its caller
            warnings.warn("pose graph is not weakly connected; solution is not unique",
                          stacklevel=3)

    @property
    def n_blocks(self) -> int:
        return self.n

    def residuals(self, x) -> np.ndarray:
        return residual_slam(x[self.edges[:, 0]], x[self.edges[:, 1]], self.measurements)

    def linearize(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        xi, xj = x[self.edges[:, 0]], x[self.edges[:, 1]]
        jac = np.empty((len(self.edges), 2, 7, 7))
        jac[:, 0] = _compose_jac_left(xj) @ _auq_inverse_jac(xi)
        jac[:, 1] = _compose_jac_right(aug.auq_inverse(xi), xj)
        return self.residuals(x), self.edges, jac

    def initial_guess(self) -> np.ndarray:
        """`initial` with the gauge at the identity, else chaining along the walk's tree arcs."""
        if self.initial is not None:
            return _retract(self, self.initial)
        x = np.tile(aug.identity(), (self.n, 1))
        for i, j, k, forward in self._arcs:
            y = self.measurements[k]
            x[j] = aug.compose(x[i], y if forward else aug.auq_inverse(y))
        return x


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


def objective(problem: Problem, x) -> float:
    """(1/2) sum of squared sigma-weighted residual magnitudes."""
    z = residuals(problem, x)
    with np.errstate(over="ignore"):  # overflow surfaces as inf, handled by callers
        return 0.5 * float(np.sum((z * z) @ _component_weights(problem)))


def gradient(problem: Problem, x) -> np.ndarray:
    """Ambient gradient of the objective, flattened to length 7 n."""
    z, cols, jac = problem.linearize(_as_blocks(problem, x))
    grad = np.zeros((problem.n_blocks, 7))
    np.add.at(grad, cols, np.einsum("msij,mi->msj", jac, z * _component_weights(problem)))
    return grad.ravel()


def pose_error(x, x_true) -> tuple[np.ndarray | float, np.ndarray | float]:
    """(rotation geodesic distance in rad, translation distance).

    The rotation part is 2 |qlog_vec(w)| for w = p* p_true taken with a
    nonnegative scalar part, so it is invariant under the quaternion
    double cover and exactly 0 for equal poses.
    """
    x = np.asarray(x, dtype=float)
    x_true = np.asarray(x_true, dtype=float)
    w = quat.qmul(quat.qconj(x[..., :4]), x_true[..., :4])
    w = np.where(w[..., :1] < 0.0, -w, w)
    rot = 2.0 * np.linalg.norm(quat.qlog_vec(w), axis=-1)
    trans = np.linalg.norm(x[..., 4:] - x_true[..., 4:], axis=-1)
    if rot.ndim == 0:
        return float(rot), float(trans)
    return rot, trans


# ---------------------------------------------------------------------------
# jacobian blocks (ambient, 7x7 per residual)

_CONJ = np.array([1.0, -1.0, -1.0, -1.0])  # quaternion conjugation


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


def _compose_jac_left(y) -> np.ndarray:
    """d compose(x, y) / d x; depends only on y.  Shape (..., 7, 7)."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape[:-1] + (7, 7))
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
    # R(q)^T t = R(q*) t, and dq*/dq = diag(_CONJ)
    out[..., 4:, :4] = _d_rot_dq(
        np.broadcast_to(y[..., :4] * _CONJ, batch + (4,)), np.broadcast_to(x[..., 4:], batch + (3,))
    ) * _CONJ
    out[..., 4:, 4:] = np.eye(3)
    return out


def _auq_inverse_jac(x) -> np.ndarray:
    """d [p*, -R(p) t] / d [p, t].  Shape (..., 7, 7)."""
    x = np.asarray(x, dtype=float)
    p, t = x[..., :4], x[..., 4:]
    out = np.zeros(x.shape[:-1] + (7, 7))
    out[..., :4, :4] = np.diag(_CONJ)
    out[..., 4:, :4] = -_d_rot_dq(p, t)
    out[..., 4:, 4:] = -quat.rot_matrix(p)
    return out


# ---------------------------------------------------------------------------
# solver


@dataclass
class SolverConfig:
    """Stopping rule and restart strategy.

    Each restart runs at most max_iters tangent-space Gauss-Newton
    iterations and is converged when its tangent gradient norm is at
    most grad_tol.  At most `restarts` restarts run; the first converged
    one ends the solve.  The retraction is fixed: quaternion blocks are
    renormalized after every ambient update.
    """

    max_iters: int = 60
    grad_tol: float = 1e-10
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.grad_tol < np.inf:
            raise ValueError("grad_tol must be positive and finite")
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


def _retract(problem: Problem, x) -> np.ndarray:
    out = x.copy()
    out[:, :4] /= np.linalg.norm(out[:, :4], axis=-1, keepdims=True)
    out[problem.gauge] = aug.IDENTITY
    return out


def _random_init(problem: Problem, rng) -> np.ndarray:
    x = aug.random_auq(rng, problem.n_blocks)
    x[problem.gauge] = aug.IDENTITY
    return x


def _check_init(problem: Problem, init) -> np.ndarray:
    try:
        init = aug.as_auq(_as_blocks(problem, init))
    except ValueError as exc:
        raise InfeasibleInit(f"infeasible initial guess: {exc}") from None
    init[problem.gauge] = aug.IDENTITY
    return init


def _normal_equations(problem: Problem, x, free) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tangent normal equations of the free blocks: (H (6k, 6k), g (k, 6), bases (k, 4, 3)).

    H and g = J^T W z are summed from the 6x6 blocks J_s^T J_t and J_s^T z
    of every residual.  Each basis is orthonormal and orthogonal to its
    quaternion, so |g| is the norm of the projected gradient.
    """
    k = len(free)
    col = np.full(problem.n_blocks, -1)
    col[free] = np.arange(k)
    bases = _sphere_basis(x[free, :4])
    sqrt_w = np.sqrt(_component_weights(problem))
    z, cols, jac = problem.linearize(x)
    z = z * sqrt_w
    # tangent Jacobians (m, s, 7, 6); a gauge block's is zero and adds to column 0
    c = col[cols]
    held = c < 0
    c[held] = 0
    jt = np.empty(jac.shape[:-1] + (6,))
    jt[..., :3] = jac[..., :4] @ bases[c]
    jt[..., 3:] = jac[..., 4:]
    jt *= sqrt_w[:, None]
    jt[held] = 0.0
    # laid out (k, 6, k, 6) so that the 6k x 6k matrix is a view, not a copy
    hess = np.zeros((k, 6, k, 6))
    grad = np.zeros((k, 6))
    np.add.at(grad, c, np.einsum("msia,mi->msa", jt, z))
    blocks = np.swapaxes(jt, 2, 3)[:, :, None] @ jt[:, None]  # J_s^T J_t, (m, s, s, 6, 6)
    np.add.at(hess, (c[:, :, None], slice(None), c[:, None, :]), blocks)
    return hess.reshape(6 * k, 6 * k), grad, bases


def _gauss_newton_step(hess, grad) -> np.ndarray:
    """The (k, 6) step solving H delta = -g; lstsq only when H is singular."""
    try:
        delta = np.linalg.solve(hess, -grad.ravel())
    except np.linalg.LinAlgError:
        delta, *_ = np.linalg.lstsq(hess, -grad.ravel(), rcond=None)
    return delta.reshape(grad.shape)


def _descend(problem: Problem, x, cfg: SolverConfig) -> RestartRecord:
    """Tangent-space Gauss-Newton with step halving from a feasible x.

    The normal equations are assembled at x and after each accepted step,
    which strictly lowers the objective.  The loop ends when the cap is
    spent, no halved step lowers it, or the relative decrease drops to
    rounding level; the status comes from |g| of the last assembly.
    """
    f = objective(problem, x)
    if not np.isfinite(f):
        raise NonFiniteObjective("objective is not finite at the initial point")
    free = _free_blocks(problem)
    hess, grad, bases = _normal_equations(problem, x, free)
    iterations = 0
    status = STATUS_STALLED
    for _ in range(cfg.max_iters):
        delta = _gauss_newton_step(hess, grad)
        del hess  # else two 6k x 6k matrices are alive while the next one is assembled
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
        hess, grad, bases = _normal_equations(problem, x, free)
        if f <= 1e-30 or improvement <= 1e-15 * max(f, 1e-300):
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
    from config.seed.  Restarting stops at the first converged restart,
    which is returned; if none converges, the lowest-objective one is.
    """
    cfg = config if config is not None else SolverConfig()
    rng = np.random.default_rng(cfg.seed)
    x0 = problem.initial_guess() if init is None else _check_init(problem, init)
    records: list[RestartRecord] = []
    for r in range(cfg.restarts):
        records.append(_descend(problem, x0 if r == 0 else _random_init(problem, rng), cfg))
        if records[-1].status == STATUS_CONVERGED:
            break
    # only the last record can be converged
    best = min(records, key=lambda r: (r.status != STATUS_CONVERGED, r.objective))
    return SolveResult(**vars(best), restarts=records)
