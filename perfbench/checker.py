"""Independent output checker for the benchmark, in plain numpy.

Nothing here imports auquat: poses are checked through this file's own
quaternion product, quaternion -> 4x4 homogeneous matrix conversion and
objective, and the text files are parsed here too.  A pose is
[p0 p1 p2 p3 t1 t2 t3] and acts on points by v -> R(p)(v + t), so its
homogeneous matrix is [[R(p), R(p) t], [0, 1]] and composition
x o y = [p q, u + R(q)^T t] maps to the matrix product.  Matrices are
quadratic in the quaternion, so every matrix check is blind to the
q / -q double cover; the objective is not, as in the program.

Every check returns a list of problems; an empty list means the output
is correct.
"""

from __future__ import annotations

import numpy as np

EXACT_TOL = 1e-6  # noise-free equations and truth match
NOISY_POSE_TOL = 0.05  # rad and length units, noisy instances
OBJECTIVE_RTOL = 1e-9  # reported OBJECTIVE vs recomputed, and vs truth
UNIT_TOL = 1e-12
DECAY_RTOL = 1e-9


# ---------------------------------------------------------------------------
# algebra


def qmul(p, q):
    """Hamilton product, scalar first, broadcasting over leading axes."""
    p0, p1, p2, p3 = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    q0, q1, q2, q3 = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack(
        [
            p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
        ],
        axis=-1,
    )


def rotation(q):
    """Active rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    rows = [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def homogeneous(x):
    """4x4 matrix [[R(p), R(p) t], [0, 1]] of pose x = [p, t]."""
    x = np.asarray(x, dtype=float)
    r = rotation(x[..., :4])
    out = np.zeros(x.shape[:-1] + (4, 4))
    out[..., :3, :3] = r
    out[..., :3, 3] = np.einsum("...ij,...j->...i", r, x[..., 4:])
    out[..., 3, 3] = 1.0
    return out


def compose(x, y):
    """x o y = [p q, u + R(q)^T t]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    t_back = np.einsum("...ji,...j->...i", rotation(y[..., :4]), x[..., 4:])
    return np.concatenate([qmul(x[..., :4], y[..., :4]), y[..., 4:] + t_back], axis=-1)


def inverse(x):
    """[p*, -R(p) t] for a unit quaternion part."""
    x = np.asarray(x, dtype=float)
    conj = x[..., :4] * np.array([1.0, -1.0, -1.0, -1.0])
    t = -np.einsum("...ij,...j->...i", rotation(x[..., :4]), x[..., 4:])
    return np.concatenate([conj, t], axis=-1)


def objective(z, sigma):
    """(1/2) sum |z|^2 with translation components weighted by sigma."""
    weights = np.array([1.0] * 4 + [sigma] * 3)
    return 0.5 * float(np.sum(z * z * weights))


def pose_error(x, x_true):
    """(rotation angle in rad, translation distance) per pose, from matrices."""
    h, g = homogeneous(x), homogeneous(x_true)
    rel = np.einsum("...ji,...jk->...ik", g[..., :3, :3], h[..., :3, :3])
    cos = np.clip((np.trace(rel, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    trans = np.linalg.norm(h[..., :3, 3] - g[..., :3, 3], axis=-1)
    return np.arccos(cos), trans


def lyapunov(xe, alpha, beta):
    """alpha |theta|^2 + beta |t|^2 with |theta| = arccos(q0), the log branch."""
    xe = np.asarray(xe, dtype=float)
    theta = np.arccos(np.clip(xe[..., 0], -1.0, 1.0))
    return alpha * theta * theta + beta * np.sum(xe[..., 4:] ** 2, axis=-1)


# ---------------------------------------------------------------------------
# files


def _records(path):
    with open(path) as fh:
        for line in fh:
            fields = line.split("#", 1)[0].replace(",", " ").split()
            if fields:
                yield fields[0].upper(), fields[1:]


def read_problem(path) -> dict:
    """{'sigma', 'a', 'b'} for PAIR files or {'sigma', 'edges', 'y'} for EDGE files."""
    sigma, pairs, edges, ys = 1.0, [], [], []
    for key, rest in _records(path):
        if key == "SIGMA":
            sigma = float(rest[0])
        elif key == "PAIR":
            pairs.append([float(v) for v in rest])
        elif key == "EDGE":
            edges.append((int(rest[0]), int(rest[1])))
            ys.append([float(v) for v in rest[2:]])
    if pairs:
        pairs = np.array(pairs)
        return {"sigma": sigma, "a": pairs[:, :7], "b": pairs[:, 7:]}
    return {"sigma": sigma, "edges": np.array(edges), "y": np.array(ys)}


def read_poses(path) -> tuple[dict, np.ndarray]:
    """Header fields and pose rows of a solution or truth file.

    Indexed rows (VERTEX i ..., TRUTH i ...) are placed by index.
    """
    header, rows = {}, {}
    for key, rest in _records(path):
        if key in ("STATUS", "OBJECTIVE"):
            header[key] = rest[0]
        elif len(rest) == 8:
            rows[int(rest[0])] = [float(v) for v in rest[1:]]
        else:
            rows[len(rows)] = [float(v) for v in rest]
    return header, np.array([rows[i] for i in range(len(rows))])


def read_trace(path) -> np.ndarray:
    """Numeric rows of a simulate trace: time, 7 error-state components, V."""
    with open(path) as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split()] for ln in lines[1:]])


# ---------------------------------------------------------------------------
# checks


def _residuals(problem, poses):
    if "edges" in problem:
        i, j = problem["edges"][:, 0], problem["edges"][:, 1]
        return compose(inverse(poses[i]), poses[j]) - problem["y"]
    y = poses[1] if len(poses) == 2 else poses[0]
    return compose(problem["a"], poses[0]) - compose(y, problem["b"])


def _equation_gap(problem, poses) -> float:
    """Largest entry of the matrix-form measurement equation's residual."""
    h = homogeneous(poses)
    if "edges" in problem:
        i, j = problem["edges"][:, 0], problem["edges"][:, 1]
        lhs = np.linalg.inv(h[i]) @ h[j]
        return float(np.max(np.abs(lhs - homogeneous(problem["y"]))))
    hy = h[1] if len(poses) == 2 else h[0]
    lhs = homogeneous(problem["a"]) @ h[0]
    return float(np.max(np.abs(lhs - hy @ homogeneous(problem["b"]))))


def check_solve(problem_path, solution_path, truth_path, noisy: bool) -> list[str]:
    """Check a calibrate, calibrate-world or slam output against its input and truth.

    Every solve: the reported OBJECTIVE equals the objective recomputed at
    the solution.  Noise-free: the matrix equations hold on every pair or
    edge within EXACT_TOL; calibrations match the truth within EXACT_TOL
    and graphs keep vertex 0 at the identity.  Noisy: every pose is within
    NOISY_POSE_TOL of the truth and the objective is no larger than the
    truth's.
    """
    problem = read_problem(problem_path)
    header, poses = read_poses(solution_path)
    _, truth = read_poses(truth_path)
    if poses.shape != truth.shape:
        return [f"solution has shape {poses.shape}, truth {truth.shape}"]
    problems = []
    reported = float(header.get("OBJECTIVE", "nan"))
    recomputed = objective(_residuals(problem, poses), problem["sigma"])
    if not abs(reported - recomputed) <= OBJECTIVE_RTOL * max(abs(recomputed), 1e-300) + 1e-15:
        problems.append(f"OBJECTIVE {reported!r} but the solution gives {recomputed!r}")
    if noisy:
        rot, trans = pose_error(poses, truth)
        worst = max(float(np.max(rot)), float(np.max(trans)))
        if not worst <= NOISY_POSE_TOL:
            problems.append(f"pose error {worst:.3g} exceeds {NOISY_POSE_TOL}")
        at_truth = objective(_residuals(problem, truth), problem["sigma"])
        if not recomputed <= at_truth * (1.0 + OBJECTIVE_RTOL):
            problems.append(f"objective {recomputed!r} above the truth's {at_truth!r}")
        return problems
    gap = _equation_gap(problem, poses)
    if not gap <= EXACT_TOL:
        problems.append(f"measurement equations miss by {gap:.3g}")
    if "edges" in problem:
        anchor = float(np.max(np.abs(homogeneous(poses[0]) - np.eye(4))))
        if not anchor <= EXACT_TOL:
            problems.append(f"anchor vertex 0 is {anchor:.3g} from the identity")
    else:
        off = float(np.max(np.abs(homogeneous(poses) - homogeneous(truth))))
        if not off <= EXACT_TOL:
            problems.append(f"pose is {off:.3g} from the truth")
    return problems


def check_decay(v, k_min, horizon) -> list[str]:
    """V(T) <= V(0) exp(-2 k_min T) per row of v (one row per plant)."""
    v = np.atleast_2d(v)
    bound = v[:, 0] * np.exp(-2.0 * np.asarray(k_min) * horizon) * (1.0 + DECAY_RTOL)
    bad = np.flatnonzero(~(v[:, -1] <= bound))
    return [f"plant {k}: V(T) {v[k, -1]!r} above the decay bound {bound[k]!r}" for k in bad]


def check_trace(path, start, target, kr, kt, dt, steps, alpha=1.0, beta=1.0) -> list[str]:
    """Check a simulate trace: its first row is start^-1 o target, every
    quaternion is unit, the V column matches alpha |theta|^2 + beta |t|^2,
    and V decays at least as fast as exp(-2 kmin t)."""
    rows = read_trace(path)
    if rows.shape != (steps + 1, 9):
        return [f"trace has shape {rows.shape}, expected {(steps + 1, 9)}"]
    problems = []
    xe, v = rows[:, 1:8], rows[:, 8]
    first = float(np.max(np.abs(xe[0] - compose(inverse(start), target))))
    if not first <= 1e-12:
        problems.append(f"row 0 is {first:.3g} from start^-1 o target")
    unit = float(np.max(np.abs(np.linalg.norm(xe[:, :4], axis=1) - 1.0)))
    if not unit <= UNIT_TOL:
        problems.append(f"quaternion norm deviates by {unit:.3g}")
    expected = lyapunov(xe, alpha, beta)
    v_gap = np.abs(v - expected) - (1e-9 * np.abs(expected) + 1e-15)
    if not np.all(v_gap <= 0.0):
        row = int(np.argmax(v_gap))
        problems.append(f"V column deviates from alpha |theta|^2 + beta |t|^2 at row {row}")
    k_min = min(np.min(kr), np.min(kt))
    return problems + check_decay(v, k_min, dt * steps)
