"""Synthetic problem instances with known ground truth.

Generators invert the measurement equations, so noise-free residuals
vanish at the returned truth to floating-point roundoff.  Translations
are sampled uniform in [-1, 1]^3 so the default sigma = 1 balances
rotation and translation residual scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import augmented as aug
from . import quaternion as quat
from .augmented import random_auq
from .optimization import HandEyeProblem, HandEyeWorldProblem, PoseGraphProblem


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian pose noise.

    rot_sigma is the per-axis standard deviation (radians) of a
    rotation-vector perturbation applied on the right of the quaternion
    part; trans_sigma (meters) is additive on the translation.  Both are
    nonnegative and finite.
    """

    rot_sigma: float = 0.0
    trans_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.rot_sigma < np.inf and 0.0 <= self.trans_sigma < np.inf):
            raise ValueError("noise standard deviations must be nonnegative and finite")


def perturb(x, noise: NoiseModel, rng=None) -> np.ndarray:
    """Apply the noise model to one pose or a stack of poses.

    The rotation perturbation is a Gaussian rotation vector v (angle
    |v|), applied as the half-angle exponential on the right, so the
    geodesic pose error it induces is |v|.  Pass a Generator to draw
    several perturbations from one stream; otherwise noise.seed starts
    a fresh stream.
    """
    rng = np.random.default_rng(noise.seed if rng is None else rng)
    x = aug.as_auq(np.asarray(x, dtype=float))
    shape = x.shape[:-1] + (3,)
    rv = rng.normal(0.0, noise.rot_sigma, shape) if noise.rot_sigma else np.zeros(shape)
    dt = rng.normal(0.0, noise.trans_sigma, shape) if noise.trans_sigma else np.zeros(shape)
    p = quat.qmul(x[..., :4], quat.qexp(0.5 * rv))
    p /= np.linalg.norm(p, axis=-1, keepdims=True)
    return np.concatenate([p, x[..., 4:] + dt], axis=-1)


def _pairs(rng, m: int, x, y, noise: NoiseModel | None) -> tuple[np.ndarray, np.ndarray]:
    """m measurement pairs of (a_i o x) = (y o b_i): a_i drawn from rng,
    b_i = y^-1 o a_i o x, both perturbed when noise is given."""
    if m < 1:
        raise ValueError("need at least one pair")
    a = random_auq(rng, m)
    b = aug.compose(aug.compose(aug.auq_inverse(y), a), x)
    if noise is not None:
        noise_rng = np.random.default_rng(noise.seed)
        a = perturb(a, noise, noise_rng)
        b = perturb(b, noise, noise_rng)
    return a, b


def gen_handeye(
    m: int, seed=0, sigma: float = 1.0, noise: NoiseModel | None = None
) -> tuple[HandEyeProblem, np.ndarray]:
    """Instance of (a_i o x) = (x o b_i): returns (problem, x_true).

    Exact measurements satisfy b_i = x^-1 o a_i o x; noise, when given,
    perturbs both a_i and b_i.
    """
    rng = np.random.default_rng(seed)
    x_true = random_auq(rng)
    a, b = _pairs(rng, m, x_true, x_true, noise)
    return HandEyeProblem(a=a, b=b, sigma=sigma), x_true


def gen_handeye_world(
    m: int, seed=0, sigma: float = 1.0, noise: NoiseModel | None = None
) -> tuple[HandEyeWorldProblem, np.ndarray, np.ndarray]:
    """Instance of (a_i o x) = (y o b_i): returns (problem, x_true, y_true)."""
    rng = np.random.default_rng(seed)
    x_true = random_auq(rng)
    y_true = random_auq(rng)
    a, b = _pairs(rng, m, x_true, y_true, noise)
    return HandEyeWorldProblem(a=a, b=b, sigma=sigma), x_true, y_true


def gen_posegraph(
    n: int, loop_edges: int, seed=0, sigma: float = 1.0, noise: NoiseModel | None = None
) -> tuple[PoseGraphProblem, np.ndarray]:
    """Chain graph 0 -> 1 -> ... -> n-1 plus random extra arcs.

    Vertex 0 is the ground truth identity, which solves hold.  Measurements
    are y_ij = x_i^-1 o x_j, optionally perturbed.  Returns (problem, x_true).
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    rng = np.random.default_rng(seed)
    x_true = np.concatenate([aug.identity()[None, :], random_auq(rng, n - 1)], axis=0)
    # Extra arcs are picks among the (n - 1)^2 off-chain arcs (i, j),
    # numbered row by row.  On the n x n grid flattened row-major, the
    # cells left out are (k, k) and (k, k + 1) at k (n + 1) and
    # k (n + 1) + 1 for k < n - 1, then (n - 1, n - 1), the last cell.
    # n - 1 arcs follow each left-out pair, so pick p sits at cell
    # (p // (n - 1)) (n + 1) + 2 + p % (n - 1).
    available = (n - 1) ** 2
    if not 0 <= loop_edges <= available:
        raise ValueError(f"need 0 to at most {available} extra arcs, got {loop_edges}")
    block, offset = np.divmod(np.sort(rng.choice(available, size=loop_edges, replace=False)), n - 1)
    chain = np.arange(n - 1)
    edges = np.concatenate([
        np.column_stack([chain, chain + 1]),
        np.column_stack(np.divmod(block * (n + 1) + 2 + offset, n)),
    ])
    y = aug.compose(aug.auq_inverse(x_true[edges[:, 0]]), x_true[edges[:, 1]])
    if noise is not None:
        y = perturb(y, noise, np.random.default_rng(noise.seed))
    problem = PoseGraphProblem(n=n, edges=edges, measurements=y, sigma=sigma)
    return problem, x_true
