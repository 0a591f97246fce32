"""Augmented-unit-quaternion pose algebra, control, and optimization toolkit.

A rigid pose is stored as 7 reals [p0, p1, p2, p3, t1, t2, t3]: a unit
quaternion and a translation.  The subpackages provide the pose algebra
and its dual-quaternion/homogeneous-matrix oracles, a provably
stabilizing pose-error controller, sphere-constrained least-squares
solvers for hand-eye calibration and pose-graph problems, and the
discontinuity probes for the 6-component motion alternative.
"""

__version__ = "0.1.0"

from .augmented import (
    act_on_point,
    aq,
    aq_add,
    aq_inverse,
    aq_scale,
    as_auq,
    auq,
    auq_inverse,
    auq_log,
    avq,
    avq_conjugation,
    compose,
    identity,
    quat_part,
    random_auq,
    sigma_magnitude,
    to_homogeneous,
    trans_part,
)
from .control import (
    ControlTrace,
    Gains,
    LyapunovWeights,
    Twist,
    error_angular_velocity,
    error_auq,
    integrate,
    integrate_batch,
    lyapunov,
    proportional_control,
    state_derivative,
    twist_from_error_rates,
)
from .dualquat import dq, dq_conj, dq_mul, from_auq, to_auq
from .errors import (
    AVQClosureViolation,
    ConstraintViolated,
    InfeasibleInit,
    NonFiniteObjective,
    OutOfRange,
    ParseError,
    StepDiverged,
    ZeroMagnitude,
)
from .generation import NoiseModel, gen_handeye, gen_handeye_world, gen_posegraph, perturb
from .motion import (
    Motion,
    discontinuity_report,
    motion_compose,
    quat_from_rotvec,
    rot_oplus,
    rotvec_from_quat,
)
from .optimization import (
    HandEyeProblem,
    HandEyeWorldProblem,
    PoseGraphProblem,
    SolveResult,
    SolverConfig,
    gradient,
    objective,
    pose_error,
    residual_handeye,
    residual_handeye_world,
    residual_slam,
    residuals,
    solve,
)
from .quaternion import (
    cross_matrix,
    qconj,
    qexp,
    qinv,
    qlog,
    qlog_vec,
    qmul,
    qnorm,
    random_unit,
    rot_matrix,
    rot_matrix_T,
    vector_quat,
)
