"""Shared numeric tolerances.

Every tolerance that a check of the package compares against is set
here, once.  No function takes a tolerance parameter, so no call can
override one; change a value here rather than writing a literal into the
code.  Every algebraic identity is checked against ALGEBRA_ATOL.  Every
rotation angle is read off the quaternion logarithm, so AXIS_EPS is the
one zero test on a rotation.  The solver's stopping rule is a setting
(SolverConfig.grad_tol), not a check.
"""

# Absolute tolerance for algebraic identities (group axioms, homomorphisms).
ALGEBRA_ATOL = 1e-12

# Below this magnitude a quaternion is treated as non-invertible.
ZERO_MAGNITUDE = 1e-15

# Vector-part norm below which the logarithm axis is degenerate and the
# logarithm, the rotation vector and pose_error's angle read 0.
AXIS_EPS = 1e-12

# Constructors re-normalize unit parts whose norm deviates by less than
# this, and reject anything further out (catches logic errors, absorbs
# integration drift).
UNIT_NORMALIZE_TOL = 1e-9

# Scalar slot of a conjugated augmented vector quaternion above this
# signals an arithmetic bug.
AVQ_SCALAR_TOL = 1e-10

# The Lyapunov function V of an exponential-dynamics simulation never rises
# in exact arithmetic; a step that raises it by more than this, relative to
# the previous V, is a diverging step.
LYAPUNOV_RISE_RTOL = 1e-9
