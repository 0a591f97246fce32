"""Shared numeric tolerances.

Every algebraic identity in this package is checked against ALGEBRA_ATOL;
change it here rather than sprinkling literals through the code.
"""

# Absolute tolerance for algebraic identities (group axioms, homomorphisms).
ALGEBRA_ATOL = 1e-12

# Below this magnitude a quaternion is treated as non-invertible.
ZERO_MAGNITUDE = 1e-15

# Vector-part norm below which the logarithm axis is degenerate.
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
