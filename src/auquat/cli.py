"""Batch command-line interface.

Subcommands: gen, calibrate, calibrate-world, slam, simulate, probe.
All outputs are deterministic for a fixed seed.  calibrate and
calibrate-world read a file of PAIR records, slam one of EDGE records.
Each runs up to --restarts tangent-space Gauss-Newton loops of at most
--max-iters iterations each and stops at the first whose gradient norm
is at most --tol.  The solver, noise, sigma and Lyapunov-weight
defaults are those of SolverConfig, NoiseModel, the problem classes and
LyapunovWeights.
Exit codes: 0 success, 1 I/O failure, 2 malformed input file, wrong
kind of problem file, invalid option value or a problem whose objective
is not finite at the start (no solution is written), 3 solver did not
converge (the solution file is still written) or simulation diverged
(no trace is written).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

import numpy as np

from . import __version__, files
from . import generation as gen
from . import motion
from .control import DYNAMICS_EXPONENTIAL, DYNAMICS_TWIST, Gains, LyapunovWeights, integrate
from .errors import NonFiniteObjective, ParseError, StepDiverged
from .generation import NoiseModel
from .optimization import STATUS_CONVERGED, HandEyeProblem, PoseGraphProblem, SolverConfig, solve


def _csv_floats(count=None):
    def parse(text):
        try:
            values = np.array([float(v) for v in text.replace(",", " ").split()])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        if count is not None and len(values) != count:
            raise argparse.ArgumentTypeError(f"expected {count} comma-separated values")
        return values

    return parse


# Options taking a number list.  argparse reads a value such as
# "-0.5,0.5,..." as an option of its own, so a value that starts with a
# minus sign is glued to its option as "--start=-0.5,0.5,...".
_NUMBER_LIST_OPTIONS = ("--start", "--target", "--kr", "--kt", "--axis", "--deltas")
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _glue_negative_values(argv: list[str]) -> list[str]:
    out = list(argv)
    for k in range(len(out) - 2, -1, -1):
        if out[k] in _NUMBER_LIST_OPTIONS and _NEGATIVE_NUMBER.match(out[k + 1]):
            out[k : k + 2] = [f"{out[k]}={out[k + 1]}"]
    return out


_GENERATORS = {
    "handeye": gen.gen_handeye,
    "handeye-world": gen.gen_handeye_world,
    "posegraph": gen.gen_posegraph,
}


# Built once per process; parse_args leaves the parser as it was, and no
# runner writes into the array defaults that every call shares.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    solver, weights, noise = SolverConfig(), LyapunovWeights(), NoiseModel()
    parser = argparse.ArgumentParser(prog="auquat", description=__doc__)
    parser.add_argument("--version", action="version", version=f"auquat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic problem instance with ground truth")
    p.set_defaults(run=_run_gen)
    p.add_argument("--problem", required=True, choices=list(_GENERATORS))
    p.add_argument("-m", "--pairs", type=int, default=5, help="measurement pairs (hand-eye)")
    p.add_argument("-n", "--vertices", type=int, default=10, help="vertex count (pose graph)")
    p.add_argument("--loop-edges", type=int, default=10, help="extra arcs beyond the chain")
    p.add_argument("--sigma", type=float, default=HandEyeProblem.sigma)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rot-noise", type=float, default=noise.rot_sigma)
    p.add_argument("--trans-noise", type=float, default=noise.trans_sigma)
    p.add_argument("--noise-seed", type=int, default=noise.seed)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--truth", default=None, help="truth sidecar path (default: OUTPUT.truth)")

    for name in ("calibrate", "calibrate-world", "slam"):
        p = sub.add_parser(name, help=f"solve a {name.replace('-', ' ')} problem file")
        p.set_defaults(run=_run_solve)
        p.add_argument("input")
        p.add_argument("-o", "--output", required=True)
        p.add_argument("--restarts", type=int, default=solver.restarts)
        p.add_argument("--seed", type=int, default=solver.seed)
        p.add_argument("--tol", type=float, default=solver.grad_tol)
        p.add_argument("--max-iters", type=int, default=solver.max_iters,
                       help="Gauss-Newton iterations per restart")

    p = sub.add_parser("simulate", help="integrate the closed-loop pose error")
    p.set_defaults(run=_run_simulate)
    p.add_argument("--start", type=_csv_floats(7), default=None, help="start pose, 7 values")
    p.add_argument("--target", type=_csv_floats(7), default=None, help="target pose, 7 values")
    p.add_argument("--seed", type=int, default=0, help="seed for omitted start/target")
    p.add_argument("--kr", type=_csv_floats(3), default=np.ones(3))
    p.add_argument("--kt", type=_csv_floats(3), default=np.ones(3))
    p.add_argument("--alpha", type=float, default=weights.alpha)
    p.add_argument("--beta", type=float, default=weights.beta)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--dynamics", choices=[DYNAMICS_EXPONENTIAL, DYNAMICS_TWIST],
                   default=DYNAMICS_EXPONENTIAL)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("probe", help="measure the motion-representation discontinuities")
    p.set_defaults(run=_run_probe)
    p.add_argument("--axis", type=_csv_floats(3), default=np.array([0.0, 0.0, 1.0]))
    p.add_argument("--deltas", type=_csv_floats(), default=np.array([1e-6, 1e-4, 1e-2, 1.0]))
    p.add_argument("-o", "--output", required=True)

    return parser


def _run_gen(args) -> int:
    noise = None
    if args.rot_noise or args.trans_noise:
        noise = NoiseModel(args.rot_noise, args.trans_noise, args.noise_seed)
    posegraph = args.problem == "posegraph"
    size = (args.vertices, args.loop_edges) if posegraph else (args.pairs,)
    problem, *truth = _GENERATORS[args.problem](*size, args.seed, args.sigma, noise)
    files.write_problem(args.output, problem)
    files.write_truth(args.truth or args.output + ".truth", np.vstack(truth), indexed=posegraph)
    return 0


def _run_solve(args) -> int:
    problem = files.parse_problem_file(args.input, world=args.command == "calibrate-world")
    if isinstance(problem, PoseGraphProblem) != (args.command == "slam"):
        wanted = "EDGE" if args.command == "slam" else "PAIR"
        raise ParseError(f"{args.command} needs a file of {wanted} records", args.input)
    config = SolverConfig(
        max_iters=args.max_iters, grad_tol=args.tol, restarts=args.restarts, seed=args.seed
    )
    result = solve(problem, config)
    files.write_solution(args.output, result, problem)
    return 0 if result.status == STATUS_CONVERGED else 3


def _run_simulate(args) -> int:
    rng = np.random.default_rng(args.seed)
    start = args.start if args.start is not None else gen.random_auq(rng)
    target = args.target if args.target is not None else gen.random_auq(rng)
    trace = integrate(start, target, Gains(args.kr, args.kt), args.dt, args.steps,
                      weights=LyapunovWeights(args.alpha, args.beta), dynamics=args.dynamics)
    files.write_trace(args.output, trace)
    return 0


def _run_probe(args) -> int:
    files.write_probe_report(args.output, motion.discontinuity_report(args.axis, args.deltas))
    return 0


# Exit code of each failure.  ValueError is a malformed file (ParseError)
# or an invalid option value, NonFiniteObjective measurements so large
# that the objective overflows, StepDiverged a diverged simulation.
_EXIT_CODES = {OSError: 1, ValueError: 2, NonFiniteObjective: 2, StepDiverged: 3}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_glue_negative_values(argv))
    try:
        return args.run(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
