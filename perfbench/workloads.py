"""The benchmark's three workloads: their inputs, ops and output checks.

An op is one CLI command run in-process through ``auquat.cli.main(argv)``
or, in ``simulate``, one library call of ``control.integrate_batch``.
Module attributes are looked up when an op runs, so the tracer's
rebinding reaches them.

Solver instances come from fixed generator seeds (a fixed panel): the
cost of one solve varies up to ninefold with the instance, so a panel
drawn from the run seed would not repeat within any useful bound.  The
run seed orders the ops of a round, permutes the PAIR records of every
hand-eye panel file (the same problem, read in another order, at the
same cost), and draws every ``simulate`` start, target, gain and
ensemble plant.  Pose-graph files keep the generator's EDGE order: the
spanning-tree initial guess follows the file order, and reordering the
edges of the n = 200 graph changed its Gauss-Newton lstsq calls from 10
to 9 or 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checker

NOISE = ("--rot-noise", "0.01", "--trans-noise", "0.01")

# (problem, pairs, generator seed); three hand-eye and four world instances per size
HANDEYE_CLEAN = [("handeye", m, 100 * k + 1)
                 for m in (5, 10, 20, 50, 100, 200, 500, 1000) for k in range(3)]
HANDEYE_CLEAN += [("handeye-world", m, 100 * k + 2) for m in (5, 20, 100) for k in range(4)]
HANDEYE_NOISY = [(problem, m, 7) for problem in ("handeye", "handeye-world") for m in (20, 100)]
# Noise-free instances whose first b quaternion is stored negated: the pose
# they describe is unchanged, but the ambient residual leaves an objective
# of 2 and calibrate exits 3, so these ops fail every time (known fault).
HANDEYE_NEGATED = [(5, 11), (50, 12)]

# (vertices, generator seed); loop edges = vertices, so about 2n edges
POSEGRAPH_CLEAN = [(10, 21), (25, 22), (50, 23), (100, 24), (150, 26), (200, 29)]
POSEGRAPH_NOISY = [(10, 31), (15, 33)]

SIM_STEPS = 10_000
SIM_DT = 1e-3
SIM_TRACES = 4
ENSEMBLE_PLANTS = 100

WORKLOADS = ("handeye", "posegraph", "simulate")
# Nominal seconds of one round on a 2-core x86 VM with one BLAS thread.
# A run repeats the op list round(seconds / ROUND_SECONDS) times (at
# least once), a fixed count for a given --seconds; with several rounds
# each op's latency is its median over the rounds, which filters bursts
# of slowdown shorter than a round.
ROUND_SECONDS = {"handeye": 11.0, "posegraph": 23.0, "simulate": 26.0}


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    known_fault: bool = False  # fails every time because of a named program fault


def _solve_check(problem, solution, noisy: bool) -> Callable[[object], list[str]]:
    def check(exit_code) -> list[str]:
        if exit_code not in (0, 3):
            return [f"exit code {exit_code}"]
        # exit 3 (not converged) is a failure only where an exact answer exists
        problems = [] if noisy or exit_code == 0 else ["exit code 3 on a noise-free input"]
        return problems + checker.check_solve(problem, solution, f"{problem}.truth", noisy)

    return check


def _gen(cli, argv) -> None:
    code = cli.main(["gen", *argv])
    if code != 0:
        raise RuntimeError(f"auquat gen {' '.join(argv)} exited {code}")


def _permute_records(path: Path, rng: np.random.Generator) -> None:
    """Shuffle the PAIR lines of a hand-eye problem file in place."""
    lines = path.read_text().splitlines()
    keep = [ln for ln in lines if not ln.startswith("PAIR")]
    records = [ln for ln in lines if ln.startswith("PAIR")]
    order = rng.permutation(len(records))
    path.write_text("\n".join(keep + [records[k] for k in order]) + "\n")


def _negate_first_b(path: Path) -> None:
    """Store the quaternion of the first pair's b as -b (same rotation)."""
    lines = path.read_text().splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("PAIR"))
    fields = lines[k].split()
    fields[8:12] = [repr(-float(v)) for v in fields[8:12]]
    lines[k] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _cli_op(cli, label, argv, check, known_fault=False) -> Op:
    return Op(label, lambda: cli.main(argv), check, known_fault)


def _handeye(cli, work: Path, rng) -> tuple[list[Op], Op]:
    ops = []
    panel = [(*instance, False) for instance in HANDEYE_CLEAN]
    panel += [(*instance, True) for instance in HANDEYE_NOISY]
    for problem, m, seed, noisy in panel:
        label = f"{problem}-m{m}-s{seed}{'-noisy' if noisy else ''}"
        path = work / f"{label}.txt"
        extra = [*NOISE, "--noise-seed", str(seed)] if noisy else []
        _gen(cli, ["--problem", problem, "-m", str(m), "--seed", str(seed), *extra,
                   "-o", str(path)])
        _permute_records(path, rng)
        command = "calibrate-world" if problem == "handeye-world" else "calibrate"
        sol = work / f"{label}.sol"
        argv = [command, str(path), "-o", str(sol)]
        ops.append(_cli_op(cli, label, argv, _solve_check(path, sol, noisy)))
    for m, seed in HANDEYE_NEGATED:
        label = f"handeye-m{m}-s{seed}-negated"
        path, sol = work / f"{label}.txt", work / f"{label}.sol"
        _gen(cli, ["--problem", "handeye", "-m", str(m), "--seed", str(seed), "-o", str(path)])
        _negate_first_b(path)
        ops.append(_cli_op(cli, label, ["calibrate", str(path), "-o", str(sol)],
                           _solve_check(path, sol, False), known_fault=True))
    return ops, ops[0]


def _posegraph(cli, work: Path) -> tuple[list[Op], Op]:
    ops = []
    panel = [(n, s, False) for n, s in POSEGRAPH_CLEAN] + [(n, s, True) for n, s in POSEGRAPH_NOISY]
    for n, seed, noisy in panel:
        label = f"posegraph-n{n}-s{seed}{'-noisy' if noisy else ''}"
        path, sol = work / f"{label}.txt", work / f"{label}.sol"
        extra = [*NOISE, "--noise-seed", str(seed)] if noisy else []
        _gen(cli, ["--problem", "posegraph", "-n", str(n), "--loop-edges", str(n),
                   "--seed", str(seed), *extra, "-o", str(path)])
        argv = ["slam", str(path), "-o", str(sol)]
        ops.append(_cli_op(cli, label, argv, _solve_check(path, sol, noisy)))
    return ops, ops[0]


def _pose_arg(x) -> str:
    return ",".join(repr(float(v)) for v in x)


def _random_poses(rng, n):
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return np.concatenate([q, rng.uniform(-1.0, 1.0, (n, 3))], axis=1)


def _simulate_op(cli, work: Path, rng, label: str, steps: int) -> Op:
    start, target = _random_poses(rng, 2)
    kr, kt = rng.uniform(0.2, 2.0, (2, 3))
    out = work / f"{label}.txt"
    # the '=' form: argparse would read a leading '-' value as an option
    argv = ["simulate", f"--start={_pose_arg(start)}", f"--target={_pose_arg(target)}",
            f"--kr={_pose_arg(kr)}", f"--kt={_pose_arg(kt)}", "--dt", repr(SIM_DT),
            "--steps", str(steps), "-o", str(out)]

    def check(exit_code) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        return checker.check_trace(out, start, target, kr, kt, SIM_DT, steps)

    return _cli_op(cli, label, argv, check)


def _ensemble_op(control, rng) -> Op:
    x0, xd = _random_poses(rng, 2 * ENSEMBLE_PLANTS).reshape(2, ENSEMBLE_PLANTS, 7)
    kr, kt = rng.uniform(0.2, 2.0, (2, ENSEMBLE_PLANTS, 3))

    def call():
        return control.integrate_batch(x0, xd, kr, kt, SIM_DT, SIM_STEPS)

    def check(result) -> list[str]:
        v0 = checker.lyapunov(checker.compose(checker.inverse(x0), xd), 1.0, 1.0)
        problems = []
        if not np.allclose(result.V[:, 0], v0, rtol=1e-9, atol=1e-15):
            problems.append("ensemble V(0) differs from alpha |theta|^2 + beta |t|^2 at x0^-1 o xd")
        k_min = np.minimum(kr.min(axis=1), kt.min(axis=1))
        return problems + checker.check_decay(result.V, k_min, SIM_DT * SIM_STEPS)

    return Op(f"ensemble-{ENSEMBLE_PLANTS}", call, check)


def _simulate(cli, control, work: Path, rng) -> tuple[list[Op], Op]:
    ops = [_simulate_op(cli, work, rng, f"simulate-{k}", SIM_STEPS) for k in range(SIM_TRACES)]
    ops.append(_ensemble_op(control, rng))
    return ops, _simulate_op(cli, work, rng, "simulate-warmup", 200)


def build(workload: str, seed: int, work: Path) -> tuple[list[Op], Op]:
    """Write the workload's inputs into `work`; return (ops, warm-up op).

    The ops come in a seeded order; the warm-up op is run once, untimed,
    before the first round.
    """
    from auquat import cli, control

    rng = np.random.default_rng(seed)
    if workload == "handeye":
        ops, warmup = _handeye(cli, work, rng)
    elif workload == "posegraph":
        ops, warmup = _posegraph(cli, work)
    elif workload == "simulate":
        ops, warmup = _simulate(cli, control, work, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [ops[k] for k in rng.permutation(len(ops))], warmup
