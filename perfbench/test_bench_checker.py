"""Tests of the benchmark's output checker: it accepts correct outputs and
rejects a perturbed pose, a wrong anchor and a misreported OBJECTIVE.

Run with ``python -m pytest perfbench``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import checker

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def _random_poses(rng, n):
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return np.concatenate([q, rng.uniform(-1.0, 1.0, (n, 3))], axis=1)


def _row(x):
    return " ".join(f"{v:.17g}" for v in x)


def _write_handeye(tmp_path, rng, noise=0.0):
    x = _random_poses(rng, 1)[0]
    a = _random_poses(rng, 8)
    b = checker.compose(checker.compose(checker.inverse(x), a), x)
    b[:, 4:] += noise * rng.normal(size=(8, 3))
    problem = tmp_path / "he.txt"
    pairs = "".join(f"PAIR {_row(ai)} {_row(bi)}\n" for ai, bi in zip(a, b))
    problem.write_text("SIGMA 1\n" + pairs)
    (tmp_path / "he.txt.truth").write_text(f"TRUTH {_row(x)}\n")
    return problem, x


def _write_graph(tmp_path, rng):
    x = _random_poses(rng, 6)
    x[0] = [1, 0, 0, 0, 0, 0, 0]
    edges = [(i, i + 1) for i in range(5)] + [(0, 3), (2, 5), (4, 1)]
    problem = tmp_path / "pg.txt"
    lines = ["SIGMA 1"]
    for i, j in edges:
        lines.append(f"EDGE {i} {j} {_row(checker.compose(checker.inverse(x[i]), x[j]))}")
    problem.write_text("\n".join(lines) + "\n")
    truth = "".join(f"TRUTH {i} {_row(p)}\n" for i, p in enumerate(x))
    (tmp_path / "pg.txt.truth").write_text(truth)
    return problem, x


def _write_solution(path, problem_path, poses, indexed, objective=None):
    problem = checker.read_problem(problem_path)
    if objective is None:
        objective = checker.objective(checker._residuals(problem, poses), problem["sigma"])
    rows = [f"VERTEX {i} {_row(p)}" if indexed else f"SOLUTION {_row(p)}"
            for i, p in enumerate(poses)]
    path.write_text("\n".join(["STATUS converged", f"OBJECTIVE {objective:.17g}", *rows]) + "\n")
    return path


def _check(problem, solution, noisy):
    return checker.check_solve(problem, solution, f"{problem}.truth", noisy)


def test_matrix_form_is_a_homomorphism():
    rng = np.random.default_rng(0)
    x, y = _random_poses(rng, 2)
    h = checker.homogeneous
    assert np.allclose(h(checker.compose(x, y)), h(x) @ h(y), atol=1e-12)
    assert np.allclose(h(checker.inverse(x)), np.linalg.inv(h(x)), atol=1e-12)
    # quaternion sign does not change the pose
    assert np.allclose(h(np.concatenate([-x[:4], x[4:]])), h(x), atol=1e-15)


@pytest.mark.parametrize("noisy", [False, True])
def test_calibration_truth_accepted_and_perturbed_pose_rejected(tmp_path, noisy):
    rng = np.random.default_rng(1)
    problem, x = _write_handeye(tmp_path, rng, noise=0.01 if noisy else 0.0)
    sol = _write_solution(tmp_path / "ok.sol", problem, x[None], indexed=False)
    assert _check(problem, sol, noisy) == []
    bad = x.copy()
    bad[4] += 0.1 if noisy else 1e-4
    sol = _write_solution(tmp_path / "bad.sol", problem, bad[None], indexed=False)
    assert _check(problem, sol, noisy)


def test_noisy_objective_above_truth_rejected(tmp_path):
    rng = np.random.default_rng(2)
    problem, x = _write_handeye(tmp_path, rng, noise=0.01)
    bad = x.copy()
    bad[4] += 0.02  # within the pose tolerance, but a worse fit than the truth
    sol = _write_solution(tmp_path / "bad.sol", problem, bad[None], indexed=False)
    assert any("above the truth" in p for p in _check(problem, sol, True))


def test_misreported_objective_rejected(tmp_path):
    rng = np.random.default_rng(3)
    problem, x = _write_handeye(tmp_path, rng)
    sol = _write_solution(tmp_path / "bad.sol", problem, x[None], indexed=False, objective=1e-3)
    assert any("OBJECTIVE" in p for p in _check(problem, sol, False))


def test_graph_truth_accepted_wrong_anchor_rejected(tmp_path):
    rng = np.random.default_rng(4)
    problem, x = _write_graph(tmp_path, rng)
    sol = _write_solution(tmp_path / "ok.sol", problem, x, indexed=True)
    assert _check(problem, sol, False) == []
    # a common left factor keeps every edge equation but moves the anchor
    shifted = checker.compose(_random_poses(rng, 1)[0], x)
    sol = _write_solution(tmp_path / "shifted.sol", problem, shifted, indexed=True)
    problems = _check(problem, sol, False)
    assert any("anchor" in p for p in problems) and not any("equations" in p for p in problems)
    bad = x.copy()
    bad[3, 5] += 1e-4
    sol = _write_solution(tmp_path / "bad.sol", problem, bad, indexed=True)
    assert any("equations" in p for p in _check(problem, sol, False))


def test_program_outputs_accepted(tmp_path):
    from auquat.cli import main

    for problem, command, size in (("handeye", "calibrate", ["-m", "5"]),
                                   ("handeye-world", "calibrate-world", ["-m", "5"]),
                                   ("posegraph", "slam", ["-n", "6", "--loop-edges", "4"])):
        path, sol = str(tmp_path / f"{problem}.txt"), str(tmp_path / f"{problem}.sol")
        assert main(["gen", "--problem", problem, *size, "--seed", "3", "-o", path]) == 0
        assert main([command, path, "-o", sol]) == 0
        assert checker.check_solve(path, sol, f"{path}.truth", False) == []


def test_trace_accepted_and_tampered_trace_rejected(tmp_path):
    from auquat.cli import main

    rng = np.random.default_rng(5)
    start, target = _random_poses(rng, 2)
    kr, kt = np.array([0.5, 1.0, 1.5]), np.array([1.0, 0.7, 2.0])
    out = tmp_path / "trace.txt"

    def arg(x):
        return ",".join(repr(float(v)) for v in x)

    argv = ["simulate", f"--start={arg(start)}", f"--target={arg(target)}",
            f"--kr={arg(kr)}", f"--kt={arg(kt)}", "--steps", "300", "-o", str(out)]
    assert main(argv) == 0
    assert checker.check_trace(out, start, target, kr, kt, 1e-3, 300) == []
    lines = out.read_text().splitlines()
    fields = lines[-1].split()
    fields[-1] = repr(float(fields[-1]) * 1.01)
    out.write_text("\n".join(lines[:-1] + [" ".join(fields)]) + "\n")
    assert checker.check_trace(out, start, target, kr, kt, 1e-3, 300)
    # the decay bound itself: a V that does not decay fast enough is rejected
    assert checker.check_decay(np.array([[1.0, 0.9]]), 1.0, 1.0)
