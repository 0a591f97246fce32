import numpy as np
import pytest

from auquat import cli, files
from auquat import optimization as opt
from auquat.cli import main


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_gen_calibrate_pipeline(tmp_path):
    problem = tmp_path / "he.txt"
    solution = tmp_path / "he.sol"
    assert main(["gen", "--problem", "handeye", "-m", "5", "--seed", "7", "-o", str(problem)]) == 0
    assert main(["calibrate", str(problem), "-o", str(solution)]) == 0
    truth = files.parse_truth(str(problem) + ".truth")
    sol = files.parse_solution(solution)
    rot, trans = opt.pose_error(sol["solution"][0], truth[0])
    assert rot <= 1e-6 and trans <= 1e-6
    assert sol["status"] == "converged"


def test_gen_calibrate_world_pipeline(tmp_path):
    problem = tmp_path / "hw.txt"
    solution = tmp_path / "hw.sol"
    assert (
        main(["gen", "--problem", "handeye-world", "-m", "8", "--seed", "3", "-o", str(problem)])
        == 0
    )
    assert main(["calibrate-world", str(problem), "-o", str(solution)]) == 0
    truth = files.parse_truth(str(problem) + ".truth")
    sol = files.parse_solution(solution)
    for k in range(2):
        rot, trans = opt.pose_error(sol["solution"][k], truth[k])
        assert rot <= 1e-6 and trans <= 1e-6


def test_gen_slam_pipeline(tmp_path):
    problem = tmp_path / "pg.txt"
    solution = tmp_path / "pg.sol"
    args = ["gen", "--problem", "posegraph", "-n", "10", "--loop-edges", "11", "--seed", "5"]
    assert main(args + ["-o", str(problem)]) == 0
    assert main(["slam", str(problem), "-o", str(solution)]) == 0
    truth = files.parse_truth(str(problem) + ".truth")
    sol = files.parse_solution(solution)
    rot, trans = opt.pose_error(sol["solution"], truth)
    assert rot.max() <= 1e-5 and trans.max() <= 1e-5


def test_simulate_and_probe(tmp_path):
    trace = tmp_path / "trace.txt"
    assert main(["simulate", "--steps", "100", "--seed", "1", "-o", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    assert len(lines) == 2 + 101
    values = np.array([[float(v) for v in line.split()] for line in lines[2:]])
    assert np.all(np.diff(values[:, -1]) <= 1e-9)  # V nonincreasing

    report = tmp_path / "probe.txt"
    assert main(["probe", "--axis", "0,0,1", "-o", str(report)]) == 0
    rows = report.read_text().splitlines()
    assert rows[1] == "delta rotvec_jump oplus_jump"
    first = [float(v) for v in rows[2].split()]
    assert first[1] >= 2 * np.pi - 1e-3


@pytest.mark.parametrize(
    "command",
    [
        ["gen", "--problem", "handeye", "-m", "4", "--seed", "11"],
        ["gen", "--problem", "posegraph", "-n", "6", "--loop-edges", "3", "--seed", "2"],
        ["simulate", "--steps", "50", "--seed", "9"],
        ["probe", "--axis", "0,1,0"],
    ],
)
def test_outputs_byte_deterministic(tmp_path, command):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert main(command + ["-o", str(out1)]) == 0
    assert main(command + ["-o", str(out2)]) == 0
    assert _read(out1) == _read(out2)
    if command[0] == "gen":
        assert _read(str(out1) + ".truth") == _read(str(out2) + ".truth")


def test_solve_byte_deterministic(tmp_path):
    problem = tmp_path / "p.txt"
    main(["gen", "--problem", "handeye", "-m", "5", "--seed", "13", "-o", str(problem)])
    s1, s2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    assert main(["calibrate", str(problem), "-o", str(s1), "--seed", "4"]) == 0
    assert main(["calibrate", str(problem), "-o", str(s2), "--seed", "4"]) == 0
    assert _read(s1) == _read(s2)


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("PAIR 1 0 0\n")
    assert main(["calibrate", str(bad), "-o", str(tmp_path / "out.txt")]) == 2


def test_missing_file_exit_code(tmp_path):
    missing = tmp_path / "nope.txt"
    assert main(["calibrate", str(missing), "-o", str(tmp_path / "out.txt")]) == 1


def test_nonconvergence_exit_code_still_writes(tmp_path):
    problem = tmp_path / "p.txt"
    main(
        [
            "gen", "--problem", "handeye", "-m", "12", "--seed", "1",
            "--rot-noise", "0.2", "--trans-noise", "0.2", "-o", str(problem),
        ]
    )
    solution = tmp_path / "s.txt"
    # starved solver: two iterations, impossible tolerance
    code = main(
        [
            "calibrate", str(problem), "-o", str(solution),
            "--max-iters", "2", "--restarts", "1", "--tol", "1e-30",
        ]
    )
    assert code == 3
    sol = files.parse_solution(solution)
    assert sol["status"] in ("max_iters", "stalled")


def test_noisy_calibration_reports_a_converged_restart(tmp_path):
    """The lowest-objective restart of this instance stalls just above the
    gradient tolerance, while others converge to the same objective up to
    rounding; the solve reports one of those."""
    problem = tmp_path / "n.txt"
    args = ["gen", "--problem", "handeye", "-m", "100", "--seed", "300"]
    noise = ["--rot-noise", "0.01", "--trans-noise", "0.01", "--noise-seed", "0"]
    assert main(args + noise + ["-o", str(problem)]) == 0
    solution = tmp_path / "n.sol"
    assert main(["calibrate", str(problem), "-o", str(solution)]) == 0
    sol = files.parse_solution(solution)
    assert sol["status"] == "converged"
    result = opt.solve(files.parse_problem_file(problem))
    lowest = min(r.objective for r in result.restarts)
    assert result.status == opt.STATUS_CONVERGED
    assert result.objective - lowest <= opt.SAME_OBJECTIVE_RTOL * lowest
    assert any(r.status != opt.STATUS_CONVERGED and r.objective == lowest for r in result.restarts)



@pytest.mark.parametrize(
    "option",
    [
        ["--dt", "0"],
        ["--steps", "-1"],
        ["--kr", "0,1,1"],
        ["--start", "2,0,0,0,0,0,0"],
        ["--alpha", "0"],
    ],
)
def test_simulate_invalid_value_exit_code(tmp_path, capsys, option):
    out = tmp_path / "t.txt"
    assert main(["simulate", "--steps", "5", *option, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_simulate_divergence_exit_code(tmp_path, capsys):
    out = tmp_path / "t.txt"
    assert main(["simulate", "--steps", "5", "--dt", "1e300", "-o", str(out)]) == 3
    assert "non-finite state at step 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--problem", "handeye", "-m", "0"],
        ["gen", "--problem", "posegraph", "-n", "3", "--loop-edges", "100"],
        ["gen", "--problem", "handeye", "--sigma", "-1"],
        ["calibrate", "PROBLEM", "--tol", "0"],
        ["probe", "--deltas", "0"],
        ["calibrate", "PROBLEM", "--max-iters", "-1"],
        ["calibrate", "PROBLEM", "--restarts", "-3"],
    ],
)
def test_invalid_option_value_exit_code(tmp_path, capsys, argv):
    problem = tmp_path / "p.txt"
    assert main(["gen", "--problem", "handeye", "-o", str(problem)]) == 0
    capsys.readouterr()
    out = tmp_path / "out.txt"
    argv = [str(problem) if arg == "PROBLEM" else arg for arg in argv]
    assert main([*argv, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_slam_uses_file_initial_guess(tmp_path):
    from auquat.generation import gen_posegraph

    problem, x_true = gen_posegraph(n=5, loop_edges=3, seed=21)
    problem.initial = x_true
    path = tmp_path / "g.txt"
    files.write_problem(path, problem)
    solution = tmp_path / "g.sol"
    assert main(["slam", str(path), "-o", str(solution), "--restarts", "1"]) == 0
    sol = files.parse_solution(solution)
    rot, trans = opt.pose_error(sol["solution"], x_true)
    assert rot.max() <= 1e-6 and trans.max() <= 1e-6


def test_number_lists_may_start_with_minus(tmp_path):
    start = "-0.5,0.5,0.5,0.5,0.1,0.2,0.3"
    target = "-0.5,-0.5,0.5,0.5,-0.1,0.2,0.3"
    spaced, glued = tmp_path / "spaced.txt", tmp_path / "glued.txt"
    simulate = ["simulate", "--steps", "10"]
    assert main(simulate + ["--start", start, "--target", target, "-o", str(spaced)]) == 0
    assert main(simulate + [f"--start={start}", f"--target={target}", "-o", str(glued)]) == 0
    assert _read(spaced) == _read(glued)

    spaced, glued = tmp_path / "spaced.probe", tmp_path / "glued.probe"
    assert main(["probe", "--axis", "-1,0,0", "-o", str(spaced)]) == 0
    assert main(["probe", "--axis=-1,0,0", "-o", str(glued)]) == 0
    assert _read(spaced) == _read(glued)


@pytest.mark.parametrize(
    "argv, name, values",
    [
        (["simulate", "--kr", "-1,2,3"], "kr", [-1.0, 2.0, 3.0]),
        (["simulate", "--kt", "-.5,2,3"], "kt", [-0.5, 2.0, 3.0]),
        (["probe", "--deltas", "-1e-6,1e-3"], "deltas", [-1e-6, 1e-3]),
    ],
)
def test_number_list_options_parse_leading_minus(argv, name, values):
    args = cli._build_parser().parse_args(cli._glue_negative_values(argv + ["-o", "out.txt"]))
    np.testing.assert_array_equal(getattr(args, name), values)
