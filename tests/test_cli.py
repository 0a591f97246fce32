import numpy as np
import pytest

from auquat import cli, files
from auquat import optimization as opt
from auquat.cli import main
from auquat.control import DYNAMICS_EXPONENTIAL, DYNAMICS_TWIST, LyapunovWeights
from auquat.generation import NoiseModel


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


def test_probe_measures_small_offsets(tmp_path):
    """Both jumps read 2 pi - delta at offsets far below 1e-7 rad."""
    report = tmp_path / "probe.txt"
    assert main(["probe", "--deltas", "1e-7,1e-8,1e-10", "-o", str(report)]) == 0
    table = np.loadtxt(report, skiprows=2)
    np.testing.assert_array_equal(table[:, 0], [1e-7, 1e-8, 1e-10])
    for column in (1, 2):
        np.testing.assert_allclose(table[:, column], 2 * np.pi - table[:, 0], rtol=0, atol=1e-12)


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
    """Restarts 0-2 of this instance stall just above the gradient
    tolerance, one of them at the lowest objective; restart 3 converges to
    the same objective up to rounding, ends the solve and is reported."""
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
    assert result.objective - lowest <= 1e-12 * lowest
    assert any(r.status != opt.STATUS_CONVERGED and r.objective == lowest for r in result.restarts)
    assert len(result.restarts) == 4
    assert all(r.status != opt.STATUS_CONVERGED for r in result.restarts[:3])
    assert result.solution is result.restarts[3].solution



@pytest.mark.parametrize(
    "option",
    [
        ["--dt", "0"],
        ["--steps", "-1"],
        ["--kr", "0,1,1"],
        ["--start", "2,0,0,0,0,0,0"],
        ["--alpha", "0"],
        ["--alpha", "inf"],
        ["--kr=inf,1,1"],
        ["--dt", "inf"],
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


def test_simulate_unstable_step_exit_code(tmp_path, capsys):
    # RK4 is unstable at this dt for unit gains: the state stays finite,
    # but V, which the exponential dynamics never raise, grows to ~1e266
    out = tmp_path / "t.txt"
    argv = ["simulate", "--start=1,0,0,0,0,0,0", "--target=0.6,0.8,0,0,0.5,-0.3,0.2",
            "--dt", "10", "--steps", "30", "-o", str(out)]
    assert main(argv) == 3
    assert "at step 1: dt = 10 is too large" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "option, message",
    [
        (["--kr", "1,2"], "argument --kr: expected 3 comma-separated values"),
        (["--start", "a,b,c,d,e,f,g"], "argument --start: could not convert"),
    ],
)
def test_simulate_malformed_number_list_exit_code(tmp_path, capsys, option, message):
    out = tmp_path / "t.txt"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--steps", "5", *option, "-o", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--problem", "handeye", "-m", "0"],
        ["gen", "--problem", "posegraph", "-n", "3", "--loop-edges", "100"],
        ["gen", "--problem", "posegraph", "--loop-edges", "-1"],
        ["gen", "--problem", "handeye", "--sigma", "-1"],
        ["gen", "--problem", "handeye", "--sigma", "inf"],
        ["calibrate", "PROBLEM", "--tol", "0"],
        ["calibrate", "PROBLEM", "--tol", "nan"],
        ["calibrate", "PROBLEM", "--tol", "inf"],
        ["probe", "--deltas", "0"],
        ["probe", "--deltas", "nan"],
        ["probe", "--deltas", "inf"],
        ["probe", "--deltas", ""],
        ["probe", "--axis=nan,0,1"],
        ["probe", "--axis=0,inf,1"],
        ["calibrate", "PROBLEM", "--max-iters", "-1"],
        ["calibrate", "PROBLEM", "--restarts", "-3"],
        ["calibrate", "PROBLEM", "--restarts", "0"],
        ["gen", "--problem", "handeye", "--rot-noise", "inf"],
        ["gen", "--problem", "handeye", "--rot-noise", "nan"],
        ["gen", "--problem", "handeye", "--trans-noise", "inf"],
        ["gen", "--problem", "posegraph", "--trans-noise", "nan"],
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


def test_overflowing_objective_exit_code(tmp_path, capsys):
    # a 1e200 translation squares past the largest double before the first step
    path = tmp_path / "p.txt"
    path.write_text("SIGMA 1\nPAIR 1 0 0 0 1e200 0 0 1 0 0 0 0 0 0\n"
                    "PAIR 0 1 0 0 0 0 0 0 1 0 0 0 0 0\n")
    out = tmp_path / "out.txt"
    assert main(["calibrate", str(path), "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: objective is not finite at the initial point\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, problem",
    [("slam", "handeye"), ("calibrate", "posegraph"), ("calibrate-world", "posegraph")],
)
def test_solve_refuses_the_other_familys_file(tmp_path, capsys, command, problem):
    path = tmp_path / "p.txt"
    assert main(["gen", "--problem", problem, "-o", str(path)]) == 0
    out = tmp_path / "out.txt"
    assert main([command, str(path), "-o", str(out)]) == 2
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


def _defaults(command):
    """The options of one subcommand as parsed with nothing given."""
    argv = {"gen": ["--problem", "handeye"], "simulate": [], "probe": []}.get(command, ["IN"])
    return cli._build_parser().parse_args([command, *argv, "-o", "OUT"])


@pytest.mark.parametrize("command", ["calibrate", "calibrate-world", "slam"])
def test_solver_defaults_are_the_libraries(command):
    args, config = _defaults(command), opt.SolverConfig()
    assert (args.restarts, args.seed, args.tol, args.max_iters) == (
        config.restarts, config.seed, config.grad_tol, config.max_iters
    )


def test_simulate_and_gen_defaults_are_the_libraries(capsys):
    args, weights = _defaults("simulate"), LyapunovWeights()
    assert (args.alpha, args.beta) == (weights.alpha, weights.beta)
    assert args.dynamics == DYNAMICS_EXPONENTIAL
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    assert f"--dynamics {{{DYNAMICS_EXPONENTIAL},{DYNAMICS_TWIST}}}" in capsys.readouterr().out
    args, noise = _defaults("gen"), NoiseModel()
    assert (args.rot_noise, args.trans_noise, args.noise_seed) == (
        noise.rot_sigma, noise.trans_sigma, noise.seed
    )
    assert args.sigma == opt.HandEyeProblem.sigma == opt.PoseGraphProblem.sigma


@pytest.mark.parametrize(
    "command", ["gen", "calibrate", "calibrate-world", "slam", "simulate", "probe"]
)
def test_every_subcommand_has_help_and_a_runner(capsys, command):
    assert callable(_defaults(command).run)
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: auquat {command}")
