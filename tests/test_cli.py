import argparse
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import auquat
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
    deltas = [1e-7, 1e-8, 1e-10, 1e-11, 2e-12, 1e-13]
    assert main(["probe", "--deltas", ",".join(map(str, deltas)), "-o", str(report)]) == 0
    table = np.loadtxt(report, skiprows=2)
    np.testing.assert_array_equal(table[:, 0], deltas)
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


def test_noisy_calibration_reports_a_converged_restart(tmp_path, monkeypatch):
    """A noisy calibration exits 0 with a converged solution.  When earlier
    restarts stall, one of them at the lowest objective, the first converged
    restart ends the solve and is reported, though its objective is higher
    (by rounding, on real instances)."""
    problem = tmp_path / "n.txt"
    args = ["gen", "--problem", "handeye", "-m", "100", "--seed", "300"]
    noise = ["--rot-noise", "0.01", "--trans-noise", "0.01", "--noise-seed", "0"]
    assert main(args + noise + ["-o", str(problem)]) == 0
    solution = tmp_path / "n.sol"
    assert main(["calibrate", str(problem), "-o", str(solution)]) == 0
    assert files.parse_solution(solution)["status"] == "converged"

    lowest = 0.25
    crafted = [(1.0 + 4e-15, opt.STATUS_STALLED), (1.0, opt.STATUS_STALLED),
               (1.0 + 2e-15, opt.STATUS_MAX_ITERS), (1.0 + 1e-14, opt.STATUS_CONVERGED),
               (0.5, opt.STATUS_CONVERGED)]
    records = [opt.RestartRecord(np.array([[1.0, 0, 0, 0, k, 0, 0]]), lowest * f, 1e-9, 10, status)
               for k, (f, status) in enumerate(crafted)]
    drawn = iter(records)
    monkeypatch.setattr(opt, "_descend", lambda *args: next(drawn))
    assert main(["calibrate", str(problem), "-o", str(solution)]) == 0
    sol = files.parse_solution(solution)
    assert (sol["status"], sol["objective"]) == ("converged", records[3].objective)
    np.testing.assert_array_equal(sol["solution"], records[3].solution)
    assert next(drawn) is records[4]  # the converged restart ended the solve


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
        # finite poses whose error pose x0^-1 o xd overflows
        ["--start=1,0,0,0,1e308,1e308,1e308", "--target=0,1,0,0,-1e308,-1e308,-1e308"],
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
        ["probe", "--deltas", "4"],
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


def test_huge_vertex_index_exit_code(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("EDGE 0 1 1 0 0 0 0 0 0\nEDGE 1 1000000000000 1 0 0 0 0 0 0\n")
    out = tmp_path / "out.txt"
    assert main(["slam", str(path), "-o", str(out)]) == 2
    assert "vertex 2 is in no EDGE record" in capsys.readouterr().err
    assert not out.exists()


def test_version_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"auquat {auquat.__version__}\n"


_NOISE = ["--rot-noise", "0.01", "--trans-noise", "0.01", "--noise-seed"]
# gen arguments of the generated problem files below
_GENERATED = {
    "he": ["handeye", "-m", "5", "--seed", "7"],
    "world": ["handeye-world", "-m", "5", "--seed", "7"],
    "pg": ["posegraph", "-n", "6", "--loop-edges", "4", "--seed", "7"],
    "pg400": ["posegraph", "-n", "400", "--loop-edges", "400", "--seed", "7"],
    "noisy-pg": ["posegraph", "-n", "15", "--loop-edges", "15", "--seed", "33", *_NOISE, "33"],
    "noisy-he": ["handeye", "-m", "20", "--seed", "7", *_NOISE, "7"],
    "noisy-world": ["handeye-world", "-m", "20", "--seed", "7", *_NOISE, "7"],
}
_WRITTEN = {
    "sigma2": "SIGMA 1\nSIGMA 7\nPAIR 1 0 0 0 0 0 0 1 0 0 0 0 0 0\n",
    # translations whose residuals overflow
    "huge-pairs": "PAIR 1 0 0 0 1e308 0 0 1 0 0 0 -1e308 0 0\n"
                  "PAIR 0 1 0 0 0 1e308 0 0 1 0 0 0 -1e308 0\n",
}


@pytest.fixture(scope="module")
def problems(tmp_path_factory):
    """Each named problem file's path: generated, written, or, for "pgv",
    the "pg" graph with a VERTEX guess off the identity at vertex 0."""
    folder = tmp_path_factory.mktemp("problems")
    paths = {name: folder / f"{name}.txt" for name in [*_GENERATED, *_WRITTEN, "pgv"]}
    for name, argv in _GENERATED.items():
        assert main(["gen", "--problem", *argv, "-o", str(paths[name])]) == 0
    for name, text in _WRITTEN.items():
        paths[name].write_text(text)
    paths["pgv"].write_text(paths["pg"].read_text() + "VERTEX 0 0 1 0 0 0.5 0 0\n")
    return paths


@pytest.mark.parametrize(
    "command, name, options, code, error",
    [
        # the identity start is not converged, so a solve that takes no step exits 3
        ("calibrate", "he", ["--max-iters", "0"], 3, ""),
        ("calibrate", "sigma2", [], 2, "sigma2.txt:2: SIGMA is repeated (first on line 1)"),
        ("calibrate-world", "world", [], 0, ""),
        ("slam", "pg", [], 0, ""),
        # a clean graph's spanning-tree start is already converged, at n = 400
        # too, where a mis-ordered level of the tree chaining would leave it unconverged
        ("slam", "pg", ["--max-iters", "0"], 0, ""),
        ("slam", "pg400", ["--max-iters", "0"], 0, ""),
        # an overflow is refused as an invalid input, not raised as a numpy warning
        ("calibrate", "huge-pairs", [], 2, "objective is not finite at the initial point"),
    ],
    ids=["calibrate-he-0-iters", "calibrate-sigma2", "calibrate-world", "slam-pg", "slam-pg-0-iters",
         "slam-pg400-0-iters", "calibrate-huge-pairs"],
)
def test_solve_exit_codes(problems, tmp_path, capsys, command, name, options, code, error):
    out = tmp_path / "out.sol"
    assert main([command, str(problems[name]), "-o", str(out), *options]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ") and err.endswith(f"{error}\n")
        assert not out.exists()
    else:
        assert err == ""
        assert (files.parse_solution(out)["status"] == opt.STATUS_CONVERGED) == (code == 0)


def test_slam_holds_vertex_0_off_its_guess(problems, tmp_path):
    out = tmp_path / "pgv.sol"
    assert main(["slam", str(problems["pgv"]), "-o", str(out)]) == 0
    assert "VERTEX 0 1 0 0 0 0 0 0" in out.read_text().splitlines()


@pytest.mark.parametrize(
    "command, name, rows",
    [("slam", "noisy-pg", 15), ("calibrate", "noisy-he", 1),
     ("calibrate-world", "noisy-world", 2)],
)
def test_noisy_solve_exit_code_tells_its_status(problems, tmp_path, command, name, rows):
    """Exit 0 with STATUS converged or 3 with any other status, and every
    solution row's quaternion unit within 1e-12."""
    out = tmp_path / "noisy.sol"
    code = main([command, str(problems[name]), "-o", str(out)])
    sol = files.parse_solution(out)
    assert code == (0 if sol["status"] == opt.STATUS_CONVERGED else 3)
    assert sol["solution"].shape == (rows, 7)
    np.testing.assert_allclose(np.linalg.norm(sol["solution"][:, :4], axis=1), 1.0,
                               rtol=0, atol=1e-12)


def test_zero_rotation_simulate_exit_code(tmp_path):
    """The zero rotation at every step: the float loop's |pv| = 0 branch
    runs 4·10⁴ times, and a division by |pv| there would make it exit 3."""
    out = tmp_path / "zero.txt"
    argv = ["simulate", "--start=1,0,0,0,0,0,0", "--target=1,0,0,0,0.5,-0.3,0.2",
            "--steps", "10000", "-o", str(out)]
    assert main(argv) == 0
    table = np.loadtxt(out, skiprows=2)
    np.testing.assert_array_equal(table[:, 1:5], np.tile([1.0, 0.0, 0.0, 0.0], (10_001, 1)))


@pytest.mark.parametrize(
    "argv, code",
    [
        (["probe"], 0),
        (["calibrate", "PROBLEM"], 2),
        (["simulate", "--start=1,0,0,0,0,0,0", "--target=0.6,0.8,0,0,0.5,-0.3,0.2",
          "--dt", "10", "--steps", "30"], 3),
    ],
    ids=["exit-0", "exit-2", "exit-3"],
)
def test_python_m_auquat_exit_code(tmp_path, argv, code):
    """__main__ hands main's return value to sys.exit in a fresh interpreter
    where a RuntimeWarning is an error, as it is under pytest: the problem
    file is the overflowing one, which is refused, not raised as a warning."""
    problem = tmp_path / "p.txt"
    problem.write_text(_WRITTEN["huge-pairs"])
    argv = [str(problem) if arg == "PROBLEM" else arg for arg in argv]
    src = str(Path(auquat.__file__).parents[1])
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "auquat", *argv, "-o", str(tmp_path / "out.txt")],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == code, run.stderr
    assert run.stderr.startswith("error: ") if code else run.stderr == ""


# identity rotations, b_t = R(x)^T a_t for x = 90 degrees about z: x's
# translation is unobserved, so every Gauss-Newton step is the lstsq one
_PURE_TRANSLATION_PAIRS = """\
PAIR 1 0 0 0 1 0 0 1 0 0 0 0 -1 0
PAIR 1 0 0 0 0 1 0 1 0 0 0 1 0 0
PAIR 1 0 0 0 0 0 1 1 0 0 0 0 0 1
PAIR 1 0 0 0 1 2 3 1 0 0 0 2 -1 3
PAIR 1 0 0 0 -2 1 0.5 1 0 0 0 1 2 0.5
"""


def test_pure_translation_pairs_calibrate(tmp_path, monkeypatch):
    path = tmp_path / "p.txt"
    path.write_text(_PURE_TRANSLATION_PAIRS)
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    out = tmp_path / "out.txt"
    assert main(["calibrate", str(path), "-o", str(out)]) == 0
    assert calls
    x = files.parse_solution(out)["solution"][0]
    np.testing.assert_allclose(x[:4], [np.sqrt(0.5), 0, 0, np.sqrt(0.5)], rtol=0, atol=1e-12)
    assert np.all(x[4:] == 0.0)


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
    problem = dataclasses.replace(problem, initial=x_true)
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


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    """Subparsers are parsers too; only the top-level one has prog "auquat"."""
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    for name in ("a.txt", "b.txt"):
        assert main(["probe", "-o", str(tmp_path / name)]) == 0
    assert built.count("auquat") == 1


def test_shared_array_defaults_are_not_written(tmp_path):
    """Every main call shares the parser's array defaults: two default-gain
    simulate runs write the same bytes, and the defaults keep their values."""
    outs = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for out in outs:
        assert main(["simulate", "--steps", "200", "--seed", "3", "-o", str(out)]) == 0
        assert main(["probe", "-o", str(out) + ".probe"]) == 0
    assert _read(outs[0]) == _read(outs[1])
    assert _read(str(outs[0]) + ".probe") == _read(str(outs[1]) + ".probe")
    simulate, probe = _defaults("simulate"), _defaults("probe")
    for values, declared in ((simulate.kr, np.ones(3)), (simulate.kt, np.ones(3)),
                             (probe.axis, [0.0, 0.0, 1.0]), (probe.deltas, [1e-6, 1e-4, 1e-2, 1.0])):
        np.testing.assert_array_equal(values, declared)
