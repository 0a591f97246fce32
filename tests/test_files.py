import numpy as np
import pytest

from auquat import files
from auquat import optimization as opt
from auquat.control import Gains, integrate
from auquat.errors import ParseError
from auquat.generation import gen_handeye, gen_handeye_world, gen_posegraph, random_auq


def test_handeye_roundtrip(tmp_path):
    problem, _ = gen_handeye(m=5, seed=0, sigma=0.75)
    path = tmp_path / "p.txt"
    files.write_problem(path, problem)
    back = files.parse_problem_file(path)
    assert isinstance(back, opt.HandEyeProblem)
    assert not isinstance(back, opt.HandEyeWorldProblem)
    assert back.sigma == problem.sigma
    np.testing.assert_array_equal(back.a, problem.a)
    np.testing.assert_array_equal(back.b, problem.b)


def test_world_flag_selects_two_unknowns(tmp_path):
    problem, _, _ = gen_handeye_world(m=3, seed=1)
    path = tmp_path / "p.txt"
    files.write_problem(path, problem)
    back = files.parse_problem_file(path, world=True)
    assert isinstance(back, opt.HandEyeWorldProblem)
    np.testing.assert_array_equal(back.a, problem.a)


def test_posegraph_roundtrip_with_initial(tmp_path):
    problem, x_true = gen_posegraph(n=6, loop_edges=4, seed=2, sigma=2.0)
    problem.initial = x_true
    path = tmp_path / "g.txt"
    files.write_problem(path, problem)
    back = files.parse_problem_file(path)
    assert isinstance(back, opt.PoseGraphProblem)
    assert back.n == problem.n
    assert back.sigma == problem.sigma
    np.testing.assert_array_equal(back.edges, problem.edges)
    np.testing.assert_array_equal(back.measurements, problem.measurements)
    np.testing.assert_array_equal(back.initial, x_true)


def test_posegraph_without_vertices_has_no_initial(tmp_path):
    problem, _ = gen_posegraph(n=4, loop_edges=2, seed=3)
    path = tmp_path / "g.txt"
    files.write_problem(path, problem)
    assert files.parse_problem_file(path).initial is None


def test_comma_separated_fields_accepted(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("SIGMA 1\nPAIR 1,0,0,0,0,0,0 1 0 0 0 0 0 0\n")
    problem = files.parse_problem_file(path)
    assert problem.pair_count == 1


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("SIGMA 0\n", "sigma"),
        ("PAIR 1 0 0 0 0 0 0 1 0 0 0 0 0\n", "expected 14"),
        ("VERTEX 0 1 0 0 0 0 0\nEDGE 0 1 1 0 0 0 0 0 0\n", "8 fields"),
        ("POSE 1 0 0 0 0 0 0\n", "unknown record"),
        ("SIGMA 1\n", "no measurements"),
        ("PAIR 1 0 0 0 0 0 0 1 0 0 0 0 0 0\nEDGE 0 1 1 0 0 0 0 0 0\n", "mixed"),
        ("EDGE 0 one 1 0 0 0 0 0 0\n", "integer"),
    ],
)
def test_parse_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ParseError) as err:
        files.parse_problem_file(path)
    assert fragment.lower() in str(err.value).lower()


def test_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("SIGMA 1\nPAIR 1 0 0 0 0 0\n")
    with pytest.raises(ParseError) as err:
        files.parse_problem_file(path)
    assert err.value.line == 2


def test_truth_roundtrip(tmp_path):
    truth = random_auq(0, n=3)
    plain = tmp_path / "t.txt"
    files.write_truth(plain, truth[0])
    np.testing.assert_array_equal(files.parse_truth(plain)[0], truth[0])
    indexed = tmp_path / "ti.txt"
    files.write_truth(indexed, truth, indexed=True)
    np.testing.assert_array_equal(files.parse_truth(indexed), truth)


_POSE = "1 0 0 0 0.5 0 0"


@pytest.mark.parametrize(
    "parse,content,fragment",
    [
        (files.parse_truth, f"TRUTH -1 {_POSE}\n", "negative"),
        (files.parse_solution, f"STATUS converged\nVERTEX -2 {_POSE}\n", "negative"),
        (files.parse_truth, f"TRUTH 2 {_POSE}\n", "index 0 is missing"),
        (files.parse_solution, f"VERTEX 0 {_POSE}\nVERTEX 1 {_POSE}\nVERTEX 0 {_POSE}\n",
         "index 0 is repeated"),
        (files.parse_solution, f"STATUS\nSOLUTION {_POSE}\n", "1 field after STATUS"),
    ],
    ids=["truth-negative", "vertex-negative", "truth-missing", "vertex-repeated", "bare-status"],
)
def test_truth_and_solution_readers_reject_bad_records(tmp_path, parse, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ParseError) as err:
        parse(path)
    assert fragment in str(err.value)


def test_solution_roundtrip(tmp_path):
    problem, _ = gen_handeye(m=4, seed=4)
    result = opt.solve(problem, opt.SolverConfig(seed=0, restarts=2))
    path = tmp_path / "s.txt"
    files.write_solution(path, result, problem)
    back = files.parse_solution(path)
    assert back["status"] == result.status
    assert back["objective"] == result.objective
    np.testing.assert_array_equal(back["solution"], result.solution)

    graph, _ = gen_posegraph(n=4, loop_edges=2, seed=5)
    gres = opt.solve(graph, opt.SolverConfig(seed=0, restarts=1))
    gpath = tmp_path / "gs.txt"
    files.write_solution(gpath, gres, graph)
    gback = files.parse_solution(gpath)
    np.testing.assert_array_equal(gback["solution"], gres.solution)


def test_trace_export_shape(tmp_path):
    trace = integrate(random_auq(1), random_auq(2), Gains(np.ones(3), np.ones(3)), 1e-2, 9)
    path = tmp_path / "trace.txt"
    files.write_trace(path, trace)
    lines = path.read_text().splitlines()
    assert lines[1] == "time p0 p1 p2 p3 t1 t2 t3 V"
    assert len(lines) == 2 + 10  # header comment + column names + steps+1 rows
    row = lines[2].split()
    assert len(row) == 9
    assert float(row[0]) == 0.0
    np.testing.assert_allclose([float(v) for v in row[1:8]], trace.xe[0], atol=0)



def _per_value_trace_text(trace):
    # reference: the one-_fmt-call-per-value form write_trace used to take
    def fmt(value):
        return f"{value:.17g}"

    def row(values):
        return " ".join(fmt(v) for v in np.asarray(values, dtype=float))

    lines = [files._HEADER, "time p0 p1 p2 p3 t1 t2 t3 V"]
    for k in range(len(trace.time)):
        lines.append(f"{fmt(trace.time[k])} {row(trace.xe[k])} {fmt(trace.V[k])}")
    return "\n".join(lines) + "\n"


def test_trace_rows_match_per_value_format(tmp_path):
    trace = integrate(random_auq(3), random_auq(4), Gains(np.ones(3), np.ones(3)), 1e-3, 50)
    trace.xe[1] = [-0.0, 1e-300, 1.0 / 3.0, -2.0 / 3.0, np.pi, -np.e, 5e-324]
    trace.xe[2] = [0.1 + 0.2, 1.7976931348623157e308, -1e-300, 123456789012345678.0, 0, 1, -1]
    trace.time[3] = -0.0
    trace.V[4] = 2.0**-1074
    trace.V[5] = 9007199254740993.0
    path = tmp_path / "trace.txt"
    files.write_trace(path, trace)
    with open(path, "rb") as fh:
        assert fh.read() == _per_value_trace_text(trace).encode()


def test_seventeen_digit_roundtrip(tmp_path):
    value = 1.0 / 3.0
    x = np.array([value, np.sqrt(1 - value**2), 0.0, 0.0, np.pi, -np.e, 1e-17])
    problem = opt.HandEyeProblem(a=x[None], b=x[None])
    path = tmp_path / "p.txt"
    files.write_problem(path, problem)
    back = files.parse_problem_file(path)
    np.testing.assert_array_equal(back.a[0], problem.a[0])
