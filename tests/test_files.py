from types import SimpleNamespace

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
    assert len(problem.a) == 1


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
        ("PAIR 1 0 0 0 0 0 0 1 0 0 0 0 0 x\n", "could not convert"),
        ("EDGE 0 1 1 0 0 0 0 0\n", "9 fields after EDGE"),
        ("EDGE -1 1 1 0 0 0 0 0 0\n", "nonnegative"),
        ("EDGE 1 1 1 0 0 0 0 0 0\n", "self loop"),
        # a far index used to leave every vertex between free and unmeasured
        ("EDGE 0 1 1 0 0 0 0 0 0\nEDGE 1 3 1 0 0 0 0 0 0\n", "vertex 2 is in no EDGE record"),
        ("EDGE 0 1 1 0 0 0 0 0 0\nEDGE 1 40 1 0 0 0 0 0 0\n", "vertex 2 is in no EDGE record"),
        ("VERTEX 2 1 0 0 0 0 0 0\nEDGE 0 1 1 0 0 0 0 0 0\n", "vertex 2 is in no EDGE record"),
        # nothing is sized by a parsed index, however large
        ("EDGE 0 1 1 0 0 0 0 0 0\nEDGE 1 1000000000000 1 0 0 0 0 0 0\n",
         "vertex 2 is in no EDGE record"),
        ("VERTEX 0 1 0 0 0 0 0 0\nEDGE 0 1 1 0 0 0 0 0 0\nEDGE 1 1000000000000 1 0 0 0 0 0 0\n",
         "vertex 2 is in no EDGE record"),
        ("EDGE 0 1 1 0 0 0 0 0 0\nEDGE 1 100000000000000000000000000000 1 0 0 0 0 0 0\n",
         "vertex 2 is in no EDGE record"),
        ("VERTEX 1000000000000 1 0 0 0 0 0 0\nEDGE 0 1 1 0 0 0 0 0 0\n",
         "vertex 1000000000000 is in no EDGE record"),
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
    "parse,content,fragment,line",
    [
        (files.parse_truth, f"TRUTH -1 {_POSE}\n", "negative", 1),
        (files.parse_solution, f"STATUS converged\nVERTEX -2 {_POSE}\n", "negative", 2),
        (files.parse_truth, f"TRUTH 2 {_POSE}\n", "index 0 is missing", None),
        (files.parse_solution, f"VERTEX 0 {_POSE}\nVERTEX 1 {_POSE}\nVERTEX 0 {_POSE}\n",
         "index 0 is repeated", 3),
        (files.parse_solution, f"STATUS\nSOLUTION {_POSE}\n", "1 field after STATUS", 1),
        (files.parse_truth, f"SOLUTION {_POSE}\n", "unknown record", 1),
        (files.parse_truth, "# no records\n", "no TRUTH records", None),
        (files.parse_solution, f"STATUS converged\nTRUTH {_POSE}\n", "unknown record", 2),
        (files.parse_solution, "STATUS converged\nOBJECTIVE 0\n", "no solution records", None),
        (files.parse_solution, f"VERTEX {_POSE}\n", "8 fields after VERTEX", 1),
    ],
    ids=["truth-negative", "vertex-negative", "truth-missing", "vertex-repeated", "bare-status",
         "truth-unknown", "truth-empty", "solution-unknown", "solution-empty", "vertex-7-fields"],
)
def test_truth_and_solution_readers_reject_bad_records(tmp_path, parse, content, fragment, line):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ParseError) as err:
        parse(path)
    assert fragment in str(err.value)
    assert err.value.line == line


@pytest.mark.parametrize(
    "content,fragment,line",
    [
        ("EDGE -1 1 1 0 0 0 0 0 0\n", "nonnegative integer", 1),
        ("VERTEX -1 1 0 0 0 0 0 0\nEDGE 0 1 1 0 0 0 0 0 0\n", "nonnegative integer", 1),
        ("SIGMA 1\nSIGMA inf\nPAIR 1 0 0 0 0 0 0 1 0 0 0 0 0 0\n", "sigma must be", 2),
        ("SIGMA 1\nPAIR 1 0 0 0 0 0 0 1 0 0 0 0 0 0\nSIGMA 7\n",
         r"SIGMA is repeated \(first on line 1\)", 3),
        ("EDGE 0 1 1 0 0 0 0 0 0\nEDGE 1 1 1 0 0 0 0 0 0\n", "self loops", 2),
        ("PAIR 1 0 0 0 0 0 0 1 0 0 0 0 0 0\nPAIR 1 0 0 0 0 0 0 2 0 0 0 0 0 0\n",
         "norm deviates", 2),
        ("PAIR 1 0 0 0 0 0 0 1 0 0 0 0 0 0\nPAIR 1 0 0 0 0 0 inf 1 0 0 0 0 0 0\n",
         "translation components must be finite", 2),
        ("EDGE 0 1 1 0 0 0 0 0 0\nEDGE 1 2 nan 0 0 0 0 0 0\n",
         "quaternion components must be finite", 2),
        ("VERTEX 0 1 0 0 0 0 0 0\nVERTEX 1 0.5 0 0 0 0 0 0\nEDGE 0 1 1 0 0 0 0 0 0\n",
         "norm deviates", 2),
    ],
    ids=["edge-negative", "vertex-negative", "sigma-inf", "sigma-repeated", "edge-self-loop",
         "pair-non-unit", "pair-non-finite", "edge-non-finite", "vertex-non-unit"],
)
def test_problem_reader_names_the_bad_records_line(tmp_path, content, fragment, line):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ParseError, match=fragment) as err:
        files.parse_problem_file(path)
    assert err.value.line == line


def test_problem_reader_rejects_repeated_vertex(tmp_path):
    # a second VERTEX 0 record used to replace the first without a word
    path = tmp_path / "graph.txt"
    path.write_text(
        "VERTEX 0 1 0 0 0 5 0 0\nVERTEX 0 1 0 0 0 0 0 0\nEDGE 0 1 1 0 0 0 1 0 0\n"
    )
    with pytest.raises(ParseError, match="pose index 0 is repeated") as err:
        files.parse_problem_file(path)
    assert err.value.line == 2


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



# reference: the one-call-per-value format the writers used to take
def _fmt(value):
    return f"{value:.17g}"


def _row(values):
    return " ".join(_fmt(v) for v in np.asarray(values, dtype=float))


def _text(lines):
    return "\n".join([files._HEADER, *lines]) + "\n"


def _per_value_trace_text(trace):
    lines = ["time p0 p1 p2 p3 t1 t2 t3 V"]
    for k in range(len(trace.time)):
        lines.append(f"{_fmt(trace.time[k])} {_row(trace.xe[k])} {_fmt(trace.V[k])}")
    return _text(lines)


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


# values whose shortest exact text is awkward: signed zero, the smallest
# subnormal, a repeating fraction, the largest double
_AWKWARD = [-0.0, 5e-324, 1.0 / 3.0, 1.7976931348623157e308, -2.0 / 3.0, np.pi, 0.1 + 0.2]


def test_writers_match_per_value_format(tmp_path):
    p = [1.0 / 3.0, -np.sqrt(8.0) / 3.0, 0.0, -0.0]
    poses = np.array([p + _AWKWARD[:3], p[::-1] + _AWKWARD[3:6], [1.0, 0, 0, 0] + _AWKWARD[4:]])
    pairs = opt.HandEyeProblem(a=poses, b=poses[::-1], sigma=1.0 / 3.0)
    graph = opt.PoseGraphProblem(edges=[[0, 1], [2, 0], [1, 2]], measurements=poses,
                                 sigma=5e-324, initial=poses[[1, 2, 0]])
    result = SimpleNamespace(status="stalled", objective=1.7976931348623157e308, solution=poses)
    table = np.array([_AWKWARD[:3], _AWKWARD[3:6], _AWKWARD[4:]])
    cases = [
        (files.write_problem, (pairs,),
         [f"SIGMA {_fmt(pairs.sigma)}"]
         + [f"PAIR {_row(a)} {_row(b)}" for a, b in zip(pairs.a, pairs.b)]),
        (files.write_problem, (graph,),
         [f"SIGMA {_fmt(graph.sigma)}"]
         + [f"VERTEX {i} {_row(x)}" for i, x in enumerate(graph.initial)]
         + [f"EDGE {i} {j} {_row(y)}" for (i, j), y in zip(graph.edges, graph.measurements)]),
        (files.write_truth, (poses[0],), [f"TRUTH {_row(poses[0])}"]),
        (files.write_truth, (poses, True), [f"TRUTH {i} {_row(x)}" for i, x in enumerate(poses)]),
        (files.write_solution, (result, pairs),
         ["STATUS stalled", f"OBJECTIVE {_fmt(result.objective)}"]
         + [f"SOLUTION {_row(x)}" for x in poses]),
        (files.write_solution, (result, graph),
         ["STATUS stalled", f"OBJECTIVE {_fmt(result.objective)}"]
         + [f"VERTEX {i} {_row(x)}" for i, x in enumerate(poses)]),
        (files.write_probe_report, (table,),
         ["delta rotvec_jump oplus_jump"] + [_row(r) for r in table]),
    ]
    path = tmp_path / "out.txt"
    for write, args, lines in cases:
        write(path, *args)
        with open(path, "rb") as fh:
            assert fh.read() == _text(lines).encode(), write.__name__


def test_seventeen_digit_roundtrip(tmp_path):
    value = 1.0 / 3.0
    x = np.array([value, np.sqrt(1 - value**2), 0.0, 0.0, np.pi, -np.e, 1e-17])
    problem = opt.HandEyeProblem(a=x[None], b=x[None])
    path = tmp_path / "p.txt"
    files.write_problem(path, problem)
    back = files.parse_problem_file(path)
    np.testing.assert_array_equal(back.a[0], problem.a[0])
