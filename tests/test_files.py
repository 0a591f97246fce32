import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from auquat import augmented as aug
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
    problem = dataclasses.replace(problem, initial=x_true)
    path = tmp_path / "g.txt"
    files.write_problem(path, problem)
    back = files.parse_problem_file(path)
    assert isinstance(back, opt.PoseGraphProblem)
    assert back.n == problem.n
    assert back.sigma == problem.sigma
    np.testing.assert_array_equal(back.edges, problem.edges)
    np.testing.assert_array_equal(back.measurements, problem.measurements)
    np.testing.assert_array_equal(back.initial, problem.initial)


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
        # the first bad record in file order is named, not a worse-looking line below it
        (files.parse_truth, f"TRUTH 0 {_POSE}\nTRUTH 0 {_POSE}\nTRUTH 1 {_POSE}\nFOO\n",
         "index 0 is repeated", 2),
        (files.parse_solution, f"SOLUTION {_POSE}\nVERTEX 0 {_POSE}\nSTATUS\n",
         "index 0 is repeated", 2),
    ],
    ids=["truth-negative", "vertex-negative", "truth-missing", "vertex-repeated", "bare-status",
         "truth-unknown", "truth-empty", "solution-unknown", "solution-empty", "vertex-7-fields",
         "truth-repeated-first", "solution-repeated-first"],
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
        # the first bad record in file order is named, not a worse-looking line below it
        ("PAIR 1 0 0 0 0 0 0 1 0 0 0 0 0 0\nPAIR 2 0 0 0 0 0 0 1 0 0 0 0 0 0\n"
         "PAIR 1 0 0 0 0 0 0 1 0 0 0 0 0 0\nFOO 1 2\n", "norm deviates", 2),
        ("EDGE 0 1 1 0 0 0 0 0 0\nEDGE 0 0 1 0 0 0 0 0 0\nEDGE 1 2 1 0 0 0 0 0 0\n"
         "EDGE 2 0 1 0 0 0 0 0 x\n", "self loops", 2),
        ("VERTEX 0 1 0 0 0 0 0 0\nVERTEX 0 1 0 0 0 0 0 0\nEDGE 0 1 1 0 0 0 0 0 0\n"
         "EDGE 1 2 1 0 0 0 0 0\n", "pose index 0 is repeated", 2),
    ],
    ids=["edge-negative", "vertex-negative", "sigma-inf", "sigma-repeated", "edge-self-loop",
         "pair-non-unit", "pair-non-finite", "edge-non-finite", "vertex-non-unit",
         "pair-non-unit-first", "edge-self-loop-first", "vertex-repeated-first"],
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


# reference: a per-line reader, and parse functions over it that check each
# record as it is read, so a refused file names its first bad record in file
# order; a file with no bad record gets the whole-file error
def _per_line_records(path, layouts):
    forms_of = {kw: {i + v: i for i, v in forms} for kw, forms in layouts.items()}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.split("#", 1)[0].replace(",", " ").split()
            if not parts:
                continue
            keyword, fields = parts[0].upper(), parts[1:]
            forms = forms_of.get(keyword)
            if forms is None:
                raise ParseError(f"unknown record {parts[0]!r}", path, line_no)
            if len(fields) not in forms:
                counts = " or ".join(map(str, forms))
                noun = "field" if counts == "1" else "fields"
                raise ParseError(f"expected {counts} {noun} after {keyword}, got {len(fields)}",
                                 path, line_no)
            n_index = forms[len(fields)]
            indices = [int(p) if p.isdecimal() else -1 for p in fields[:n_index]]
            if min(indices, default=0) < 0:
                raise ParseError(f"expected nonnegative integer indices, got "
                                 f"{' '.join(fields[:n_index])!r}", path, line_no)
            values = fields[n_index:]
            if keyword != "STATUS":
                try:
                    values = list(map(float, values))
                except ValueError as exc:
                    raise ParseError(str(exc), path, line_no) from exc
            yield line_no, keyword, indices, values


def _add_pose(poses, i, pose, path, line_no):
    if i in poses:
        raise ParseError(f"pose index {i} is repeated", path, line_no)
    poses[i] = pose


def _stacked(poses, path):
    missing = set(range(len(poses))) - poses.keys()
    if missing:
        raise ParseError(f"pose index {min(missing)} is missing", path)
    return np.array([poses[i] for i in range(len(poses))])


def _per_line_problem(path, world=False):
    sigma, sigma_line = 1.0, None
    pairs, edges, measurements, vertices = [], [], [], {}
    for line_no, keyword, indices, values in _per_line_records(path, files._PROBLEM):
        if keyword == "SIGMA":
            if not 0.0 < values[0] < np.inf:
                raise ParseError("sigma must be positive and finite", path, line_no)
            if sigma_line is not None:
                raise ParseError(f"SIGMA is repeated (first on line {sigma_line})", path, line_no)
            sigma, sigma_line = float(values[0]), line_no
            continue
        if keyword == "EDGE" and indices[0] == indices[1]:
            raise ParseError("self loops are not allowed", path, line_no)
        if keyword == "VERTEX":
            _add_pose(vertices, indices[0], values, path, line_no)
        try:
            aug.as_auq(np.reshape(values, (-1, 7)))
        except ValueError as exc:
            raise ParseError(str(exc), path, line_no) from None
        if keyword == "PAIR":
            pairs.append(values)
        elif keyword == "EDGE":
            edges.append(indices)
            measurements.append(values)
    if pairs and (edges or vertices):
        raise ParseError("PAIR and EDGE/VERTEX records cannot be mixed", path)
    try:
        if pairs:
            stacked = np.array(pairs)
            cls = opt.HandEyeWorldProblem if world else opt.HandEyeProblem
            return cls(a=stacked[:, :7], b=stacked[:, 7:], sigma=sigma)
        if not edges:
            raise ValueError("no measurements found")
        edges, initial = np.array(edges), None
        if vertices:
            n = edges.max() + 1
            if max(vertices) >= n:
                raise ValueError(f"vertex {max(vertices)} is in no EDGE record")
            if n <= edges.size:
                initial = np.tile(aug.identity(), (n, 1))
                initial[list(vertices)] = list(vertices.values())
        if edges.dtype == object:
            edges = np.minimum(edges, edges.size).astype(int)
        return opt.PoseGraphProblem(edges=edges, measurements=np.array(measurements),
                                    sigma=sigma, initial=initial)
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def _per_line_truth(path):
    poses = {}
    for k, (line_no, _, indices, pose) in enumerate(_per_line_records(path, files._TRUTH)):
        _add_pose(poses, indices[0] if indices else k, pose, path, line_no)
    if not poses:
        raise ParseError("no TRUTH records found", path)
    return _stacked(poses, path)


def _per_line_solution(path):
    status = objective = None
    poses = {}
    for line_no, keyword, indices, values in _per_line_records(path, files._SOLUTION):
        if keyword == "STATUS":
            status = values[0]
        elif keyword == "OBJECTIVE":
            objective = float(values[0])
        else:
            _add_pose(poses, indices[0] if indices else len(poses), values, path, line_no)
    if not poses:
        raise ParseError("no solution records found", path)
    return {"status": status, "objective": objective, "solution": _stacked(poses, path)}


def _outcome(parse, path):
    """What a reader makes of a file: its error's type, text and line, or its
    result's class and every array's dtype and bytes."""
    try:
        result = parse(path)
    except ParseError as exc:
        return "error", str(exc), exc.line
    fields = result if isinstance(result, dict) else {"result": result}
    if isinstance(result, (opt.HandEyeProblem, opt.PoseGraphProblem)):
        fields = {"class": type(result).__name__, "sigma": result.sigma, **{
            name: getattr(result, name, None)
            for name in ("a", "b", "edges", "measurements", "initial")}}
    return {name: (value.dtype.str, value.shape, value.tobytes())
            if isinstance(value, np.ndarray) else value for name, value in fields.items()}


_READERS = {
    "problem": (files.parse_problem_file, _per_line_problem),
    "world": (lambda path: files.parse_problem_file(path, world=True),
              lambda path: _per_line_problem(path, world=True)),
    "truth": (files.parse_truth, _per_line_truth),
    "solution": (files.parse_solution, _per_line_solution),
}


def _pose_words(pose):
    return [repr(float(v)) for v in pose]


def _records_of(kind, seed, n):
    """(keyword, fields) records of a valid file of `kind`, poses from `seed`."""
    poses = random_auq(seed, n=2 * n + 2)
    if kind in ("problem", "world") and seed % 2:
        return [("PAIR", _pose_words(poses[k]) + _pose_words(poses[n + k])) for k in range(n)]
    if kind in ("problem", "world"):
        graph, _ = gen_posegraph(n=n + 2, loop_edges=n, seed=seed)
        records = [("EDGE", [str(i), str(j)] + _pose_words(y))
                   for (i, j), y in zip(graph.edges, graph.measurements)]
        if seed % 3:
            records += [("VERTEX", [str(i)] + _pose_words(poses[i])) for i in range(graph.n)]
        return records
    if kind == "truth":
        if seed % 2:
            return [("TRUTH", _pose_words(poses[k])) for k in range(n)]
        return [("TRUTH", [str(k)] + _pose_words(poses[k])) for k in range(n)]
    poses_kw = "SOLUTION" if seed % 2 else "VERTEX"
    records = [("STATUS", ["stalled"]), ("OBJECTIVE", [repr(seed / 7.0)])]
    return records + [(poses_kw, ([] if seed % 2 else [str(k)]) + _pose_words(poses[k]))
                      for k in range(n)]


_CORRUPTIONS = ["keyword", "drop-field", "add-field", "bad-index", "negative-index",
                "huge-index", "bad-float", "sigma", "sigma-zero", "non-unit", "self-loop",
                "repeat"]


def _corrupt(records, how, at):
    """records with record `at` corrupted `how` (a SIGMA line, repeated or
    zero, is inserted there; a repeated record after it)."""
    records = list(records)
    keyword, fields = records[at]
    if how == "keyword":
        records[at] = ("POSE", fields)
    elif how == "drop-field":
        records[at] = (keyword, fields[:-1])
    elif how == "add-field":
        records[at] = (keyword, fields + ["0"])
    elif how in ("bad-index", "negative-index", "huge-index"):
        word = {"bad-index": "1.0", "negative-index": "-1",
                "huge-index": "100000000000000000000000000000"}[how]
        records[at] = (keyword, [word] + fields[1:] if fields[:1] and fields[0].isdecimal()
                       else fields)
    elif how == "bad-float":
        records[at] = (keyword, fields[:-1] + ["1.0.0"])
    elif how == "non-unit":  # the last pose's quaternion scaled past unit norm
        records[at] = (keyword, fields[:-7] + ["3"] + fields[-6:] if len(fields) >= 7
                       else fields)
    elif how == "self-loop":
        records[at] = (keyword, fields[:1] * 2 + fields[2:] if keyword == "EDGE" else fields)
    elif how == "repeat":  # a copy of the record after it, a repeated index if it has one
        records.insert(at + 1, records[at])
    else:
        records.insert(at, ("SIGMA", ["2" if how == "sigma" else "0"]))
    return records


def _file_text(records, draw_style):
    """The records as text: each keyword in a drawn case, fields split by
    spaces or commas, with comments, blank lines and CRLF endings drawn."""
    lines = [files._HEADER]
    for keyword, fields in records:
        case, sep, comment, blank = draw_style()
        word = {"upper": keyword, "lower": keyword.lower(), "title": keyword.title()}[case]
        line = " ".join([word, sep.join(fields)]) if fields else word
        if comment:
            line += " # a comment, with commas"
        lines += [""] * blank + [line]
    return lines


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(_READERS)), st.integers(0, 2**16), st.integers(1, 6), st.data())
def test_one_pass_reader_matches_the_per_line_reader(tmp_path, kind, seed, n, data):
    """Valid files give byte-equal arrays and the same problem class; files
    with one or more corrupted lines give the same ParseError text and line."""
    records = _records_of(kind, seed, n)
    if kind in ("problem", "world") and data.draw(st.booleans()):
        records.insert(data.draw(st.integers(0, len(records))), ("SIGMA", ["0.75"]))
    for _ in range(data.draw(st.integers(0, 3))):
        how = data.draw(st.sampled_from(_CORRUPTIONS))
        records = _corrupt(records, how, data.draw(st.integers(0, len(records) - 1)))

    def draw_style():
        return (data.draw(st.sampled_from(["upper", "lower", "title"])),
                data.draw(st.sampled_from([" ", ",", ", ", " ,  "])),
                data.draw(st.booleans()), data.draw(st.integers(0, 1)))

    newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    path = tmp_path / "records.txt"
    with open(path, "w", newline="") as fh:
        fh.write(newline.join(_file_text(records, draw_style)) + newline)
    parse, reference = _READERS[kind]
    assert _outcome(parse, path) == _outcome(reference, path)
