"""Line-oriented text formats for problems, truths, solutions, and traces.

Poses serialize as 7 decimals in [p0 p1 p2 p3 t1 t2 t3] order with 17
significant digits, which round-trips doubles exactly.  Lines starting
with '#' are comments; fields may be separated by whitespace or commas.

  problem    SIGMA <v> (at most once); then PAIR <a: 7> <b: 7> per
             measurement pair, or EDGE <i> <j> <y: 7> per arc with
             optional VERTEX <id> <7> initial guesses
  truth      TRUTH <7> per unknown, or TRUTH <id> <7> per vertex
  solution   STATUS <s>, OBJECTIVE <v>, then SOLUTION <7> or VERTEX lines
  trace      header row, then: time, 7 error-state components, V
"""

from __future__ import annotations

import itertools

import numpy as np

from . import __version__
from . import augmented as aug
from .control import ControlTrace
from .errors import ParseError
from .optimization import (
    HandEyeProblem,
    HandEyeWorldProblem,
    PoseGraphProblem,
    Problem,
    SolveResult,
)

_HEADER = f"# auquat {__version__}"

# Record layouts: keyword -> its forms, each (index fields, value fields),
# told apart by their field count.  Values are floats, except STATUS's word.
_PROBLEM = {"SIGMA": ((0, 1),), "PAIR": ((0, 14),), "EDGE": ((2, 7),), "VERTEX": ((1, 7),)}
_TRUTH = {"TRUTH": ((0, 7), (1, 7))}
_SOLUTION = {"STATUS": ((0, 1),), "OBJECTIVE": ((0, 1),), "SOLUTION": ((0, 7),),
             "VERTEX": ((1, 7),)}


def _rows(keyword, table, indexed: int = 0):
    """Yield one line per table row: the keyword, the first `indexed`
    columns as integers, the rest at %.17g.  One format string serves
    every row, so long tables format at one call per row."""
    table = np.atleast_2d(np.asarray(table, dtype=float))
    fields = [keyword] if keyword else []
    row = " ".join(fields + ["%d"] * indexed + ["%.17g"] * (table.shape[1] - indexed))
    return (row % tuple(r) for r in table.tolist())


def _write(path, lines) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(_HEADER + "\n")
        fh.writelines(f"{line}\n" for line in lines)


def _records(path, layouts):
    """Yield (line_number, keyword, indices, values) per content line.  A
    record needs a keyword of `layouts`, the field count of one of its forms,
    nonnegative integer indices and float values (a list), else its line is named."""
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


def _by_index(rows, path) -> dict[int, list[float]]:
    """Collect (index, pose, line_number) rows by index, each index once."""
    poses: dict[int, list[float]] = {}
    for i, pose, line_no in rows:
        if i in poses:
            raise ParseError(f"pose index {i} is repeated", path, line_no)
        poses[i] = pose
    return poses


def _indexed_poses(rows, path) -> np.ndarray:
    """Stack (index, pose, line_number) rows; the indices must be 0, ..., n - 1."""
    poses = _by_index(rows, path)
    missing = set(range(len(poses))) - poses.keys()
    if missing:
        raise ParseError(f"pose index {min(missing)} is missing", path)
    return np.array([poses[i] for i in range(len(poses))])


def write_problem(path, problem: Problem) -> None:
    lines = list(_rows("SIGMA", [problem.sigma]))
    if isinstance(problem, PoseGraphProblem):
        if problem.initial is not None:
            lines += _rows("VERTEX", np.column_stack([np.arange(problem.n), problem.initial]), 1)
        lines += _rows("EDGE", np.column_stack([problem.edges, problem.measurements]), 2)
    else:
        lines += _rows("PAIR", np.hstack([problem.a, problem.b]))
    _write(path, lines)


def parse_problem_file(path, world: bool = False) -> Problem:
    """Parse a problem file; PAIR files yield the hand-eye problem, or the
    two-unknown variant when world=True."""
    sigma, sigma_line = 1.0, None
    pairs: list[list[float]] = []
    edges: list[list[int]] = []
    measurements: list[list[float]] = []
    vertex_rows: list[tuple[int, list[float], int]] = []
    for line_no, keyword, indices, values in _records(path, _PROBLEM):
        if keyword == "SIGMA":
            if not 0.0 < values[0] < np.inf:
                raise ParseError("sigma must be positive and finite", path, line_no)
            if sigma_line is not None:
                raise ParseError(f"SIGMA is repeated (first on line {sigma_line})", path, line_no)
            sigma, sigma_line = float(values[0]), line_no
        elif keyword == "PAIR":
            pairs.append(values)
        elif keyword == "EDGE":
            edges.append(indices)
            measurements.append(values)
        else:  # VERTEX
            vertex_rows.append((indices[0], values, line_no))
    vertices = _by_index(vertex_rows, path)

    if pairs and (edges or vertices):
        raise ParseError("PAIR and EDGE/VERTEX records cannot be mixed", path)
    try:
        if pairs:
            stacked = np.array(pairs)
            cls = HandEyeWorldProblem if world else HandEyeProblem
            return cls(a=stacked[:, :7], b=stacked[:, 7:], sigma=sigma)
        if not edges:
            raise ParseError("no measurements found", path)
        edges, initial = np.array(edges), None
        if vertices:
            n = edges.max() + 1
            if max(vertices) >= n:
                raise ValueError(f"vertex {max(vertices)} is in no EDGE record")
            if n <= edges.size:  # else some vertex is in no edge, which the problem refuses
                initial = np.tile(aug.identity(), (n, 1))
                initial[list(vertices)] = list(vertices.values())
        if edges.dtype == object:
            # an index past int64; capped at 2m, the first vertex in no edge stays the same
            edges = np.minimum(edges, edges.size).astype(int)
        return PoseGraphProblem(edges=edges, measurements=np.array(measurements), sigma=sigma,
                                initial=initial)
    except ParseError:
        raise
    except ValueError as exc:
        _raise_first_bad_record(path)
        raise ParseError(str(exc), path) from exc


def _raise_first_bad_record(path) -> None:
    """Name the line of the first problem record that is invalid on its own:
    a self loop, or a pose that is not finite and unit.  Runs only once the
    whole file has been refused, so valid files are read once."""
    for line_no, keyword, indices, values in _records(path, _PROBLEM):
        try:
            if keyword == "EDGE" and indices[0] == indices[1]:
                raise ValueError("self loops are not allowed")
            if keyword != "SIGMA":
                aug.as_auq(np.reshape(values, (-1, 7)))
        except ValueError as exc:
            raise ParseError(str(exc), path, line_no) from None


def write_truth(path, truth, indexed: bool = False) -> None:
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if indexed:
        truth = np.column_stack([np.arange(len(truth)), truth])
    _write(path, _rows("TRUTH", truth, int(indexed)))


def parse_truth(path) -> np.ndarray:
    rows = [
        (indices[0] if indices else k, pose, line_no)
        for k, (line_no, _, indices, pose) in enumerate(_records(path, _TRUTH))
    ]
    if not rows:
        raise ParseError("no TRUTH records found", path)
    return _indexed_poses(rows, path)


def write_solution(path, result: SolveResult, problem: Problem) -> None:
    lines = [f"STATUS {result.status}", *_rows("OBJECTIVE", [result.objective])]
    solution = result.solution
    if isinstance(problem, PoseGraphProblem):
        lines += _rows("VERTEX", np.column_stack([np.arange(len(solution)), solution]), 1)
    else:
        lines += _rows("SOLUTION", solution)
    _write(path, lines)


def parse_solution(path) -> dict:
    status = objective = None
    rows: list[tuple[int, list[float], int]] = []
    for line_no, keyword, indices, values in _records(path, _SOLUTION):
        if keyword == "STATUS":
            status = values[0]
        elif keyword == "OBJECTIVE":
            objective = float(values[0])
        else:  # SOLUTION or VERTEX
            rows.append((indices[0] if indices else len(rows), values, line_no))
    if not rows:
        raise ParseError("no solution records found", path)
    return {"status": status, "objective": objective, "solution": _indexed_poses(rows, path)}


def write_trace(path, trace: ControlTrace) -> None:
    table = np.column_stack([trace.time, trace.xe, trace.V])
    _write(path, itertools.chain(["time p0 p1 p2 p3 t1 t2 t3 V"], _rows("", table)))


def write_probe_report(path, table) -> None:
    _write(path, ["delta rotvec_jump oplus_jump", *_rows("", table)])
