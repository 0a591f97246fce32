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

A file is read in one pass: its text is read whole, comments and commas
are dropped from it at once, and it is split into lines as the file
iterator splits them.  Each line is checked as a record (keyword, field
count, indices) and its value fields kept as words; each record kind's
words are then converted by one `float` pass into one array.  Only when
a file is refused are its records looked at one by one, to name the
first bad line in file order.
"""

from __future__ import annotations

import bisect
import itertools
import re

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


def _read(path, layouts) -> tuple[dict, ParseError | None]:
    """Read the records of `layouts` from the file at `path` in one pass.

    Returns, per keyword, the line numbers of its records, their index
    fields as integers (a tuple per record) and their values, one (n, v)
    float array (for STATUS, its words), and the error of the first bad
    line, or None; with an error, only the records above its line.  A
    record needs a keyword of `layouts`, the field count of one of its
    forms, nonnegative integer indices and float values."""
    forms_of = {kw: {i + v: i for i, v in forms} for kw, forms in layouts.items()}
    found = {kw: ([], [], []) for kw in layouts}  # line numbers, indices, value words
    error = None
    with open(path) as fh:
        text = fh.read()
    # comments and commas go in one pass each; then lines split as the file iterator splits them
    lines = re.sub("#[^\n]*", "", text).replace(",", " ").split("\n")
    for line_no, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        keyword, n_fields = parts[0].upper(), len(parts) - 1
        forms = forms_of.get(keyword)
        if forms is None:
            error = ParseError(f"unknown record {parts[0]!r}", path, line_no)
            break
        if n_fields not in forms:
            counts = " or ".join(map(str, forms))
            noun = "field" if counts == "1" else "fields"
            error = ParseError(f"expected {counts} {noun} after {keyword}, got {n_fields}",
                               path, line_no)
            break
        line_nos, indices, words = found[keyword]
        n_index = forms[n_fields]
        if n_index:
            fields = parts[1 : 1 + n_index]
            if not all(p.isdecimal() for p in fields):
                error = ParseError(f"expected nonnegative integer indices, got "
                                   f"{' '.join(fields)!r}", path, line_no)
                break
            indices.append(tuple(map(int, fields)))
        else:
            indices.append(())
        line_nos.append(line_no)
        words += parts[1 + n_index :]

    def values(keyword, words):  # one float pass: an (n, v) array; STATUS keeps its words
        if keyword == "STATUS":
            return words
        flat = np.fromiter(map(float, words), float, len(words))
        return flat.reshape(-1, layouts[keyword][0][1])

    records = {}
    for keyword, (line_nos, indices, words) in found.items():
        try:
            records[keyword] = line_nos, indices, values(keyword, words)
        except ValueError:  # name the first record with a bad value, if above the error so far
            width = len(words) // len(line_nos)
            for line_no, k in zip(line_nos, range(0, len(words), width)):
                try:
                    values(keyword, words[k : k + width])
                except ValueError as exc:
                    if error is None or line_no < error.line:
                        error = ParseError(str(exc), path, line_no)
                    break
    if error is not None:
        for keyword, (line_nos, indices, words) in found.items():
            n = bisect.bisect_left(line_nos, error.line)
            width = len(words) // max(len(line_nos), 1)
            records[keyword] = line_nos[:n], indices[:n], values(keyword, words[: n * width])
    return records, error


def _by_index(rows, path) -> dict[int, np.ndarray]:
    """Collect (index, pose, line_number) rows by index, each index once."""
    poses: dict[int, np.ndarray] = {}
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
    records, error = _read(path, _PROBLEM)
    sigma_lines, _, sigmas = records["SIGMA"]
    for k, line_no in enumerate(sigma_lines):  # above the bad line, if any
        if not 0.0 < sigmas[k, 0] < np.inf:
            raise ParseError("sigma must be positive and finite", path, line_no)
        if k:
            raise ParseError(f"SIGMA is repeated (first on line {sigma_lines[0]})", path, line_no)
    if error is not None:
        raise error
    sigma = float(sigmas[0, 0]) if sigma_lines else 1.0
    pairs = records["PAIR"][2]
    _, edges, measurements = records["EDGE"]
    vertex_lines, vertex_indices, vertex_poses = records["VERTEX"]
    vertices = _by_index(((i, pose, line_no) for (i,), pose, line_no
                          in zip(vertex_indices, vertex_poses, vertex_lines)), path)

    if len(pairs) and (edges or vertices):
        raise ParseError("PAIR and EDGE/VERTEX records cannot be mixed", path)
    try:
        if len(pairs):
            cls = HandEyeWorldProblem if world else HandEyeProblem
            return cls(a=pairs[:, :7], b=pairs[:, 7:], sigma=sigma)
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
        return PoseGraphProblem(edges=edges, measurements=measurements, sigma=sigma,
                                initial=initial)
    except ParseError:
        raise
    except ValueError as exc:
        _raise_first_bad_record(path, records)
        raise ParseError(str(exc), path) from exc


def _raise_first_bad_record(path, records) -> None:
    """Name the line of the first problem record that is invalid on its own:
    a self loop, or a pose that is not finite and unit.  Runs only once the
    whole file has been refused, so valid files are checked once."""
    rows = sorted((line_no, keyword, indices, values) for keyword, found in records.items()
                  if keyword != "SIGMA" for line_no, indices, values in zip(*found))
    for line_no, keyword, indices, values in rows:
        try:
            if keyword == "EDGE" and indices[0] == indices[1]:
                raise ValueError("self loops are not allowed")
            aug.as_auq(np.reshape(values, (-1, 7)))
        except ValueError as exc:
            raise ParseError(str(exc), path, line_no) from None


def write_truth(path, truth, indexed: bool = False) -> None:
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if indexed:
        truth = np.column_stack([np.arange(len(truth)), truth])
    _write(path, _rows("TRUTH", truth, int(indexed)))


def parse_truth(path) -> np.ndarray:
    records, error = _read(path, _TRUTH)
    if error is not None:
        raise error
    rows = [(indices[0] if indices else k, pose, line_no)
            for k, (line_no, indices, pose) in enumerate(zip(*records["TRUTH"]))]
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
    records, error = _read(path, _SOLUTION)
    if error is not None:
        raise error
    status, objective = records["STATUS"][2], records["OBJECTIVE"][2]
    poses = sorted([*zip(*records["SOLUTION"]), *zip(*records["VERTEX"])])  # in file order
    rows = [(indices[0] if indices else k, pose, line_no)
            for k, (line_no, indices, pose) in enumerate(poses)]
    if not rows:
        raise ParseError("no solution records found", path)
    return {"status": status[-1] if status else None,
            "objective": float(objective[-1, 0]) if len(objective) else None,
            "solution": _indexed_poses(rows, path)}


def write_trace(path, trace: ControlTrace) -> None:
    table = np.column_stack([trace.time, trace.xe, trace.V])
    _write(path, itertools.chain(["time p0 p1 p2 p3 t1 t2 t3 V"], _rows("", table)))


def write_probe_report(path, table) -> None:
    _write(path, ["delta rotvec_jump oplus_jump", *_rows("", table)])
