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
words are then converted by one `float` pass into one array, and the
result is built from those arrays.

A refused file is read again one record at a time, and an error names
the first bad record in file order: an unknown keyword, a wrong field
count, a bad index or number, a repeated pose index, and in a problem
file a sigma that is not positive and finite or is given twice, a self
loop, or a pose that is not finite and unit.  Only a file with no bad
record gets a whole-file error, which names the file alone: PAIR and
EDGE/VERTEX records mixed, no records, a missing pose index, or a
pose-graph vertex that no EDGE record measures.
"""

from __future__ import annotations

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
_POSES = {"TRUTH", "SOLUTION", "VERTEX"}  # keywords of numbered poses, each number once


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


def _lines(path) -> list[str]:
    """The file's lines: its text read whole, comments and commas dropped in
    one pass each, then split as the file iterator splits lines."""
    with open(path) as fh:
        text = fh.read()
    return re.sub("#[^\n]*", "", text).replace(",", " ").split("\n")


def _read(layouts, lines) -> dict:
    """Read the records of `layouts` from `lines` in one pass.

    Returns, per keyword, the line numbers of its records, their index
    fields as integers (a tuple per record) and their values, one (n, v)
    float array (for STATUS, its words).  A record needs a keyword of
    `layouts`, the field count of one of its forms, nonnegative integer
    indices and float values; else a ValueError is raised."""
    forms_of = {kw: {i + v: i for i, v in forms} for kw, forms in layouts.items()}
    found = {kw: ([], [], []) for kw in layouts}  # line numbers, indices, value words
    for line_no, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        keyword, n_fields = parts[0].upper(), len(parts) - 1
        forms = forms_of.get(keyword)
        if forms is None:
            raise ValueError(f"unknown record {parts[0]!r}")
        if n_fields not in forms:
            counts = " or ".join(map(str, forms))
            noun = "field" if counts == "1" else "fields"
            raise ValueError(f"expected {counts} {noun} after {keyword}, got {n_fields}")
        line_nos, indices, words = found[keyword]
        n_index = forms[n_fields]
        if n_index:
            fields = parts[1 : 1 + n_index]
            if not all(p.isdecimal() for p in fields):
                raise ValueError(f"expected nonnegative integer indices, got {' '.join(fields)!r}")
            indices.append(tuple(map(int, fields)))
        else:
            indices.append(())
        line_nos.append(line_no)
        words += parts[1 + n_index :]
    # one float pass per keyword: an (n, v) array; STATUS keeps its words
    return {kw: (line_nos, indices, words if kw == "STATUS" else
                 np.fromiter(map(float, words), float, len(words)).reshape(-1, layouts[kw][0][1]))
            for kw, (line_nos, indices, words) in found.items()}


def _parse(path, layouts, build, check=None):
    """`build` the records of the file at `path`, read in one pass.

    A refused file is read again one record at a time: each record is read,
    its values converted, its pose index (for TRUTH, SOLUTION and VERTEX
    records) checked to be new, and the record `check`ed, if given.  The
    first bad record in file order is named; with none, the build's error
    is raised, naming the file."""
    lines = _lines(path)
    try:
        return build(_read(layouts, lines))
    except ValueError as exc:
        error = exc
    seen: set[int] = set()
    for line_no, line in enumerate(lines, start=1):
        try:
            for keyword, (_, indices, values) in _read(layouts, [line]).items():
                for index, value in zip(indices, values):  # the line's record, if any
                    if keyword in _POSES:
                        i = index[0] if index else len(seen)
                        if i in seen:
                            raise ValueError(f"pose index {i} is repeated")
                        seen.add(i)
                    if check:
                        check(keyword, index, value, line_no)
        except ValueError as exc:
            raise ParseError(str(exc), path, line_no) from None
    raise ParseError(str(error), path) from error


def _poses(records, *keywords) -> dict[int, np.ndarray]:
    """The poses of the `keywords` records by index: a record's index field,
    else its place among them in file order.  Each index must be new."""
    rows = sorted(row for kw in keywords for row in zip(*records[kw]))  # in file order
    poses = {index[0] if index else k: pose for k, (_, index, pose) in enumerate(rows)}
    if len(poses) < len(rows):
        raise ValueError("a pose index is repeated")
    return poses


def _stack(poses) -> np.ndarray:
    """Stack poses by index; the indices must be 0, ..., n - 1."""
    missing = set(range(len(poses))) - poses.keys()
    if missing:
        raise ValueError(f"pose index {min(missing)} is missing")
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
    sigma_lines: list[int] = []

    def check(keyword, index, values, line_no) -> None:
        """One record of a refused file, in file order: sigma positive, finite
        and given once, an EDGE no self loop, a pose finite and unit."""
        if keyword == "SIGMA":
            if not 0.0 < values[0] < np.inf:
                raise ValueError("sigma must be positive and finite")
            if sigma_lines:
                raise ValueError(f"SIGMA is repeated (first on line {sigma_lines[0]})")
            sigma_lines.append(line_no)
        elif keyword == "EDGE" and index[0] == index[1]:
            raise ValueError("self loops are not allowed")
        else:
            aug.as_auq(values.reshape(-1, 7))

    return _parse(path, _PROBLEM, lambda records: _problem(records, world), check)


def _problem(records, world) -> Problem:
    sigmas, pairs = records["SIGMA"][2], records["PAIR"][2]
    if len(sigmas) > 1:  # the problem refuses a bad sigma itself
        raise ValueError("SIGMA is repeated")
    sigma = float(sigmas[0, 0]) if len(sigmas) else 1.0
    _, edges, measurements = records["EDGE"]
    vertices = _poses(records, "VERTEX")
    if len(pairs) and (edges or vertices):
        raise ValueError("PAIR and EDGE/VERTEX records cannot be mixed")
    if len(pairs):
        cls = HandEyeWorldProblem if world else HandEyeProblem
        return cls(a=pairs[:, :7], b=pairs[:, 7:], sigma=sigma)
    if not edges:
        raise ValueError("no measurements found")
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
    return PoseGraphProblem(edges=edges, measurements=measurements, sigma=sigma, initial=initial)


def write_truth(path, truth, indexed: bool = False) -> None:
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if indexed:
        truth = np.column_stack([np.arange(len(truth)), truth])
    _write(path, _rows("TRUTH", truth, int(indexed)))


def parse_truth(path) -> np.ndarray:
    def build(records):
        poses = _poses(records, "TRUTH")
        if not poses:
            raise ValueError("no TRUTH records found")
        return _stack(poses)

    return _parse(path, _TRUTH, build)


def write_solution(path, result: SolveResult, problem: Problem) -> None:
    lines = [f"STATUS {result.status}", *_rows("OBJECTIVE", [result.objective])]
    solution = result.solution
    if isinstance(problem, PoseGraphProblem):
        lines += _rows("VERTEX", np.column_stack([np.arange(len(solution)), solution]), 1)
    else:
        lines += _rows("SOLUTION", solution)
    _write(path, lines)


def parse_solution(path) -> dict:
    def build(records):
        status, objective = records["STATUS"][2], records["OBJECTIVE"][2]
        poses = _poses(records, "SOLUTION", "VERTEX")
        if not poses:
            raise ValueError("no solution records found")
        return {"status": status[-1] if status else None,
                "objective": float(objective[-1, 0]) if len(objective) else None,
                "solution": _stack(poses)}

    return _parse(path, _SOLUTION, build)


def write_trace(path, trace: ControlTrace) -> None:
    table = np.column_stack([trace.time, trace.xe, trace.V])
    _write(path, itertools.chain(["time p0 p1 p2 p3 t1 t2 t3 V"], _rows("", table)))


def write_probe_report(path, table) -> None:
    _write(path, ["delta rotvec_jump oplus_jump", *_rows("", table)])
