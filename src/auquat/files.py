"""Line-oriented text formats for problems, truths, solutions, and traces.

Poses serialize as 7 decimals in [p0 p1 p2 p3 t1 t2 t3] order with 17
significant digits, which round-trips doubles exactly.  Lines starting
with '#' are comments; fields may be separated by whitespace or commas.

  problem    SIGMA <v>; then PAIR <a: 7> <b: 7> per measurement pair, or
             EDGE <i> <j> <y: 7> per arc with optional VERTEX <id> <7>
             initial guesses
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


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _row(values) -> str:
    return " ".join(_fmt(v) for v in np.asarray(values, dtype=float))


def _write(path, lines) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(_HEADER + "\n")
        fh.writelines(f"{line}\n" for line in lines)


def _tokens(path):
    """Yield (line_number, [token, ...]) for content lines."""
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].replace(",", " ").strip()
            if stripped:
                yield line_no, stripped.split()


def _floats(parts, count, path, line_no):
    if len(parts) != count:
        raise ParseError(f"expected {count} numeric fields, got {len(parts)}", path, line_no)
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ParseError(str(exc), path, line_no) from exc


def _int(part, path, line_no) -> int:
    try:
        return int(part)
    except ValueError as exc:
        raise ParseError(f"expected an integer index, got {part!r}", path, line_no) from exc


def _indexed_poses(rows, path) -> np.ndarray:
    """Stack (index, pose, line_number) rows by index; the indices must be
    0, ..., n - 1, each once."""
    poses: dict[int, np.ndarray] = {}
    for i, pose, line_no in rows:
        if i < 0:
            raise ParseError(f"pose index {i} is negative", path, line_no)
        if i in poses:
            raise ParseError(f"pose index {i} is repeated", path, line_no)
        poses[i] = pose
    missing = set(range(len(poses))) - poses.keys()
    if missing:
        raise ParseError(f"pose index {min(missing)} is missing", path)
    return np.array([poses[i] for i in range(len(poses))])


def write_problem(path, problem: Problem) -> None:
    lines = [f"SIGMA {_fmt(problem.sigma)}"]
    if isinstance(problem, PoseGraphProblem):
        if problem.initial is not None:
            lines += [f"VERTEX {i} {_row(problem.initial[i])}" for i in range(problem.n)]
        lines += [
            f"EDGE {i} {j} {_row(y)}"
            for (i, j), y in zip(problem.edges, problem.measurements)
        ]
    else:
        lines += [f"PAIR {_row(a)} {_row(b)}" for a, b in zip(problem.a, problem.b)]
    _write(path, lines)


def parse_problem_file(path, world: bool = False) -> Problem:
    """Parse a problem file; PAIR files yield the hand-eye problem, or the
    two-unknown variant when world=True."""
    sigma = 1.0
    pairs: list[np.ndarray] = []
    edges: list[tuple[int, int]] = []
    measurements: list[np.ndarray] = []
    vertices: dict[int, np.ndarray] = {}
    for line_no, parts in _tokens(path):
        keyword, rest = parts[0].upper(), parts[1:]
        if keyword == "SIGMA":
            sigma = float(_floats(rest, 1, path, line_no)[0])
            if not sigma > 0.0:
                raise ParseError("sigma must be positive", path, line_no)
        elif keyword == "PAIR":
            pairs.append(_floats(rest, 14, path, line_no))
        elif keyword == "EDGE":
            if len(rest) != 9:
                raise ParseError(f"expected 9 fields after EDGE, got {len(rest)}", path, line_no)
            edges.append((_int(rest[0], path, line_no), _int(rest[1], path, line_no)))
            measurements.append(_floats(rest[2:], 7, path, line_no))
        elif keyword == "VERTEX":
            if len(rest) != 8:
                raise ParseError(f"expected 8 fields after VERTEX, got {len(rest)}", path, line_no)
            i = _int(rest[0], path, line_no)
            if i in vertices:
                raise ParseError(f"pose index {i} is repeated", path, line_no)
            vertices[i] = _floats(rest[1:], 7, path, line_no)
        else:
            raise ParseError(f"unknown record {parts[0]!r}", path, line_no)

    if pairs and (edges or vertices):
        raise ParseError("PAIR and EDGE/VERTEX records cannot be mixed", path)
    try:
        if pairs:
            stacked = np.array(pairs)
            cls = HandEyeWorldProblem if world else HandEyeProblem
            return cls(a=stacked[:, :7], b=stacked[:, 7:], sigma=sigma)
        if not edges:
            raise ParseError("no measurements found", path)
        ids = [i for e in edges for i in e] + list(vertices)
        if min(ids) < 0:
            raise ParseError("vertex indices must be nonnegative", path)
        n = max(ids) + 1
        initial = None
        if vertices:
            initial = np.tile(aug.identity(), (n, 1))
            for i, pose in vertices.items():
                initial[i] = pose
        return PoseGraphProblem(
            n=n,
            edges=np.array(edges),
            measurements=np.array(measurements),
            sigma=sigma,
            initial=initial,
        )
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def write_truth(path, truth, indexed: bool = False) -> None:
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if indexed:
        _write(path, [f"TRUTH {i} {_row(row)}" for i, row in enumerate(truth)])
    else:
        _write(path, [f"TRUTH {_row(row)}" for row in truth])


def parse_truth(path) -> np.ndarray:
    rows: list[tuple[int, np.ndarray, int]] = []
    for line_no, parts in _tokens(path):
        if parts[0].upper() != "TRUTH":
            raise ParseError(f"unknown record {parts[0]!r}", path, line_no)
        rest = parts[1:]
        if len(rest) == 8:
            i, pose = _int(rest[0], path, line_no), _floats(rest[1:], 7, path, line_no)
        else:
            i, pose = len(rows), _floats(rest, 7, path, line_no)
        rows.append((i, pose, line_no))
    if not rows:
        raise ParseError("no TRUTH records found", path)
    return _indexed_poses(rows, path)


def write_solution(path, result: SolveResult, problem: Problem) -> None:
    lines = [f"STATUS {result.status}", f"OBJECTIVE {_fmt(result.objective)}"]
    if isinstance(problem, PoseGraphProblem):
        lines += [f"VERTEX {i} {_row(row)}" for i, row in enumerate(result.solution)]
    else:
        lines += [f"SOLUTION {_row(row)}" for row in result.solution]
    _write(path, lines)


def parse_solution(path) -> dict:
    status = None
    objective = None
    rows: list[tuple[int, np.ndarray, int]] = []
    for line_no, parts in _tokens(path):
        keyword, rest = parts[0].upper(), parts[1:]
        if keyword == "STATUS":
            if len(rest) != 1:
                raise ParseError(f"expected 1 field after STATUS, got {len(rest)}", path, line_no)
            status = rest[0]
        elif keyword == "OBJECTIVE":
            objective = float(_floats(rest, 1, path, line_no)[0])
        elif keyword == "SOLUTION":
            rows.append((len(rows), _floats(rest, 7, path, line_no), line_no))
        elif keyword == "VERTEX":
            if len(rest) != 8:
                raise ParseError(f"expected 8 fields after VERTEX, got {len(rest)}", path, line_no)
            rows.append((_int(rest[0], path, line_no), _floats(rest[1:], 7, path, line_no), line_no))
        else:
            raise ParseError(f"unknown record {parts[0]!r}", path, line_no)
    if not rows:
        raise ParseError("no solution records found", path)
    return {"status": status, "objective": objective, "solution": _indexed_poses(rows, path)}


def write_trace(path, trace: ControlTrace) -> None:
    # "%.17g" formats a float exactly as _fmt does, a whole row per call.
    row = " ".join(["%.17g"] * 9)
    table = np.column_stack([trace.time, trace.xe, trace.V])
    rows = (row % tuple(r) for r in table.tolist())
    _write(path, itertools.chain(["time p0 p1 p2 p3 t1 t2 t3 V"], rows))


def write_probe_report(path, table) -> None:
    table = np.atleast_2d(np.asarray(table, dtype=float))
    lines = ["delta rotvec_jump oplus_jump"]
    lines += [_row(row) for row in table]
    _write(path, lines)
