"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of auquat (and ``numpy.linalg.lstsq``)
by rebinding module attributes, including every name another auquat
module imported, so calls the program makes at run time pass through
the wrapper.  Each call is a span: name, start, end, parent span and
phase (set-up or timed).  Spans stay in memory, in flat arrays, until
``save`` writes them.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

SETUP, TIMED = 0, 1

# (module, function) pairs the traced run wraps
TRACED = [
    ("numpy.linalg", "lstsq"),
    ("auquat.cli", "main"),
    ("auquat.optimization", "solve"),
    ("auquat.optimization", "objective"),
    ("auquat.optimization", "gradient"),
    ("auquat.optimization", "residuals"),
    ("auquat.augmented", "compose"),
    ("auquat.augmented", "auq_inverse"),
    ("auquat.quaternion", "qmul"),
    ("auquat.quaternion", "rot_apply_T"),
    ("auquat.quaternion", "qlog_vec"),
    ("auquat.control", "integrate"),
    ("auquat.control", "integrate_batch"),
    ("auquat.files", "parse_problem_file"),
    ("auquat.files", "write_problem"),
    ("auquat.files", "write_solution"),
    ("auquat.files", "write_trace"),
    ("auquat.generation", "gen_handeye"),
    ("auquat.generation", "gen_handeye_world"),
    ("auquat.generation", "gen_posegraph"),
]


def _layer_name(module: str, function: str) -> str:
    return f"{module.removeprefix('auquat.')}.{function}"


def _count_solve(counters, args, kwargs, result) -> None:
    counters["optimization.solve.iterations"] += sum(r.iterations for r in result.restarts)
    counters["optimization.solve.restarts"] += len(result.restarts)
    counters["optimization.solve.not_converged"] += result.status != "converged"


def _count_lstsq(counters, args, kwargs, result) -> None:
    # computed from the argument shapes: the bytes of the matrix and right-hand side
    counters["numpy.linalg.lstsq.bytes"] += sum(np.asarray(a).nbytes for a in args[:2])


def _count_integrate(counters, args, kwargs, result) -> None:
    counters["control.rk4_state_steps"] += result.steps


def _count_integrate_batch(counters, args, kwargs, result) -> None:
    counters["control.rk4_state_steps"] += result.V.shape[0] * (result.V.shape[1] - 1)


def _count_write_trace(counters, args, kwargs, result) -> None:
    counters["files.write_trace.bytes"] += os.path.getsize(args[0])


COUNTERS = {
    "optimization.solve": _count_solve,
    "numpy.linalg.lstsq": _count_lstsq,
    "control.integrate": _count_integrate,
    "control.integrate_batch": _count_integrate_batch,
    "files.write_trace": _count_write_trace,
}


class Tracer:
    def __init__(self):
        self.phase = SETUP
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_phase = array("b")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        # per phase: layer -> [calls, self seconds]; counter -> value
        self.layers = {SETUP: defaultdict(lambda: [0, 0.0]), TIMED: defaultdict(lambda: [0, 0.0])}
        self.counters = {SETUP: defaultdict(float), TIMED: defaultdict(float)}
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, function):
        name_id = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_phase.append(self.phase)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(float("nan"))
            stack.append([index, 0.0])
            start = clock()
            self.span_start.append(start)
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                self.span_end[index] = end
                _, children = stack.pop()
                if stack:
                    stack[-1][1] += end - start
                totals = self.layers[self.phase][name]
                totals[0] += 1
                totals[1] += end - start - children
            if count is not None:
                count(self.counters[self.phase], args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever an imported module holds it."""
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "auquat"]
        for module_name, function_name in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, function_name)
            traced = self._wrap(_layer_name(module_name, function_name), original)
            for holder in {id(m): m for m in [module, *modules]}.values():
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, attr, value))
                        setattr(holder, attr, traced)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._undo):
            setattr(holder, attr, value)
        self._undo.clear()

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            phase=np.frombuffer(self.span_phase, dtype=np.int8),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
