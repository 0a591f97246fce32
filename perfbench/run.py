"""Benchmark of the auquat CLI and simulator, run in-process.

    python3 perfbench/run.py --workload handeye --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client runs a closed loop: each op starts when the previous one has
returned.  Ops go through ``auquat.cli.main(argv)``, the code path of
``auquat ...`` without interpreter start-up; see workloads.py.  A run
first sets the workload up SETUPS times (inputs written through
``auquat gen``, the benchmark's edits, one untimed warm-up op), then
runs a fixed number of rounds of the workload's op list, set by
--seconds and the workload's nominal round length.  Each op's latency
is its median over the rounds.  Every op's output is checked by
checker.py after its round, outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the program's
layers (tracer.py) and prints the per-layer metrics instead.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: with a floating thread count both the pose-graph solve
# time and the solver's final gradient norm change from run to run.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 5
TAIL_BEYOND = 10  # ops beyond the reported tail percentile
TAIL_MIN_OPS = 40  # with fewer ops per round there is no tail: the slowest op is reported

# Layers that run only while setting up; their figures are per set-up.
SETUP_LAYERS = {
    "generation.gen_handeye",
    "generation.gen_handeye_world",
    "generation.gen_posegraph",
    "files.write_problem",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="handeye, posegraph, simulate or all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import numpy and the checkout's own auquat (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "auquat" / "__init__.py").is_file():
        raise SystemExit(f"error: no auquat sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import auquat
    import auquat.cli  # noqa: F401  (the entry point the ops call)

    if Path(auquat.__file__).resolve().parent != (src / "auquat").resolve():
        raise SystemExit(f"error: imported auquat from {auquat.__file__}, not from {src}")


def _tail(latencies):
    """(value, percentile or None) of the latency tail over one value per op.

    The highest percentile with TAIL_BEYOND ops beyond it; with fewer than
    TAIL_MIN_OPS ops there is no tail and the slowest op is reported
    (percentile None).
    """
    ordered = sorted(latencies)
    if len(ordered) < TAIL_MIN_OPS:
        return ordered[-1], None
    return ordered[-TAIL_BEYOND - 1], 100.0 * (1 - TAIL_BEYOND / len(ordered))


def _layer_metrics(tracer, names, rounds) -> dict:
    from tracer import SETUP, TIMED

    def per(layer, field):
        phase, count = (SETUP, SETUPS) if layer in SETUP_LAYERS else (TIMED, rounds)
        return tracer.layers[phase][layer][field] / count if layer in tracer.layers[phase] else 0.0

    values = {}
    for name in names:
        layer, field = name.rsplit(".", 1)
        if field == "calls":
            values[name] = per(layer, 0)
        elif field == "self_s":
            values[name] = per(layer, 1)
        elif name == "optimization.line_search_yield":
            calls = per("optimization.objective", 0)
            iterations = tracer.counters[TIMED]["optimization.solve.iterations"] / rounds
            values[name] = iterations / calls if calls else 0.0
        else:
            values[name] = tracer.counters[TIMED][name] / rounds
    return values


def run_workload(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_program()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    import_s = time.perf_counter() - T0
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    setup_times = []
    try:
        for _ in range(SETUPS):
            shutil.rmtree(work, ignore_errors=True)
            start = time.perf_counter()
            work.mkdir(parents=True)
            ops, warmup = workloads.build(args.workload, args.seed, work)
            problems = warmup.check(warmup.call())
            if problems:
                raise RuntimeError(f"warm-up op {warmup.label} failed: {problems}")
            setup_times.append(time.perf_counter() - start)
        if tracer:
            tracer.phase = tracing.TIMED

        rounds = max(1, round(args.seconds / workloads.ROUND_SECONDS[args.workload]))
        latencies = [[] for _ in ops]  # per op, one entry per round
        attempted = failed = completed = 0
        unexpected = []
        for _ in range(rounds):
            results = []
            for op, times in zip(ops, latencies):
                start = time.perf_counter()
                try:
                    result = op.call()
                except Exception as exc:  # an op that raises has failed; the run goes on
                    result = exc
                times.append(time.perf_counter() - start)
                results.append(result)
            for op, result in zip(ops, results):
                attempted += 1
                problems = [repr(result)] if isinstance(result, Exception) else op.check(result)
                if problems:
                    failed += 1
                    if not op.known_fault:
                        unexpected.append((op.label, problems))
                else:
                    completed += 1
                    if op.known_fault:
                        unexpected.append((op.label, ["a known-fault op passed"]))
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    for label, problems in unexpected:
        print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    typical = [statistics.median(times) for times in latencies]
    tail, percentile = _tail(typical)
    timed_s = sum(map(sum, latencies))
    print(f"workload {args.workload}  seed {args.seed}  BLAS threads {BLAS_THREADS}  "
          f"rounds {rounds}  ops/round {len(ops)}  timed {timed_s:.3f} s  trace {args.trace}")
    print(f"ops attempted {attempted}  failed {failed}  (known-fault ops: "
          f"{sum(op.known_fault for op in ops) * rounds})")
    if percentile is None:
        tail_rule = "slowest op, no tail"
    else:
        tail_rule = f"p{percentile:.1f}, {TAIL_BEYOND} beyond"
    print(f"latency_tail_s: {tail_rule}, {len(typical)} samples (each op's median over the rounds)")

    if tracer:
        names = [m["name"] for m in spec["per_layer"]]
        values = _layer_metrics(tracer, names, rounds)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        print(f"per round, except set-up layers per set-up; spans in {OUT.name}/")
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "ops_per_s": completed / rounds / sum(typical),
            "latency_p50_s": statistics.median(typical),
            "latency_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    for name in units:
        print(f"  {name:40s} {values[name]:.6g} {units[name]}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    per_op = {op.label: times for op, times in zip(ops, latencies)}
    OUT.mkdir(exist_ok=True)
    record = {**result, "rounds": rounds, "timed_s": timed_s, "op_latencies_s": per_op}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload, each in its own process, one after another."""
    import workloads

    summary = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(done.stdout, end="")
        if done.returncode != 0:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        summary[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        sys.path.insert(0, str(HERE))
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
