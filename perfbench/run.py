"""Benchmark of modfunctor: one workload, one seed, one JSON line of metrics.

Run from the repository root; nothing needs to be installed, the script
puts ``src/`` on its own import path:

    python3 perfbench/run.py --workload large-fusion --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics (set-up time, median
pass time, median slowest operation, peak RSS).  With ``--trace 1`` it
alternates untraced passes with passes in which modfunctor's public
functions are wrapped, and reports the per-layer metrics named in
BENCHMARK.json plus the tracing overhead.  Every output of every pass is
checked against the oracles in ``oracles.py``.  The last line of standard
output is the JSON result; a summary goes to standard error.  See
``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("large-fusion", "grading", "small-families")
BLAS_THREADS = "1"  # one thread per process keeps figures steady on a shared 2-CPU host
SETUP_REPEATS = 9  # spread over the run, so host drift within it shows in the median
# pays the lazy imports: sympy is first imported by the first Smith normal form
WARMUP = ("characters", "su", "2", "1")
SETUP_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from modfunctor.cli import run_command\n"
    "sys.exit(run_command(sys.argv[2:])[0])\n"
)


def load_program():
    """Fix the BLAS threads, put src/ on the import path and run the warm-up.

    Returns False, after a message, when there are no modfunctor sources.
    """
    if not (SRC / "modfunctor" / "__init__.py").is_file():
        print(f"error: no modfunctor sources under {SRC}", file=sys.stderr)
        return False
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy loads, and inherited by set-up runs
    sys.path.insert(0, str(SRC))
    from modfunctor import cli

    code, report = cli.run_command(list(WARMUP))
    if code != 0:
        raise RuntimeError(f"warm-up exited {code}: {report.human}")
    return True


def measure_setup():
    """Wall time of one fresh interpreter importing modfunctor and running WARMUP."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), *WARMUP],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=120,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return seconds


def run_pass(ops, tracer=None, first_op=0):
    """Run every operation once; return timings, failures and wrong outputs.

    An operation fails when it raises or when the CLI exits 2 (usage or
    invalid input).  A CLI exit 1 means the program's own checks rejected its
    result, so that output is wrong even when the oracle finds nothing.
    """
    times, failures, wrong = [], {}, []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_op + index
        start = time.perf_counter()
        try:
            result, raised = op.run(), None
        except Exception as exc:  # counted as a failed operation, the run goes on
            result, raised = None, exc
        times.append(time.perf_counter() - start)
        if raised is not None:
            failures[op.label] = f"{type(raised).__name__}: {raised}"
            continue
        code = 0
        if op.cli:
            code, report = result
            if code == 2:
                failures[op.label] = f"exit 2: {report.human.splitlines()[0][:200]}"
                continue
            result = report.machine
        try:
            problem = op.check(result)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problem = f"malformed output: {type(exc).__name__}: {exc}"
        if code != 0:
            summary = report.human.splitlines()[-1][:200] if report.human else ""
            problem = f"exit {code} ({summary})" + (f"; {problem}" if problem else "")
        if problem:
            wrong.append(f"{op.label}: {problem}")
    return {
        "pass_s": sum(times),
        "slowest_op_s": max(times),
        "op_s": times,
        "failures": failures,
        "wrong": wrong,
    }


def tally(ops, passes):
    """(attempted, failed, wrong) per pass of a run.

    Every pass runs the same operations, so the counts are those of one pass.
    A pass whose failed operations differ from the first pass's is wrong:
    an operation that fails only now and then is a fault of its own.
    """
    first = set(passes[0]["failures"])
    wrong = [w for p in passes for w in p["wrong"]]
    for number, p in enumerate(passes[1:], start=2):
        if set(p["failures"]) != first:
            changed = sorted(first.symmetric_difference(p["failures"]))
            wrong.append(f"pass {number}: failed operations differ from pass 1: {changed}")
    return len(ops), len(first), wrong


def select(wanted, available):
    missing = [m["name"] for m in wanted if m["name"] not in available]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": available[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not load_program():
        return 2
    import tracing
    import workloads

    ops = workloads.build(args.workload, args.seed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    tracer = tracing.Tracer() if args.trace else None
    setups = [] if args.trace == 0 else None
    passes = []
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        # set-up samples keep pace with the window, between passes
        if setups is not None and len(setups) < SETUP_REPEATS * min(1.0, elapsed / args.seconds):
            setups.append(measure_setup())
            continue
        # a traced run alternates untraced and traced passes, starting untraced
        if elapsed >= args.seconds and len(passes) >= (2 if tracer else 1):
            break
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.start_pass()
            tracer.install()
            try:
                record = run_pass(ops, tracer, len(ops) * len(passes))
            finally:
                tracer.uninstall()
        else:
            record = run_pass(ops)
        record["traced"] = traced
        passes.append(record)

    if args.trace:
        layer = tracer.metrics([m["name"] for m in spec["per_layer"]])
        layer["trace.overhead_s"] = statistics.median(
            p["pass_s"] for p in passes if p["traced"]
        ) - statistics.median(p["pass_s"] for p in passes if not p["traced"])
        metrics = select(spec["per_layer"], layer)
    else:
        e2e = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(p["pass_s"] for p in passes),
            "slowest_op_s": statistics.median(p["slowest_op_s"] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = select(spec["end_to_end"], e2e)
    attempted, failed, wrong = tally(ops, passes)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = {
        "args": vars(args),
        "ops": [op.label for op in ops],
        "setup_s": setups,
        "passes": passes,
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(raw, indent=1), encoding="utf-8")
    if tracer is not None:
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "ops": [op.label for op in ops],
            "op": "pass number * len(ops) + position in ops",
        }
        tracer.write(OUT / f"spans-{stem}.json", meta)

    for label, reason in sorted(passes[0]["failures"].items()):
        print(f"failed: {label}: {reason}", file=sys.stderr)
    for line in sorted(set(wrong)):
        print(f"WRONG: {line}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes of {len(ops)} operations, "
        f"{failed} failed per pass, correct={result['correct']}",
        file=sys.stderr,
    )
    for name, m in metrics.items():
        print(f"  {name:<56} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
