"""The measured interpreter: import ehrelay, build the ops, time the passes.

Started by ``run.py`` as a fresh process per run, with the checkout's
``src`` on ``PYTHONPATH`` and BLAS thread counts pinned to one. It prints
``ready <s>`` once ``import ehrelay`` is done and the first operation can be
issued, which is where ``setup_s`` stops; ``<s>`` is the time spent reading
the benchmark's own inputs, which ``setup_s`` leaves out. The other ops are
made after "ready", and every op constructs its ehrelay objects when called,
so that work is timed with the op. With ``--probe`` it exits at "ready".

A pass runs every op of the workload once, in order. Passes repeat while
another one fits in ``--seconds`` (at least two without tracing). With
``--trace 1`` untraced and traced passes alternate, so the tracing overhead
is measured on the same work; the per-layer numbers are per traced pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import ehrelay
import ehrelay.cli  # noqa: F401  (the package does not import its CLI)

import workloads
from tracer import Tracer


# Untraced runs report each op's upper quartile over passes, so they take at
# least two passes even when one pass is more than half of --seconds; traced
# runs take one pair.
MIN_PASSES = {0: 2, 1: 1}


def _run_pass(ops, latencies, cpu_times, outputs, errors, tracer=None):
    """Run every op once, appending each op's wall and CPU seconds; return
    the pass's wall seconds."""
    wall0 = time.perf_counter()
    ctx = {}
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = op.call(ctx)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies[i].append(time.perf_counter() - t0)
        cpu_times[i].append(time.process_time() - c0)
        outputs.append(out)
    return time.perf_counter() - wall0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--record", help="write the first pass's outputs as reference")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    with open(args.inputs, encoding="ascii") as fh:
        inputs = json.load(fh)
    inputs_s = time.perf_counter() - t0
    ops = workloads.build(args.workload, inputs)
    first_op = next(ops)
    print(f"ready {inputs_s!r}", flush=True)
    if args.probe:
        return 0
    ops = [first_op, *ops]

    latencies = [[] for _ in ops]
    cpu_times = [[] for _ in ops]
    traced_latencies = [[] for _ in ops]
    traced_cpu_times = [[] for _ in ops]
    errors: dict[int, str] = {}
    passes, traced_passes = [], []
    first: list = []
    later: list = []  # fingerprints of every later pass, so memory does not grow
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        outputs: list = []
        passes.append(_run_pass(ops, latencies, cpu_times, outputs, errors))
        if first:
            later.append([workloads.fingerprint(out) for out in outputs])
        else:
            first = outputs
        if tracer is not None:
            outputs = []
            tracer.install()
            try:
                traced_passes.append(_run_pass(ops, traced_latencies, traced_cpu_times, outputs,
                                                   errors, tracer))
            finally:
                tracer.uninstall()
            later.append([workloads.fingerprint(out) for out in outputs])
        elapsed = time.perf_counter() - start
        per_round = statistics.median(passes) + (
            statistics.median(traced_passes) if traced_passes else 0.0)
        if len(passes) >= MIN_PASSES[args.trace] and elapsed + per_round > args.seconds:
            break

    # Every op must succeed, pass its checks, and repeat its first output
    # exactly on every later pass.
    problems = {i: [msg] for i, msg in errors.items()}
    if not errors:
        try:
            found = workloads.check(args.workload, inputs, ops, first, args.seed)
        except Exception as exc:  # a check that cannot read an output fails every op
            found = [[f"check failed: {type(exc).__name__}: {exc}"]] * len(ops)
        for i, msgs in enumerate(found):
            if msgs:
                problems.setdefault(i, []).extend(msgs)
    prints = [workloads.fingerprint(out) for out in first]
    for other in later:
        for i, fp in enumerate(other):
            if fp != prints[i]:
                problems.setdefault(i, []).append("output differs from the first pass")

    if args.record:
        with open(args.record, "w", encoding="ascii") as fh:
            json.dump(workloads.record(args.workload, inputs, first), fh)

    failed_ops = set(problems)
    result = {
        "passes_s": passes,
        "traced_passes_s": traced_passes,
        "latencies_s": latencies,
        "cpu_s": cpu_times,
        "traced_latencies_s": traced_latencies if tracer is not None else None,
        "attempted": len(ops) * (1 + len(later)),
        "failed": len(failed_ops) * (1 + len(later)),
        "problems": {ops[i].key: msgs[:3] for i, msgs in sorted(problems.items())[:20]},
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "ehrelay": ehrelay.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["evals"] = tracer.evals
        if args.spans:
            tracer.save(args.spans)
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
