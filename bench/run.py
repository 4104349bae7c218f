"""Benchmark for ehrelay: end-to-end metrics per workload, per-layer on request.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep|rate-eval|mc-lab|all \\
        [--seed N] [--seconds 32] [--trace 0|1]

For each run the driver (this file) derives every input from the seed, then
starts fresh interpreters one at a time, never concurrently:

* one measured interpreter (``measure.py``) that repeats the workload's
  fixed work in passes for about ``run_seconds`` of ``BENCHMARK.json`` and
  checks every output;
* probe interpreters, half before and half after the measured one, that
  only ``import ehrelay`` and make the first op; ``setup_s`` is their median
  time from process start to "ready", less the time each spent reading the
  benchmark's own inputs. Splitting them spreads the sample over the run, so
  a few slow seconds of the machine do not set the median.

The run length is ``run_seconds`` of ``BENCHMARK.json`` and nothing else.
``--seconds`` is accepted because the benchmark's command line passes
``--seconds <run_seconds>``; any other value is refused.

With ``--trace 0`` the last line of output carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of the outside-in tracer (see
``tracer.py``) plus the tracing overhead. The last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines above it are a readable report. Spans and a full report are written to
``.bench_out/`` in the checkout.

Record the reference values that ``DEFAULT_SEED`` runs are checked against
(only when the program's numbers are meant to change):

    python3 bench/run.py --record
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("sweep", "rate-eval", "mc-lab")
SETUP_PROBES = 21
RUN_LIMIT_S = 150.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# Per-layer metrics: (name, layer function, stat, unit).
LAYER_METRICS = [
    ("pmf.binary_entropy.calls", "pmf.binary_entropy", "calls", "count"),
    ("pmf.binary_entropy.s", "pmf.binary_entropy", "s", "s"),
    ("rates.per_level_receiver_bits.calls", "rates.per_level_receiver_bits", "calls", "count"),
    ("rates.per_level_receiver_bits.s", "rates.per_level_receiver_bits", "s", "s"),
    ("rates.per_level_source_entropy_bits.calls", "rates.per_level_source_entropy_bits",
     "calls", "count"),
    ("rates.per_level_source_entropy_bits.s", "rates.per_level_source_entropy_bits", "s", "s"),
    ("rates.second_hop_rate.us_per_call", "rates.second_hop_rate", "us_per_call", "us"),
    ("rates.both_hops_rate.us_per_call", "rates.both_hops_rate", "us_per_call", "us"),
    ("rates.random_loss_rate.us_per_call", "rates.random_loss_rate", "us_per_call", "us"),
    ("battery.build_kernel.us_per_call", "battery.build_kernel", "us_per_call", "us"),
    ("battery.stationary.us_per_call", "battery.stationary", "us_per_call", "us"),
    ("battery.check_regularity.us_per_call", "battery.check_regularity", "us_per_call", "us"),
    ("battery.transition_tensor.calls", "battery.transition_tensor", "calls", "count"),
    ("battery.forward_loglik.calls", "battery.forward_loglik", "calls", "count"),
    ("battery.forward_loglik.s", "battery.forward_loglik", "s", "s"),
    ("battery.forward_loglik.symbols_per_s", "battery.forward_loglik", "work_per_s", "1/s"),
    ("battery.pair_chain.s", "battery.pair_chain", "s", "s"),
    ("timing.timing_rate.calls", "timing.timing_rate", "calls", "count"),
    ("timing.timing_rate.s", "timing.timing_rate", "s", "s"),
    ("timing.timing_rate.errors", "timing.timing_rate", "errors", "count"),
    ("timing.z_pmf.calls", "timing.z_pmf", "calls", "count"),
    ("timing.z_pmf.s", "timing.z_pmf", "s", "s"),
    ("timing.t_pmf.s", "timing.t_pmf", "s", "s"),
    ("optimize.optimize.calls", "optimize.optimize", "calls", "count"),
    ("optimize.optimize.self_s", "optimize.optimize", "self_s", "s"),
    ("optimize.optimize.evals", "optimize.optimize", "evals", "count"),
    ("optimize.optimize.us_per_eval", "optimize.optimize", "us_per_eval", "us"),
    ("optimize.optimize.cell_max_s", "optimize.optimize", "max_s", "s"),
    ("mclab.sample_path.calls", "mclab.sample_path", "calls", "count"),
    ("mclab.sample_path.steps_per_s", "mclab.sample_path", "work_per_s", "1/s"),
    ("mclab.empirical_aep.s", "mclab.empirical_aep", "s", "s"),
    ("mclab.receiver_smoke_trial.s", "mclab.receiver_smoke_trial", "s", "s"),
    ("mclab.simulate_states.s", "mclab.simulate_states", "s", "s"),
    ("mclab.relay_codec_trial.s", "mclab.relay_codec_trial", "s", "s"),
    ("mclab.z_empirical.s", "mclab.z_empirical", "s", "s"),
    ("mclab.collision_curve.s", "mclab.collision_curve", "s", "s"),
    ("cli.main.calls", "cli.main", "calls", "count"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
]


class BenchError(Exception):
    pass


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(args: list, env: dict, timeout: float) -> float:
    """Run ``measure.py`` to completion; return its set-up seconds.

    Set-up is process start to the "ready" line, less the seconds the child
    reports having spent reading the benchmark's inputs.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "measure.py")] + args,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        line = proc.stdout.readline().split()
        ready_s = time.perf_counter() - t0
        ready = len(line) == 2 and line[0] == "ready"
        if ready:
            ready_s -= float(line[1])
        _, err = proc.communicate(timeout=max(timeout - ready_s, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("measured interpreter ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if not ready or proc.returncode != 0:
        raise BenchError(f"measured interpreter exited with {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    return ready_s


def _percentile(ordered: list, q: float) -> float:
    """Linear interpolation between closest ranks of a sorted list."""
    pos = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _op_time(samples: list) -> float:
    """An op's time in a run: the upper quartile of its passes.

    The host is a few cores of a shared machine that most of the time runs
    this program at one speed and, in bursts from seconds to minutes long,
    up to twice as fast. A pass that falls in a burst is fast; the upper
    quartile leaves out up to three quarters of such passes, where the
    median leaves out half and the minimum takes them. Over the same runs
    (six rate-eval runs, five sweep runs, and mc-lab runs on five seeds and
    five times on one seed), the spread over runs of the summed upper
    quartiles was 0.04-0.06 of its median, of the summed medians 0.08-0.12,
    and of the summed 25th percentiles up to 0.25. A slower program moves
    every quantile alike. Runs that fall wholly in a burst stay fast.
    """
    return _percentile(sorted(samples), 75.0)


def _tail_quantile(count: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it, else 100."""
    for q in TAIL_LADDER:
        if count * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            return q
    return 100.0


def _stamp(root: str) -> dict:
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "ehrelay", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)), "load1": os.getloadavg()[0]}


def _layer_metrics(result: dict, untraced_run_s: float) -> dict:
    layers = result["layers"]
    n = len(result["traced_passes_s"])
    metrics = {}
    for name, fn, stat, unit in LAYER_METRICS:
        row = layers.get(fn, {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0,
                              "errors": 0, "work": 0.0})
        if stat in ("calls", "errors", "s", "self_s"):
            value = row[stat] / n
        elif stat == "max_s":
            value = row["max_s"]
        elif stat == "us_per_call":
            value = 1e6 * row["s"] / row["calls"] if row["calls"] else 0.0
        elif stat == "work_per_s":
            value = row["work"] / row["s"] if row["s"] else 0.0
        elif stat == "evals":
            value = result["evals"] / n
        elif stat == "us_per_eval":
            value = 1e6 * row["s"] / result["evals"] if result["evals"] else 0.0
        metrics[name] = {"value": value, "unit": unit}
    traced = sum(_op_time(lat) for lat in result["traced_latencies_s"])
    metrics["trace.overhead_s"] = {"value": traced - untraced_run_s, "unit": "s"}
    metrics["trace.overhead_share"] = {"value": traced / untraced_run_s - 1.0, "unit": "ratio"}
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: int, root: str,
                 record: str | None = None) -> dict:
    t_start = time.perf_counter()
    stamp = _stamp(root)
    tmp = os.path.join(root, ".bench_tmp", f"{workload}-{seed}-{os.getpid()}")
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(tmp)
    os.makedirs(out_dir, exist_ok=True)
    try:
        inputs = workloads.generate(workload, seed, tmp, root)
        inputs_path = os.path.join(tmp, "inputs.json")
        with open(inputs_path, "w", encoding="ascii") as fh:
            json.dump(inputs, fh)
        env = _child_env(root)
        base = ["--workload", workload, "--inputs", inputs_path, "--seed", str(seed),
                "--seconds", str(seconds)]
        setups = [_run_child(base + ["--probe"], env, 30.0) for _ in range(SETUP_PROBES // 2)]
        result_path = os.path.join(tmp, "result.json")
        label = f"{workload}-seed{seed}-trace{trace}"
        args = base + ["--trace", str(trace), "--out", result_path]
        if trace:
            args += ["--spans", os.path.join(out_dir, f"spans-{label}.npz")]
        if record:
            args += ["--record", record]
        _run_child(args, env, RUN_LIMIT_S - (time.perf_counter() - t_start))
        setups += [_run_child(base + ["--probe"], env, 30.0)
                   for _ in range(SETUP_PROBES - len(setups))]
        with open(result_path, encoding="ascii") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    per_op = sorted(_op_time(lat) for lat in result["latencies_s"])
    tail_q = _tail_quantile(len(per_op))
    run_s = sum(per_op)
    e2e = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": run_s, "unit": "s"},
        "cpu_s": {"value": sum(_op_time(c) for c in result["cpu_s"]), "unit": "s"},
        "op_p50_ms": {"value": 1e3 * _percentile(per_op, 50.0), "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * _percentile(per_op, tail_q), "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }
    report = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "stamp": dict(stamp, python=result["python"], numpy=result["numpy"],
                      ehrelay=result["ehrelay"]),
        "correct": result["failed"] == 0, "attempted": result["attempted"],
        "failed": result["failed"], "error_rate": result["failed"] / result["attempted"],
        "problems": result["problems"], "passes": len(result["passes_s"]),
        "ops_per_pass": len(per_op),
        "setup_samples": len(setups), "op_tail_percentile": tail_q,
        "end_to_end": e2e,
    }
    if trace:
        report["per_layer"] = _layer_metrics(result, run_s)
        report["functions"] = result["layers"]
        report["traced_passes"] = len(result["traced_passes_s"])
    with open(os.path.join(out_dir, f"report-{label}.json"), "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1)
    return report


def _print_report(r: dict) -> None:
    s = r["stamp"]
    print(f"# workload {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
          f"seconds {r['seconds']:g}")
    print(f"# git {s['git_sha'] or 'unknown'}  src {s['src_sha256']}  python {s['python']}  "
          f"numpy {s['numpy']}  nproc {s['nproc']}  load1 {s['load1']:.2f}")
    e = r["end_to_end"]
    notes = {
        "setup_s": f"median of {r['setup_samples']} fresh interpreters",
        "run_s": f"sum over {r['ops_per_pass']} ops of each op's upper quartile of "
                 f"{r['passes']} passes",
        "cpu_s": "user+sys, summed like run_s",
        "op_p50_ms": f"over {r['ops_per_pass']} ops, each its upper quartile over passes",
        "op_tail_ms": (f"p{r['op_tail_percentile']:g}" if r["op_tail_percentile"] < 100
                       else "max: fewer than 20 ops per pass"),
        "peak_rss_mb": "measured interpreter",
    }
    for name, metric in e.items():
        print(f"{name:<14}{metric['value']:>14.6g} {metric['unit']:<6}{notes[name]}")
    print(f"{'error_rate':<14}{r['error_rate']:>14.6g} {'':<6}"
          f"{r['failed']} failed of {r['attempted']} attempted")
    for key, msgs in r["problems"].items():
        print(f"  FAIL {key}: {'; '.join(msgs)}")
    for name, metric in r.get("per_layer", {}).items():
        print(f"{name:<44}{metric['value']:>14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite bench/reference.json from this program")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "src", "ehrelay", "__init__.py"))
            and os.path.isdir(os.path.join(root, "configs"))):
        print("error: run from the root of an ehrelay checkout (src/ehrelay and configs/)",
              file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        seconds = float(json.load(fh)["run_seconds"])
    if args.seconds is not None and args.seconds != seconds:
        print(f"error: --seconds must be {seconds:g}, the run_seconds of BENCHMARK.json",
              file=sys.stderr)
        return 2
    try:
        if args.record:
            return _record(root)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        reports = {}
        for name in names:
            reports[name] = run_workload(name, args.seed, seconds, args.trace, root)
            _print_report(reports[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    key = "per_layer" if args.trace else "end_to_end"
    lines = {name: {"correct": r["correct"], "attempted": r["attempted"],
                    "failed": r["failed"], "metrics": r[key]} for name, r in reports.items()}
    print(json.dumps(lines[args.workload] if args.workload != "all" else lines))
    return 0


def _record(root: str) -> int:
    reference = {}
    for name in ("sweep", "rate-eval"):
        part = os.path.join(root, ".bench_out", f"record-{name}.json")
        os.makedirs(os.path.dirname(part), exist_ok=True)
        run_workload(name, workloads.DEFAULT_SEED, 0.0, 0, root, record=part)
        with open(part, encoding="ascii") as fh:
            reference.update(json.load(fh))
    with open(os.path.join(HERE, "reference.json"), "w", encoding="ascii") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
