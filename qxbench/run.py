#!/usr/bin/env python3
"""The qxmap benchmark: builds the driver, runs one workload, prints metrics.

    python3 qxbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The driver (qxbench/driver.cpp) and the
library are built in Release mode under .bench_build/qxbench on first use.

--trace 0 runs the workload for S seconds with tracing off and prints the
end-to-end metrics of BENCHMARK.json. Set-up time is the median, over
several processes, of the time from process start to the driver's "ready".

--trace 1 prints the per-layer metrics. It runs the workload twice for S/2
seconds on the same seed: once with tracing off, for the metrics-registry
deltas and the driver's own timings, and once with QXMAP_TRACE=1, for span
self times and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import select
import shutil
import subprocess
import sys
import time

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "qxbench")
DRIVER = os.path.join(BUILD, "qxbench")
REPORTS = os.path.join(ROOT, ".bench_build", "reports")
WORKLOADS = ("exact-qx4", "heuristic-wide", "service-mixed")
SETUP_PROCESSES = 9
# Each compiler process takes a few hundred MB; stay within the CPUs this
# process may use, and at most eight.
BUILD_JOBS = max(1, min(8, len(os.sched_getaffinity(0))))
# Whole-process limits, inside the 180 s a run may take.
BUILD_TIMEOUT_S = 840
READY_TIMEOUT_S = 30
RUN_SLACK_S = 90


class BenchError(Exception):
    pass


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, *generator, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "qxbench", "-j", str(BUILD_JOBS)],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired as e:
                raise BenchError("build timed out") from e
            if done.returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                raise BenchError("build failed: %s\n%s" % (" ".join(step), tail))


def wait_ready(proc, started):
    """Seconds from `started` until the driver prints "ready"."""
    deadline = started + READY_TIMEOUT_S
    line = b""
    while not line.endswith(b"\n"):
        left = deadline - time.perf_counter()
        if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
            raise BenchError("driver did not get ready within %d s" % READY_TIMEOUT_S)
        chunk = os.read(proc.stdout.fileno(), 1)
        if not chunk:
            raise BenchError("driver exited during set-up (code %s)" % proc.wait())
        line += chunk
    ready = time.perf_counter() - started
    if line.strip() != b"ready":
        raise BenchError("unexpected driver output: %r" % line)
    return ready


def drive(args, env, timeout):
    """Runs the driver; returns its set-up time. Kills it on timeout."""
    started = time.perf_counter()
    proc = subprocess.Popen([DRIVER, *args], stdout=subprocess.PIPE, env=env)
    try:
        ready = wait_ready(proc, started)
        proc.communicate(timeout=max(1.0, timeout - (time.perf_counter() - started)))
    except (BenchError, subprocess.TimeoutExpired) as e:
        proc.kill()
        proc.wait()
        raise BenchError("driver %s: %s" % (" ".join(args[:3]), e)) from e
    if proc.returncode != 0:
        raise BenchError("driver %s exited with %d" % (" ".join(args[:3]), proc.returncode))
    return ready


def env_with_trace(on):
    env = dict(os.environ)
    env["QXMAP_TRACE"] = "1" if on else "0"
    return env


def run_once(workload, seed, seconds, traced, tag):
    os.makedirs(REPORTS, exist_ok=True)
    report = os.path.join(REPORTS, "%s-%d-%s.json" % (workload, seed, tag))
    for stale in (report, report + ".trace.json"):
        if os.path.exists(stale):
            os.remove(stale)
    args = ["run", "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
            "--report", report]
    ready = drive(args, env_with_trace(traced), seconds * 2 + RUN_SLACK_S)
    with open(report) as f:
        data = json.load(f)
    events = []
    if traced:
        with open(report + ".trace.json") as f:
            events = json.load(f)["traceEvents"]
    return data, events, ready


def setup_seconds(workload, seed):
    args = ["setup", "--workload", workload, "--seed", str(seed)]
    return [drive(args, env_with_trace(False), READY_TIMEOUT_S)
            for _ in range(SETUP_PROCESSES)]


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_declared(values, units):
    if set(values) != set(units):
        raise BenchError("metrics differ from BENCHMARK.json: missing %s, undeclared %s" % (
            sorted(set(units) - set(values)), sorted(set(values) - set(units))))


def summarize(reports):
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    errors = [e for r in reports for e in r["errors"]]
    for e in errors[:10]:
        print("check failed: " + e, file=sys.stderr)
    return attempted, failed, failed == 0 and not errors


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        build()
        if args.trace == 0:
            units = declared("end_to_end")
            setups = setup_seconds(args.workload, args.seed)
            report, _, ready = run_once(args.workload, args.seed, args.seconds, False, "e2e")
            setups.append(ready)
            values = metrics.end_to_end(report, setups)
            reports = [report]
            print("%s seed %d: %d timed maps in %.3f s, %d callers; set-up over %d processes"
                  % (args.workload, args.seed, len(report["ms"]), report["timed_s"],
                     report["callers"], len(setups)))
            print("not gated: " + ", ".join(
                "%s %.6g" % kv for kv in metrics.unbounded_end_to_end(report).items()))
        else:
            units = declared("per_layer")
            half = args.seconds / 2.0
            untraced, _, _ = run_once(args.workload, args.seed, half, False, "layers")
            traced, events, _ = run_once(args.workload, args.seed, half, True, "traced")
            values = metrics.per_layer(untraced, traced, events)
            reports = [untraced, traced]
            print("%s seed %d: %d untraced and %d traced maps, %d trace events"
                  % (args.workload, args.seed, len(untraced["ms"]), len(traced["ms"]),
                     len(events)))
        check_declared(values, units)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("qxbench: %s" % e, file=sys.stderr)
        return 1

    attempted, failed, correct = summarize(reports)
    for name in sorted(values):
        print("%-36s %16.6g %s" % (name, values[name], units[name]))
    print("attempted %d, failed %d" % (attempted, failed))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
