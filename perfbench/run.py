#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload study|serve|fleet --seed N \
        --seconds S --trace 0|1 [--scale full|tiny]

Builds the library, the shard CLI and the benchmark binary from this checkout
into .bench_build/ (CMake, Release), runs one workload, and prints as its last
stdout line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. The binary's spans are kept under
.bench_build/traces/. Exit codes: 0 ok, 1 error, 2 usage or build failure,
3 workload skipped on this host (reason on stdout and stderr).
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# A traced run measures its loop in two halves; the binary reports each
# half's end-to-end metrics under these prefixes.
UNTRACED = "half.untraced."
TRACED = "half.traced."


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark targets; returns the build
    directory. Serialized by a lock so concurrent runs share one build."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to perfbench/ (expected src/)", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                              "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", BUILD_DIR, "--target",
                          "perfbench", "entmatcher_cli", "-j",
                          str(max(1, min(4, os.cpu_count() or 1)))])
            for step in steps:
                try:
                    done = subprocess.run(step, stdout=log,
                                          stderr=subprocess.STDOUT,
                                          timeout=BUILD_TIMEOUT_S)
                except (OSError, subprocess.TimeoutExpired) as error:
                    fail("build step %s failed: %s" % (step[:2], error), 2)
                if done.returncode != 0:
                    log.flush()
                    with open(log_path) as text:
                        sys.stderr.write(text.read()[-4000:])
                    fail("build failed (log: %s)" % log_path, 2)
    return BUILD_DIR


def run_binary(build_dir, args, work_dir):
    """Runs the benchmark binary in its own process group and reaps anything
    it left behind (shard processes included)."""
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale, "--work-dir", work_dir,
               "--cli", os.path.join(build_dir, "entmatcher_cli")]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
    if out is None:
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def measure(args):
    """Builds, runs one workload, and returns (info, record lines, raw
    result): the binary's config record, its earlier output lines, and its
    last line with every metric it measured."""
    build_dir = build()
    work_rel = os.path.join(".bench_build", "run",
                            "%s-%d" % (args.workload, os.getpid()))
    work_dir = os.path.join(ROOT, work_rel)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        code, out = run_binary(build_dir, args, work_rel)
        trace_file = os.path.join(work_dir, "trace.json")
        if os.path.isfile(trace_file):
            traces = os.path.join(BUILD_ROOT, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(trace_file, os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed)))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = [line for line in out.splitlines() if line.strip()]
    info = {}
    for line in lines:
        if line.startswith('{"info"'):
            info = json.loads(line)["info"]
    if code == 3:
        print(json.dumps({"skipped": info.get("skipped", "unknown"),
                          "info": info}))
        fail("skipped: %s" % info.get("skipped", "unknown"), 3)
    if code != 0 or not lines:
        fail("benchmark binary exited with code %d" % code)
    return info, lines[:-1], json.loads(lines[-1])


def derived_metrics(spec, measured):
    """The traced run's metrics computed from its two halves: each
    trace.overhead.<metric> BENCHMARK.json names, how much worse (%) the
    metric read traced than untraced; and latency_p99_ms, the untraced
    half's p99."""
    derived = {}
    entries = spec["end_to_end"] + spec["per_layer"]
    better = {entry["name"]: entry["better"] for entry in entries}
    for entry in spec["per_layer"]:
        if not entry["name"].startswith("trace.overhead."):
            continue
        name = entry["name"][len("trace.overhead."):]
        plain = measured.get(UNTRACED + name)
        traced = measured.get(TRACED + name)
        if plain is None or traced is None or plain["value"] == 0:
            continue
        worse = traced["value"] - plain["value"]
        if better[name] == "higher":
            worse = -worse
        derived["trace.overhead." + name] = {
            "value": 100.0 * worse / plain["value"], "unit": "%"}
    if UNTRACED + "latency_p99_ms" in measured:
        derived["latency_p99_ms"] = measured[UNTRACED + "latency_p99_ms"]
    return derived


def select_metrics(spec, result, info, trace):
    """Picks BENCHMARK.json's metrics for this mode from the binary's output.
    Per-layer metrics of a layer the workload bypasses read 0 (the layer did
    no work); any other missing metric is an error."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    bypassed = tuple(info.get("bypassed_layers", []))
    measured = dict(result["metrics"])
    if trace:
        measured.update(derived_metrics(spec, measured))
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            got = measured[name]
            if got["unit"] != unit:
                fail("metric %s has unit %s, BENCHMARK.json says %s"
                     % (name, got["unit"], unit))
            value = got["value"]
        elif trace and bypassed and name.startswith(bypassed):
            value = 0.0
        else:
            fail("workload %s did not measure %s" % (info.get("workload"),
                                                     name))
        if not trace and value == 0:
            fail("end-to-end metric %s read 0" % name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def result_line(raw, metrics):
    """The benchmark's last output line: the binary's ledger and `metrics`."""
    return {"correct": bool(raw["correct"]),
            "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["study", "serve", "fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    spec = load_spec()
    info, records, raw = measure(args)
    for line in records:
        print(line)
    metrics = select_metrics(spec, raw, info, args.trace == 1)
    print(json.dumps(result_line(raw, metrics)), flush=True)


if __name__ == "__main__":
    main()
