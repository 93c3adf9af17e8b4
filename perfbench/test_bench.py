#!/usr/bin/env python3
"""Self-test of the repository benchmark, at tiny scale.

Usage (from the root of a checkout):
    python3 perfbench/test_bench.py

Runs every workload with --scale tiny in both modes, through run.py's own
functions, and fails (exit 1) when:
  - a run exits non-zero, is not correct, or counts a failed operation;
  - the result line lacks a key, or a metric BENCHMARK.json names for the
    mode is missing or has another unit;
  - the binary measures a metric BENCHMARK.json does not name, or a traced
    run lacks either half of an end-to-end metric (trace.overhead.* needs
    both);
  - a traced run's staged study decomposition (similarity, transform,
    decision called from outside) is not bit-identical to MatchEngine::Match
    for every preset;
  - run.py does not refuse, with a non-zero exit and no result line, a
    directory holding only BENCHMARK.json and perfbench/.
"""

import argparse
import os
import shutil
import subprocess
import sys

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_tiny(workload, trace):
    """One tiny run: (info, raw binary result, run.py's result line)."""
    args = argparse.Namespace(workload=workload, seed=7, seconds=1.0,
                              trace=trace, scale="tiny")
    info, _, raw = run.measure(args)
    metrics = run.select_metrics(run.load_spec(), raw, info, trace == 1)
    return info, raw, run.result_line(raw, metrics)


def check_raw(spec, where, raw, trace):
    """The binary's own metric set against BENCHMARK.json."""
    errors = []
    end_to_end = {entry["name"] for entry in spec["end_to_end"]}
    named = end_to_end | {entry["name"] for entry in spec["per_layer"]}
    measured = set(raw["metrics"])
    for name in sorted(measured):
        base = name
        for prefix in (run.UNTRACED, run.TRACED):
            if name.startswith(prefix):
                base = name[len(prefix):]
        if base not in named:
            errors.append("%s: binary measures %s, which BENCHMARK.json "
                          "does not name" % (where, name))
    if trace:
        for name in sorted(end_to_end):
            for prefix in (run.UNTRACED, run.TRACED):
                if prefix + name not in measured:
                    errors.append("%s: no %s%s" % (where, prefix, name))
    return errors


def check_run(spec, workload, trace):
    where = "%s --trace %d" % (workload, trace)
    try:
        info, raw, result = run_tiny(workload, trace)
    except SystemExit as error:
        return ["%s: run.py exited with %s" % (where, error.code)]
    errors = check_raw(spec, where, raw, trace)
    if set(result) != RESULT_KEYS:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("%s: correct=%s failed=%s" % (
            where, result["correct"], result["failed"]))
    if not result["attempted"] >= 1:
        errors.append("%s: nothing attempted" % where)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None:
            errors.append("%s: missing metric %s" % (where, entry["name"]))
        elif got.get("unit") != entry["unit"]:
            errors.append("%s: %s unit %s, expected %s" % (
                where, entry["name"], got.get("unit"), entry["unit"]))
        elif not isinstance(got.get("value"), (int, float)):
            errors.append("%s: %s value is not a number" % (where,
                                                            entry["name"]))
    if trace:
        staged = info.get("staged_decomposition", {})
        # 8 dense presets + the sparse arm, at least once each.
        if staged.get("checked", 0) < 9 or \
                staged.get("identical") != staged.get("checked"):
            errors.append("%s: staged decomposition not bit-identical to "
                          "the engine: %s" % (where, staged))
    return errors


def check_refuses_bare_directory():
    bare = os.path.join(run.BUILD_ROOT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "study",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return ["run.py did not refuse a directory without the sources"]
    return []


def main():
    spec = run.load_spec()
    errors = check_refuses_bare_directory()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors += check_run(spec, workload, trace)
    for error in errors:
        print("FAIL " + error)
    print("perfbench self-test: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
