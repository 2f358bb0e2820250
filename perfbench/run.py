#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, print its result.

    python3 perfbench/run.py --workload autolabel_fleet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke            # all workloads at toy size
    python3 perfbench/run.py compare A.json B.json

Run from the root of a checkout. The first run configures and builds the
library, the trainer tool and the runner into .bench_build/ (Release);
later runs rebuild incrementally. The runner's tables are printed first and
its result object is the last line of stdout. Every run also writes a full
record, stamped with the build configuration, to .bench_run/records/, and
traced runs write a Chrome trace-event timeline to .bench_run/traces/.
`compare` refuses to compare two records whose build stamps differ.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_DIR = ".bench_run"
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
TRAINER = os.path.join(BUILD_DIR, "polarice", "tools", "polarice_trainer")
WORKLOADS = ["autolabel_fleet", "train_unet", "serve_cold", "train_fleet"]
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Each workload's own metric names (printed and recorded beside the
# end-to-end slots), with their units.
NAMED = {
    "autolabel_fleet": {"corpus_mpix_per_s": "Mpx/s", "corpus_peak_mb": "MiB",
                        "autolabel_accuracy": "fraction"},
    "train_unet": {"train_images_per_s": "images/s",
                   "model_pixel_accuracy": "fraction", "model_miou": "fraction"},
    "serve_cold": {"serve_p50_ms": "ms", "serve_tail_ms": "ms",
                   "serve_drain_scenes_per_s": "scenes/s"},
    "train_fleet": {"fleet_images_per_s": "images/s",
                    "fleet_scaling_eff": "fraction", "fleet_final_loss": "loss"},
}


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no polarice sources next to perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perfbench_runner", "polarice_trainer"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            die("build failed: " + " ".join(step))


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Runs the runner binary; returns (stdout lines, parsed result, record path)
    or dies."""
    tag = "%s-seed%d-trace%d%s" % (workload, seed, trace,
                                   "-smoke" if smoke else "")
    for sub in ("records", "traces"):
        os.makedirs(os.path.join(ROOT, RUN_DIR, sub), exist_ok=True)
    record = os.path.join(RUN_DIR, "records", tag + ".json")
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--run_dir", RUN_DIR, "--trainer_bin", TRAINER, "--record", record]
    if trace:
        cmd += ["--trace_out", os.path.join(RUN_DIR, "traces", tag + ".json")]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        die("runner exited with %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        die("runner printed no result line")
    if set(result) != RESULT_KEYS:
        die("malformed result line: " + lines[-1])
    return lines, result, os.path.join(ROOT, record)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke():
    """Every workload at toy size, untraced and traced: every metric is
    emitted with its BENCHMARK.json unit, the workload's own metric names
    are recorded with theirs, and every check passes (which includes the
    traced fit replica reproducing fit)."""
    spec = load_spec()
    build()
    problems = []
    for workload in WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            _, result, record = run_workload(workload, 1, 1, trace, smoke=True)
            where = "%s trace=%d" % (workload, trace)
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(where + ": correctness checks failed")
            if result["attempted"] < 1:
                problems.append(where + ": nothing attempted")
            metrics = result["metrics"]
            if set(metrics) != {m["name"] for m in listed}:
                problems.append(where + ": metric names differ from "
                                "BENCHMARK.json")
            for m in listed:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append("%s: %s missing or wrong unit"
                                    % (where, m["name"]))
                elif trace == 0 and not got["value"] > 0:
                    problems.append("%s: %s is not positive"
                                    % (where, m["name"]))
            with open(record) as f:
                named = json.load(f)["named"]
            for name, unit in NAMED[workload].items():
                if named.get(name, {}).get("unit") != unit:
                    problems.append("%s: %s missing or wrong unit"
                                    % (where, name))
            print("smoke %-28s ok=%s attempted=%d" % (
                where, result["correct"], result["attempted"]))
    for p in problems:
        print("SMOKE FAILED: " + p)
    return 1 if problems else 0


def compare(path_a, path_b):
    """Per-metric ratio B/A of two run records with identical stamps."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    differing = sorted(k for k in set(a["stamp"]) | set(b["stamp"])
                       if a["stamp"].get(k) != b["stamp"].get(k))
    if differing:
        for k in differing:
            print("stamp %s differs: %r vs %r"
                  % (k, a["stamp"].get(k), b["stamp"].get(k)))
        print("refusing to compare records from different builds or hosts")
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("refusing to compare different workloads or modes")
        return 3
    for name, m in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            continue
        ratio = other["value"] / m["value"] if m["value"] else float("nan")
        print("%-40s %14.6g %14.6g  x%.4f %s" % (
            name, m["value"], other["value"], ratio, m["unit"]))
    return 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            die("usage: run.py compare RECORD_A RECORD_B")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        die("--workload is required")
    build()
    lines, _, _ = run_workload(args.workload, args.seed, args.seconds,
                             args.trace)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
