#!/usr/bin/env python3
"""Build and run the sspar benchmark.

    python3 sspbench/run.py --workload batch-cold --seed 1 --seconds 20 --trace 0
    python3 sspbench/run.py --selftest

Run from the root of an sspar source tree. The first run configures and
builds an optimized, fault-point-free sspar plus the benchmark binary into
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the build.
All build output goes to stderr, so the last line on stdout is the
benchmark's JSON result, with the metric units taken from BENCHMARK.json.
--selftest builds and runs the program generator's tests.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-cold", "edit-stream", "emitted-run")
# Headroom for the slowest workload's set-up and final checks.
EXTRA_SECONDS = 60


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    return 2


def build(build_dir, targets):
    """Configure once, then (re)build `targets`; serialized by a lock file."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets,
                       stdout=sys.stderr, check=True)


def metric_list(trace):
    """The (name, unit) pairs BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(line, trace):
    """The binary's last line with BENCHMARK.json's units added, or (None, why).

    BENCHMARK.json is the one list of metric names and units: the binary
    reports bare values, every end-to-end metric must be among them, and a
    per-layer metric the workload does not exercise reads 0.
    """
    try:
        result = json.loads(line)
    except ValueError:
        return None, "the last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, "unexpected result keys %s" % sorted(result)
    values = result["metrics"]
    listed = metric_list(trace)
    unknown = set(values) - {name for name, _ in listed}
    if unknown:
        return None, "metrics not in BENCHMARK.json: %s" % sorted(unknown)
    missing = [name for name, _ in listed if name not in values]
    if missing and not trace:
        return None, "end-to-end metrics not measured: %s" % missing
    result["metrics"] = {name: {"value": values.get(name, 0), "unit": unit}
                         for name, unit in listed}
    return json.dumps(result), None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "pipeline", "session.h"))
            and os.path.isfile(os.path.join(ROOT, "BENCHMARK.json"))):
        return fail("no sspar sources next to %s; run it from an sspar checkout" % HERE)
    if not args.selftest:
        if None in (args.workload, args.seed, args.seconds, args.trace):
            return fail("--workload, --seed, --seconds and --trace are required")
        if args.seed < 0 or args.seconds < 1:
            return fail("--seed must be >= 0 and --seconds >= 1")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir, ["sspbench_gen_test"] if args.selftest else ["sspbench"])
    except (OSError, subprocess.CalledProcessError) as e:
        return fail("build failed: %s" % e)
    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "sspbench_gen_test")]).returncode

    # Relative to the checkout root (the working directory of the run), so the
    # server's Unix socket path stays short.
    workdir = os.path.relpath(os.path.join(build_dir, "run-%d" % os.getpid()), ROOT)
    command = [os.path.join(build_dir, "sspbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + EXTRA_SECONDS)
    except subprocess.TimeoutExpired:
        return fail("the benchmark did not finish in time")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        return run.returncode or 1
    line, problem = result_line(lines[-1], args.trace == 1)
    if problem:
        sys.stderr.write(run.stdout)
        return fail(problem)
    print("\n".join(lines[:-1] + [line]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
