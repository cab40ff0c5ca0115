#!/usr/bin/env python3
"""Build and run the study benchmark.

    python3 perfbench/run.py --workload paper_cold --seed 24301 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --workload det_cold --seed 20221 --seconds 15 --trace 0 --record

Builds the repository's libraries, the nnr_cached daemon and the benchmark
binary from source into .bench_build/ at the repository root (the first run
configures and compiles; later runs only bring the build up to date), runs
the benchmark, and passes its output through. The last stdout line is the JSON
result. Build logs and diagnostics go to stderr. When the build or the run
fails, it exits non-zero and prints no result. A traced run (--trace 1)
also writes Chrome trace-event JSON to .bench_out/.
"""
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
TARGETS = ["nnr_perfbench", "nnr_cached", "perfbench_selftest"]


def log(*parts):
    print("[run.py]", *parts, file=sys.stderr, flush=True)


def build():
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return False
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append([cmake, "-S", BENCH_DIR, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", BUILD, "-j", "4", "--target"] + TARGETS)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=850).returncode != 0:
            log("build failed:", " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    if not build():
        return 1
    if argv == ["--selftest"]:
        work = os.path.join(ROOT, ".bench_run", "selftest")
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest"), work],
                              timeout=600).returncode

    record = "--record" in argv
    flags = [a for a in argv if a != "--record"]
    args = dict(zip(flags[0::2], flags[1::2]))
    workload = args.get("--workload", "")
    seed = args.get("--seed", "")
    trace = args.get("--trace", "0") == "1"
    work_dir = os.path.join(ROOT, ".bench_run", "%s-%d" % (workload, os.getpid()))
    extra = ["--cached", os.path.join(BUILD, "nnr", "tools", "nnr_cached"),
             "--work-dir", work_dir,
             "--refs", os.path.join(BENCH_DIR, "references.txt")]
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        extra += ["--trace-out",
                  os.path.join(out_dir, "trace-%s-%s.json" % (workload, seed))]
    cmd = [os.path.join(BUILD, "nnr_perfbench")] + argv + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=175,
                              text=True)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log("benchmark run failed with code", proc.returncode)
        return 1
    result = json.loads(lines[-1])
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        log("metrics differ from BENCHMARK.json:",
            sorted(set(result["metrics"]) ^ want))
        return 1
    if record:
        print("\n".join(lines[:-1]))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
