#!/usr/bin/env python3
"""Build and run the parmem end-to-end benchmark (perfbench).

One workload, with the arguments BENCHMARK.json's command takes:

    python3 perfbench/run.py --workload paper_compile --seed 1 --seconds 30 --trace 0

Every workload in both modes, with a summary of all metrics:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

The benchmark is built from the sources in this checkout (src/ and
perfbench/) with CMake in Release mode, into $CARGO_TARGET_DIR when set and
.bench_build/ otherwise; journals go to .bench_run/ and are removed after the
run. The last line of standard output is the result object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). Extra arguments after the known ones pass through to
the perfbench binary (--mono-seed, --modular-seed, --served-seed). Exits
non-zero, printing no result, when the sources are missing, the build or the
self-tests fail, or the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ["paper_compile", "stream_assign", "served_mix"]


def run_timeout_s(seconds):
    """How long one workload process may take: set-up, --seconds of
    measurement, the drain and the traced run's extra passes."""
    return 60 + 3 * seconds


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("the parmem sources (src/) are missing from " + ROOT)
    if shutil.which("cmake") is None:
        die("cmake not found")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("build failed")
    selftest = os.path.join(build_dir, "perfbench_selftest")
    if subprocess.run([selftest], stdout=sys.stderr,
                      stderr=sys.stderr).returncode:
        die("self-tests failed")
    return build_dir


def expected_metrics(trace):
    """(name -> unit) from BENCHMARK.json, or None when it is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    rows = spec["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_one(build_dir, workload, seed, seconds, trace, extra, echo=True):
    """Runs one workload; returns the parsed result object."""
    work_dir = os.path.join(ROOT, ".bench_run")
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--commit", commit(),
           "--work-dir", work_dir] + extra
    timeout = run_timeout_s(seconds)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die(workload + ": timed out after %d s" % timeout)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        die("%s: perfbench exited with %d" % (workload, proc.returncode))
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die(workload + ": the last line is not a result object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die(workload + ": result keys are not correct, attempted, failed, metrics")
    want = expected_metrics(trace)
    if want is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            die("%s: metrics differ from BENCHMARK.json: missing %s, extra %s,"
                " unit mismatches %s" % (
                    workload, sorted(set(want) - set(got)),
                    sorted(set(got) - set(want)),
                    sorted(k for k in got if k in want and got[k] != want[k])))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload in both modes and summarize")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = ap.parse_known_args()
    if args.all == (args.workload is not None):
        die("give exactly one of --workload NAME and --all")
    build_dir = build()
    if args.workload:
        result = run_one(build_dir, args.workload, args.seed, args.seconds,
                         args.trace, extra)
        print(json.dumps(result))
        return
    results = {}
    for trace in (0, 1):
        for w in WORKLOADS:
            results[(w, trace)] = run_one(build_dir, w, args.seed,
                                          args.seconds, trace, extra,
                                          echo=False)
    for trace, title in ((0, "end-to-end"), (1, "per-layer")):
        print("\n%s metrics (seed %d, %d s per run)" % (title, args.seed,
                                                       args.seconds))
        names = list(results[(WORKLOADS[0], trace)]["metrics"])
        print("%-28s %-6s" % ("metric", "unit") +
              "".join("%16s" % w for w in WORKLOADS))
        for n in names:
            unit = results[(WORKLOADS[0], trace)]["metrics"][n]["unit"]
            print("%-28s %-6s" % (n, unit) + "".join(
                "%16.4f" % results[(w, trace)]["metrics"][n]["value"]
                for w in WORKLOADS))
    for (w, trace), r in sorted(results.items()):
        rate = r["failed"] / max(1, r["attempted"])
        print("%s trace=%d: correct=%s fail_rate=%.6f (%d of %d)" % (
            w, trace, r["correct"], rate, r["failed"], r["attempted"]))
    if not all(r["correct"] for r in results.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
