#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload drift_cloud --seed 1 --seconds 35 --trace 0

Run from the repository root. The first run configures and builds
perfbench against the sources of this checkout into .bench_build/; later
runs only rebuild what changed. The run's host conditions (nproc, load
average before and after, CPU steal share, build type, PICPRK_OBS,
commit) are printed and saved next to the traced run's span trace under
.bench_build/perfbench-out/.
The last line of standard output is the result JSON object.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the perfbench target; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no PIC-PRK sources next to perfbench/ (run from a repository checkout)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR] + generator
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail("cmake configure failed; see " + log_path)
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
            fail("build failed; see " + log_path)
    return os.path.join(BUILD_DIR, "perfbench")


def cache_value(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    """The git commit, or a hash of the sources when the checkout has no .git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def cpu_times():
    """Aggregate (steal, total) jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def expected_metrics(trace):
    """BENCHMARK.json's metric names and units for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    host = {
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "PICPRK_OBS": cache_value("PICPRK_OBS"),
        "commit": commit(),
    }
    before = cpu_times()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    host["loadavg_after"] = os.getloadavg()
    after = cpu_times()
    if before and after and after[1] > before[1]:
        # CPU time the hypervisor gave to other guests during the run.
        host["steal_share"] = round((after[0] - before[0]) / (after[1] - before[1]), 4)
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        sys.stdout.write(run.stdout)
        fail("perfbench exited with code %d" % run.returncode)
    result = json.loads(lines[-1])
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    differ = set(expected_metrics(args.trace).items()) ^ set(printed.items())
    if differ:
        fail("metrics differ from BENCHMARK.json: " + ", ".join(sorted(n for n, _ in differ)))

    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, stem + "-host.json"), "w") as f:
        json.dump({"host": host, "result": result}, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print("perfbench: host " + json.dumps(host))
    print(json.dumps(result))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
