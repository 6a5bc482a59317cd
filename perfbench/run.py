#!/usr/bin/env python3
"""The mclat benchmark: one command, four workloads, one JSON line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a source checkout. The first run configures and
builds perfbench/CMakeLists.txt (which builds the library from ../src) into
.bench_build/; later runs reuse that build. The harness binary then runs
one workload in its own process. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; a fuller
report per run lands in .bench_out/.

--self-test builds, checks that each workload's correctness gate rejects
deliberately perturbed results, and checks that every workload emits every
metric BENCHMARK.json names, with its unit, at tiny lengths.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "mclat_perfbench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when the checkout has one, else a digest of the
    library sources (the benchmark checkout need not be a repository)."""
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    """Configures once, then builds incrementally; build output goes to
    stderr so standard output stays the benchmark's own."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"no mclat source tree here ({needed} is missing)")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        jobs = str(min(os.cpu_count() or 1, 4))
        if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                           "--target", "mclat_perfbench"],
                          stdout=sys.stderr).returncode != 0:
            fail("build failed")


def run_harness(args, capture=False):
    """Runs the harness binary and waits for it; a run that outlives its
    time limit is killed."""
    try:
        return subprocess.run([BINARY] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              capture_output=capture, text=True)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = run_harness(["--self-test"]).returncode == 0
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in bench["workloads"]:
        for trace, metrics in expected.items():
            proc = run_harness(
                ["--workload", workload["name"], "--seed", "1", "--seconds",
                 "1", "--trace", str(trace), "--tiny", "--out-dir", OUT_DIR],
                capture=True)
            result = last_json(proc.stdout) if proc.returncode == 0 else None
            got = (result or {}).get("metrics", {})
            problems = []
            if result is None:
                problems.append(f"exit {proc.returncode}, no result line")
            for m in metrics:
                if m["name"] not in got:
                    problems.append(f"missing {m['name']}")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{m['name']} unit {got[m['name']]['unit']}"
                                    f" != {m['unit']}")
            extra = sorted(set(got) - {m["name"] for m in metrics})
            if extra:
                problems.append(f"unlisted metrics {extra}")
            status = "ok" if not problems else "; ".join(problems)
            print(f"{workload['name']} --trace {trace}: {status}")
            ok = ok and not problems
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.self_test:
        return self_test()
    proc = run_harness(
        ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", str(args.trace), "--out-dir", OUT_DIR,
         "--source-id", source_id()],
        capture=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or last_json(proc.stdout) is None:
        fail(f"harness exited {proc.returncode} without a result")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
