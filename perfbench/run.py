#!/usr/bin/env python3
"""Builds the layered benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <batch_heavy|stream|fed16> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test     # the benchmark's own oracle test

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench; later calls rebuild incrementally. Build
output goes to stderr. The benchmark's stdout is passed through, so its
last line is the JSON result; the exit code is the benchmark's.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"scheduler sources not found at {ROOT / 'src'}")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"'{tool}' not found on PATH")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file() and (f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n"
                            not in cache.read_text(errors="replace")):
        # A build tree copied along with its checkout still points at the
        # old sources; CMake cannot reuse it.
        shutil.rmtree(BUILD_DIR)
    steps = []
    if not cache.is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", *generator])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {e}")
    return BUILD_DIR / target


def git_sha():
    # Only the checkout's own repository: git would otherwise search the
    # directories above it.
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_sha():
    """sha256 over the program and benchmark sources: identifies the code
    measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--test", action="store_true",
                        help="build and run the oracle test instead")
    args = parser.parse_args()

    if args.test:
        sys.exit(subprocess.run([str(build("perfbench_oracle_test"))],
                                timeout=RUN_TIMEOUT_S).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build("perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-sha", source_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != RESULT_KEYS:
            raise ValueError(f"result keys {sorted(result)}")
    except (IndexError, ValueError) as e:
        fail(f"no result line from the benchmark ({e})", 1)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
