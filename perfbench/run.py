#!/usr/bin/env python3
"""Build the repository benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <hpc_stream|small_jobs|toolflow|vessel> \
        --seed <n> --seconds <s> --trace <0|1> [--inject-fault]

Run it from the root of a checkout. The first run configures and builds
perfbench/ (which pulls in the repository's own CMake project with its
tests, benches, examples and tools switched off) into .bench_build/;
later runs only rebuild what changed. Build output goes to stderr, so the
last line on stdout is the benchmark's JSON result. Exits non-zero, with
no result line, when the sources are missing or the build or run fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "vcgra_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def call(cmd):
    """Run a build step with its output on stderr; fail on a non-zero exit."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources (CMakeLists.txt, src/) are not beside perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    call(["cmake", "--build", BUILD, "--target", "vcgra_perfbench",
          "-j", str(os.cpu_count() or 1)])


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "nogit-src-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hpc_stream", "small_jobs", "toolflow", "vessel"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one reference: the run must report failed ops")
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--git-sha", source_id()]
    if args.inject_fault:
        cmd.append("--inject-fault")
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    if result.returncode != 0:
        fail(f"the benchmark exited with code {result.returncode}")


if __name__ == "__main__":
    main()
