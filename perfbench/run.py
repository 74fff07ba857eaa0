#!/usr/bin/env python3
"""Runs one workload of the semdrift benchmark.

    python3 perfbench/run.py --workload batch-run --seed 7 --seconds 10 --trace 0

Builds the benchmark (and the library from ../src) on first use into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
perfbench binary from the repository root. The binary's output is passed
through; its last line is the result JSON. Build output goes to stderr.
Exits non-zero, without a result, when the source tree or the build is
missing; exits 1 when an output check fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_id():
    """The git commit when there is one, else a digest of src/ and perfbench/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no semdrift source tree next to perfbench/", file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", out, "-j", jobs, "--target", target]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        # Later builds re-run the configure step themselves when a
        # CMakeLists.txt changes.
        steps.insert(0, ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    binary = build("perfbench")
    if binary is None:
        return 3
    work_dir = os.path.join(".perfbench_work", args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--work-dir", work_dir, "--commit", source_id()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
