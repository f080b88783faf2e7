#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the simulator and the benchmark
(Release) into $CARGO_TARGET_DIR, or .bench_build when unset, runs the
benchmark's arithmetic unit test, then runs perfbench once. With --trace 0
it first starts SETUP_PROCESSES --setup-only processes and reports as
setup_s the median of the set-up times they report. The last stdout line is the
JSON result; the exit code is non-zero when the build, the unit test or a
correctness check failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

SETUP_PROCESSES = 15
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_revision(root):
    """git revision when the tree is a checkout, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git-" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256-" + h.hexdigest()[:12]


def build(root, build_dir):
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    if subprocess.run([os.path.join(build_dir, "test_benchstats")],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("benchmark arithmetic unit test failed")


def setup_seconds(cmd):
    """Set-up time a fresh --setup-only process reports for itself."""
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if p.returncode:
        sys.stderr.write(p.stderr)
        fail("set-up run failed")
    return json.loads(p.stdout.strip().splitlines()[-1])["setup_s"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the repository root")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(root, build_dir)

    exe = os.path.join(build_dir, "perfbench")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--revision", source_revision(root)]
    setups = []
    if args.trace == 0:
        for _ in range(SETUP_PROCESSES):
            setups.append(setup_seconds([exe, *common, "--setup-only"]))

    p = subprocess.run([exe, *common, "--seconds", str(args.seconds),
                        "--trace", str(args.trace)],
                       capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(p.stderr)
    lines = p.stdout.rstrip("\n").splitlines()
    if p.returncode not in (0, 1) or not lines:
        sys.stdout.write(p.stdout)
        fail(f"benchmark exited with code {p.returncode}")
    result = json.loads(lines[-1])
    if setups:
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines.insert(-1, f"setup_s: median over {len(setups)} set-up processes, "
                         f"min {min(setups):.6f} s, max {max(setups):.6f} s")
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    return p.returncode


if __name__ == "__main__":
    sys.exit(main())
