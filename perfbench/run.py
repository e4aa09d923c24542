#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload dct_refute --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The driver and the libraries it links are
built with CMake (Release) into $CARGO_TARGET_DIR/perfbench-<tag>, or
.bench_build/perfbench-<tag> when that variable is unset, where <tag> is a
digest of this checkout's path: checkouts that share $CARGO_TARGET_DIR never
share a build tree. A later run only rebuilds what changed. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}; the line before it is
the run's context (machine, build, node budget, sample counts, per-layer
self times). Exits 0 when every design passed the correctness gate and the
determinism self-check, and non-zero otherwise, or when the build fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dct_refute", "dct_easy", "ar_optimal", "ar_certify")
DRIVER_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build_dir():
    """The build tree of this checkout. A CMake cache is bound to one source
    tree, so the directory name carries a digest of the checkout's path."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tag = hashlib.sha256(HERE.encode()).hexdigest()[:12]
    return os.path.join(ROOT, base, "perfbench-" + tag)


def cache_source(bdir):
    """The source tree the CMake cache in bdir was configured from, or None
    when there is no cache."""
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return os.path.realpath(line.split("=", 1)[1].strip())
    except OSError:
        pass
    return None


def build(bdir):
    """Configures until a first build from this checkout succeeds, then
    builds the driver; returns its path or None."""
    driver = os.path.join(bdir, "perfbench_driver")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    source = cache_source(bdir)
    if not os.path.exists(driver) or source != os.path.realpath(HERE):
        # A cache from another source tree would rebuild that tree's code.
        fresh = ["--fresh"] if source is not None else []
        steps.append(["cmake", *fresh, "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    return driver


def source_id():
    """The git commit when the checkout is a repository, else a digest of the
    sources the driver is built from."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
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
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--max-designs", type=int, default=0,
                   help="stop after this many designs (0: run for --seconds)")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    bdir = build_dir()
    driver = build(bdir)
    if driver is None:
        return 2
    spans = os.path.join(
        bdir, f"spans-{args.workload}-seed{args.seed}.json")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--max-designs", str(args.max_designs), "--commit", source_id(),
           "--spans-out", spans]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 3
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write(done.stdout)
        print(f"perfbench: driver exited {done.returncode} without a result",
              file=sys.stderr)
        return 4
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
