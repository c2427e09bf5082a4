#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <ingest|query|live> --seed <n> \
        --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build` in the
checkout); cold tiers and span files go to `perfbench-work` inside it. The
benchmark's output passes through unchanged: human-readable lines, then one
JSON result line last. Exits non-zero, printing no result, when the build or
the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Build output goes to stderr so the last stdout line stays the result.
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    run = subprocess.run([binary, *sys.argv[1:], "--work-dir", work], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
