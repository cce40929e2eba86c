#!/usr/bin/env python3
"""Build and run the serve_budget benchmark.

Run from the repository root:

    python3 serve_budget/run.py --workload hot_filter --seed 1 --seconds 30 --trace 0

Builds the benchmark package (release) into $CARGO_TARGET_DIR, or serve_budget/target
when that is unset, then runs it with the given arguments. Build output goes to stderr,
so the benchmark's JSON result stays the last line of stdout. The exit code is the
build's when the build fails, otherwise the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("serve_budget: build failed", file=sys.stderr)
        return build.returncode
    # Unix socket paths are limited to ~100 bytes: hand the shard nodes a relative one.
    sockets = os.path.relpath(os.path.join(target, "serve-budget-sockets"))
    binary = os.path.join(target, "release", "serve-budget")
    return subprocess.run([binary, *sys.argv[1:], "--socket-dir", sockets]).returncode


if __name__ == "__main__":
    sys.exit(main())
