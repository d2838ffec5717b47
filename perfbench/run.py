#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload repro-paper|engine-large|corun-4app \
        [--seed N] [--seconds S] [--trace 0|1]

Builds the `perfbench` package (and the repository's `repro` CLI, from
its own source) in release mode, then runs one benchmark process and
passes its output through. The last line of stdout is the result JSON.
Build output goes to $CARGO_TARGET_DIR, or perfbench/target when unset.
Exits non-zero, printing no result, if the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    release = os.path.join(target, "release")
    # One malloc arena: with glibc's per-thread arenas the grid workers'
    # high-water resident set depends on which thread allocated what, and
    # peak_rss_mib would measure that scheduling luck.
    env["MALLOC_ARENA_MAX"] = "1"
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--repo-root", ROOT,
        "--repro-bin", os.path.join(release, "repro"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
