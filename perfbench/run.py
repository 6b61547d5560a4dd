#!/usr/bin/env python3
"""Builds parsplu and the benchmark from source, then runs one workload.

Run from the root of a parsplu checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        [--scale full|reduced]

Workloads: oneshot-goodwin, session-sherman3, daemon-lnsp3937. The last
line of standard output is the run's JSON result; build output and
progress go to standard error. Builds land in $CARGO_TARGET_DIR
(default: .bench_build in the checkout); inputs are made under
.bench_work and removed when the run ends.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(args):
    """cargo build --release --offline <args>, output to stderr."""
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if done.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed")


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail(f"{ROOT} is not a parsplu checkout (no Cargo.toml and crates/)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    build(["--bin", "parsplu"])
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--parsplu",
        os.path.join(release, "parsplu"),
        "--work-dir",
        os.path.join(ROOT, ".bench_work"),
        *sys.argv[1:],
    ]
    # Replace this process, so signals reach the benchmark itself.
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(cmd[0], cmd)


if __name__ == "__main__":
    main()
