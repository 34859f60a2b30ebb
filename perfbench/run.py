#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload kv_ycsb_a --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Run from the repository root. `--workload all` runs every workload in turn. Build output goes to standard error; the
benchmark's own output, whose last line is the JSON result, goes to
standard output. The exit code is the benchmark's (non-zero when the build
fails, a run errors, or an output check fails).

Persistent memory is memory, so the daemons' PM directory is a private
tmpfs mounted over .bench_build/perfbench/pm in a mount namespace of the
benchmark's own (unshare(1)); it vanishes when the run ends. Where that is
not permitted, the directory stays on the checkout's filesystem, and the
host record in the output names the filesystem either way.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["kv_ycsb_a", "pool_rpc", "sensor_ship"]
OUT_DIR = os.path.join(".bench_build", "perfbench")
PM_DIR = os.path.join(OUT_DIR, "pm")
# A run of one workload ends well inside this, set-up included.
RUN_TIMEOUT_S = 170
# Mounts a tmpfs over $0, then runs the remaining arguments on it.
TMPFS = 'mount -t tmpfs -o size=1g,mode=0700 perfbench-pm "$0" && exec "$@"'


def commit():
    """The checkout's git commit, or "unknown" outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            env=env,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def tmpfs_prefix():
    """The command prefix that runs a program on a private tmpfs PM
    directory, or [] when mount namespaces are not available."""
    prefix = ["unshare", "--mount", "sh", "-c", TMPFS, PM_DIR]
    try:
        probe = subprocess.run(prefix + ["true"], capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return []
    return prefix if probe.returncode == 0 else []


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(PM_DIR, exist_ok=True)
    prefix = tmpfs_prefix()
    if not prefix:
        print("perfbench: no private tmpfs; PM directory on the checkout's filesystem",
              file=sys.stderr)
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    argv = sys.argv[1:]
    runs = [argv]
    if "all" in argv and argv.index("all") > 0 and argv[argv.index("all") - 1] == "--workload":
        i = argv.index("all")
        runs = [argv[:i] + [w] + argv[i + 1:] for w in WORKLOADS]
    sha = commit()
    status = 0
    for run_args in runs:
        args = prefix + [binary, *run_args, "--out", OUT_DIR, "--pm-dir", PM_DIR,
                         "--commit", sha]
        try:
            code = subprocess.run(args, env=env, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            code = 3
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
