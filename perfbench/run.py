#!/usr/bin/env python3
"""Builds and runs the redeval benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <optimize_fleet|eval_mesh|serve_mixed>
                             --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) with path
dependencies on the repository's crates, built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the checkout root). The
binary's output is passed through; before its last line this script
prints one `env` line: machine, toolchain, revision, build profile, load
average and CPU steal time over the run, so a starved run can be told
apart from a regression. The last line is the binary's result object.

Seeds: 1 is the default; 7 is held out, for re-checking a claim on a
seed not used while writing it.
"""

import argparse
import json
import os
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 7
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = "redeval-perfbench"


def cpu_times():
    """The aggregate `cpu` line of /proc/stat: (steal, total) in ticks."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return " ".join(f.read().split()[:3])
    except OSError:
        return "unknown"


def command_output(argv, cwd=ROOT):
    try:
        out = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    return command_output(["git", "rev-parse", "HEAD"])


def build(target_dir):
    argv = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, timeout=700)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir, "release", PACKAGE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["optimize_fleet", "eval_mesh", "serve_mixed"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(os.getcwd(), target_dir)
    binary = build(target_dir)
    if binary is None:
        return 2

    load_before = loadavg()
    cpu_before = cpu_times()
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=175)
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark did not finish in 175 s", file=sys.stderr)
        return 3
    sys.stderr.write(done.stderr)
    cpu_after = cpu_times()
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)

    steal = None
    if cpu_before and cpu_after:
        d_steal = cpu_after[0] - cpu_before[0]
        d_total = cpu_after[1] - cpu_before[1]
        steal = {"ticks": d_steal, "share": d_steal / d_total if d_total else 0.0}
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]),
        "git_rev": git_rev(),
        "build_profile": "release",
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "steal_delta": steal,
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(lines[-1])
    if not lines[-1].startswith("{"):
        print("run.py: the benchmark printed no result", file=sys.stderr)
        return done.returncode or 4
    if done.returncode != 0:
        print(f"run.py: failed checks, exit code {done.returncode}", file=sys.stderr)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
