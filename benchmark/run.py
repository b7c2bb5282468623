#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmark/run.py --reference <prediction_threads|atlas_dense>

The benchmark is a Cargo package of its own (benchmark/Cargo.toml) with a
path dependency on the repository. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the checkout root); build output
goes to stderr, so the last stdout line is the benchmark's result. Exits
non-zero, without a result, when the repository sources are missing or the
build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def revision():
    """The git revision of the checkout, or "unknown" outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("benchmark: no repository sources next to benchmark/", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
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
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark: build failed", file=sys.stderr)
        return build.returncode
    env["SHIL_BENCH_REVISION"] = revision()
    binary = os.path.join(target, "release", "shil-repo-bench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
