#!/usr/bin/env python3
"""Build and run the rqld end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <history_scan|memo_replay|ingest_mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, with path
dependencies on the repository's crates) in release mode, runs it with a
scratch directory inside the checkout, and passes its output through:
the run config and every metric by name and unit, then one JSON result
line. Exits non-zero without a result line when the build or the run
fails.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def source_rev():
    """The git revision, or a hash of the sources when not a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("crates", "perfbench/src"):
        for path in sorted((ROOT / base).rglob("*.rs")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", str(work),
        "--rev", source_rev(),
    ]
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
