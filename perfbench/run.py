#!/usr/bin/env python3
"""Builds the lahar benchmark and the `lahar` executable from source, then
runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
(default `.bench_build`). The last line of standard output is the result
object; everything else the benchmark prints goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ["--bin", "lahar"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ):
        if not os.path.isfile(manifest):
            print(f"perfbench: {manifest} is missing: run from a full checkout", file=sys.stderr)
            return 1
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest, *extra],
            env=env,
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench = subprocess.run(
        [
            os.path.join(release, "lahar-perfbench"),
            *sys.argv[1:],
            "--lahar",
            os.path.join(release, "lahar"),
            "--work-dir",
            os.path.join(target, "perfbench-work"),
        ],
        env=env,
    )
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
