#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--trace 0` runs the end-to-end runner (`perfbench`), `--trace 1` the
separate traced run (`perfbench-trace`). Only the runner asked for is
built, so a change to the layer hooks the traced run uses cannot break the
end-to-end figures. Build output goes to standard error; the runner's last
line of standard output is its JSON result. The exit code is the runner's,
or the build's when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    args = sys.argv[1:]
    trace = None
    for flag, value in zip(args, args[1:]):
        if flag == "--trace":
            trace = value
    if trace not in ("0", "1"):
        print("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>",
              file=sys.stderr)
        return 2
    binary = "perfbench-trace" if trace == "1" else "perfbench"
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", binary],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"build of {binary} failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return subprocess.run([os.path.join(target, "release", binary)] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
