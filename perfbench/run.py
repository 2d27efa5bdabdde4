#!/usr/bin/env python3
"""Build the lgo benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <pipeline|profile|serve-steady|defense> \
        --seed <n> --seconds <s> --trace <0|1>

The script builds the `perfbench` package (release, offline) into
$CARGO_TARGET_DIR, or `.bench_build` at the repository root when that is
unset, then runs the binary with the same arguments. The binary prints the
JSON result as the last line of standard output. When the build fails the
script exits non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys


def run(argv, env, stdout=None):
    """Runs a child process to completion; a SIGTERM to this script is
    passed on to the child, which is always waited for."""
    child = subprocess.Popen(argv, env=env, stdout=stdout)

    def forward(signum, _frame):
        child.send_signal(signum)

    previous = signal.signal(signal.SIGTERM, forward)
    try:
        return child.wait()
    except KeyboardInterrupt:
        child.terminate()
        child.wait()
        return 130
    finally:
        signal.signal(signal.SIGTERM, previous)


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(os.path.dirname(here), ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(here, "Cargo.toml"),
    ]
    try:
        code = run(build, env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code if code > 0 else 1
    return run([os.path.join(target, "release", "perfbench")] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
