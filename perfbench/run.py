#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Cargo's output goes to standard error, so the benchmark's result stays
the last line of standard output. The build honours CARGO_TARGET_DIR.
Exits with the build's code when the build fails, else with the
benchmark's.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Leaves the benchmark's own 180 s budget a margin for the build check.
RUN_TIMEOUT_S = 170


def build():
    """Build the release binary; return its path, or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        return None, proc.returncode
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            exe = msg["executable"]
    if exe is None:
        print("perfbench: cargo reported no executable", file=sys.stderr)
        return None, 1
    return exe, 0


def main():
    exe, code = build()
    if exe is None:
        return code or 1
    child = subprocess.Popen([exe] + sys.argv[1:])
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
