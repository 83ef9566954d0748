#!/usr/bin/env python3
"""Build the server and the benchmark program from source, then run one workload.

    python3 perfbench/run.py --workload point_read --seed 1 --seconds 10 --trace 0

Run from the repository root. main.exe's output is passed through: its
last stdout line is the JSON result. Build output goes to stderr. Exits
nonzero, without a result, when the source tree or the build is missing.
"""

import os
import signal
import subprocess
import sys

SOURCES = ["dune-project", "bin/systemr_server.ml", "lib", "perfbench/dune"]
TARGET = "perfbench/main.exe"
PROGRAM = "_build/default/" + TARGET
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        print("perfbench: not a source checkout, missing: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/systemr_server.exe", "./" + TARGET],
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    # main.exe and the server it spawns share a fresh process group, so a
    # timeout stops both.
    proc = subprocess.Popen([PROGRAM] + sys.argv[1:], start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
