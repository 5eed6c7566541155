#!/usr/bin/env python3
"""End-to-end benchmark of sfpm: builds the benchmark, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload city-pipeline --seed 2007 \
        --seconds 12 --trace 0

The benchmark package (perfbench/CMakeLists.txt) is configured and built
from source into $CARGO_TARGET_DIR (default .bench_build) on first use;
later runs only re-check it. Build output goes to stderr, so the last line
of stdout is always the benchmark's JSON result. Any build failure exits
non-zero without printing a result. perfbench/README.md documents the
workloads and metrics.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures and builds sfpm_perfbench; returns its path or None."""
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"] if _has("ninja") else []
    for cmd in (configure,
                ["cmake", "--build", out, "--target", "sfpm_perfbench",
                 "-j", "4"]):
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return None
    binary = os.path.join(out, "sfpm_perfbench")
    return binary if os.path.exists(binary) else None


def _has(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def main(argv):
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    proc = subprocess.Popen([binary] + argv, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: sfpm_perfbench timed out", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
