#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <flood_wide|flood_tcp|lr_migrate> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build honours CARGO_TARGET_DIR and
needs no network. The benchmark's report goes to standard output; its last
line is the JSON result. The exit code is the benchmark's, or 1 when the
build fails or the run overstays its limit.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run measures for --seconds and then finishes its episode and read-back;
# anything far beyond that is a hang.
RUN_LIMIT_S = 170


def build():
    """Builds the release binary and returns its path, or None on failure."""
    proc = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "--message-format", "json-render-diagnostics",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        return None
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == "perfbench":
            return msg["executable"]
    return None


def main():
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
