#!/usr/bin/env python3
"""Build and run the skute end-to-end benchmark for one workload.

  python3 skutebench/run.py --workload cold_10k --seed 1 --seconds 20 --trace 0

Run from the repository root. The skutebench binary is built
(RelWithDebInfo) under .bench_build/skutebench from the sources next to
this script and the repository's src/; later runs only re-check the
build. Build output goes to stderr; the binary's last stdout line is the
JSON result. The exit
code is non-zero when the build fails, the run fails, or an output check
fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "skutebench")
WORKLOADS = ("cold_10k", "ship_200", "serve_200")
RUN_TIMEOUT_S = 175


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", "4"]):
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("skutebench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "skutebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("skutebench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
