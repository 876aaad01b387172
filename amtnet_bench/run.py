#!/usr/bin/env python3
"""Builds amtnet_bench from source and runs one workload of it.

    python3 amtnet_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/amtnet_bench (default .bench_build/amtnet_bench); the first
run configures and compiles, later runs only check that the build is current.

The last line of standard output is one JSON object,
  {"correct": bool, "attempted": int, "failed": int,
   "metrics": {name: {"value": number, "unit": str}}}
holding the end-to-end metrics (--trace 0) or the per-layer metrics of the
traced repetition (--trace 1). The exit code is the benchmark's: 0 when every
output check passed, 1 when one failed; without a result (bad arguments,
watchdog, build failure) nothing is printed to standard output.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then brings the benchmark binary up to date."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "amtnet_bench", "-j", "4"],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "amtnet_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "amtnet_bench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2

    result_path = os.path.join(build_dir, f"result-{os.getpid()}.json")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--json", result_path]
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
        if code not in (0, 1):
            return code
        with open(result_path, encoding="utf-8") as file:
            workload = json.load(file)["workloads"][0]
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    finally:
        if os.path.exists(result_path):
            os.remove(result_path)

    metrics = workload["per_layer" if args.trace else "end_to_end"]
    sys.stdout.flush()
    print(json.dumps({
        "correct": workload["correct"],
        "attempted": workload["attempted"],
        "failed": workload["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
