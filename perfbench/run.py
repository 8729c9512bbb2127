#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the library, ssjoin_served and the benchmark binary from the
checkout's own sources into .bench_build/ (Release; incremental after the
first run), runs the benchmark's arithmetic self-tests, then runs the
benchmark.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are checked
against BENCHMARK.json before it is printed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = Path(".bench_build")
CMAKE_DIR = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr, killing its whole
    process group if it overruns."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return -1


def build():
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                   "tools/ssjoin_served.cc", "perfbench/CMakeLists.txt"):
        if not Path(needed).is_file():
            fail(f"{needed} is missing: run from a full checkout")
    # Configure every time (a second or two when nothing changed), so a build
    # tree left by another revision of this file picks up its targets.
    if run_logged(["cmake", "-S", "perfbench", "-B", str(CMAKE_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"], 300) != 0:
        fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if run_logged(["cmake", "--build", str(CMAKE_DIR), "-j", jobs, "--target",
                   "perfbench", "perfbench_selftest"], 840) != 0:
        fail("build failed")
    if run_logged([str(CMAKE_DIR / "perfbench_selftest")], 60) != 0:
        fail("self-tests failed")


def check_result(line, trace):
    """Parses the benchmark's result line and checks it against BENCHMARK.json."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        raise ValueError(f"metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}, "
                         f"units {[n for n in want if n in got and want[n] != got[n]]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    os.chdir(ROOT)
    build()
    if args.selftest:
        return 0
    if not args.workload:
        fail("--workload is required")

    cmd = [str(CMAKE_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(BUILD_DIR)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"perfbench exited with code {proc.returncode}")
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, json.JSONDecodeError) as err:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"bad result line: {err}")
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
