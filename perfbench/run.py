#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/cpp).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs crowd_batch, crowd_residual and gate_http in turn
and ends with one JSON line whose metrics are named <workload>.<metric>. Run from the repository
root. The perfbench program is configured with CMake into the directory
named by $CARGO_TARGET_DIR (default `.bench_build`) and built
incrementally on every call, so the first run builds the program's
libraries from source. Its stdout is relayed unchanged; the last line is
the JSON result. Build output goes to stderr only on failure. Exit
status: the program's (0 = every answer and check correct), or 2 when
the build fails or the program prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("crowd_batch", "crowd_residual", "gate_http")
# Every run must end within 180 s; the program gets what the build left.
DEADLINE_S = 175.0
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir: Path, deadline: float) -> Path:
    """Configure (once) and build perfbench; returns the binary path."""
    log = build_dir / "perfbench-build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if _has("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            timeout = max(1.0, deadline - time.monotonic())
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=timeout).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                out.flush()
                sys.stderr.write(log.read_text()[-4000:])
                sys.stderr.write(f"\nperfbench: build step failed: {cmd}\n")
                sys.exit(2)
    return build_dir / "perfbench"


def _has(program: str) -> bool:
    return any((Path(d) / program).exists()
               for d in os.environ.get("PATH", "").split(os.pathsep) if d)


def main() -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = HERE.parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    # The first build may take minutes; later runs only relink when needed.
    binary = build(build_dir, start + 900.0)

    if args.workload != "all":
        remaining = DEADLINE_S - (time.monotonic() - start)
        code, lines, result = run(binary, args, args.workload,
                                  max(remaining, 60.0))
        if result is not None:
            sys.stdout.write("\n".join(lines) + "\n")
        return code
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, lines, result = run(binary, args, workload, DEADLINE_S)
        sys.stdout.write(f"== {workload}\n")
        if result is None:
            return code
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
        worst = max(worst, code)
    sys.stdout.write(json.dumps(total) + "\n")
    return worst


def run(binary: Path, args, workload: str, timeout: float):
    """Run perfbench once; returns (exit code, stdout lines, result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {workload} timed out\n")
        return 2, [], None
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        if not isinstance(result, dict) or set(result) != RESULT_KEYS:
            result = None
    except (IndexError, ValueError):
        result = None
    if result is None:
        sys.stderr.write(proc.stdout[-4000:])
        sys.stderr.write(f"\nperfbench: {workload}: no result line "
                         f"(exit {proc.returncode})\n")
        return 2, lines, None
    return proc.returncode, lines, result


if __name__ == "__main__":
    sys.exit(main())
