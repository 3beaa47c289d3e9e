#!/usr/bin/env python3
"""Builds the longtail benchmark harness from source and runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1>

The harness is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the library under src/. It is configured once into
$CARGO_TARGET_DIR (default .bench_build) and re-checked on every run, so
only the first run pays for the build. Build output goes to stderr; the
last line of stdout is the harness's JSON result. Any failure to build or
run exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("study_batch", "stream_serve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build(src: Path, out: Path) -> Path:
    # A failed configure leaves a cache but no build files, so test for
    # the latter.
    if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(src), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(out), "--target", "longtail_bench",
                    "-j", BUILD_JOBS],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out / "longtail_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = Path(__file__).resolve().parent
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out.is_absolute():
        out = here.parent / out
    try:
        binary = build(here, out)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", str(out / f"trace-{args.workload}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"perfbench: harness exited with {run.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
