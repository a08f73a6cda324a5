#!/usr/bin/env python3
"""Builds the simulator and its benchmark from source, then runs a workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The simulator library is built by the repository's own CMake project
(target `conga`, Release), the benchmark by perfbench/CMakeLists.txt, both
under .bench_build/ (or $CARGO_TARGET_DIR when set). Later runs rebuild
incrementally. The last line of standard output is the benchmark's JSON
result; with --trace 1 the traced spans go to
<build>/traces/<workload>-seed<N>.json.

    python3 perfbench/run.py --self-test

builds the same way and runs the passivity self-test instead.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configures (once) and builds the library and the benchmark."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    lib = build_dir / "conga"
    bench = build_dir / "perfbench"
    steps = []
    if not (lib / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root), "-B", str(lib),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(lib), "--target", "conga",
                  "-j", jobs])
    if not (bench / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(bench), "-DCMAKE_BUILD_TYPE=Release",
                      f"-DCONGA_BUILD_DIR={lib}"])
    steps.append(["cmake", "--build", str(bench), "-j", jobs])
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                log.close()
                tail = log_path.read_text().splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed: " + " ".join(cmd), 1)
    return bench


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"{root} holds no simulator sources to build")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    bench = build(root, build_dir)

    if args.self_test:
        sys.exit(subprocess.run([str(bench / "passivity_test")]).returncode)

    cmd = [str(bench / "congabench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
