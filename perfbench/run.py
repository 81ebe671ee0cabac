#!/usr/bin/env python3
"""Builds the esched benchmark (perfbench) from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark program and the esched library build with CMake into
$CARGO_TARGET_DIR (default .bench_build) on first use; build output goes to
perfbench-build.log there, so stdout carries only the benchmark's report,
whose last line is the JSON result. Run files go to .bench_runs/<workload>.
Exit codes: 0 correct, 1 wrong or failed run, 2 usage or missing sources,
3 build failure.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "perfbench-build.log"
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            result = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S, check=False)
            if result.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("perfbench: build failed (" + " ".join(step) + "):\n" +
                      "\n".join(tail), file=sys.stderr)
                sys.exit(3)
    return build_dir / "perfbench"


def main() -> int:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("perfbench: esched sources (CMakeLists.txt, src/) not found in "
              f"{ROOT}", file=sys.stderr)
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)
    try:
        return subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
