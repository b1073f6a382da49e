#!/usr/bin/env python3
"""Builds the time-to-goal benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Every other flag is passed to the benchmark binary (see perfbench/main.cpp).
The build goes to $CARGO_TARGET_DIR/perfbench when that variable is set,
else to .bench_build/perfbench; traced runs write their Chrome trace to
the traces/ directory next to it. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits 1 without a result
when the simulator sources are missing or the build fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_root() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def source_id() -> str:
    """Git commit when the checkout has one, plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists() and shutil.which("git"):
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=False)
        if result.returncode == 0:
            commit = result.stdout.strip()
    return f"{commit}/src-sha256:{digest.hexdigest()[:16]}"


def build(build_dir: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: simulator sources not found under "
                 f"{ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (configure, ["cmake", "--build", str(build_dir), "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr, check=False).returncode:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return build_dir / "perfbench"


def main() -> int:
    build_dir = build_root() / "perfbench"
    binary = build(build_dir)
    command = [str(binary), *sys.argv[1:],
               "--out-dir", str(build_root() / "traces"),
               "--commit", source_id()]
    sys.stdout.flush()
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
