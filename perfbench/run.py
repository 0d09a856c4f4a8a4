#!/usr/bin/env python3
"""Build and run the VIProf benchmark.

    python3 perfbench/run.py --workload live_ingest --seed 1 --seconds 30 --trace 0

Builds perfbench/ (and the repository's src/ libraries it links) with CMake
in RelWithDebInfo mode, the repository's default, into $CARGO_TARGET_DIR (default .bench_build) under the
checkout root, then runs the perfbench binary with the same arguments. The
binary's standard output is passed through; its last line is the JSON
result. Build output goes to standard error. The binary's self-check flag
--slow-layer SPAN:US is passed through unchanged.
"""
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def source_fingerprint():
    """The commit when the checkout is a git repository, else a hash of the
    sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no VIProf sources (src/CMakeLists.txt) under %s\n" % ROOT)
        return False
    if not shutil.which("cmake"):
        sys.stderr.write("run.py: cmake not found\n")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    out_dir = build_dir()
    if not build(out_dir):
        sys.stderr.write("run.py: build failed\n")
        return 2
    spans_dir = os.path.join(out_dir, "perfbench-out")
    os.makedirs(spans_dir, exist_ok=True)
    env = dict(os.environ, PERFBENCH_COMMIT=source_fingerprint())
    cmd = [os.path.join(out_dir, "perfbench")] + sys.argv[1:] + ["--out", spans_dir]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: perfbench did not finish within %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
