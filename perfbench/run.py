#!/usr/bin/env python3
"""Build `or-server` and the benchmark from source, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Both builds go to `$CARGO_TARGET_DIR` (default `.bench_build`).  Generated
scripts and span files go to `.bench_out/`.  Build output goes to standard
error; the last line of standard output is the benchmark's JSON result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(args):
    done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *args],
                          cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"`cargo build {' '.join(args)}` failed")


def source_digest():
    """SHA-256 over the sources both builds read, in path order."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, name) for name in ("Cargo.toml", "Cargo.lock")]
    for top in ("crates", "perfbench"):
        for directory, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs[:] = sorted(d for d in subdirs if d != "target")
            paths += [os.path.join(directory, f) for f in files
                      if f.endswith((".rs", ".toml", ".lock"))]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as source:
            digest.update(source.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    for needed in ("Cargo.toml", os.path.join("crates", "or-server")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"`{needed}` is missing: run from a full checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    build(["-p", "or-server", "--bin", "or-server"])
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    command = [
        os.path.join(target, "release", "perfbench"), *sys.argv[1:],
        "--server-bin", os.path.join(target, "release", "or-server"),
        "--out-dir", os.path.join(ROOT, ".bench_out"),
        "--git-commit", git_commit(),
        "--source-digest", source_digest(),
    ]
    sys.stdout.flush()
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
