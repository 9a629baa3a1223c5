#!/usr/bin/env python3
"""Builds igen-cli and the igen-perfbench client from source, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <exec-warm|chatty-warm|compile-cold|compile-cold-tnames> \
        --seed <n> --seconds <s> --trace <0|1>

Both builds go to $CARGO_TARGET_DIR (default .bench_build). Build output
goes to standard error; standard output carries igen-perfbench's stamp
line and, last, its one-line JSON result. The exit code is igen-perfbench's, or 2
when the build fails (for example outside a full checkout).
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("perfbench", "igen-perfbench")


def cargo_build(args, target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def commit_id():
    """The git commit of a clone, else a digest of the source tree."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in files:
            if f.endswith((".rs", ".toml", ".lock", ".py")):
                digest.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no Cargo.toml at the repository root; nothing to build", file=sys.stderr)
        return 2
    if not cargo_build(["--locked", "--bin", "igen-cli"], target):
        print("perfbench: building igen-cli failed", file=sys.stderr)
        return 2
    # Not --locked: igen-perfbench depends on the repository's crates by
    # path, so its lock file follows their dependency changes by itself.
    if not cargo_build(["--manifest-path", os.path.join(PACKAGE, "Cargo.toml")], target):
        print("perfbench: building igen-perfbench failed", file=sys.stderr)
        return 2
    # Unix socket paths are limited to ~108 bytes: keep the work dir
    # relative to the repository root, where igen-perfbench runs.
    work = os.path.relpath(os.path.join(target, "perfbench"), ROOT)
    cmd = [
        os.path.join(target, "release", "igen-perfbench"),
        *sys.argv[1:],
        "--igen-cli", os.path.join(target, "release", "igen-cli"),
        "--work-dir", work,
        "--commit", commit_id(),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
