#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark binary is built from this checkout's sources into
.bench_build/ (rebuilt whenever a Go source file changes) with the Go
toolchain on PATH. Every file the build, the run and `go tool pprof` write
stays under .bench_build/. The last line of standard output is the JSON
result; the exit code is the benchmark's.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BENCH_DIR = os.path.join(ROOT, "perfbench")


def source_digest():
    """Hash every input of the build: Go sources, module files and the
    embedded reference digests, skipping hidden directories."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum", "reference.json"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def go_env():
    """Keep the toolchain's caches, temporary files and config inside the
    checkout, and keep it offline."""
    dirs = {name: os.path.join(BUILD, name) for name in ("gocache", "tmp", "home", "config", "cache")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=dirs["gocache"],
        GOTMPDIR=dirs["tmp"],
        TMPDIR=dirs["tmp"],
        HOME=dirs["home"],
        XDG_CONFIG_HOME=dirs["config"],
        XDG_CACHE_HOME=dirs["cache"],
        GOPATH=os.path.join(dirs["home"], "go"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
    )
    return env


def describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "not a git checkout"
    r = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: run from the repository root (no go.mod here)", file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    env = go_env()
    digest = source_digest()
    binary = os.path.join(BUILD, "perfbench")
    stamp = binary + ".source"
    built = None
    if os.path.exists(stamp):
        with open(stamp) as f:
            built = f.read().strip()
    if built != digest or not os.path.exists(binary):
        r = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH_DIR, env=env)
        if r.returncode != 0:
            print("run.py: build failed", file=sys.stderr)
            return r.returncode
        with open(stamp, "w") as f:
            f.write(digest + "\n")
    args = [binary, *sys.argv[1:], "-out", os.path.join(BUILD, "profiles"),
            "-source", digest, "-describe", describe()]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
