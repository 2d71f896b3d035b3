#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep|serve|fleet --seed N --seconds S --trace 0|1

The Go program in this directory is built from source on every call
(the Go build cache makes repeat builds quick). The build cache, the
binary and the benchmark's scratch files all live under the directory
named by CARGO_TARGET_DIR, default .bench_build, inside the repository,
so the run reads and writes nothing outside it. Arguments are passed
through; the exit code is the benchmark's. A failed build exits 1
without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR="",
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        # The toolchain keeps its telemetry counters under the user
        # config directory; point it inside the build directory too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        TMPDIR=os.path.join(build, "tmp"),
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    bench = subprocess.Popen(
        [binary, "--work", os.path.join(build, "perfbench-work")] + sys.argv[1:],
        cwd=root,
        env=env,
    )
    try:
        return bench.wait()
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()


if __name__ == "__main__":
    sys.exit(main())
