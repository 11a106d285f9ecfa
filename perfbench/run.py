#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload metro --seed 1 --seconds 20 --trace 0

Every argument is passed through to the program (see main.go). The Go build
cache, module cache and tool state live under the build directory
(CARGO_TARGET_DIR when set, else .bench_build), so the benchmark reads and
writes nothing outside the checkout. The exit code is the program's; a
failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    bench = Path(__file__).resolve().parent
    root = bench.parent
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    env = dict(os.environ)
    env.update(
        GOCACHE=str(build / "gocache"),
        GOMODCACHE=str(build / "gomodcache"),
        GOPATH=str(build / "gopath"),
        # The go command keeps its env and telemetry files under the user
        # config directory; point that into the build directory too.
        XDG_CONFIG_HOME=str(build / "config"),
        HOME=str(build / "home"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-buildvcs=false",
    )
    exe = build / "bin" / "perfbench"
    built = subprocess.run(
        ["go", "build", "-o", str(exe), "."], cwd=bench, env=env,
        stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    # The program runs from the repository root and keeps its documents
    # under the build directory.
    args = [str(exe), "-out", str(build / "perfbench"), *sys.argv[1:]]
    return subprocess.run(args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
