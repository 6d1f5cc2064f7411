#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-short --seed 1 --seconds 25 --trace 0

Every argument is passed to the binary (see perfbench/README.md). The
build stays inside the checkout: the Go build cache, temporary files and
the binary go under $CARGO_TARGET_DIR (default .bench_build), and the
toolchain is never asked to download anything. The script exits with the
build's status if the build fails, and otherwise with the binary's.
"""

import os
import subprocess
import sys
import time

# A run must finish well inside three minutes; the build before it has
# its own, longer allowance.
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOTMPDIR=os.path.join(out, "tmp"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        GOENV="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench", "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    args = sys.argv[1:]
    if not any(a == "--spans" or a.startswith("--spans=") for a in args):
        args += ["--spans", os.path.join(out, "spans")]
    start = time.monotonic()
    try:
        return subprocess.run([binary] + args, cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s after %.0f s" % (RUN_TIMEOUT_S, time.monotonic() - start),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
