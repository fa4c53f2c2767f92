#!/usr/bin/env python3
"""Build and run the host benchmark from the root of a checkout.

    python3 perfbench/run.py --workload replay-grid --seed 1 --seconds 10 --trace 0

The arguments go to the benchmark binary unchanged (see main.go). The Go
build cache, temporary files, the binary and a traced run's span files
all live under $CARGO_TARGET_DIR (default .bench_build) inside the
checkout, so nothing is written outside it. The last line of standard
output is the benchmark's JSON result; build output goes to standard
error. Exit status 2 means the checkout could not be built.
"""

import os
import signal
import subprocess
import sys


def main():
    if not (os.path.isfile("go.mod") and os.path.isdir("internal")):
        print("perfbench: run from the root of a repository checkout (no go.mod or internal/ here)",
              file=sys.stderr)
        return 2
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "./perfbench"],
                               env=env, stdout=sys.stderr)
    except OSError as err:
        print("perfbench: cannot run go: %s" % err, file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # A terminated wrapper stops the benchmark and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen([binary, "--spans-dir", os.path.join(build, "spans")] + sys.argv[1:], env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
