#!/usr/bin/env python3
"""Build mergepathd and the benchmark from this checkout, then run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload rpc-small-json --seed 1 --seconds 30 --trace 0

Every build product, the Go build cache, spill directories, daemon logs,
result records and traces stay under .bench_build/ in the checkout. The
last line of standard output is the benchmark's JSON result. Exits
non-zero, without printing a result, when either program fails to build.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOMODCACHE", "gopath/pkg/mod"),
                     ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"),
                     ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    # Build with the local toolchain and nothing fetched; the module has
    # no dependencies outside this checkout.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", CGO_ENABLED="0")
    return env


def build(env):
    bindir = os.path.join(BUILD, "bin")
    steps = [
        (ROOT, ["go", "build", "-o", os.path.join(bindir, "mergepathd"), "./cmd/mergepathd"]),
        (HERE, ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as exc:
            sys.stderr.write("perfbench: %s: %s\n" % (" ".join(cmd), exc))
            return None
        if proc.returncode != 0:
            sys.stderr.write("perfbench: %s failed:\n%s" % (" ".join(cmd), proc.stdout.decode(errors="replace")))
            return None
    return bindir


def main():
    env = go_env()
    bindir = build(env)
    if bindir is None:
        return 2
    cmd = [os.path.join(bindir, "perfbench"), "--daemon", os.path.join(bindir, "mergepathd"),
           "--root", ROOT, "--work", BUILD] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
