#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload edit-mix --seed 1 --seconds 45 --trace 0

The Go program in this directory is built from source into .bench_build
(the Go build cache, temporary files and the binary all stay there), then
run with the given arguments; its last line of output is the JSON result.

    python3 perfbench/run.py --workload all --seed 1 --seconds 45

runs every workload untraced and traced, one after the other: the two
BENCHMARK.json gates on (cold-query, edit-mix) and the two it does not
(ingest, warm-query; see DESIGN.md).
"""

import os
import subprocess
import sys

WORKLOADS = ["ingest", "warm-query", "cold-query", "edit-mix"]
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 175


def go_env(build):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
    )
    return env


def build(root, env):
    binary = os.path.join(root, ".bench_build", "perfbench")
    for key in ("GOCACHE", "GOMODCACHE", "GOPATH", "GOTMPDIR"):
        os.makedirs(env[key], exist_ok=True)
    src = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                          timeout=BUILD_TIMEOUT)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def run(binary, args, env, root):
    work = ["--workdir", os.path.join(root, ".bench_build", "work"),
            "--tracedir", os.path.join(root, ".bench_build", "traces")]
    proc = subprocess.run([binary] + args + work, env=env, timeout=RUN_TIMEOUT)
    return proc.returncode


def main(argv):
    root = os.getcwd()
    env = go_env(os.path.join(root, ".bench_build"))
    try:
        binary = build(root, env)
        if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == ["all"]:
            i = argv.index("--workload")
            rest = argv[:i] + argv[i + 2:]
            if "--trace" in rest:
                j = rest.index("--trace")
                rest = rest[:j] + rest[j + 2:]
            code = 0
            for name in WORKLOADS:
                for trace in ("0", "1"):
                    code |= run(binary, ["--workload", name, "--trace", trace] + rest, env, root)
            return code
        return run(binary, argv, env, root)
    except subprocess.TimeoutExpired as e:
        sys.exit("perfbench: timed out: %s" % e)
    except OSError as e:
        sys.exit("perfbench: %s" % e)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
