"""Build and run the repo benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune into .bench_build (release profile),
then runs it with the same arguments.  Its standard output ends with one
JSON result line.  Exits non-zero, without a result, when the checkout
lacks the library sources or the build or run fails.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    for needed in ("dune-project", "lib", "BENCHMARK.json", "perfbench/dune-project"):
        if not os.path.exists(needed):
            fail("%s not found; run from the root of a source checkout" % needed)
    build = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "perfbench/main.exe",
    ]
    # The shared dune cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        # Build output goes to stderr so that stdout ends with the result.
        done = subprocess.run(build, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed with exit code %d" % done.returncode)
    try:
        done = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
