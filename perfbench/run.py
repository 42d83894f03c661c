#!/usr/bin/env python3
"""End-to-end benchmark of fhc_serve: build, then run one workload.

    python3 perfbench/run.py --workload prolog_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
library, the daemon and the driver into .bench_build/ (Release) and trains
the fixture model into .bench_build/fixture/; later runs reuse both. The
driver's last stdout line is the JSON result. Build output goes to stderr.

--self-test checks that the benchmark's correctness oracle works: it runs a
short rescreen_hot against a deliberately wrong model and passes only if
that run fails with an oracle mismatch.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "fhc_serve",
                    "fhc_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return (os.path.join(BUILD, "fhc_perfbench"),
            os.path.join(BUILD, "fhc", "tools", "fhc_serve"))


def self_test(driver, serve):
    result = subprocess.run(
        [driver, "--workload", "rescreen_hot", "--seed", "1", "--seconds", "1",
         "--trace", "0", "--serve", serve, "--work", BUILD, "--wrong-model"],
        stdout=subprocess.PIPE, text=True, check=False)
    caught = result.returncode == 1 and "oracle mismatch" in result.stdout
    print("self-test: wrong model %s" % ("caught by the oracle" if caught else "NOT caught"))
    return 0 if caught else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    try:
        driver, serve = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(driver, serve)
    sys.stdout.flush()
    os.execv(driver, [driver, "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", repr(args.seconds), "--trace", args.trace,
                      "--serve", serve, "--work", BUILD])


if __name__ == "__main__":
    sys.exit(main())
