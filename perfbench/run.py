#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test [--workload <name>]

The first form builds the benchmark program and the library it links from
source into .bench_build/ at the repository root (an incremental build per
run; build output goes to stderr), runs the program and
passes its output and exit status through. The last line of stdout is the
JSON result.

The second form checks that the deterministic metrics repeat exactly: it
runs every workload (or the one named) twice per mode with the same seed and
compares wire_kb_per_session, sim_net_s, net.*, sss.mults_per_session and
engine.cache_hit_ratio. Exit status 0 when they all repeat, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build")
PROGRAM = os.path.join(BUILD, "ppgr_perfbench")
WORKLOADS = ["rank_n16_dl256", "rank_n4_p256", "serve_mix_n4"]
DETERMINISTIC = {
    0: ["wire_kb_per_session", "sim_net_s"],
    1: ["net.messages_per_session", "net.rounds_per_session",
        "sss.mults_per_session", "engine.cache_hit_ratio"],
}
SELF_TEST_SEED = 7
SELF_TEST_SECONDS = "0.5"


def build():
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "ppgr_perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def result_of(workload, trace):
    proc = subprocess.run(
        [PROGRAM, "--workload", workload, "--seed", str(SELF_TEST_SEED),
         "--seconds", SELF_TEST_SECONDS, "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def self_test(workloads):
    ok = True
    for workload in workloads:
        for trace, names in DETERMINISTIC.items():
            first, second = result_of(workload, trace), result_of(workload, trace)
            for name in names:
                a, b = first[name]["value"], second[name]["value"]
                same = a == b
                ok = ok and same
                print(f"{workload:16} {name:26} {a!r:>22} {b!r:>22} "
                      f"{'same' if same else 'DIFFERENT'}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if "--self-test" in argv:
        rest = [a for a in argv if a != "--self-test"]
        if rest[:1] == ["--workload"] and len(rest) == 2 and rest[1] in WORKLOADS:
            return self_test(rest[1:])
        if rest:
            print("usage: run.py --self-test [--workload <name>]", file=sys.stderr)
            return 2
        return self_test(WORKLOADS)
    sys.stdout.flush()
    return subprocess.run([PROGRAM, *argv]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
