#!/usr/bin/env python3
"""The repository's benchmark: builds the measuring program and runs one workload.

    python3 perfbench/run.py --workload wire_la --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
program from source into .bench_build (Release); later runs rebuild only what
changed. A metro_store run first writes its store and request pool in a
separate, untimed process. The program's own lines are passed through; the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer
metric (--trace 1; a layer the workload does not run reads 0). The answer
digest is compared with the one recorded for the seed in digests.json, when
there is one; --record stores it there instead. Exits non-zero when any
answer check failed, and without a result line when the program cannot be
built or run.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
# A run must end within 180 s; leave room for start-up and clean-up.
RUN_BUDGET_S = 170.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def run_program(argv, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        fail("out of time before " + argv[1])
    try:
        return subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(argv[1] + " did not finish in time")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's answer digest in digests.json")
    args = parser.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    argv = [PROGRAM, "run", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if args.trace:
        argv += ["--trace-out", os.path.join(
            work, "%s-%d.spans.jsonl" % (args.workload, args.seed))]

    store = os.path.join(work, "metro-%d-%d.store" % (args.seed, os.getpid()))
    try:
        if args.workload == "metro_store":
            prep = run_program([PROGRAM, "prepare-metro", "--seed",
                                str(args.seed), "--store", store], deadline)
            if prep.returncode != 0:
                fail("prepare-metro failed")
            write_s = [line.split()[1] for line in prep.stdout.splitlines()
                       if line.startswith("store_write_s ")]
            if not write_s:
                fail("prepare-metro reported no write time")
            argv += ["--store", store, "--store-write-s", write_s[0]]
        done = run_program(argv, deadline)
    finally:
        for path in (store, store + ".requests"):
            if os.path.exists(path):
                os.remove(path)

    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail("the program exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the program printed no result")
    for line in lines[:-1]:
        print(line)

    correct = bool(result["correct"])
    failed = int(result["failed"])
    digests = load_json(DIGESTS) if os.path.exists(DIGESTS) else {}
    recorded = digests.get(args.workload, {}).get(str(args.seed))
    if args.record:
        if correct:
            digests.setdefault(args.workload, {})[str(args.seed)] = \
                result["digest"]
            with open(DIGESTS, "w") as f:
                json.dump(digests, f, indent=1, sort_keys=True)
                f.write("\n")
    elif recorded is None:
        print("  digest %s (none recorded for seed %d)"
              % (result["digest"], args.seed))
    elif recorded != result["digest"]:
        print("  FAILED: digest %s, recorded %s"
              % (result["digest"], recorded))
        correct = False
        failed += 1
    else:
        print("  digest %s matches the recorded one" % result["digest"])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail("the program did not report " + m["name"])
            print("  %-36s n/a on this workload" % m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("%s is in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
