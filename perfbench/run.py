#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload fattree8_hybrid --seed <n> --make-reference

Builds the simulator and the driver from the sources of this checkout into
.bench_build/perfbench (an optimized build of its own, separate from the
repository's build), then runs the named workload in one single-threaded
process. The driver's standard output is passed through; its last line is
the JSON result. --make-reference runs the packet-exact twin of the hybrid
workload once and stores its FCTs in perfbench/reference.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configure (once) and build; returns False when the sources are missing
    or do not compile. Build output goes to stderr so stdout stays the
    driver's."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd), file=sys.stderr)
            return False
    return True


def make_reference(args):
    """Run the packet-exact twin once and store it under its key."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--make-reference"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        return out.returncode
    entry = json.loads(out.stdout.strip().splitlines()[-1])
    key = entry.pop("key")
    with open(REFERENCE) as f:
        doc = json.load(f)
    doc["entries"][key] = entry
    with open(REFERENCE, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print("stored reference %s: %s" % (key, json.dumps(entry)))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--size", choices=["full", "smoke"], default="full")
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    if not build():
        return 2
    if args.make_reference:
        return make_reference(args)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--size", args.size, "--reference", REFERENCE]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
