#!/usr/bin/env python3
"""Build and run the perf benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The benchmark executable is built from
source with dune (build output goes to _build/), then run with the
given arguments; its last line of standard output is the JSON result.
--self-test runs the executable's own checks on tiny inputs and checks
that every metric BENCHMARK.json names is printed with its unit.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def build():
    # dune's own output goes to stderr: stdout carries only the result.
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "perfbench/main.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
    except FileNotFoundError:
        print("perfbench: dune not found", file=sys.stderr)
        return False
    return r.returncode == 0 and os.path.exists(EXE)


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1])


def self_test():
    ok = subprocess.run([EXE, "--self-test"], cwd=ROOT).returncode == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = subprocess.run(
                [EXE, "--quick", "--workload", w["name"], "--seed", "1",
                 "--seconds", "0.2", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            got, good = {}, False
            if p.returncode == 0:
                res = last_json(p.stdout)
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                good = (got == want and set(res) == {"correct", "attempted", "failed", "metrics"}
                        and res["correct"] and res["attempted"] >= 1)
            print("%s %s trace %d: %d metrics named with units" % (
                "ok  " if good else "FAIL", w["name"], trace, len(got)))
            ok = ok and good
    return ok


def main():
    if not build():
        return 2
    if sys.argv[1:] == ["--self-test"]:
        return 0 if self_test() else 1
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
