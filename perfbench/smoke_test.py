#!/usr/bin/env python3
"""Smoke test of the benchmark. Run from the root of a checkout:

    python3 perfbench/smoke_test.py

Runs every workload once at reduced size, untraced and traced, and checks
that each run exits 0, passes its correctness checks, and prints every
metric BENCHMARK.json names, with that metric's unit, both in its table and
in its result line. Then runs m8_pipeline with an injected failure (every
E2EaW transfer chunk of the first repetition is lost) and checks that the
failure is counted in failed_frac while the run still completes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--seed", "2",
           "--seconds", "1", "--smoke"] + args
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, lines, result


def table_units(lines):
    """metric name -> unit, from the run's printed table."""
    units = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3:
            units.setdefault(parts[0], parts[2])
    return units


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = run(["--workload", workload,
                                       "--trace", str(trace)])
            tag = "%s trace=%d" % (workload, trace)
            expect(code == 0 and result is not None, tag + " exits 0")
            if result is None:
                continue
            expect(result["correct"] is True, tag + " passes its checks")
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, tag + " result keys")
            expect(result["attempted"] >= 1, tag + " attempted >= 1")
            names = {m["name"]: m["unit"] for m in bench[key]}
            expect(set(result["metrics"]) == set(names),
                   tag + " reports exactly the %s metrics" % key)
            printed = table_units(lines)
            for name, unit in names.items():
                got = result["metrics"].get(name, {})
                if got.get("unit") != unit or printed.get(name) != unit:
                    expect(False, "%s prints %s in %s" % (tag, name, unit))

    code, lines, result = run(["--workload", "m8_pipeline", "--trace", "0",
                               "--inject-fault"])
    expect(code == 0 and result is not None,
           "injected failure does not abort the run")
    if result is not None:
        expect(result["failed"] >= 1,
               "injected failure is counted (%d of %d operations failed)"
               % (result["failed"], result["attempted"]))
        printed = [l for l in lines if l.startswith("failed_frac")]
        frac = float(printed[0].split()[1]) if printed else 0.0
        expect(frac > 0.0, "failed_frac %.4g > 0" % frac)
        expect(result["correct"] is True,
               "successful repetitions still pass the correctness gate")

    print("smoke test %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
