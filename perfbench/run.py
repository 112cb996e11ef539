#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It configures the repository's own CMake build with perfbench/hook.cmake
(so the harness and the libraries compile with the repository's flags),
builds the `perfbench` target, runs it, applies the correctness gate, prints
a table of every metric, and prints one JSON result object as the last line
of standard output. Exit status is non-zero when the build fails, the
harness fails, or any correctness check fails.

Extra flags: --smoke (reduced sizes, one repetition, no reference gate),
--inject-fault (the smoke test's failing operation), and
--record-reference (rewrite perfbench/reference.json from this build).
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HARNESS_TIMEOUT_S = 170
VARIANTS = 8  # seed % VARIANTS selects the recorded m8/wave input variant


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        raise RuntimeError("no CMakeLists.txt at the checkout root " + root)
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", root, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release",
             "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "hook.cmake")],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(cmake_dir, "perfbench")


def run_harness(binary, build_dir, workload, seed, seconds, trace, extra):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", os.path.join(build_dir, "work", str(os.getpid()))] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=HARNESS_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError("harness exited with %d" % proc.returncode)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("harness printed no result")
    return json.loads(lines[-1])


def within(name, got, want, tol):
    """One reference comparison; returns (ok, detail)."""
    if "exact" in tol:
        return got == want, "%s: %s vs reference %s (exact)" % (name, got, want)
    if got is None or not math.isfinite(got):
        return False, "%s: not finite" % name
    if "abs" in tol:
        ok = abs(got - want) <= tol["abs"]
        return ok, "%s: %.6g vs reference %.6g (abs tol %g)" % (
            name, got, want, tol["abs"])
    scale = max(abs(want), 1e-30)
    ok = abs(got - want) / scale <= tol["rel"]
    return ok, "%s: %.6g vs reference %.6g (rel tol %g)" % (
        name, got, want, tol["rel"])


def trace_misfit(observables, reference):
    keys = sorted(k for k in reference if k.startswith("trace_u_"))
    num = sum((observables.get(k, float("nan")) - reference[k]) ** 2
              for k in keys)
    den = sum(reference[k] ** 2 for k in keys)
    return math.sqrt(num / den) if den > 0 else float("nan")


def reference_gate(result, checks):
    """Compare every repetition's outputs with perfbench/reference.json."""
    path = os.path.join(HERE, "reference.json")
    with open(path) as f:
        ref = json.load(f)
    workload = result["workload"]
    if workload not in ref["workloads"]:
        return  # hazard_service is checked against itself (brute force)
    spec = ref["workloads"][workload]
    for rep, obs in enumerate(result["observed"]):
        tag = " (repetition %d)" % rep
        variant = str(int(obs.get("variant", -1)))
        if variant not in spec["variants"]:
            checks.append(("reference.variant", False,
                           "no reference for variant " + variant + tag))
            continue
        want = spec["variants"][variant]
        for name, tol in spec["tolerances"].items():
            if name == "trace_u":
                misfit = trace_misfit(obs, want)
                checks.append(("reference.trace_u", misfit <= tol["rel_l2"],
                               "receiver trace relative L2 misfit %.3g "
                               "(tol %g)%s" % (misfit, tol["rel_l2"], tag)))
                continue
            ok, detail = within(name, obs.get(name), want.get(name), tol)
            checks.append(("reference." + name, ok, detail + tag))


def record_reference(binary, build_dir):
    tolerances = {
        "m8_pipeline": {
            "mw": {"abs": 0.01},
            "mean_slip_m": {"rel": 0.01},
            "peak_pgvh_ms": {"rel": 0.02},
            "peak_distance_km": {"abs": 2.5},
            "mesh_md5": {"exact": True},
        },
        "wave_attenuated": {
            "pgv_map_norm": {"rel": 0.01},
            "trace_u": {"rel_l2": 0.01},
            "mesh_md5": {"exact": True},
        },
    }
    out = {"note": "Outputs of each recorded input variant (seed %% %d), "
                   "compared within the stated tolerances." % VARIANTS,
           "workloads": {}}
    for workload, tol in tolerances.items():
        variants = {}
        for v in range(VARIANTS):
            res = run_harness(binary, build_dir, workload, v, 1, 0, [])
            obs = {k: val for k, val in res["observed"][0].items()
                   if k != "variant"}
            variants[str(v)] = obs
            log("recorded %s variant %d" % (workload, v))
        out["workloads"][workload] = {"tolerances": tol, "variants": variants}
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


def fmt(v):
    return "-" if v is None else "%.6g" % v


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    binary = build(root, build_dir)
    if args.record_reference:
        record_reference(binary, build_dir)
        return 0

    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise RuntimeError("unknown workload %r (have %s)" % (
            args.workload, ", ".join(names)))
    extra = (["--smoke"] if args.smoke else []) + (
        ["--inject-fault"] if args.inject_fault else [])
    result = run_harness(binary, build_dir, args.workload, args.seed,
                         args.seconds, args.trace, extra)

    checks = [(c["name"], c["ok"], c["detail"]) for c in result["checks"]]
    if not args.smoke:
        reference_gate(result, checks)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            raise RuntimeError("harness did not report " + m["name"])
        if got["unit"] != m["unit"]:
            raise RuntimeError("%s reported in %s, BENCHMARK.json says %s" % (
                m["name"], got["unit"], m["unit"]))
        if got["value"] is None:
            raise RuntimeError(m["name"] + " is not finite")
        if not args.trace and not got["value"] > 0:
            checks.append(("metric." + m["name"], False,
                           "end-to-end metric must be positive"))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    fp = result["fingerprint"]
    print("perfbench %s seed=%d trace=%d%s: %d repetitions on %d ranks" % (
        args.workload, args.seed, args.trace, " smoke" if args.smoke else "",
        result["repetitions"], result["ranks"]))
    print("host: %s | %s | nproc %d | L1d %d L2 %d L3 %d B" % (
        fp["cpu_model"], fp["isa"], fp["nproc"], fp["l1d_bytes"],
        fp["l2_bytes"], fp["l3_bytes"]))
    print("build: %s %s '%s' NDEBUG=%s" % (
        fp["compiler"], fp["build_type"], fp["cxx_flags"], fp["ndebug"]))
    print("%-34s %14s %-10s %12s %14s %7s" % (
        "metric", "value", "unit", "median", "tail", "n"))
    for name in sorted(result["metrics"]):
        m = result["metrics"][name]
        tail = ("p%g %s" % (m["tail_p"], fmt(m["tail"]))
                if m.get("tail_p") else "-")
        print("%-34s %14s %-10s %12s %14s %7s" % (
            name, fmt(m["value"]), m["unit"], fmt(m.get("median")), tail,
            m.get("n", "-")))
    print("operations: %d attempted, %d failed (failed_frac %s)" % (
        result["attempted"], result["failed"],
        fmt(result["metrics"]["failed_frac"]["value"])))
    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        if not ok:
            print("CHECK FAILED %s: %s" % (name, detail))
    print("correctness: %d checks, %d failed" % (len(checks), len(failed)))
    if result.get("span_file"):
        print("spans: %d written to %s" % (result["spans"],
                                           result["span_file"]))

    correct = not failed
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: " + str(e))
        sys.exit(1)
