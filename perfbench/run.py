#!/usr/bin/env python3
"""Repository benchmark: build the simulator from this checkout, run one
workload, check its outputs, and print the result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The simulator and the harness
(perfbench/genesys_perf.cc) are compiled from the checkout's own src/
into .bench_build/perfbench as a Release build; a binary older than any
of its sources is refused. Workloads, metrics and the sensitivity record
are described in perfbench/README.md.

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it are
the human-readable report, including the simulated metrics and the build
provenance. The full record is also written to
.bench_build/perfbench/results/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "genesys_perf")
SOURCE_SUFFIXES = (".cc", ".hh", ".h", ".cpp", ".txt")
HARNESS_TIMEOUT_S = 170

# Simulated end-to-end metrics: deterministic, printed with the report and
# checked for bit-identity across iterations by the harness. Only the ones
# that mean something on a workload are reported for it.
SIM_UNITS = {
    "sim_kops": "kop/s",
    "sim_mb_per_s": "MB/s",
    "sim_ms": "ms",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
    "gmc_schedules": "count",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def sources():
    for base in (os.path.join(ROOT, "src"), HERE):
        for dirpath, _, files in os.walk(base):
            for name in sorted(files):
                if name.endswith(SOURCE_SUFFIXES):
                    yield os.path.join(dirpath, name)


def tree_digest():
    h = hashlib.sha256()
    for path in sorted(sources()):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance():
    commit = git("rev-parse", "HEAD") if os.path.exists(
        os.path.join(ROOT, ".git")) else None
    dirty = None
    if commit is not None:
        status = git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {"commit": commit, "dirty": dirty, "tree_sha256": tree_digest()}


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/) in this checkout")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            step(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release", *generator])
        compile_binary()
        if stale_sources():
            # A newer file the build graph does not track (a header no
            # target includes, a CMakeLists comment): relink once so the
            # binary is provably newer than everything it could contain.
            os.remove(BINARY)
            compile_binary()
    stale = stale_sources()
    if stale:
        fail(f"binary is older than {os.path.relpath(stale[0], ROOT)}; "
             "refusing to report")


def compile_binary():
    step(["cmake", "--build", BUILD, "--target", "genesys_perf",
          "-j", str(min(4, os.cpu_count() or 1))])
    if not os.path.isfile(BINARY):
        fail("build produced no binary")


def stale_sources():
    built = os.path.getmtime(BINARY)
    return [p for p in sources() if os.path.getmtime(p) > built]


def step(cmd):
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"command failed: {' '.join(cmd)}")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    build()
    prov = provenance()

    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    stem = os.path.join(BUILD, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", stem + ".spans.json"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"harness printed no result (exit {done.returncode})")

    metrics = record["metrics"]
    if set(metrics) != set(units):
        fail("harness metrics do not match BENCHMARK.json: "
             f"missing {sorted(set(units) - set(metrics))}, "
             f"extra {sorted(set(metrics) - set(units))}")
    correct = bool(record["correct"]) and done.returncode == 0
    record.update(prov)
    record["units"] = units
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    report(args, record, prov, units)
    print(json.dumps({
        "correct": correct,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(units)},
    }))
    return 0 if correct else 1


def report(args, record, prov, units):
    mode = "traced" if args.trace else "untraced"
    dirty = {None: "unknown", True: "yes", False: "no"}[prov["dirty"]]
    print(f"perfbench {args.workload} seed {args.seed} ({mode}, "
          f"{record['iterations']} untraced iterations)")
    print(f"  build: commit {prov['commit'] or 'unknown (no git)'}, "
          f"dirty {dirty}, tree sha256 {prov['tree_sha256'][:16]}, "
          f"{record['build_type']}, compiler {record['compiler']}")
    for name in sorted(units):
        print(f"  {name:40s} {record['metrics'][name]:.6g} {units[name]}")
    sim = record["sim"]
    n = sim.get("sim_latency_n")
    for name, unit in SIM_UNITS.items():
        if name not in sim:
            continue
        if name.endswith("_p50_us") or name.endswith("_p99_us"):
            beyond = "" if name.endswith("_p50_us") else \
                f", {int(n - int(0.99 * n + 0.999999))} beyond"
            note = f"  (simulated, n={int(n)}{beyond})"
        else:
            note = "  (simulated)"
        print(f"  {name:40s} {sim[name]:.6g} {unit}{note}")
    attempted = max(int(record["attempted"]), 1)
    print(f"  {'failed_ratio':40s} {record['failed'] / attempted:.6g} ratio")
    if record["failures"]:
        for f in record["failures"]:
            print(f"  FAILED: {f}")
    else:
        print("  correctness gates and determinism check: passed")


if __name__ == "__main__":
    sys.exit(main())
