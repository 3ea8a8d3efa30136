#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare OLD.json NEW.json
    python3 perfbench/run.py dump-csv DIR [--seed N]

A run builds the benchmark binary (CMake, Release) under $CARGO_TARGET_DIR
or .bench_build, runs the workload in a process of its own and prints, as
its last stdout line, {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. The full report of every run is kept as a record under
<build dir>/records/, and the traced run's spans under <build dir>/traces/.

compare reads two records. It fails (exit 1) when a counter marked exact
for the workload differs, and prints every timing's change without failing
on it. Comparing an untraced record with a traced one of the same workload
and seed shows the tracing overhead.

dump-csv writes the generated inputs as SALES CSVs (see perfbench/README.md).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures and builds the benchmark; returns the binary or None."""
    out = os.path.join(build_dir(), "perfbench")
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for step in (configure, ["cmake", "--build", out, "--parallel", "4"]):
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed:", " ".join(step))
            return None
    return os.path.join(out, "setm_perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("perfbench: unknown workload", args.workload, "- one of", names)
        return 2
    binary = build()
    if binary is None:
        return 1
    base = build_dir()
    work = os.path.join(base, "work")
    records = os.path.join(base, "records")
    traces = os.path.join(base, "traces")
    for d in (work, records, traces):
        os.makedirs(d, exist_ok=True)
    tag = "%s-seed%d-trace%d-%s" % (args.workload, args.seed, args.trace,
                                    time.strftime("%Y%m%dT%H%M%S"))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", work]
    if args.trace:
        command += ["--trace-out", os.path.join(traces, tag + ".jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded", RUN_TIMEOUT_S, "s")
        return 1
    lines = done.stdout.strip().splitlines()
    if not lines:
        log("perfbench: the benchmark binary printed no report (exit %d)" %
            done.returncode)
        return 1
    report = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    section = report["per_layer"] if args.trace else report["end_to_end"]
    metrics = {}
    for m in wanted:
        got = section.get(m["name"])
        if got is None and not args.trace:
            log("perfbench: end-to-end metric", m["name"], "not measured")
            return 1
        # A per-layer metric of a layer the workload does not reach is 0.
        metrics[m["name"]] = {"value": got["value"] if got else 0,
                              "unit": m["unit"]}
    result = {"correct": bool(report["correct"]) and done.returncode == 0,
              "attempted": int(report["attempted"]),
              "failed": int(report["failed"]),
              "metrics": metrics}

    record = dict(report, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  failed_frac=result["failed"] / max(result["attempted"], 1))
    with open(os.path.join(records, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for line in report.get("errors", []):
        log("perfbench:", line)
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


def compare(args):
    with open(args.old) as f:
        old = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    if old["workload"] != new["workload"]:
        log("perfbench: records are of different workloads")
        return 2
    drift = 0
    exact = sorted(set(old.get("exact", [])) & set(new.get("exact", [])))
    if exact and (not old["per_layer"] or not new["per_layer"]):
        exact = []
        print("exact counters: need two traced records")
    for name in exact:
        a = old["per_layer"][name]["value"]
        b = new["per_layer"][name]["value"]
        if a != b:
            drift += 1
            print("DRIFT  %-28s %s -> %s" % (name, a, b))
        else:
            print("same   %-28s %s" % (name, a))
    print("%-7s%-28s %14s %14s %9s" % ("", "metric", "old", "new", "change"))
    for section in ("end_to_end", "per_layer", "info"):
        for name in sorted(set(old[section]) & set(new[section])):
            if name in exact:
                continue
            a = old[section][name]["value"]
            b = new[section][name]["value"]
            change = "%+8.1f%%" % ((b - a) / a * 100) if a else "     n/a"
            print("%-7s%-28s %14.6g %14.6g %9s" %
                  (section[:6], name, a, b, change))
    for rec in (old, new):
        if not rec["correct"] or rec["failed"]:
            print("record", rec["workload"], "seed", rec["seed"],
                  "had failures:", rec.get("errors"))
    if drift:
        print("%d exact counter(s) drifted" % drift)
        return 1
    return 0


def dump_csv(args):
    binary = build()
    if binary is None:
        return 1
    os.makedirs(args.dir, exist_ok=True)
    return subprocess.run([binary, "--dump-csv", args.dir,
                           "--seed", str(args.seed)]).returncode


def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("old")
        p.add_argument("new")
        return compare(p.parse_args(argv[1:]))
    if argv and argv[0] == "dump-csv":
        p = argparse.ArgumentParser(prog="run.py dump-csv")
        p.add_argument("dir")
        p.add_argument("--seed", type=int, default=1)
        return dump_csv(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run_workload(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
