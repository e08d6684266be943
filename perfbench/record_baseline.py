#!/usr/bin/env python3
"""Records a benchmark baseline: every workload of BENCHMARK.json run
untraced on seeds 1..N, then once traced.

    python3 perfbench/record_baseline.py [--seeds 10] [--out perfbench/baseline]

Run from the root of a checkout. Writes `<out>.json` (every value, per
workload and metric, with median, quartiles and spread) and `<out>.md`
(the same as tables, plus the traced run's per-layer table and ladder).
The spread of a metric is the distance between the first and third
quartile of its values, as statistics.quantiles(values, n=4) gives them,
over their median; it is compared with the metric's bound. Exits 1 when
a run fails.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("FAIL: %s exited %d\n%s" % (" ".join(cmd), out.returncode,
                                               out.stderr[-4000:]))
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=0,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--out", default=os.path.join(HERE, "baseline"))
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    record = {"seeds": args.seeds, "seconds": seconds,
              "machine": "%s, %d CPUs" % (cpu_model(), os.cpu_count() or 0),
              "workloads": {}}
    md = ["# Benchmark baseline", "",
          "Recorded by `perfbench/record_baseline.py` on %s: %d seeds per "
          "workload, `--seconds %d`. Spread = (Q3 - Q1) / median over the "
          "seeds." % (record["machine"], args.seeds, seconds), ""]
    for w in bench["workloads"]:
        name = w["name"]
        values = {}
        started = time.time()
        for seed in range(1, args.seeds + 1):
            result, _ = run(name, seed, seconds, 0)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print("%s seed %d done" % (name, seed), file=sys.stderr)
        entry = {"untraced": {}, "wall_seconds": round(time.time() - started)}
        md += ["## %s" % name, "", "| metric | unit | median | Q1 | Q3 | "
               "spread | bound |", "|---|---|---|---|---|---|---|"]
        for metric, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else float("nan")
            entry["untraced"][metric] = {
                "unit": units.get(metric, ""), "median": med, "q1": q1,
                "q3": q3, "spread": spread, "values": vs}
            md.append("| %s | %s | %.6g | %.6g | %.6g | %.4f | %s |" %
                      (metric, units.get(metric, ""), med, q1, q3, spread,
                       bounds.get(metric, "")))
        traced, table = run(name, 1, seconds, 1)
        entry["traced_seed1"] = traced["metrics"]
        md += ["", "Traced run, seed 1:", "", "```"]
        md += table
        md += ["```", ""]
        record["workloads"][name] = entry
    with open(args.out + ".json", "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    with open(args.out + ".md", "w") as f:
        f.write("\n".join(md))
    print("wrote %s.json and %s.md" % (args.out, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
