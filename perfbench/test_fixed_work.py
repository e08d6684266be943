#!/usr/bin/env python3
"""The benchmark's fixed-work rule, tested.

Timed phases replay whole passes of the stream, never "as much as fits in
a duration", so what the program computes cannot depend on how fast it
ran. This runs the traced benchmark twice on each wire workload at two
different open-loop rates and requires the read hit ratio and the exact
layer counts to be identical.

    python3 perfbench/test_fixed_work.py

Run from the root of a checkout; it builds through perfbench/run.py. A
short stream keeps it to about a minute.
"""
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROW = re.compile(r"^\s+(\S+)\s+(-?[0-9.]+)\s+\S+\s+n=\d+$")
EXACT = ["read_hit_ratio", "core.clic_windows", "server.avg_drained_batch",
         "net.bytes_per_req"]
# (workload, stream length, two open-loop rates in req/s). The tpcc
# stream is long enough for every shard to close a CLIC window.
CASES = [("tpcc-clic-wire", "600000", ["250000", "1000000"]),
         ("tpch-lru-wire-b8", "300000", ["50000", "200000"])]


def run(workload, requests, rate):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", "1",
           "--requests", requests, "--ol-rate", rate]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("FAIL: %s exited %d\n%s" % (" ".join(cmd), out.returncode,
                                               out.stderr[-4000:]))
    rows = {}
    for line in out.stdout.splitlines():
        m = ROW.match(line)
        if m:
            rows[m.group(1)] = m.group(2)
    return rows


def main():
    failed = False
    for workload, requests, rates in CASES:
        runs = [run(workload, requests, rate) for rate in rates]
        for name in EXACT:
            values = [r.get(name) for r in runs]
            if None in values or len(set(values)) != 1:
                failed = True
                print("FAIL %s %s differs across open-loop rates %s: %s" %
                      (workload, name, rates, values))
            else:
                print("ok   %s %s = %s at rates %s" %
                      (workload, name, values[0], rates))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
