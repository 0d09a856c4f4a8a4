#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_benchmark.py

1. Contract: every workload, untraced and traced, passes its oracles and
   prints exactly the end-to-end (untraced) or per-layer (traced) metrics
   BENCHMARK.json names, with the units it names.
2. Sensitivity: a fixed busy-wait inside the benchmark's span around
   store.render_top (--slow-layer store.render_top:US; the delay lives only
   in perfbench/, never in src/) must move fleet_history's query latency
   beyond its bound, while offline_report, which never calls the store,
   stays within every bound. Each seed runs plain and then slowed, back to
   back, and the median of the pairs' relative changes is compared.

Exits 0 when both pass.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SLOW = "store.render_top:2000"


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace, extra=()):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        raise SystemExit("FAIL: %s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(lines[-1])


def check_contract(bench, seconds):
    ok = True
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(w["name"], 1, seconds, trace)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            good = (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
                    and got == want)
            print("contract %-15s trace %d: %s" % (w["name"], trace, "ok" if good else "FAIL"))
            if not good:
                print("  missing %s, unexpected %s" % (sorted(set(want) - set(got)),
                                                       sorted(set(got) - set(want))))
            ok = ok and good
    return ok


def check_sensitivity(bench, seeds, seconds):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload, expect_move in (("fleet_history", True), ("offline_report", False)):
        # Each seed runs plain and then slowed, back to back, so a drift in
        # host speed hits both runs of a pair; the pairs' median relative
        # worsening is compared with the metric's bound.
        worse = {}
        for seed in seeds:
            plain = run(workload, seed, seconds, 0)["metrics"]
            slowed = run(workload, seed, seconds, 0, ("--slow-layer", SLOW))["metrics"]
            for name in plain:
                change = (slowed[name]["value"] - plain[name]["value"]) / plain[name]["value"]
                worse.setdefault(name, []).append(
                    change if bounds[name]["better"] == "lower" else -change)
        moved = {name: statistics.median(v) for name, v in worse.items()}
        for name in sorted(moved):
            print("sensitivity %-15s %-13s worse by %+7.1f%% (bound %.0f%%)" %
                  (workload, name, 100 * moved[name], 100 * bounds[name]["bound"]))
        if expect_move:
            latency = max(moved["query_p50_us"], moved["query_p99_us"])
            good = latency > bounds["query_p99_us"]["bound"]
            print("sensitivity: %s query latency %s its bound" %
                  (workload, "left" if good else "did NOT leave"))
        else:
            # setup_s is left out: the slowed span never runs in set-up, and
            # set-up is the noisiest number on a shared host.
            out = [n for n in moved if n != "setup_s" and moved[n] > bounds[n]["bound"]]
            good = not out
            print("sensitivity: %s %s" % (workload, "stayed within every bound" if good
                                          else "left its bound on %s" % out))
        ok = ok and good
    return ok


def main():
    bench = load_benchmark()
    ok = check_contract(bench, 2)
    ok = check_sensitivity(bench, [1, 2, 3, 4, 5], 6) and ok
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
