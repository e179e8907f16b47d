#!/usr/bin/env python3
"""Steadiness report: runs the benchmark in two sets, back to back, on the
same seeds per workload, and reports for every end-to-end metric the median,
the quartiles and the spread (interquartile distance over the median) of
each set, and how far the median moved from the first set to the second,
both against the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/STEADINESS.md

Run from the root of a checkout. Runs are made one at a time; raw results
are appended to --raw (JSON lines) so that a report can be rebuilt from
them with --from-raw without running anything. Exits 1 when a spread or a
median move exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, set_index):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    start = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    def host(prefix):
        found = [float(line.split()[3]) for line in lines
                 if line.startswith(prefix)]
        return found[0] if found else None
    return {"set": set_index, "workload": workload, "seed": seed,
            "exit": out.returncode, "header": lines[0] if lines else "",
            "elapsed_s": elapsed, "probe_ms": host("# host probe "),
            "steal_pct": host("# host steal "), "result": result}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def values_of(runs, name):
    return [r["result"]["metrics"][name]["value"] for r in runs
            if r["result"].get("metrics", {}).get(name)]


def probes_of(runs):
    return [r["probe_ms"] for r in runs if r.get("probe_ms")]


def report(spec, records):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    sets = sorted({r.get("set", 0) for r in records})
    lines = []
    header = next((r["header"] for r in records if r["header"]), "")
    lines.append("Run header of the first run: `%s`" % header.lstrip("# "))
    lines.append("")
    ok = True
    for w in spec["workloads"]:
        by_set = [[r for r in records
                   if r["workload"] == w["name"] and r.get("set", 0) == s]
                  for s in sets]
        by_set = [runs for runs in by_set if runs]
        if not by_set:
            continue
        for i, runs in enumerate(by_set):
            seeds = sorted(r["seed"] for r in runs)
            failed = [r["seed"] for r in runs if r["exit"] != 0]
            if failed:
                ok = False
            lines.append("### %s, set %d (%d runs, seeds %s%s)" % (
                w["name"], i + 1, len(runs), ",".join(map(str, seeds)),
                ", nonzero exit on seeds %s" % failed if failed else ""))
            lines.append("")
            lines.append("| metric | unit | median | q1 | q3 | spread | "
                         "bound | spread / bound |")
            lines.append("|---|---|---|---|---|---|---|---|")
            for name in bounds:
                values = values_of(runs, name)
                if len(values) < 2:
                    continue
                med, q1, q3, s = spread(values)
                if s > bounds[name]:
                    ok = False
                lines.append("| %s | %s | %.6g | %.6g | %.6g | %.4f | %.2f | "
                             "%.2f |" % (name, units[name], med, q1, q3, s,
                                         bounds[name], s / bounds[name]))
            lines.append("")
            probes = probes_of(runs)
            steal = [r["steal_pct"] for r in runs
                     if r.get("steal_pct") is not None]
            walls = [r["elapsed_s"] for r in runs if "elapsed_s" in r]
            if probes and steal and walls:
                lines.append("Host probe median %.2f ms (%.2f–%.2f); host "
                             "steal median %.2f %% (max %.2f %%); run wall "
                             "time median %.1f s, max %.1f s." % (
                                 statistics.median(probes), min(probes),
                                 max(probes), statistics.median(steal),
                                 max(steal), statistics.median(walls),
                                 max(walls)))
                lines.append("")
        if len(by_set) < 2:
            continue
        lines.append("### %s, median move from set 1 to set 2" % w["name"])
        lines.append("")
        lines.append("| metric | set 1 median | set 2 median | move | bound | "
                     "move / bound |")
        lines.append("|---|---|---|---|---|---|")
        for name in bounds:
            first, second = values_of(by_set[0], name), values_of(by_set[1],
                                                                  name)
            if len(first) < 2 or len(second) < 2:
                continue
            a, b = statistics.median(first), statistics.median(second)
            move = abs(b - a) / a if a else 0.0
            if move > bounds[name]:
                ok = False
            lines.append("| %s | %.6g | %.6g | %+.4f | %.2f | %.2f |" % (
                name, a, b, (b - a) / a if a else 0.0, bounds[name],
                move / bounds[name]))
        first, second = probes_of(by_set[0]), probes_of(by_set[1])
        if first and second:
            a, b = statistics.median(first), statistics.median(second)
            lines.append("| host probe (ms, not gated) | %.6g | %.6g | %+.4f "
                         "| | |" % (a, b, (b - a) / a))
        lines.append("")
    walls = [r["elapsed_s"] for r in records if "elapsed_s" in r]
    if walls:
        runs = 4 + 22 * len(spec["workloads"])
        lines.append("Mean run wall time %.1f s: the %d runs of one "
                     "acceptance pass take about %.0f s, builds aside." % (
                         statistics.mean(walls), runs,
                         runs * statistics.mean(walls)))
        lines.append("")
    return "\n".join(lines), ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="seeds per workload in each set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="restrict to this workload (repeatable)")
    parser.add_argument("--raw", default=".bench_build/steadiness.jsonl")
    parser.add_argument("--from-raw", action="store_true",
                        help="only rebuild the report from --raw")
    parser.add_argument("--out", help="write the markdown report here")
    args = parser.parse_args()

    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    if not args.from_raw:
        os.makedirs(os.path.dirname(os.path.abspath(args.raw)), exist_ok=True)
        with open(args.raw, "a") as raw:
            for set_index in range(args.sets):
                for name in names:
                    for i in range(args.runs):
                        record = run_once(spec, name, args.first_seed + i,
                                          set_index)
                        raw.write(json.dumps(record) + "\n")
                        raw.flush()
                        print("set %d %s seed %d exit %d" % (
                            set_index + 1, name, record["seed"],
                            record["exit"]), file=sys.stderr)
    with open(args.raw) as raw:
        records = [json.loads(line) for line in raw if line.strip()]
    records = [r for r in records if r["workload"] in names]
    text, ok = report(spec, records)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
