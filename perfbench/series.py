#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/series.py --seeds 1-10 --out .perfbench_results/a.jsonl
    python3 perfbench/series.py --show .perfbench_results/a.jsonl

Runs ``run.py`` untraced once per (workload, seed) for every workload and
the run length in ``BENCHMARK.json``, one run at a time, appending full
records to ``--out``; then prints, per workload, every end-to-end metric
with unit, median, quartiles and sample counts, plus ``fail_ratio``, and
flags each spread (inter-quartile distance over the median) that is above
a third of the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

from common import (HERE, ROOT, load_spec, quartiles, read_records,
                    relative_spread)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_series(spec, seeds, out) -> int:
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0",
                   "--out", out]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0][:100]}",
                  file=sys.stderr)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
    return 0


def show(records, spec) -> bool:
    """Print the spread table; True when every bounded spread is below
    a third of its bound."""
    steady = True
    plain = [r for r in records if r["trace"] == 0]
    for workload in dict.fromkeys(r["workload"] for r in plain):
        rows = [r for r in plain if r["workload"] == workload]
        ops = [r["attempted"] for r in rows]
        print(f"\n{workload}: {len(rows)} runs, "
              f"{min(ops)}-{max(ops)} ops per run, "
              f"{len(rows[0]['setup_runs_s'])} set-ups per run (setup_s), "
              f"one peak per run (peak_rss_mb)")
        print(f"  {'metric':14s} {'unit':6s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in rows]
            q1, med, q3 = quartiles(values)
            spread = relative_spread(values)
            flag = ""
            if spread > m["bound"] / 3:
                flag = "  above bound/3"
                steady = False
            print(f"  {m['name']:14s} {m['unit']:6s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} {m['bound']:6.3g}{flag}")
        q1, med, q3 = quartiles([r["fail_ratio"] for r in rows])
        print(f"  {'fail_ratio':14s} {'ratio':6s} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g}   (failed ops over attempted, not bounded)")
        probe = [r.get("probe_fail_ratio", 0.0) for r in rows]
        if any(probe):
            q1, med, q3 = quartiles(probe)
            print(f"  {'probe_fail':14s} {'ratio':6s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g}   (untimed known-defect probe, not bounded)")
        silent = sum(r["silent_wrong"] for r in rows)
        print(f"  correct in {sum(r['correct'] for r in rows)}/{len(rows)} "
              f"runs, silent wrong results {silent}")
    return steady


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default=None, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--out", default=None)
    parser.add_argument("--show", default=None,
                        help="only print the table for this record file")
    args = parser.parse_args(argv)
    path = args.show or args.out
    if path is None:
        parser.error("give --out (to run) or --show")
    if args.show is None:
        if args.seeds is None:
            parser.error("--out needs --seeds")
        code = run_series(spec, parse_seeds(args.seeds), args.out)
        if code:
            return code
    steady = show(read_records(path), spec)
    print("\nall bounded spreads below a third of their bound" if steady
          else "\nsome spreads are above a third of their bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
