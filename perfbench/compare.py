#!/usr/bin/env python3
"""Compare two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --out`` (or ``series.py --out``)
appended, one untraced run a line.  Runs of one workload are paired in
the order they were made; run the two sides alternately.  For every
(workload, end-to-end metric) the table gives each side's median and
quartiles, the pairs the change won, and a verdict:

* ``gain``: the change wins at least 9 of 10 pairs (ties count for
  neither side), there are at least ten pairs, the medians differ by
  more than the parent's inter-quartile distance, and the change fails
  no more operations than the parent (see ``failures_rose``);
* ``no regression``: the change's median is no worse than the parent's
  by more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: the parent's own spread is wider than the bound, unless
  every run of the change is better than every run of the parent;
* ``regression``: otherwise.

One more row per workload, ``fail_ratio``, shows failed over attempted
operations and reads ``regression`` when the parent failed none and the
change failed any, ``more failures`` when a larger share of the seeded
inputs fails, else ``no regression``.  Where a side's records hold a
nonzero ``probe_fail_ratio`` (``table-recover``'s untimed known-defect
probe), a row of that name reads ``more failures`` when the change's
median is above the parent's.  ``more failures`` on either row refuses
every ``gain`` on that workload.  Run both sides on the same seeds.

Exits with status 1 when some row reads ``regression``.
"""

from __future__ import annotations

import argparse
import sys

from common import load_spec, quartiles, read_records

MIN_PAIRS_FOR_GAIN = 10
GAIN_SHARE = 0.9


def better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` is strictly better than ``b``."""
    return a > b if direction == "higher" else a < b


def verdict(parent: list, change: list, metric: dict,
            more_failures: bool = False) -> tuple[str, int]:
    direction, bound = metric["better"], metric["bound"]
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    if (not more_failures and len(pairs) >= MIN_PAIRS_FOR_GAIN
            and wins >= GAIN_SHARE * len(pairs)
            and better(cmed, pmed, direction) and abs(cmed - pmed) > p3 - p1):
        return "gain", wins
    if all(better(c, p, direction) for c in change for p in parent):
        return "no regression", wins
    if pmed and (p3 - p1) / abs(pmed) > bound:
        return "unresolved", wins
    worse = (cmed - pmed) if direction == "lower" else (pmed - cmed)
    if worse <= bound * abs(pmed):
        return "no regression", wins
    return "regression", wins


def probe_rose(parent_records, change_records) -> bool:
    """Whether the change's median share of misrecovered known-defect
    probe tables is above the parent's (fixed by the seed, like the
    share of failing inputs)."""
    pf = [r.get("probe_fail_ratio", 0.0) for r in parent_records]
    cf = [r.get("probe_fail_ratio", 0.0) for r in change_records]
    return quartiles(cf)[1] > quartiles(pf)[1]


def failures_rose(parent_records, change_records) -> str | None:
    """How the change's failures compare with the parent's: ``"new"``
    when the parent failed no operation and the change some, ``"more"``
    when the change's median share of failing distinct inputs is above
    the parent's (that share is fixed by the seed, so runs of one seed
    and code agree on it exactly) or ``probe_rose``, else None."""
    if not any(r["failed"] for r in parent_records):
        if any(r["failed"] for r in change_records):
            return "new"
    else:
        pf = [r["input_fail_ratio"] for r in parent_records]
        cf = [r["input_fail_ratio"] for r in change_records]
        if quartiles(cf)[1] > quartiles(pf)[1]:
            return "more"
    return "more" if probe_rose(parent_records, change_records) else None


def compare(parent_records, change_records, spec) -> list[dict]:
    rows = []
    for w in spec["workloads"]:
        name = w["name"]
        par = [r for r in parent_records if r["workload"] == name and r["trace"] == 0]
        chg = [r for r in change_records if r["workload"] == name and r["trace"] == 0]
        if not par or not chg:
            continue
        rose = failures_rose(par, chg)
        for m in spec["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in par]
            cv = [r["metrics"][m["name"]]["value"] for r in chg]
            result, wins = verdict(pv, cv, m, rose is not None)
            rows.append({"workload": name, "metric": m["name"],
                         "unit": m["unit"], "parent": quartiles(pv),
                         "change": quartiles(cv), "wins": wins,
                         "pairs": min(len(pv), len(cv)), "verdict": result})
        pf = [r["failed"] / r["attempted"] for r in par]
        cf = [r["failed"] / r["attempted"] for r in chg]
        rows.append({"workload": name, "metric": "fail_ratio", "unit": "ratio",
                     "parent": quartiles(pf), "change": quartiles(cf),
                     "wins": sum(c < p for p, c in zip(pf, cf)),
                     "pairs": min(len(pf), len(cf)),
                     "verdict": {"new": "regression", "more": "more failures",
                                 None: "no regression"}[rose]})
        pp = [r.get("probe_fail_ratio", 0.0) for r in par]
        cp = [r.get("probe_fail_ratio", 0.0) for r in chg]
        if any(pp) or any(cp):
            rows.append({"workload": name, "metric": "probe_fail_ratio",
                         "unit": "ratio", "parent": quartiles(pp),
                         "change": quartiles(cp),
                         "wins": sum(c < p for p, c in zip(pp, cp)),
                         "pairs": min(len(pp), len(cp)),
                         "verdict": "more failures" if probe_rose(par, chg)
                         else "no regression"})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = load_spec()
    rows = compare(read_records(args.parent), read_records(args.change), spec)
    if not rows:
        print("no workload has untraced runs on both sides")
        return 1
    print(f"{'workload':15s} {'metric':16s} {'unit':5s} "
          f"{'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'wins':>6s}  verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        print(f"{r['workload']:15s} {r['metric']:16s} {r['unit']:5s} "
              f"{p[1]:11.5g} [{p[0]:9.5g}, {p[2]:9.5g}] "
              f"{c[1]:11.5g} [{c[0]:9.5g}, {c[2]:9.5g}] "
              f"{r['wins']:>2d}/{r['pairs']:<2d}  {r['verdict']}")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
