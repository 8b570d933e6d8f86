"""Helpers shared by the benchmark's commands: paths, the metric
definitions in ``BENCHMARK.json`` and order statistics."""

from __future__ import annotations

import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def quantiles(values, n: int) -> list[float]:
    """``statistics.quantiles(values, n=n)`` (its default, exclusive
    method), which needs two values; one value is every quantile."""
    if len(values) == 1:
        return [float(values[0])] * (n - 1)
    return statistics.quantiles(values, n=n)


def deciles(values) -> list[float]:
    """The nine deciles; index 4 is the median, index 8 the 90th
    percentile."""
    return quantiles(values, 10)


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    q1, q2, q3 = quantiles(values, 4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def read_records(path: str) -> list[dict]:
    """Records appended by ``run.py --out`` (one JSON object a line)."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
