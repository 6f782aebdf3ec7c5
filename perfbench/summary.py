"""Summary statistics shared by run.py, compare.py and sweep.py.

Within a run, a list of samples is reduced to a median or a percentile
(linear interpolation between closest ranks). Across runs, the spread of a
metric is the distance between its first and third quartiles, as
statistics.quantiles(values, n=4) gives them, as a share of the median.

Spans are rows [name_index, request, parent, start_ns, end_ns]; a span's
self time is its duration minus the time its child spans cover.
"""

import statistics
from collections import defaultdict


def percentile(values, q):
    """The q-th percentile (0..100) of values, interpolating linearly."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    rank = q / 100.0 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def median(values):
    return percentile(values, 50)


def quartiles(values):
    """(q1, median, q3) exactly as statistics.quantiles(values, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def span_table(names, spans):
    """Per span name: calls, total and self time (ns) and coverage.

    Coverage is the share of the span's time that its children explain.
    """
    child_ns = defaultdict(int)
    for _, _, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    table = {}
    for i, (name, _, _, start, end) in enumerate(spans):
        row = table.setdefault(names[name], {"calls": 0, "total_ns": 0, "child_ns": 0})
        row["calls"] += 1
        row["total_ns"] += end - start
        row["child_ns"] += child_ns[i]
    for row in table.values():
        row["self_ns"] = row["total_ns"] - row["child_ns"]
        row["coverage"] = row["child_ns"] / row["total_ns"] if row["total_ns"] else 0.0
    return table


def per_request_ns(names, spans):
    """Per span name, the summed duration of its spans for each request id."""
    sums = defaultdict(lambda: defaultdict(int))
    for name, request, _, start, end in spans:
        sums[names[name]][request] += end - start
    return sums
