"""Span arithmetic and summary statistics for the benchmark.

Pure functions with no dependency on baryfed or on a workload, so the
self-tests in ``test_perfbench.py`` can check them on synthetic spans.

A span is a tuple ``(sid, parent, name, start, end, work)``: ``parent`` is
the sid of the enclosing span or ``-1`` for a root, ``name`` is
``"<module>.<function>"`` and ``work`` is a per-call work quantity (bytes,
FLOPs or partition attempts) or ``None``.
"""

from __future__ import annotations

import statistics

SID, PARENT, NAME, START, END, WORK = range(6)
BYTES_PER_FLOAT = 8


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return {
        s[SID]: (s[END] - s[START]) - covered(children.get(s[SID], ()), s[START], s[END])
        for s in spans
    }


def per_function(spans) -> dict[str, dict]:
    """calls, inclusive seconds, self seconds and summed work per span name."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s[NAME], {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0.0})
        row["calls"] += 1
        row["incl_s"] += s[END] - s[START]
        row["self_s"] += selfs[s[SID]]
        if s[WORK] is not None:
            row["work"] += s[WORK]
    return out


def per_layer(functions: dict[str, dict]) -> dict[str, float]:
    """Self seconds summed over the functions of each module."""
    out: dict[str, float] = {}
    for name, row in functions.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + row["self_s"]
    return out


def coverage(spans) -> float:
    """Share of the root spans' time that lies inside their child spans."""
    roots = {s[SID]: s for s in spans if s[PARENT] == -1}
    total = sum(r[END] - r[START] for r in roots.values())
    if total <= 0.0:
        return 0.0
    selfs = self_times(spans)
    return 1.0 - sum(selfs[sid] for sid in roots) / total


def aggregate_bytes(n_posteriors: int, dim: int) -> int:
    """Computed bytes of one barycenter: K (mean, var) pairs in, one pair out."""
    return (n_posteriors + 1) * dim * 2 * BYTES_PER_FLOAT


def mlp_grad_flops(layer_sizes, batch: int) -> int:
    """Computed FLOPs of one forward and backward pass of the MLP.

    Forward and weight gradients cost 2*n*in*out per layer each; the input
    gradient is propagated through every layer but the first.
    """
    pairs = list(zip(layer_sizes[:-1], layer_sizes[1:]))
    macs = sum(i * o for i, o in pairs)
    return 2 * batch * (2 * macs + sum(i * o for i, o in pairs[1:]))


def useful_ratio(useful: int, calls: int) -> float:
    """Calls whose result the command writes, over calls made."""
    return useful / calls if calls else 0.0
