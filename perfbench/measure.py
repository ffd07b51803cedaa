"""Measurement helpers: percentiles, process memory, span self time."""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np


def pct(values, q: float) -> float:
    """Linear-interpolated *q*-th percentile; 0.0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def mean(values) -> float:
    """Arithmetic mean; 0.0 for no samples."""
    return float(np.mean(values)) if len(values) else 0.0


def _vm_hwm_kb(pid: int | str) -> int:
    """Peak resident set (VmHWM) of one process, in KiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list[str]:
    """PIDs of the live direct children of *pid*."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            kids.append(entry)
    return kids


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live children (worker pool,
    shared-memory tracker), in MiB.  Call while the workers live."""
    me = os.getpid()
    total = _vm_hwm_kb(me) + sum(_vm_hwm_kb(p) for p in _children(me))
    return total / 1024.0


def uncovered(start: float, end: float,
              intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` not covered by any of *intervals*."""
    covered, cursor = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            covered += b - a
            cursor = b
    return (end - start) - covered


def self_times(spans) -> list[tuple[str, float]]:
    """``(name, self seconds)`` for every span of one trace.

    A span's self time is its duration minus the part of its interval
    that its child spans cover.  The root (``request``) span's self
    time is named ``residual``: the request time no named layer
    accounts for.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent_id].append((s.start, s.end))
    return [("residual" if s.name == "request" else s.name,
             uncovered(s.start, s.end, children.get(s.span_id, [])))
            for s in spans]
