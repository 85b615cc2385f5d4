"""Output checks the benchmark computes apart from the program.

Every checker returns ``None`` when the output passes and a one-line
reason when it does not.  The checkers recompute what they compare from
the program's *inputs* (cell voltages and states, the generated trace and
client requests, the timing constants), not from its derived outputs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np


# ---------------------------------------------------------------------------
# optimal-offset labels, by brute force
# ---------------------------------------------------------------------------
def brute_force_label(vth: np.ndarray, states: np.ndarray, data: np.ndarray,
                      vindex: int, default_v: float, pitch: int) -> int:
    """Optimal offset of read voltage ``vindex`` from realized cells.

    Read voltage ``V_i`` separates states ``i-1`` and ``i``.  At each
    candidate offset in the search window ``[-int(0.85 p), int(0.35 p)]``
    (``p`` the state pitch) the adjacent-state errors are the lower-state
    cells at or above the threshold plus the upper-state cells below it.
    The label is the rounded centre of the connected run of offsets around
    the first minimum whose count stays within ``max(2, 3%)`` of it.
    """
    offsets = np.arange(-int(0.85 * pitch), int(0.35 * pitch) + 1)
    thresholds = default_v + offsets.astype(np.float64)
    lower = vth[data & (states == vindex - 1)]
    upper = vth[data & (states == vindex)]
    errors = np.array([
        int(np.count_nonzero(lower >= t)) + int(np.count_nonzero(upper < t))
        for t in thresholds
    ])
    best_index = int(np.argmin(errors))
    best = int(errors[best_index])
    tolerance = best + max(2.0, 0.03 * best)
    lo = best_index
    while lo > 0 and errors[lo - 1] <= tolerance:
        lo -= 1
    hi = best_index
    while hi + 1 < len(errors) and errors[hi + 1] <= tolerance:
        hi += 1
    return int(round((offsets[lo] + offsets[hi]) / 2.0))


def check_labels(fitted: np.ndarray, expected: np.ndarray) -> Optional[str]:
    """Fitted label row(s) against brute-force recomputation."""
    fitted = np.asarray(fitted, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if fitted.shape != expected.shape:
        return f"label shape {fitted.shape} != {expected.shape}"
    bad = np.flatnonzero(fitted != expected)
    if len(bad):
        i = int(bad[0])
        return (f"{len(bad)} label(s) differ; first at voltage {i + 1}: "
                f"fitted {fitted.flat[i]:g}, brute force {expected.flat[i]:g}")
    return None


# ---------------------------------------------------------------------------
# request and page counts, from the generated inputs
# ---------------------------------------------------------------------------
def trace_counts(requests: Iterable, page_bytes: int,
                 max_pages: int) -> Dict[str, int]:
    """Reads, writes and (capped) pages of block-trace requests."""
    out = {"reads": 0, "writes": 0, "read_pages": 0, "write_pages": 0}
    for req in requests:
        first = req.lba_bytes // page_bytes
        last = (req.lba_bytes + req.size_bytes - 1) // page_bytes
        pages = min(int(last - first + 1), max_pages)
        if req.op == "R":
            out["reads"] += 1
            out["read_pages"] += pages
        else:
            out["writes"] += 1
            out["write_pages"] += pages
    return out


def client_counts(requests: Iterable) -> Dict[str, int]:
    """Reads, writes and pages of generated service requests."""
    out = {"reads": 0, "writes": 0, "read_pages": 0, "write_pages": 0}
    for req in requests:
        kind = "read" if req.is_read else "write"
        out[kind + "s"] += 1
        out[kind + "_pages"] += req.n_pages
    return out


def check_counts(expected: Dict[str, int],
                 reported: Dict[str, int]) -> Optional[str]:
    """Every expected count equals the program's report of it."""
    for key in sorted(expected):
        if int(reported.get(key, -1)) != int(expected[key]):
            return (f"{key}: benchmark counted {expected[key]}, "
                    f"report says {reported.get(key)}")
    return None


# ---------------------------------------------------------------------------
# service properties
# ---------------------------------------------------------------------------
def check_accounting(offered: int, served: int, degraded: int,
                     shed: int) -> Optional[str]:
    """``served + degraded + shed == offered`` with nothing shed or
    degraded (the workloads stay below the shed point, without faults)."""
    if served + degraded + shed != offered:
        return (f"served {served} + degraded {degraded} + shed {shed} "
                f"!= offered {offered}")
    if shed or degraded:
        return f"shed {shed}, degraded {degraded}; expected none"
    return None


def read_floor_us(timing, page_voltages: Sequence[int]) -> float:
    """One sense of the cheapest page plus one transfer."""
    return (timing.t_sense_base_us
            + min(page_voltages) * timing.t_sense_per_voltage_us
            + timing.t_transfer_us)


def check_floor(p50_us: float, floor_us: float) -> Optional[str]:
    if not p50_us >= floor_us:
        return f"read p50 {p50_us:g} us below the device floor {floor_us:g} us"
    return None


def check_min_samples(kind: str, served: int, minimum: int) -> Optional[str]:
    if served < minimum:
        return f"{served} {kind} served; their p99 needs at least {minimum}"
    return None


# ---------------------------------------------------------------------------
# properties of the method
# ---------------------------------------------------------------------------
def check_fewer(name_a: str, a: float, name_b: str,
                b: float) -> Optional[str]:
    """``a`` strictly below ``b`` (retries per read)."""
    if not a < b:
        return f"{name_a} {a:.4f} not below {name_b} {b:.4f}"
    return None


def check_not_decreasing(name: str, younger: float,
                         older: float) -> Optional[str]:
    """Retries per read do not fall as the chip ages."""
    if older < younger:
        return f"{name}: retries/read fall with age ({younger:.4f} -> {older:.4f})"
    return None


def check_repeat(first: Dict[str, float],
                 again: Dict[str, float]) -> Optional[str]:
    """Simulated metrics of a repeat at the same seed are identical."""
    for key in sorted(first):
        if first[key] != again.get(key):
            return f"{key} changed on repeat: {first[key]!r} -> {again.get(key)!r}"
    return None


def failures(results: List[Optional[str]]) -> List[str]:
    return [r for r in results if r is not None]
