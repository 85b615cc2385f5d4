"""Layer spans for the traced benchmark run.

The traced run wraps the public entry points of each layer of the
``repro`` package at run time (the package itself is not edited): every
call opens a span, closes it when the call returns, and remembers its
parent, so each layer's *self time* is its spans' durations minus the
part covered by child spans.  Spans stay in memory until the run ends.

A wrapper only records while ``SpanRecorder.active`` is set, so the
benchmark's own correctness checks never land in the attribution.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (owner, attribute, span name, count function or None)
Patch = Tuple[Any, str, str, Optional[Callable[..., float]]]


class SpanRecorder:
    """In-memory span store: ``[name, parent index, t0, t1, count]`` rows."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, int] = {}
        self.active = False
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, 0.0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span stack out of order")

    def bump(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, wall (total) seconds, self seconds, and
        the summed counts of spans not nested in a same-named span."""
        child_s = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, parent, t0, t1, count) in enumerate(self.spans):
            row = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0.0}
            )
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child_s[i]
            if parent < 0 or self.spans[parent][0] != name:
                row["total_s"] += t1 - t0
                row["count"] += count
        return out


def _wrap(recorder: SpanRecorder, name: str, fn: Callable,
          count: Optional[Callable[..., float]]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if count is not None:
            recorder.spans[index][4] = count(args, kwargs, result)
        return result

    return wrapper


def _counting(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.active:
            recorder.bump(name)
        return fn(*args, **kwargs)

    return wrapper


def _rows_arg(args, kwargs, position: int) -> float:
    """Rows a batched kernel touched: its ``rows`` argument, else all."""
    rows = kwargs.get("rows", args[position] if len(args) > position else None)
    return float(args[0].n_wordlines if rows is None else len(rows))


def layer_patches() -> List[Patch]:
    """The layer entry points the traced run wraps, by span name."""
    from repro.core import characterization
    from repro.core.controller import SentinelController
    from repro.ecc.capability import CapabilityEcc
    from repro.engine.parallel import ParallelMap
    from repro.flash import optimal
    from repro.flash.block import BlockColumns
    from repro.flash.wordline import Wordline
    from repro.replay import frontend
    from repro.retry import (
        AdaptiveRetryPolicy,
        CurrentFlashPolicy,
        OnlineModelPolicy,
        OraclePolicy,
        TrackedSentinelPolicy,
    )
    from repro.retry.policy import ReadPolicy
    from repro.service import broker, workload
    from repro.service.voltage_cache import VoltageOffsetCache
    from repro.ssd.events import EventQueue
    from repro.ssd.retry_model import RetryProfile
    from repro.traces import synthetic

    one = lambda a, k, r: 1.0  # noqa: E731 - per-call unit count
    patches: List[Patch] = [
        (characterization, "characterize_chip", "core.characterize",
         lambda a, k, r: float(r.optima.size)),
        (characterization, "fit_difference_polynomial", "core.fit", None),
        (characterization, "fit_linear_correlations", "core.fit", None),
        (BlockColumns, "__init__", "flash.columns_build",
         lambda a, k, r: float(a[0].n_wordlines)),
        (optimal, "optimal_offset", "flash.optimal", one),
        (BlockColumns, "sense_regions_batch", "flash.sense",
         lambda a, k, r: _rows_arg(a, k, 2)),
        (BlockColumns, "read_page_batch", "flash.sense",
         lambda a, k, r: _rows_arg(a, k, 3)),
        (BlockColumns, "sentinel_readout_batch", "flash.sense",
         lambda a, k, r: _rows_arg(a, k, 2)),
        (BlockColumns, "single_voltage_counts", "flash.sense",
         lambda a, k, r: _rows_arg(a, k, 2)),
        (Wordline, "sense_regions", "flash.sense", one),
        (Wordline, "read_page", "flash.sense", one),
        (Wordline, "sentinel_readout", "flash.sense", one),
        (Wordline, "single_voltage_read", "flash.sense", one),
        (CapabilityEcc, "decode_ok", "ecc.decode", one),
        (CapabilityEcc, "decode_ok_batch", "ecc.decode",
         lambda a, k, r: float(len(r))),
        (RetryProfile, "measure", "ssd.measure",
         lambda a, k, r: float(sum(len(v) for v in r.samples.values()))),
        (EventQueue, "run", "ssd.event_loop", None),
        (VoltageOffsetCache, "scrub_candidates", "service.scrub_scan", one),
        (broker.FlashReadService, "run_prepared", "service.run", None),
        (frontend, "replay_trace", "replay.frontend", None),
        (frontend, "translate_trace", "replay.translate",
         lambda a, k, r: float(r[1]["read_pages"] + r[1]["write_pages"])),
        (synthetic, "generate_workload", "traces.generate", None),
        (workload, "generate_requests", "traces.generate", None),
        (broker, "generate_requests", "traces.generate", None),
        (ParallelMap, "run", "engine.map",
         lambda a, k, r: float(a[0].last_report.busy_seconds)),
    ]
    for cls in (ReadPolicy, CurrentFlashPolicy, AdaptiveRetryPolicy,
                OnlineModelPolicy, OraclePolicy, TrackedSentinelPolicy,
                SentinelController):
        for attr in ("read", "read_batch"):
            if attr in vars(cls):
                patches.append((cls, attr, "retry.policy", None))
    return patches


class LayerTracer:
    """Installs the layer wrappers and removes them again."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self._saved: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        from repro.ssd.events import EventQueue

        rec = self.recorder
        for owner, attr, name, count in layer_patches():
            raw = vars(owner)[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(_wrap(rec, name, raw.__func__, count)))
            else:
                setattr(owner, attr, _wrap(rec, name, raw, count))
        raw = vars(EventQueue)["schedule"]
        self._saved.append((EventQueue, "schedule", raw))
        EventQueue.schedule = _counting(rec, "ssd.events", raw)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
