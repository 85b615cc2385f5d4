"""Host-time benchmark of the sentinel read-retry pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload fit-measure-qlc --seed 1 \\
        --seconds 30 --trace 0

Each run sets the workload up, runs one untimed warm-up round, then
repeats whole rounds of fit + measure + serve for ``--seconds`` (at
least three timed rounds; no round is started that would end past the
budget), checks every round's outputs, and
prints one JSON object as its last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` is the separate traced run: a warm-up and one untraced
round, one round with every layer entry point wrapped in a span, and one
serving stage with ``repro.obs`` tracer, metrics and spans on; it reports
the per-layer metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: fresh-interpreter set-ups timed per run (median reported)
SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT_S = 120
#: timed rounds per run at least (their median is reported)
MIN_ROUNDS = 3
#: reference-kernel repetitions per speed probe (their median is used)
SPEED_PROBE_REPS = 3
#: the reference kernel's time at the host's usual speed; corrected host
#: times are seconds at that speed
REF_KERNEL_S = 0.022
#: tracer ring size for the observability pass (no event may be dropped)
OBS_CAPACITY = 4_000_000

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fit_labels_per_s", "1/s"),
    ("measure_reads_per_s", "1/s"),
    ("serve_requests_per_s", "1/s"),
    ("sim_retries_per_read", "retries/read"),
    ("sim_read_mean_us", "us"),
    ("sim_read_p99_us", "us"),
    ("sim_write_p99_us", "us"),
)

#: measured retry profiles named in the per-layer metrics
PROFILE_KEYS = tuple(
    f"{policy}.{age}"
    for policy in ("current-flash", "sentinel", "tracking-sentinel",
                   "adaptive-retry", "online-model", "opt")
    for age in ("mid", "old")
) + ("sentinel-warm.old",)

PER_LAYER = (
    ("core.characterize_s", "s"),
    ("core.fit_s", "s"),
    ("core.labels", "count"),
    ("flash.columns_build_s", "s"),
    ("flash.columns_built", "count"),
    ("flash.optimal_s", "s"),
    ("flash.optimal_calls", "count"),
    ("flash.sense_s", "s"),
    ("flash.sense_rows", "count"),
    ("ecc.decode_s", "s"),
    ("ecc.decode_rows", "count"),
    ("retry.policy_self_s", "s"),
    ("ssd.measure_s", "s"),
    ("ssd.measure_reads", "count"),
) + tuple(
    (f"retry.{key}.retries_per_read", "retries/read") for key in PROFILE_KEYS
) + (
    ("service.scrub_scan_s", "s"),
    ("service.scrub_scan_calls", "count"),
    ("service.scrub_refreshed", "count"),
    ("service.cache_entries", "count"),
    ("service.cache_hit_rate", "ratio"),
    ("replay.translate_s", "s"),
    ("replay.pages", "count"),
    ("ssd.events", "count"),
    ("ssd.host_us_per_event", "us/event"),
    ("service.run_s", "s"),
    ("traces.generate_s", "s"),
    ("engine.overhead_s", "s"),
    ("sim.sense_us", "us"),
    ("sim.xfer_ecc_us", "us"),
    ("sim.retry_us", "us"),
    ("sim.queue_us", "us"),
    ("obs.overhead_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.traced_run_s", "s"),
    ("bench.named_layer_share", "ratio"),
) + tuple(
    (f"layer.{layer}_s", "s")
    for layer in ("core", "flash", "ecc", "retry", "ssd", "service",
                  "replay", "traces", "engine", "bench")
)

#: span names whose self time the workload is built to be dominated by
NAMED_LAYERS = {
    "fit-measure-qlc": lambda name: name.split(".")[0] in (
        "core", "flash", "ecc", "retry"),
    "replay-idle": lambda name: name == "service.scrub_scan",
    "serve-mixed": lambda name: name in ("ssd.event_loop", "service.run"),
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def require_source() -> None:
    """Put the checkout's ``src`` on the path; fail without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"perfbench: no repro source tree at {SRC}")
        sys.exit(2)
    sys.path.insert(0, SRC)


def import_pipeline() -> None:
    """Import every module the pipeline runs (part of set-up time)."""
    import repro.core.characterization  # noqa: F401
    import repro.replay.frontend  # noqa: F401
    import repro.service  # noqa: F401
    import repro.tournament.runner  # noqa: F401
    import repro.traces.synthetic  # noqa: F401


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters
# ---------------------------------------------------------------------------
def setup_probe(workload: str, seed: int) -> None:
    """Child mode: import, build the inputs, print seconds since start."""
    import workloads

    import_pipeline()
    workloads.setup(workload, seed)
    print(json.dumps({"setup_s": time.perf_counter() - _T_START}))


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


# ---------------------------------------------------------------------------
# rounds and their checks
# ---------------------------------------------------------------------------
class Tally:
    """Operations attempted and failed: served requests and checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failed_checks = []

    def requests(self, served) -> None:
        self.attempted += served["offered"]
        self.failed += served["offered"] - served["served"]

    def checks(self, results) -> None:
        import checks

        self.attempted += len(results)
        bad = checks.failures(results)
        self.failed += len(bad)
        self.failed_checks.extend(bad)


def check_round(ctx, rnd, first_sim, tally: Tally) -> None:
    import workloads

    tally.requests(rnd["served"])
    tally.checks(workloads.round_checks(ctx, rnd, first_sim))


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------
class _Entry:
    __slots__ = ("stored", "hits")

    def __init__(self, stored: float, hits: int) -> None:
        self.stored = stored
        self.hits = hits


def reference_kernel() -> None:
    """Fixed interpreter and NumPy work that uses no ``repro`` code: scans
    of a dict of small objects, a heap of timestamped entries, sorting
    and searching — the kinds of work the pipeline's layers do."""
    import numpy as np

    values = np.random.default_rng(12345).standard_normal(1 << 15)
    entries = {
        (i & 3, i >> 2, i % 7): _Entry(float(values[i]), i & 15)
        for i in range(4096)
    }
    for tick in range(12):
        due = [
            (e.stored, -e.hits, key) for key, e in entries.items()
            if key[0] == (tick & 3) and tick - e.stored >= -1.0
        ]
        due.sort()
    heap = []
    for i in range(8000):
        heapq.heappush(heap, (float(values[i]), i))
    while heap:
        heapq.heappop(heap)
    for _ in range(2):
        ordered = np.sort(values)
        np.searchsorted(ordered, values[:8192])
        np.cumsum(values)


def speed_probe() -> float:
    """Median time of the reference kernel right now.

    The host's speed drifts by up to a quarter over tens of seconds (other
    tenants share its two CPUs and their caches).  Each timed stage is
    multiplied by ``REF_KERNEL_S`` over the mean of the probes taken just
    before and just after it, so the reported host times are seconds at
    the host's usual speed and the drift largely cancels."""
    times = []
    for _ in range(SPEED_PROBE_REPS):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rates(rnd, corrected: bool = True) -> dict:
    """Host metrics of one round, speed-corrected stage by stage from the
    round's probes (see :func:`speed_probe`) unless ``corrected`` is off."""
    marks = rnd["marks"]
    host = {}
    for i, stage in enumerate(("fit", "measure", "serve")):
        host[stage] = rnd[f"{stage}_s"]
        if corrected:
            host[stage] *= REF_KERNEL_S / ((marks[i] + marks[i + 1]) / 2.0)
    return {
        "run_s": sum(host.values()),
        "fit_labels_per_s": rnd["fit"].optima.size / host["fit"],
        "measure_reads_per_s": sum(
            sum(len(v) for v in p.samples.values())
            for p in rnd["profiles"].values()
        ) / host["measure"],
        "serve_requests_per_s": rnd["served"]["served"] / host["serve"],
    }


def warm_up(ctx, tally: Tally) -> dict:
    """One checked, untimed round: first-use costs (lazy imports, memory
    growth, cold caches) stay out of the timed rounds.  Returns its
    simulated metrics, which every later round must repeat exactly."""
    import workloads

    rnd = workloads.run_round(ctx)
    check_round(ctx, rnd, None, tally)
    log(f"warm-up round: run {rnd['run_s']:.3f} s")
    return workloads.sim_metrics(rnd["served"])


def run_untraced(name: str, seed: int, seconds: float):
    import workloads

    setup_s = measure_setup(name, seed)
    import_pipeline()
    ctx = workloads.setup(name, seed)
    tally = Tally()
    first_sim = warm_up(ctx, tally)
    per_round = []
    raw_rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        gc.collect()  # every round starts from a collected heap
        rnd = workloads.run_round(ctx, between=speed_probe)
        check_round(ctx, rnd, first_sim, tally)
        per_round.append(rates(rnd))
        raw_rounds.append(rates(rnd, corrected=False))
        log(f"round {len(per_round)}: run {rnd['run_s']:.3f} s "
            f"(fit {rnd['fit_s']:.3f}, measure {rnd['measure_s']:.3f}, "
            f"serve {rnd['serve_s']:.3f}); read p50 "
            f"{rnd['served']['read_p50_us']:g} us")
        del rnd
        # stop when another round like the last would overrun the budget
        now = time.perf_counter()
        if (len(per_round) >= MIN_ROUNDS
                and (now - start) + (now - round_start) > seconds):
            break
    metrics = {"setup_s": setup_s}
    for key in per_round[0]:
        metrics[key] = statistics.median(r[key] for r in per_round)
    log("uncorrected host medians: " + json.dumps({
        key: statistics.median(r[key] for r in raw_rounds)
        for key in raw_rounds[0]
    }))
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    metrics.update(first_sim)
    return metrics, tally


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------
def sim_attribution(ctx, profiles, tally: Tally, expected_sim):
    """Serve once with ``repro.obs`` on; critical-path phases per read."""
    import checks
    import workloads
    from repro.obs import OBS
    from repro.obs.spans import assemble, phase_breakdown

    OBS.enable(metrics=True, tracing=True, capacity=OBS_CAPACITY, spans=True)
    OBS.reset()
    try:
        t0 = time.perf_counter()
        outcome = workloads.serve(ctx, profiles)
        serve_s = time.perf_counter() - t0
        events = OBS.tracer.events()
        dropped = OBS.tracer.dropped
    finally:
        OBS.disable()
        OBS.reset()
    served = workloads.summarize_serve(ctx, outcome)
    tally.requests(served)
    tally.checks([
        checks.check_repeat(expected_sim, workloads.sim_metrics(served)),
        None if dropped == 0 else f"tracer dropped {dropped} events",
    ])
    trees = [
        t for t in assemble(events)
        if t.root.name == "request" and t.root.attrs.get("read")
    ]
    del events
    phases = phase_breakdown(trees).phases
    n = max(len(trees), 1)

    def mean(*names):
        return sum(phases.get(p, (0, 0.0))[1] for p in names) / n

    sim = {
        "sim.sense_us": mean("sense"),
        "sim.xfer_ecc_us": mean("xfer_ecc"),
        "sim.retry_us": mean("retry_round", "aux_reads"),
        "sim.queue_us": mean("queue_wait"),
    }
    return sim, serve_s


def run_traced(name: str, seed: int):
    import workloads
    from layertrace import LayerTracer

    import_pipeline()
    ctx = workloads.setup(name, seed)
    tally = Tally()
    expected_sim = warm_up(ctx, tally)
    base = workloads.run_round(ctx)
    check_round(ctx, base, expected_sim, tally)

    tracer = LayerTracer()
    rec = tracer.recorder

    @contextlib.contextmanager
    def stage(span_name):
        index = rec.open(span_name)
        try:
            yield
        finally:
            rec.close(index)

    tracer.install()
    rec.active = True
    try:
        with stage("bench.setup"):
            traced_ctx = workloads.setup(name, seed)
        traced = workloads.run_round(traced_ctx, on_stage=stage)
    finally:
        rec.active = False
        tracer.uninstall()
    check_round(ctx, traced, expected_sim, tally)
    log(f"untraced run {base['run_s']:.3f} s, traced {traced['run_s']:.3f} s")

    sim, obs_serve_s = sim_attribution(ctx, traced["profiles"], tally,
                                       expected_sim)
    totals = rec.totals()

    def get(span, field):
        return totals.get(span, {}).get(field, 0.0)

    def layer_self(pred):
        return sum(row["self_s"] for span, row in totals.items() if pred(span))

    events = rec.counters.get("ssd.events", 0)
    served = traced["served"]
    rpr = {k: p.mean_retries() for k, p in traced["profiles"].items()}
    metrics = {
        "core.characterize_s": get("core.characterize", "self_s"),
        "core.fit_s": get("core.fit", "self_s"),
        "core.labels": get("core.characterize", "count"),
        "flash.columns_build_s": get("flash.columns_build", "self_s"),
        "flash.columns_built": get("flash.columns_build", "count"),
        "flash.optimal_s": get("flash.optimal", "self_s"),
        "flash.optimal_calls": get("flash.optimal", "calls"),
        "flash.sense_s": get("flash.sense", "self_s"),
        "flash.sense_rows": get("flash.sense", "count"),
        "ecc.decode_s": get("ecc.decode", "self_s"),
        "ecc.decode_rows": get("ecc.decode", "count"),
        "retry.policy_self_s": get("retry.policy", "self_s"),
        "ssd.measure_s": get("ssd.measure", "self_s"),
        "ssd.measure_reads": get("ssd.measure", "count"),
    }
    for key in PROFILE_KEYS:
        metrics[f"retry.{key}.retries_per_read"] = rpr.get(key, 0.0)
    metrics.update({
        "service.scrub_scan_s": get("service.scrub_scan", "self_s"),
        "service.scrub_scan_calls": get("service.scrub_scan", "calls"),
        "service.scrub_refreshed": float(
            served["scrub"].get("entries_refreshed", 0)),
        "service.cache_entries": float(served["cache"].get("entries", 0)),
        "service.cache_hit_rate": float(served["cache"].get("hit_rate", 0.0)),
        "replay.translate_s": get("replay.translate", "total_s"),
        "replay.pages": get("replay.translate", "count"),
        "ssd.events": float(events),
        "ssd.host_us_per_event": (
            get("ssd.event_loop", "total_s") * 1e6 / events if events else 0.0
        ),
        "service.run_s": get("service.run", "total_s"),
        "traces.generate_s": get("traces.generate", "total_s"),
        "engine.overhead_s": (
            get("engine.map", "total_s") - get("engine.map", "count")
        ),
    })
    metrics.update(sim)
    metrics["obs.overhead_ratio"] = obs_serve_s / base["serve_s"]
    metrics["bench.trace_overhead_ratio"] = traced["run_s"] / base["run_s"]
    metrics["bench.traced_run_s"] = traced["run_s"]
    metrics["bench.named_layer_share"] = (
        layer_self(NAMED_LAYERS[name]) / traced["run_s"]
    )
    for metric, _ in PER_LAYER:
        if metric.startswith("layer."):
            layer = metric[len("layer."):-len("_s")]
            metrics[metric] = layer_self(
                lambda span, layer=layer: span.split(".")[0] == layer
            )
    return metrics, tally


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    require_source()
    import workloads

    if args.workload not in workloads.workload_specs():
        log(f"perfbench: unknown workload {args.workload!r}; use one of "
            f"{sorted(workloads.workload_specs())}")
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.trace:
        metrics, tally = run_traced(args.workload, args.seed)
        table = PER_LAYER
    else:
        metrics, tally = run_untraced(args.workload, args.seed, args.seconds)
        table = END_TO_END
    for reason in tally.failed_checks:
        log(f"CHECK FAILED: {reason}")
    result = {
        "correct": not tally.failed_checks,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in table
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
