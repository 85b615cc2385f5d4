"""The benchmark's three workloads: fit a model, measure profiles, serve.

Each workload runs the pipeline a user runs — fit a sentinel model on the
training die, measure retry profiles on the evaluation die, then serve
requests through the broker — with sizes chosen so that one layer does
most of the host work:

``fit-measure-qlc``
    QLC fit over all twelve training stresses and all six policies
    measured at both ages; a ``usr_0`` replay at twice its recorded rate.
    Flash model, ECC and retry-policy kernels dominate.
``replay-idle``
    A light TLC fit and the cold/warm sentinel profiles, then a
    ``usr_0`` replay at its recorded rate.  The dies idle, the scrubber
    runs several passes per request, and each pass scans the whole
    voltage cache.
``serve-mixed``
    The same light fit and profiles, then ``FlashReadService.run`` on the
    two-client mixed scenario below its shed point, with a closed-loop
    client that keeps the dies busy for the whole run.  The broker's event
    loop dominates.

The chips (training and evaluation die) are fixed, as in every experiment
of the repository; the workload seed drives the trace, the clients and the
broker's retry sampling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import checks

#: chip scale of the policy tournament
CELLS = 8192
SENTINEL_RATIO = 0.02
#: policy names in metric names (``+`` is not a metric-name character)
METRIC_POLICY = {"tracking+sentinel": "tracking-sentinel"}
#: fitted wordlines re-derived by brute force in every round
LABEL_SAMPLE = 3
#: served reads and writes each workload needs for p99s with ten samples
#: beyond them
MIN_SAMPLES = 1000
#: hot logical pages of each mixed-scenario client
FOOTPRINT_PAGES = 2048


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    kind: str
    #: every ``fit_step``-th wordline is fitted at every training stress
    fit_step: int
    #: (policy, age, warm) profiles to measure
    measured: Tuple[Tuple[str, str, bool], ...]
    measure_step: int
    #: "replay" (usr_0 trace) or "mixed" (two synthetic clients)
    serve: str
    requests: int
    #: replay time compression (``ReplayConfig.scale``)
    scale: float = 1.0
    read_iops: float = 0.0
    #: closed-loop requests of the mixed scenario's batch client
    batch_requests: int = 0


def _all_policies() -> Tuple[Tuple[str, str, bool], ...]:
    from repro.tournament.runner import AGE_NAMES, POLICY_NAMES

    return tuple((p, a, False) for p in POLICY_NAMES for a in AGE_NAMES)


def workload_specs() -> Dict[str, WorkloadSpec]:
    sentinel_pair = (("sentinel", "old", False), ("sentinel", "old", True))
    specs = [
        WorkloadSpec("fit-measure-qlc", "qlc", fit_step=8,
                     measured=_all_policies(), measure_step=4,
                     serve="replay", requests=3000, scale=2.0),
        WorkloadSpec("replay-idle", "tlc", fit_step=16,
                     measured=sentinel_pair, measure_step=2,
                     serve="replay", requests=3000),
        WorkloadSpec("serve-mixed", "tlc", fit_step=16,
                     measured=sentinel_pair, measure_step=4,
                     serve="mixed", requests=10000, read_iops=2000.0,
                     batch_requests=24000),
    ]
    return {s.name: s for s in specs}


def profile_key(policy: str, age: str, warm: bool) -> str:
    name = METRIC_POLICY.get(policy, policy) + ("-warm" if warm else "")
    return f"{name}.{age}"


# ---------------------------------------------------------------------------
# set-up: specs and generated inputs
# ---------------------------------------------------------------------------
class Context:
    """Everything a round needs, built once per process by :func:`setup`."""

    def __init__(self, spec: WorkloadSpec, seed: int) -> None:
        from repro.exp.common import training_stresses
        from repro.replay import ReplayConfig
        from repro.service import ServiceConfig, mixed_scenario
        from repro.service import workload as service_workload
        from repro.ssd.config import SsdConfig
        from repro.ssd.timing import NandTiming
        from repro.tournament.runner import cell_spec
        from repro.traces import synthetic

        self.spec = spec
        self.seed = seed
        self.flash = cell_spec(spec.kind, CELLS)
        self.ssd = SsdConfig.for_spec(
            self.flash, channels=2, dies_per_channel=2, blocks_per_die=64
        )
        self.timing = NandTiming()
        self.stresses = training_stresses(spec.kind)
        self.fit_wordlines = range(
            0, self.flash.wordlines_per_block, spec.fit_step
        )
        self.trace = None
        self.clients: List[Any] = []
        self.client_requests: Dict[str, list] = {}
        if spec.serve == "replay":
            self.replay_config = ReplayConfig(scale=spec.scale, workers=1)
            self.trace = synthetic.generate_workload(
                synthetic.MSR_WORKLOADS["usr_0"],
                n_requests=spec.requests, seed=seed,
            )
        else:
            self.service_config = ServiceConfig()
            online, batch = mixed_scenario(
                n_requests=spec.requests,
                read_iops=spec.read_iops,
                footprint_pages=FOOTPRINT_PAGES,
            )
            # the batch client outlasts the reader, so the dies stay busy
            # and idle-gap scrub scans stay a small share of the run
            self.clients = [
                online, replace(batch, n_requests=spec.batch_requests)
            ]
            self.client_requests = {
                c.name: service_workload.generate_requests(c, seed=seed)
                for c in self.clients
            }
        rng = np.random.default_rng(seed)
        n_rows = len(self.stresses) * len(self.fit_wordlines)
        self.label_rows = sorted(
            int(r) for r in rng.choice(n_rows, LABEL_SAMPLE, replace=False)
        )


def setup(name: str, seed: int) -> Context:
    return Context(workload_specs()[name], seed)


# ---------------------------------------------------------------------------
# the three stages
# ---------------------------------------------------------------------------
def fit(ctx: Context):
    from repro.core import characterization
    from repro.exp.common import TRAIN_SEED
    from repro.flash.chip import FlashChip

    chip = FlashChip(ctx.flash, seed=TRAIN_SEED, sentinel_ratio=SENTINEL_RATIO)
    return characterization.characterize_chip(
        chip, blocks=(0,), stresses=ctx.stresses, wordlines=ctx.fit_wordlines,
    )


def measure(ctx: Context, model) -> Dict[str, Any]:
    from repro.service import sentinel_hint_fn
    from repro.tournament import runner

    profiles = {}
    for policy, age, warm in ctx.spec.measured:
        profiles[profile_key(policy, age, warm)] = runner.measure_stress_profile(
            policy,
            ctx.spec.kind,
            runner.cell_stress(ctx.spec.kind, age),
            CELLS,
            SENTINEL_RATIO,
            ctx.spec.measure_step,
            model,
            hint_fn=sentinel_hint_fn(model) if warm else None,
        )
    return profiles


def serve_profiles(ctx: Context, profiles: Dict[str, Any]) -> Dict[str, Any]:
    from repro.service import COLD, WARM

    cold = profiles["sentinel.old"]
    warm = profiles.get("sentinel-warm.old", cold)
    return {COLD: cold, WARM: warm}


def serve(ctx: Context, profiles: Dict[str, Any]) -> Dict[str, Any]:
    """Serve the workload's requests; returns the raw outcome."""
    if ctx.spec.serve == "replay":
        from repro.replay import frontend

        report = frontend.replay_trace(
            ctx.trace,
            spec=ctx.flash,
            ssd_config=ctx.ssd,
            timing=ctx.timing,
            profiles=serve_profiles(ctx, profiles),
            seed=ctx.seed,
            config=ctx.replay_config,
        )
        return {"replay": report}
    from repro.service import FlashReadService

    service = FlashReadService(
        ctx.flash, ctx.ssd, ctx.timing, serve_profiles(ctx, profiles),
        seed=ctx.seed, config=ctx.service_config,
    )
    report = service.run(ctx.clients, scenario="mixed")
    return {"service": service, "report": report}


# ---------------------------------------------------------------------------
# what a round reports
# ---------------------------------------------------------------------------
def summarize_serve(ctx: Context, outcome: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize a replay or a mixed-serving outcome for metrics and checks."""
    if "replay" in outcome:
        rep = outcome["replay"]
        svc = rep.service
        client = svc["clients"][ctx.trace.name]
        hist = {int(k): int(v) for k, v in svc["retry_histogram"].items()}
        acct = rep.accounting
        return {
            "offered": int(acct["offered"]),
            "served": int(acct["served"]),
            "degraded": int(acct["degraded"]),
            "shed": int(acct["shed"]),
            "histogram": hist,
            "reads_served": int(client["read_count"]),
            "writes_served": int(client["write_count"]),
            "read_p50_us": float(client["read_p50_us"]),
            "read_mean_us": float(client["read_mean_us"]),
            "read_p99_us": float(client["read_p99_us"]),
            "write_p99_us": float(client["write_p99_us"]),
            "gc_writes": int(svc["extras"]["gc_writes"]),
            "cache": svc["cache"],
            "scrub": svc["scrub"],
            "reported": {
                "reads": rep.reads, "writes": rep.writes,
                "read_pages": rep.read_pages, "write_pages": rep.write_pages,
            },
        }
    service, report = outcome["service"], outcome["report"]
    reads = np.concatenate([
        np.asarray(a.read_latencies_us, dtype=np.float64)
        for a in service.slo.clients.values()
    ])
    writes = np.concatenate([
        np.asarray(a.write_latencies_us, dtype=np.float64)
        for a in service.slo.clients.values()
    ])
    return {
        "offered": report.issued_total,
        "served": report.served_total,
        "degraded": report.degraded_total,
        "shed": report.shed_total,
        "histogram": dict(report.retry_histogram),
        "reads_served": int(len(reads)),
        "writes_served": int(len(writes)),
        "read_p50_us": float(np.median(reads)),
        "read_mean_us": float(reads.mean()),
        "read_p99_us": float(np.percentile(reads, 99)),
        "write_p99_us": float(np.percentile(writes, 99)),
        "gc_writes": int(report.extras["gc_writes"]),
        "cache": report.cache,
        "scrub": report.scrub,
        "reported": {
            f"{name}.{key}": int(c[field])
            for name, c in report.clients.items()
            for key, field in (("requests", "issued"), ("reads", "read_count"),
                               ("writes", "write_count"))
        },
    }


def sim_metrics(served: Dict[str, Any]) -> Dict[str, float]:
    """Simulated (virtual-time) metrics: identical on repeats at one seed."""
    hist = served["histogram"]
    pages = sum(hist.values())
    return {
        "sim_retries_per_read": sum(k * v for k, v in hist.items()) / pages,
        "sim_read_mean_us": served["read_mean_us"],
        "sim_read_p99_us": served["read_p99_us"],
        "sim_write_p99_us": served["write_p99_us"],
    }


def run_round(ctx: Context, on_stage=None, between=None) -> Dict[str, Any]:
    """Fit, measure and serve once; host times of each stage.

    ``on_stage(name)`` (optional) returns a context manager wrapped around
    each stage — the traced run's stage spans.  ``between()`` (optional)
    runs untimed before the first stage and after each stage; its return
    values are kept in ``"marks"`` (the speed probes of timed rounds)."""
    import contextlib

    stage = on_stage or (lambda name: contextlib.nullcontext())
    mark = between or (lambda: None)
    marks = [mark()]
    times = {}

    def timed(name, work):
        t0 = time.perf_counter()
        with stage(f"bench.{name}"):
            value = work()
        times[f"{name}_s"] = time.perf_counter() - t0
        marks.append(mark())
        return value

    result = timed("fit", lambda: fit(ctx))
    profiles = timed("measure", lambda: measure(ctx, result.model))
    outcome = timed("serve", lambda: serve(ctx, profiles))
    return {
        "fit": result,
        "profiles": profiles,
        "outcome": outcome,
        "served": summarize_serve(ctx, outcome),
        "run_s": sum(times.values()),
        "marks": marks,
        **times,
    }


# ---------------------------------------------------------------------------
# checks of one round
# ---------------------------------------------------------------------------
def expected_labels(ctx: Context, row: int) -> np.ndarray:
    """Brute-force labels of one fitted row (stress-major, wordline-minor)."""
    from repro.exp.common import TRAIN_SEED
    from repro.flash.chip import FlashChip

    n_wl = len(ctx.fit_wordlines)
    stress = ctx.stresses[row // n_wl]
    index = ctx.fit_wordlines[row % n_wl]
    chip = FlashChip(ctx.flash, seed=TRAIN_SEED, sentinel_ratio=SENTINEL_RATIO)
    chip.set_block_stress(0, stress)
    wl = chip.wordline(0, index)
    data = np.ones(len(wl.states), dtype=bool)
    data[wl.sentinel_indices] = False
    spec = ctx.flash
    return np.array([
        checks.brute_force_label(
            wl.vth, wl.states, data, v,
            float(spec.default_read_voltages[v - 1]), spec.state_pitch,
        )
        for v in range(1, spec.n_voltages + 1)
    ], dtype=np.float64)


def expected_counts(ctx: Context) -> Dict[str, int]:
    """Trace or client counts, from the generated inputs."""
    if ctx.trace is not None:
        return checks.trace_counts(
            ctx.trace.requests, ctx.ssd.page_user_bytes,
            ctx.replay_config.max_pages_per_request,
        )
    out: Dict[str, int] = {}
    for name, requests in ctx.client_requests.items():
        counts = checks.client_counts(requests)
        out[f"{name}.requests"] = len(requests)
        out[f"{name}.reads"] = counts["reads"]
        out[f"{name}.writes"] = counts["writes"]
    return out


def expected_read_pages(ctx: Context) -> int:
    if ctx.trace is not None:
        return expected_counts(ctx)["read_pages"]
    return sum(
        checks.client_counts(r)["read_pages"]
        for r in ctx.client_requests.values()
    )


def round_checks(ctx: Context, rnd: Dict[str, Any],
                 first_sim: Optional[Dict[str, float]]) -> List[Optional[str]]:
    """Every check of one round; ``None`` entries passed."""
    served = rnd["served"]
    optima = rnd["fit"].optima
    results: List[Optional[str]] = [
        checks.check_labels(optima[row], expected_labels(ctx, row))
        for row in ctx.label_rows
    ]
    results.append(checks.check_counts(expected_counts(ctx), served["reported"]))
    read_pages = sum(served["histogram"].values())
    results.append(checks.check_counts(
        {"page_reads": expected_read_pages(ctx) + served["gc_writes"]},
        {"page_reads": read_pages},
    ))
    results.append(checks.check_accounting(
        served["offered"], served["served"], served["degraded"], served["shed"]
    ))
    gray = ctx.flash.gray
    voltages = [len(gray.page_voltages(p))
                for p in range(ctx.flash.pages_per_wordline)]
    results.append(checks.check_floor(
        served["read_p50_us"], checks.read_floor_us(ctx.timing, voltages)
    ))
    for kind in ("reads", "writes"):
        results.append(checks.check_min_samples(
            kind, served[f"{kind}_served"], MIN_SAMPLES
        ))
    rpr = {k: p.mean_retries() for k, p in rnd["profiles"].items()}
    if "current-flash.old" in rpr:
        results.append(checks.check_fewer(
            "sentinel@old", rpr["sentinel.old"],
            "current-flash@old", rpr["current-flash.old"],
        ))
        for policy in ("current-flash", "sentinel"):
            results.append(checks.check_not_decreasing(
                policy, rpr[f"{policy}.mid"], rpr[f"{policy}.old"]
            ))
    if "sentinel-warm.old" in rpr:
        results.append(checks.check_fewer(
            "sentinel-warm@old", rpr["sentinel-warm.old"],
            "sentinel@old", rpr["sentinel.old"],
        ))
    if first_sim is not None:
        results.append(checks.check_repeat(first_sim, sim_metrics(served)))
    return results
