"""Self-test of the benchmark's checkers: each must reject a perturbed output.

Run from the repository root (about ten seconds)::

    python3 perfbench/selftest.py

It runs a small fit and a short replay, confirms that every checker
accepts the real outputs, then perturbs one output at a time — a label
shifted by one step, an accounting that loses one request, a trace count
off by one, and so on — and confirms the checker rejects it.  Exits 1 on
the first checker that fails to tell the two apart.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def expect(name: str, accepted, rejected) -> bool:
    ok = accepted is None and rejected is not None
    verdict = "ok" if ok else "FAIL"
    print(f"{verdict:4s} {name}: real output "
          f"{'accepted' if accepted is None else 'REJECTED: ' + accepted}; "
          f"perturbed {'REJECTED: ' + rejected if rejected else 'accepted'}")
    return ok


def main() -> int:
    from repro.replay import frontend
    from repro.service import synthetic_profiles
    from repro.traces import synthetic

    ctx = workloads.setup("replay-idle", 0)
    ctx.stresses = ctx.stresses[:2]
    ctx.fit_wordlines = range(0, ctx.flash.wordlines_per_block, 64)
    result = workloads.fit(ctx)
    row = len(ctx.stresses) * len(ctx.fit_wordlines) - 1
    expected = workloads.expected_labels(ctx, row)
    shifted = result.optima[row].copy()
    shifted[ctx.flash.n_voltages // 2] += 1.0

    ctx.trace = synthetic.generate_workload(
        synthetic.MSR_WORKLOADS["usr_0"], n_requests=300, seed=0
    )
    outcome = {"replay": frontend.replay_trace(
        ctx.trace, spec=ctx.flash, ssd_config=ctx.ssd, timing=ctx.timing,
        profiles=synthetic_profiles("tlc"), seed=0, config=ctx.replay_config,
    )}
    served = workloads.summarize_serve(ctx, outcome)
    counts = workloads.expected_counts(ctx)
    off_by_one = dict(served["reported"], reads=served["reported"]["reads"] + 1)
    acct = (served["offered"], served["served"], served["degraded"],
            served["shed"])
    lost = (served["offered"], served["served"] - 1, served["degraded"],
            served["shed"])
    voltages = [len(ctx.flash.gray.page_voltages(p))
                for p in range(ctx.flash.pages_per_wordline)]
    floor = checks.read_floor_us(ctx.timing, voltages)
    sim = workloads.sim_metrics(served)
    drifted = dict(sim, sim_read_p99_us=sim["sim_read_p99_us"] + 1e-9)

    results = [
        expect("labels (one shifted by one step)",
               checks.check_labels(result.optima[row], expected),
               checks.check_labels(shifted, expected)),
        expect("accounting (one request lost)",
               checks.check_accounting(*acct),
               checks.check_accounting(*lost)),
        expect("trace counts (reads off by one)",
               checks.check_counts(counts, served["reported"]),
               checks.check_counts(counts, off_by_one)),
        expect("latency floor (p50 under one sense + transfer)",
               checks.check_floor(served["read_p50_us"], floor),
               checks.check_floor(floor - 1.0, floor)),
        expect("repeat (a sim metric moved)",
               checks.check_repeat(sim, dict(sim)),
               checks.check_repeat(sim, drifted)),
        expect("fewer retries (order swapped)",
               checks.check_fewer("a", 0.5, "b", 1.0),
               checks.check_fewer("a", 1.0, "b", 0.5)),
        expect("retries grow with age (order swapped)",
               checks.check_not_decreasing("p", 0.5, 1.0),
               checks.check_not_decreasing("p", 1.0, 0.5)),
    ]
    if not all(results):
        return 1
    print("all checkers reject their perturbed outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
