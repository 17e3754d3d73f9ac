"""The ledger's vocabulary: workloads, metrics, units, directions, bounds.

``BENCHMARK.json`` at the repo root is generated from this file
(``python -m benchmarks.e2e.run --write-contract``) and a self-test holds
the two equal.  Names here are cited by later issues: add, never rename.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: How long one run measures, in seconds (the contract's ``run_seconds``).
#: Every workload sizes its fixed work from ``--seconds`` so that the timed
#: region takes about this long on the 2-core reference container.
RUN_SECONDS = 20

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "trace_sim",
        "Trace in, SimResult out: Simulator + pollux with real agents on 16 GPUs; "
        "agent fits, table evictions, batch tuning and engine ticks dominate, the GA is tiny.",
    ),
    (
        "round_dense",
        "One unsharded pollux policy, 512 GPUs / 256 jobs, driven through Policy.schedule: "
        "the dense (P, J, N) GA dominates; agents, simulator and service do nothing.",
    ),
    (
        "round_sharded",
        "pollux-sharded, 8 cells, 2048 GPUs / 1024 jobs: arrival placement, per-cell info "
        "building, thread fan-out on 2 cores and full-width stitching on top of cell GAs.",
    ),
    (
        "service_live",
        "HTTP front door + PolicyHost + ThreadedBackend under an open-loop Poisson submit "
        "stream with a closed-loop reader: the only workload with locks, timers and transport.",
    ),
)
WORKLOAD_NAMES: Tuple[str, ...] = tuple(name for name, _ in WORKLOADS)

# ----------------------------------------------------------------------
# End-to-end metrics: measured with tracing off, one definition for all
# four workloads (the contract wants every run to report every one).
# (name, unit, better, bound).  A metric has one bound for all workloads, so
# the noisiest sets it: run to run on this shared 2-core VM round_dense's
# timings spread 4-13% (it is memory-bound), cold rounds 12-17%, while
# trace_sim and service_live's dispatch_wall_s repeat within 3%.  The
# contract caps bounds at 25%, and a spread over the bound rejects the
# benchmark, hence the timings sit at the cap; LEDGER.json records what was
# measured per workload.
# ----------------------------------------------------------------------

END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    # Everything before the first timed operation: imports + the median of
    # three set-ups (input generation, construction, trace_sim's warm-up
    # mini-simulation) + service_live's fixed warm-up.
    ("setup_s", "s", "lower", 0.25),
    # Wall seconds inside the workload's dispatch calls: sum of
    # Simulator.run() walls (trace_sim; the issue's sim_wall_s), sum of
    # timed Policy.schedule walls (round_*), sum of the host's dispatch-round
    # latencies during the open loop, i.e. the seconds the dispatch lock
    # was held (service_live; read from host.metrics).
    ("dispatch_wall_s", "s", "lower", 0.25),
    # Median Policy.schedule wall over warm rounds whose job set equals
    # the previous round's ...
    ("round_steady_ms_p50", "ms", "lower", 0.25),
    # ... mean over warm rounds whose job set changed (arrivals,
    # departures); a mean because these rounds are bimodal, see probe.py ...
    ("round_churn_ms_mean", "ms", "lower", 0.25),
    # ... and mean first round of freshly built policies, each on a
    # synthetic state of the workload's size, after one discarded: a fresh
    # policy in a warm process.  A mean for the same reason.
    ("round_cold_ms_mean", "ms", "lower", 0.25),
    # Mean policy.last_utility over the warm rounds: stops "faster by
    # searching less".
    ("round_utility_mean", "1", "higher", 0.06),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

#: The issue's end-to-end metrics that exist on one workload only.  The
#: contract cannot carry a metric three workloads have no value for, so they
#: are per-layer rows there; the harness's own ``--check`` gate holds
#: ``avg_jct_h`` to the issue's bound.  The two ``service_live`` latencies
#: (``service.submit_ack_ms_p50``, ``service.submit_to_alloc_ms_p50``) did
#: not repeat within a tenth (12-30% run to run at a fixed seed, at 6/s, 4/s
#: and 3/s, with a 120 or a 240 ms cadence), so they carry no bound, as the
#: issue directs for that case.
NATIVE_BOUNDS: Dict[str, Tuple[str, float]] = {
    "sim.avg_jct_h": ("trace_sim", 0.05),
}

#: Deterministic at a fixed seed: two runs of one seed must agree exactly
#: (``--repeat N --check``).  service_live is excluded: thread timing
#: decides which jobs a round sees.
DETERMINISTIC: Tuple[str, ...] = (
    "round_utility_mean",
    "sim.avg_jct_h",
    "sim.decision_digest",
)
DETERMINISTIC_WORKLOADS: Tuple[str, ...] = ("trace_sim", "round_dense", "round_sharded")

# ----------------------------------------------------------------------
# Per-layer metrics: from the traced run.  (name, unit, better)
# ----------------------------------------------------------------------

ROUND_KINDS: Tuple[str, ...] = ("steady", "churn", "cold")
GA_PHASES: Tuple[str, ...] = ("table", "repair", "fitness", "select", "mutate")
CACHE_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("core.cache_hit_frac", "1", "higher"),
    ("core.cells_hit_frac", "1", "higher"),
    ("core.table_builds", "count", "lower"),
    ("core.cache_evictions", "count", "lower"),
)


def _per_layer() -> List[Tuple[str, str, str]]:
    rows: List[Tuple[str, str, str]] = [
        ("fail_frac", "1", "lower"),
        ("service.submit_to_alloc_ms_p50", "ms", "lower"),
        ("service.submit_ack_ms_p50", "ms", "lower"),
        ("service.submit_to_alloc_ms_p90", "ms", "lower"),
        ("service.submit_ack_ms_p90", "ms", "lower"),
        ("service.submit_to_alloc_sum_s", "s", "lower"),
        ("service.submit_call_ms_p50", "ms", "lower"),
        ("service.http_overhead_ms_p50", "ms", "lower"),
        ("service.process_cpu_s", "s", "lower"),
        ("service.read_ms_p50", "ms", "lower"),
        ("service.reads", "count", "higher"),
        ("service.metrics_render_ms_p50", "ms", "lower"),
        ("service.http_non2xx", "count", "lower"),
        ("service.gen_late_ms_p90", "ms", "lower"),
        ("service.gen_late_ms_max", "ms", "lower"),
        ("host.lock_wait_ms_p50", "ms", "lower"),
        ("host.timer_wait_ms_p50", "ms", "lower"),
        ("host.rounds_to_alloc_p50", "count", "lower"),
        ("host.round_ms_p50", "ms", "lower"),
        ("host.round_ms_p90", "ms", "lower"),
        ("host.round_ms_mean", "ms", "lower"),
        ("host.rounds", "count", "higher"),
        ("host.lock_held_frac", "1", "lower"),
        ("host.round_overrun_frac", "1", "lower"),
        ("host.drain_events_ms_mean", "ms", "lower"),
        ("host.apply_allocations_ms_mean", "ms", "lower"),
        ("policy.build_state_ms_mean", "ms", "lower"),
        ("policy.build_state_share", "1", "lower"),
        ("policy.schedule_ms_mean", "ms", "lower"),
        ("policy.schedule_share", "1", "lower"),
        ("policy.apply_decision_ms_mean", "ms", "lower"),
        ("policy.tune_batch_ms_mean", "ms", "lower"),
        ("policy.tune_batch_share", "1", "lower"),
        ("core.optimize_ms_p50", "ms", "lower"),
    ]
    for kind in ROUND_KINDS:
        rows += [(f"core.{p}_ms_mean.{kind}", "ms", "lower") for p in GA_PHASES]
        rows += [(f"{n}.{kind}", u, b) for n, u, b in CACHE_COUNTERS]
    rows += [
        ("core.agent_fit_ms_p50", "ms", "lower"),
        ("core.agent_fits", "count", "lower"),
        ("core.tune_call_us_mean", "us", "lower"),
        ("core.tune_calls", "count", "lower"),
        ("shard.run_rounds_ms_p50", "ms", "lower"),
        ("shard.stitch_self_ms_p50", "ms", "lower"),
        ("shard.cell_ms_max", "ms", "lower"),
        ("shard.cell_ms_sum", "ms", "lower"),
        ("shard.cell_jobs_imbalance", "1", "lower"),
        ("shard.migrations", "count", "lower"),
        ("shard.fallback_rounds", "count", "lower"),
        ("sim.avg_jct_h", "h", "lower"),
        ("sim.tick_us_mean", "us", "lower"),
        ("sim.ticks", "count", "lower"),
        ("sim.sched_rounds", "count", "lower"),
        ("sim.loop_self_share", "1", "lower"),
        ("sim.engine_only_wall_s", "s", "lower"),
        ("sim.restarts_total", "count", "lower"),
        ("sim.makespan_h", "h", "lower"),
        # First 48 bits of repro.sim.decision_digest over the run's
        # results, as an integer: equal across two runs of one seed iff
        # they made the same decisions.
        ("sim.decision_digest", "hash48", "lower"),
        ("workload.generate_inputs_ms", "ms", "lower"),
        # round_*: the discarded first full-scale round of the process.  It
        # is bimodal run to run (0.6 or 1.5 s on round_dense: page faults on
        # the first table build), which is why it is not part of setup_s.
        ("workload.warmup_round_ms", "ms", "lower"),
        ("trace.overhead_frac", "1", "lower"),
        # A fixed numpy kernel timed before and after the run: the machine's
        # speed at that moment, for reading two runs side by side.
        ("machine.calibration_ms", "ms", "lower"),
    ]
    return rows


PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(_per_layer())
PER_LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}
END_TO_END_UNITS: Dict[str, str] = {name: unit for name, unit, _, _ in END_TO_END}


def contract() -> Dict[str, object]:
    """The exact content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
