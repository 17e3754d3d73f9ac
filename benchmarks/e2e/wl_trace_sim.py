"""``trace_sim``: trace in, ``SimResult`` out, through the whole stack.

Closed loop by nature: one caller runs the traces back to back and waits
for each.  Open-loop timing has no meaning here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import repro.policy
from repro.cluster import ClusterSpec
from repro.core import GAConfig, PolluxSchedConfig
from repro.sim import SimConfig, Simulator, decision_digest

from . import inputs, stats
from .probe import (
    Report,
    RoundLog,
    cold_rounds,
    core_layers,
    policy_layers,
    quietest,
    round_metrics,
    timed_setups,
    wrap_core,
)
from .tracing import Tracer, span_table


@dataclass(frozen=True)
class TraceSimSize:
    num_traces: int = 3
    mix: Dict[str, int] = field(default_factory=lambda: dict(inputs.TRACE_MIX))
    duration_hours: float = 4.0
    num_nodes: int = 4
    gpus_per_node: int = 4
    ga_population: int = 24
    ga_generations: int = 10
    max_hours: float = 120.0
    #: The cold probe: this many fresh policies, each on a synthetic state
    #: of its own with one job per GPU, before and again after the
    #: simulations (~0.8 s each).
    cold_rounds: int = 72

    @classmethod
    def for_seconds(cls, seconds: float) -> "TraceSimSize":
        # One trace simulates in ~6 s on the reference container.
        return cls(num_traces=max(1, round(seconds / 6.5)))


#: A few jobs on one node: pays numpy/scipy first-call costs during set-up.
_WARMUP = dict(mix={"neumf-movielens": 3}, duration_hours=0.1)


def _install(tracer: Tracer) -> None:
    for module in ("repro.policy.dispatch", "repro.sim.simulator"):
        tracer.wrap(f"{module}:build_cluster_state", "policy.build_state")
        tracer.wrap(f"{module}:apply_decision", "policy.apply_decision")
    for module in ("repro.policy.dispatch", "repro.sim.engine"):
        tracer.wrap(f"{module}:tune_batch_sizes", "policy.tune_batch")
    tracer.wrap("repro.sim.engine:ClusterEngine.run_one_tick", "sim.tick")
    wrap_core(tracer)


def run(seed: int, size: TraceSimSize, tracer: Optional[Tracer] = None) -> Report:
    report = Report()
    cluster = ClusterSpec.homogeneous(size.num_nodes, size.gpus_per_node)
    ga = GAConfig(population_size=size.ga_population, generations=size.ga_generations)
    trace_seeds = [inputs.sub_seed(seed, f"trace-{i}") for i in range(size.num_traces)]
    sim_seeds = [inputs.sub_seed(seed, f"sim-{i}") for i in range(size.num_traces)]

    def make_policy():
        return repro.policy.create(
            "pollux", cluster=cluster, seed=0, config=PolluxSchedConfig(ga=ga)
        )

    def make_traces():
        return [
            inputs.stratified_trace(
                s, layout, size.mix, size.duration_hours, cluster.total_gpus,
                size.gpus_per_node,
            )
            for layout, s in enumerate(trace_seeds)
        ]

    cold_states = inputs.cold_states(cluster, cluster.total_gpus, seed, size.cold_rounds)

    def cold_burst():
        return cold_rounds(make_policy, cold_states, size.cold_rounds)

    bursts = [cold_burst()]
    generate_ms: List[float] = []

    def setup():
        t0 = time.perf_counter()
        traces = make_traces()
        generate_ms.append((time.perf_counter() - t0) * 1000.0)
        warm = inputs.stratified_trace(
            0, 0, _WARMUP["mix"], _WARMUP["duration_hours"], size.gpus_per_node,
            size.gpus_per_node,
        )
        one_node = ClusterSpec.homogeneous(1, size.gpus_per_node)
        Simulator(
            one_node,
            repro.policy.create("pollux", cluster=one_node, seed=0),
            warm,
            SimConfig(seed=0, max_hours=2.0),
        ).run()
        sims = []
        for trace, sim_seed in zip(traces, sim_seeds):
            policy = make_policy()
            log = RoundLog(policy, tracer)
            sim = Simulator(
                cluster, policy, trace, SimConfig(seed=sim_seed, max_hours=size.max_hours)
            )
            sims.append((sim, log))
        return traces, sims

    (traces, sims), setup_s = timed_setups(setup)
    report.e2e["setup_s"] = setup_s
    report.inputs = {
        "hash": inputs.digest(
            [inputs.trace_hash(t) for t in traces]
            + sim_seeds
            + [inputs.state_hash(state) for state in cold_states]
        ),
        "trace_seeds": trace_seeds,
        "sim_seeds": sim_seeds,
        "params": {
            "num_traces": size.num_traces,
            "jobs_per_trace": sum(size.mix.values()),
            "mix": size.mix,
            "duration_hours": size.duration_hours,
            "cluster": f"{size.num_nodes}x{size.gpus_per_node}",
            "ga": f"{size.ga_population}x{size.ga_generations}",
            "cold_probe": f"2 x {size.cold_rounds} rounds, one state each",
        },
    }

    if tracer is not None:
        _install(tracer)
    results = []
    walls: List[float] = []
    roots = []
    try:
        for idx, (sim, _) in enumerate(sims):
            if tracer is None:
                t0 = time.perf_counter()
                results.append(sim.run())
                walls.append(time.perf_counter() - t0)
            else:
                tracer.op = idx
                with tracer.span("sim.run") as root:
                    results.append(sim.run())
                roots.append(root)
                walls.append(root.duration)
    finally:
        if tracer is not None:
            tracer.restore()

    rounds = [rnd for _, log in sims for rnd in log.rounds]
    bursts.append(cold_burst())
    cold, cold_problems = quietest(bursts)
    e2e, layer, samples = round_metrics(rounds + cold)
    report.e2e.update(e2e)
    report.e2e["dispatch_wall_s"] = sum(walls)
    report.layer.update(layer)
    report.samples.update(samples)
    report.samples["dispatch_wall_s"] = len(walls)

    jobs = sum(len(trace) for trace in traces)
    unfinished = sum(result.num_unfinished for result in results)
    report.attempted = jobs
    report.failed = unfinished + len(cold_problems)
    report.problems = cold_problems + [
        f"trace {idx}: {result.num_unfinished} jobs unfinished at max_hours"
        for idx, result in enumerate(results)
        if result.num_unfinished
    ]

    digest = inputs.digest([decision_digest(result) for result in results])
    report.layer.update(
        {
            "sim.avg_jct_h": stats.mean([r.avg_jct() / 3600.0 for r in results]),
            "sim.makespan_h": stats.mean([r.makespan() / 3600.0 for r in results]),
            "sim.restarts_total": float(
                sum(rec.num_restarts for r in results for rec in r.records)
            ),
            "sim.ticks": float(sum(len(r.timeline) for r in results)),
            "sim.sched_rounds": float(len(rounds)),
            "sim.decision_digest": float(int(digest[:12], 16)),
            "workload.generate_inputs_ms": stats.median(generate_ms),
        }
    )
    report.inputs["decision_digest"] = digest

    if tracer is not None:
        _traced_layers(report, tracer, roots, sum(walls), traces, cluster, sim_seeds, size)
    return report


def _traced_layers(report, tracer, roots, wall_s, traces, cluster, sim_seeds, size) -> None:
    layer = report.layer

    layer.update(policy_layers(tracer, wall_s))
    layer.update(core_layers(tracer))
    ticks_ms = tracer.reduce("sim.tick", stats.mean)
    layer["sim.tick_us_mean"] = None if ticks_ms is None else ticks_ms * 1000.0

    table = span_table(tracer.spans, roots)
    report.tables["dispatch_wall_s"] = table
    loop_self = next((r for r in table if r["span"] == "sim.run.self"), None)
    layer["sim.loop_self_share"] = loop_self["share"] if loop_self else None

    # The same traces under a policy that costs nothing: what is left is
    # the engine and the snapshot views.  A core-only change leaves it flat.
    t0 = time.perf_counter()
    for trace, sim_seed in zip(traces, sim_seeds):
        Simulator(
            cluster,
            repro.policy.create("tiresias", cluster=cluster, seed=0),
            trace,
            SimConfig(seed=sim_seed, max_hours=size.max_hours),
        ).run()
    layer["sim.engine_only_wall_s"] = time.perf_counter() - t0
