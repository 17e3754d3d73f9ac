"""``round_dense`` and ``round_sharded``: scheduling rounds through ``Policy.schedule``.

Closed loop: the harness plays the host, calling the next round when the
previous one returned, as the 60 s dispatch timer does.  Protocol per run:
one discarded warm-up round of a fresh policy, the first rounds of ``cold``
fresh policies, each on a synthetic state of its own (the last of them is
the policy that goes on, on the state that goes on), ``steady`` rounds
(previous decision fed back, phi drifting), ``churn`` rounds (the same plus
5% arrivals and 5% re-fits per round).  Every decision is validated between
rounds, outside the timed calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

import repro.policy
from repro.cluster import ClusterSpec
from repro.core import GAConfig, PolluxSchedConfig
from repro.policy import ClusterState, Policy
from repro.shard import UniformCellPartitioner

from . import inputs, stats
from .probe import (
    Report,
    RoundLog,
    cold_rounds,
    core_layers,
    round_metrics,
    timed_setups,
    wrap_core,
)
from .tracing import Tracer, span_table
from .validate import check_allocations


@dataclass(frozen=True)
class RoundsSize:
    num_nodes: int
    gpus_per_node: int
    num_jobs: int
    num_cells: int  # 0: the unsharded ``pollux`` policy
    cold: int
    steady: int
    churn: int
    ga_population: int = 16
    ga_generations: int = 8

    @classmethod
    def dense(cls, seconds: float) -> "RoundsSize":
        # ~0.6 s cold, ~0.4 s steady, ~0.5 s churn on the reference container.
        warm = max(5, round(seconds * 0.9))
        return cls(64, 8, 256, 0, cold=10, steady=warm, churn=warm)

    @classmethod
    def sharded(cls, seconds: float) -> "RoundsSize":
        # ~1.6 s cold, ~0.85 s steady, ~0.93 s churn on the reference container.
        warm = max(5, round(seconds * 0.45))
        return cls(256, 8, 1024, 8, cold=4, steady=warm, churn=warm)


def _install(tracer: Tracer) -> None:
    wrap_core(tracer)
    tracer.wrap(
        "repro.shard.executor:ThreadCellExecutor.run_rounds",
        "shard.run_rounds",
        ambient=True,
    )


def run(seed: int, size: RoundsSize, tracer: Optional[Tracer] = None) -> Report:
    report = Report()
    cluster = ClusterSpec.homogeneous(size.num_nodes, size.gpus_per_node)
    config = PolluxSchedConfig(
        ga=GAConfig(population_size=size.ga_population, generations=size.ga_generations)
    )
    state_seed = inputs.sub_seed(seed, "state")
    churn_seed = inputs.sub_seed(seed, "churn")

    def make_policy() -> Policy:
        if size.num_cells:
            return repro.policy.create(
                "pollux-sharded",
                cluster=cluster,
                config=config,
                seed=0,
                partitioner=UniformCellPartitioner(size.num_cells),
            )
        return repro.policy.create("pollux", cluster=cluster, config=config, seed=0)

    generate_ms: List[float] = []

    def setup():
        t0 = time.perf_counter()
        state = inputs.synthetic_state(cluster, size.num_jobs, state_seed)
        # A fresh policy's first round costs +-13% depending on the state
        # alone (how soon the GA's plateau early-exit fires), so each cold
        # round gets its own and every seed holds a mixture.
        cold_states = inputs.cold_states(cluster, size.num_jobs, seed, size.cold - 1)
        generate_ms.append((time.perf_counter() - t0) * 1000.0)
        return state, cold_states, make_policy()

    (state, cold_states, policy), report.e2e["setup_s"] = timed_setups(setup)
    report.inputs = {
        "hash": inputs.digest([inputs.state_hash(s) for s in [state] + cold_states]),
        "state_seed": state_seed,
        "churn_seed": churn_seed,
        "params": {
            "cluster": f"{size.num_nodes}x{size.gpus_per_node}",
            "jobs": size.num_jobs,
            "cells": size.num_cells,
            "ga": f"{size.ga_population}x{size.ga_generations}",
            "rounds": {"cold": size.cold, "steady": size.steady, "churn": size.churn},
        },
    }

    if tracer is not None:
        _install(tracer)
    problems: List[str] = []
    rng = np.random.default_rng(churn_seed)
    log = RoundLog(policy, tracer)
    decision = None
    try:

        def drive(kind: str, count: int, step: Optional[Callable[..., ClusterState]]):
            nonlocal state, decision
            for _ in range(count):
                idx = len(log.rounds)
                if step is not None and decision is not None:
                    state = step(state, decision, idx)
                log.next_kind = kind
                try:
                    decision = policy.schedule(60.0 * idx, state)
                except Exception as exc:  # a round that raises is a failed op
                    problems.append(f"round {idx} ({kind}): raised {exc!r}")
                    continue
                active = {snap.name for snap in state.jobs}
                problems.extend(
                    f"round {idx} ({kind}): {p}"
                    for p in check_allocations(cluster, active, decision.allocations)
                )

        # Cold rounds first: each policy is dropped before the next is
        # built, so no two full-scale schedulers are alive at once.  The
        # first fresh policy's round is the discarded process warm-up (see
        # cold_rounds), the last cold sample is the first round of the
        # policy that goes on to the steady rounds.
        cold, cold_problems = cold_rounds(make_policy, cold_states, size.cold - 1, tracer)
        problems += cold_problems
        drive("cold", 1, None)
        drive("steady", size.steady, inputs.steady_state)
        drive("churn", size.churn, lambda s, d, i: inputs.churn_state(s, d, i, rng))
    finally:
        policy.close()
        if tracer is not None:
            tracer.restore()

    e2e, layer, samples = round_metrics(log.rounds + cold)
    timed = [r for r in log.rounds + cold if r.kind != "warmup"]
    report.layer["workload.warmup_round_ms"] = cold[0].wall_ms
    report.e2e.update(e2e)
    report.e2e["dispatch_wall_s"] = sum(r.wall_ms for r in timed) / 1000.0
    report.layer.update(layer)
    report.layer["workload.generate_inputs_ms"] = stats.median(generate_ms)
    report.samples.update(samples)
    report.samples["dispatch_wall_s"] = len(timed)
    report.attempted = size.cold + size.steady + size.churn
    bad_rounds = {p.split(":", 1)[0] for p in problems}
    report.failed = len(bad_rounds)
    report.problems = problems

    if size.num_cells:
        _shard_reads(report, policy)
    if tracer is not None:
        _traced_layers(report, tracer, bool(size.num_cells))
    return report


def _shard_reads(report: Report, policy: Policy) -> None:
    layer = report.layer
    round_report = getattr(policy, "last_round_report", None) or {}
    layer["shard.cell_ms_max"] = round_report.get("max", {}).get("total_ms")
    layer["shard.cell_ms_sum"] = round_report.get("sum", {}).get("total_ms")
    migrations = getattr(policy, "migrations", None)
    layer["shard.migrations"] = None if migrations is None else float(migrations)
    fallback = getattr(policy, "fallback_rounds", None)
    layer["shard.fallback_rounds"] = None if fallback is None else float(fallback)
    assignment = getattr(policy, "assignment", None)
    if assignment:
        counts = np.bincount(list(assignment.values()))
        layer["shard.cell_jobs_imbalance"] = float(counts.max() / counts.mean())
    else:
        layer["shard.cell_jobs_imbalance"] = None


def _traced_layers(report: Report, tracer: Tracer, sharded: bool) -> None:
    layer = report.layer
    layer["core.optimize_ms_p50"] = core_layers(tracer)["core.optimize_ms_p50"]
    schedules = [s for s in tracer.spans if s.name == "policy.schedule"]
    # Span ops are round indices in RoundLog order: round 0 of every log is
    # a cold (or the warm-up) round, the main log's 1..steady are steady.
    steady_count = report.samples["round_steady_ms_p50"]
    steady = [s for s in schedules if s.op is not None and 1 <= s.op <= steady_count]
    report.tables["round_steady_ms_p50"] = span_table(tracer.spans, steady)
    if sharded:
        layer["shard.run_rounds_ms_p50"] = tracer.reduce("shard.run_rounds", stats.median)
        by_parent = {
            s.parent: s.duration for s in tracer.spans if s.name == "shard.run_rounds"
        }
        stitch = [
            (s.duration - by_parent[s.id]) * 1000.0 for s in schedules if s.id in by_parent
        ]
        layer["shard.stitch_self_ms_p50"] = stats.median(stitch) if stitch else None
