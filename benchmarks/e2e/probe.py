"""Seam-level observation shared by the four workloads.

Every workload ends in ``Policy.schedule`` calls, whoever makes them (the
simulator, the harness loop, the wall-clock host).  :class:`RoundLog` times
those calls on the policy *instance the harness built*, which needs nothing
below the Policy API and costs two clock reads per round, so it stays on in
untraced runs; the round metrics of the contract come from it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.policy import ClusterState, Policy, ScheduleDecision

from . import spec, stats
from .tracing import Tracer
from .validate import check_allocations


@dataclass
class Round:
    wall_ms: float
    kind: str  # "steady" | "churn" | "cold" | "warmup"
    utility: float
    timings: Dict[str, float]  # the policy's own last_phase_timings, if any
    cache: Optional[Tuple[int, int, int, int, int]]  # cumulative cache counters


@dataclass
class Report:
    """What one workload run hands back to ``run.py``."""

    e2e: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, Optional[float]] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Findings that qualify the numbers without making the run incorrect.
    notes: List[str] = field(default_factory=list)
    inputs: Dict[str, object] = field(default_factory=dict)
    tables: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)


#: The contract's metric per round kind.  Churn and cold rounds come in two
#: modes (the GA's plateau early-exit fires or does not: ~380 vs ~570 ms for
#: a churn round, ~610 vs ~790 ms for a cold one on ``round_dense``) in
#: nearly equal numbers, so their median sits between the modes and jumps
#: from one to the other on noise; the mean does not.
ROUND_METRIC = {
    "steady": "round_steady_ms_p50",
    "churn": "round_churn_ms_mean",
    "cold": "round_cold_ms_mean",
}


def timed_setups(setup: Callable[[], object], repeats: int = 3) -> Tuple[object, float]:
    """Run ``setup`` ``repeats`` times; keep the last result, report the median."""
    walls = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = setup()
        walls.append(time.perf_counter() - t0)
    return result, stats.median(walls)


def wrap_core(tracer: Tracer) -> None:
    """Wrap the ``core`` layer's entry points every traced workload shares.

    Each ``PolluxSched.optimize`` span gets the GA phases the scheduler
    reports as synthetic children; only real re-fits reach
    ``fit_throughput_params`` (``PolluxAgent.fit`` is mostly a no-op);
    ``tune_batch_size`` is called per job per tick, so it is tallied.
    """

    def phases(span, _result, args) -> None:
        timings = getattr(args[0], "last_phase_timings", None) or {}
        tracer.add_phases(
            span,
            {
                f"core.{phase}": timings[f"{phase}_ms"]
                for phase in spec.GA_PHASES
                if f"{phase}_ms" in timings
            },
        )

    tracer.wrap("repro.core.sched:PolluxSched.optimize", "core.optimize", after=phases)
    tracer.wrap("repro.core.agent:fit_throughput_params", "core.agent_fit")
    tracer.wrap(
        "repro.core.agent:PolluxAgent.tune_batch_size", "core.tune_call", tally=True
    )


def core_layers(tracer: Tracer) -> Dict[str, Optional[float]]:
    """The ``core.*`` rows that come from :func:`wrap_core`'s spans."""
    fits = tracer.durations_ms("core.agent_fit")
    tune = tracer.tally("core.tune_call")
    return {
        "core.optimize_ms_p50": tracer.reduce("core.optimize", stats.median),
        "core.agent_fit_ms_p50": tracer.reduce("core.agent_fit", stats.median),
        "core.agent_fits": None if fits is None else float(len(fits)),
        "core.tune_calls": None if tune is None else float(tune[0]),
        "core.tune_call_us_mean": (
            None if tune is None or not tune[0] else tune[1] / tune[0] * 1e6
        ),
    }


def policy_layers(tracer: Tracer, wall_s: float) -> Dict[str, Optional[float]]:
    """``policy.*`` means, and shares of ``wall_s``, from the dispatch spans."""
    layer: Dict[str, Optional[float]] = {
        "policy.apply_decision_ms_mean": tracer.reduce("policy.apply_decision", stats.mean)
    }
    for name in ("policy.build_state", "policy.schedule", "policy.tune_batch"):
        layer[f"{name}_ms_mean"] = tracer.reduce(name, stats.mean)
        total_ms = tracer.reduce(name, sum)
        layer[f"{name}_share"] = None if total_ms is None else total_ms / 1000.0 / wall_s
    return layer


def cache_counters(policy: Policy) -> Optional[Tuple[int, int, int, int, int]]:
    """Cumulative surface-cache counters of a pollux or pollux-sharded policy.

    (hits, misses, evictions, cells_hits, cells_misses), summed over cells;
    None when the policy exposes no such cache (the attribute chain is the
    program's public telemetry today and may go away).
    """
    scheds = getattr(policy, "cell_schedulers", None)
    if scheds is None:
        sched = getattr(policy, "sched", None)
        scheds = () if sched is None else (sched,)
    totals = [0, 0, 0, 0, 0]
    found = False
    for sched in scheds:
        cache_stats = getattr(getattr(sched, "surface_cache", None), "stats", None)
        if cache_stats is None:
            continue
        found = True
        for idx, attr in enumerate(
            ("hits", "misses", "evictions", "cells_hits", "cells_misses")
        ):
            totals[idx] += int(getattr(cache_stats, attr, 0))
    return tuple(totals) if found else None


class RoundLog:
    """Times every ``schedule`` call of one policy instance.

    Rounds are classified from the outside: *churn* when the set of job
    names differs from the previous call's, *steady* otherwise; the caller
    may force a kind (``cold``, ``warmup``) for the next call.  With a
    tracer, each call is also a ``policy.schedule`` span.
    """

    def __init__(self, policy: Policy, tracer: Optional[Tracer] = None):
        self.policy = policy
        self.rounds: List[Round] = []
        self.next_kind: Optional[str] = None
        self._names: Optional[Tuple[str, ...]] = None
        self._tracer = tracer
        self._inner = policy.schedule
        policy.schedule = self._schedule  # type: ignore[method-assign]

    def _schedule(self, now: float, state: ClusterState) -> ScheduleDecision:
        tracer = self._tracer
        if tracer is None:
            t0 = time.perf_counter()
            decision = self._inner(now, state)
            wall = time.perf_counter() - t0
        else:
            with tracer.span("policy.schedule", op=len(self.rounds)) as span:
                decision = self._inner(now, state)
            wall = span.duration
        names = tuple(snap.name for snap in state.jobs)
        kind = self.next_kind or ("steady" if names == self._names else "churn")
        self.next_kind = None
        self._names = names
        self.rounds.append(
            Round(
                wall_ms=wall * 1000.0,
                kind=kind,
                utility=float(self.policy.last_utility),
                timings=dict(getattr(self.policy, "last_phase_timings", None) or {}),
                cache=cache_counters(self.policy),
            )
        )
        return decision


def cold_rounds(
    make_policy: Callable[[], Policy],
    states: Sequence[ClusterState],
    count: int,
    tracer: Optional[Tracer] = None,
) -> Tuple[List[Round], List[str]]:
    """First round of ``count`` freshly built policies, taking ``states`` in turn.

    One more is run first and discarded: the first cold table build after
    other work costs about twice the following ones (966 vs ~270 ms of
    ``table_ms`` on ``round_dense``), whatever ran before, so it measures
    the allocator, not the policy.  Returns the rounds and the validator's
    findings on their decisions.
    """
    rounds: List[Round] = []
    problems: List[str] = []
    for idx in range(-1, count):
        state = states[idx % len(states)]
        policy = make_policy()
        log = RoundLog(policy, tracer)
        log.next_kind = "cold" if idx >= 0 else "warmup"
        try:
            decision = policy.schedule(0.0, state)
        finally:
            policy.close()
        rounds += log.rounds
        active = {snap.name for snap in state.jobs}
        problems += [
            f"cold round {idx}: {p}"
            for p in check_allocations(state.cluster, active, decision.allocations)
        ]
    return rounds, problems


def quietest(
    bursts: Sequence[Tuple[List[Round], List[str]]]
) -> Tuple[List[Round], List[str]]:
    """Of several :func:`cold_rounds` bursts over the same states, the one
    with the lowest mean, and every burst's findings.

    This shared host slows down 1.5-1.8x for seconds to tens of seconds at
    a time, so a burst of a second or two falls wholly inside or outside
    such an episode.  ``trace_sim`` and ``service_live`` run one burst
    before and one after their ~20 s of real work; the lower mean is the
    burst the host left alone.
    """
    rounds, _ = min(
        bursts,
        key=lambda burst: stats.mean([r.wall_ms for r in burst[0] if r.kind == "cold"]),
    )
    return rounds, [problem for _, problems in bursts for problem in problems]


def round_metrics(
    rounds: Sequence[Round],
) -> Tuple[Dict[str, float], Dict[str, Optional[float]], Dict[str, int]]:
    """The contract's round metrics plus the per-kind GA phase and cache rows.

    Cache counters are cumulative per policy, so a kind's delta is summed
    over the rounds of that kind from each round's difference to the one
    before it in the same log (cold rounds start from zero).
    """
    by_kind: Dict[str, List[Round]] = {"steady": [], "churn": [], "cold": []}
    deltas: Dict[str, List[int]] = {k: [0, 0, 0, 0, 0] for k in by_kind}
    previous: Optional[Tuple[int, ...]] = None
    for rnd in rounds:
        if rnd.kind == "cold":
            previous = None
        if rnd.cache is not None and rnd.kind in by_kind:
            base = previous or (0, 0, 0, 0, 0)
            for idx in range(5):
                deltas[rnd.kind][idx] += rnd.cache[idx] - base[idx]
        previous = rnd.cache
        if rnd.kind in by_kind:
            by_kind[rnd.kind].append(rnd)

    e2e: Dict[str, float] = {}
    layer: Dict[str, Optional[float]] = {}
    samples: Dict[str, int] = {}
    for kind, items in by_kind.items():
        name = ROUND_METRIC[kind]
        samples[name] = len(items)
        if items:
            reduce = stats.mean if name.endswith("_mean") else stats.median
            e2e[name] = reduce([r.wall_ms for r in items])
        for phase in spec.GA_PHASES:
            values = [r.timings[f"{phase}_ms"] for r in items if f"{phase}_ms" in r.timings]
            layer[f"core.{phase}_ms_mean.{kind}"] = stats.mean(values) if values else None
        hits, misses, evictions, cells_hits, cells_misses = deltas[kind]
        has_cache = any(r.cache is not None for r in items)
        layer[f"core.cache_hit_frac.{kind}"] = (
            hits / (hits + misses) if has_cache and hits + misses else None
        )
        layer[f"core.cells_hit_frac.{kind}"] = (
            cells_hits / (cells_hits + cells_misses)
            if has_cache and cells_hits + cells_misses
            else None
        )
        layer[f"core.table_builds.{kind}"] = float(misses) if has_cache else None
        layer[f"core.cache_evictions.{kind}"] = float(evictions) if has_cache else None
    warm = by_kind["steady"] + by_kind["churn"]
    samples["round_utility_mean"] = len(warm)
    if warm:
        e2e["round_utility_mean"] = stats.mean([r.utility for r in warm])
    return e2e, layer, samples
