"""Result collection and summary statistics for simulator runs."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["JobRecord", "TimelineSample", "SimResult", "decision_digest"]


@dataclass(frozen=True)
class JobRecord:
    """Final accounting for one completed (or unfinished) job."""

    name: str
    model: str
    category: str
    submission_time: float
    start_time: Optional[float]
    finish_time: Optional[float]
    gputime: float
    num_restarts: int
    user_configured: bool

    @property
    def jct(self) -> Optional[float]:
        """Completion time in seconds, or None if unfinished."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.submission_time

    @classmethod
    def from_job(cls, job) -> "JobRecord":
        """Final accounting for a host runtime job (SimJob-shaped).

        One construction path shared by every host (simulator, replay,
        threaded), so a new record field cannot silently diverge between
        their results.
        """
        return cls(
            name=job.name,
            model=job.model.name,
            category=job.model.category,
            submission_time=job.submission_time,
            start_time=job.start_time,
            finish_time=job.finish_time,
            gputime=job.gputime,
            num_restarts=job.num_restarts,
            user_configured=job.spec.user_configured,
        )


@dataclass(frozen=True)
class TimelineSample:
    """One sampled instant of cluster-wide state.

    ``seconds`` is the length of the step the sample stands for (a live
    host's steps differ in length); the time averages of
    :class:`SimResult` weight each sample by it.
    """

    time: float
    num_nodes: int
    gpus_in_use: int
    total_gpus: int
    running_jobs: int
    pending_jobs: int
    mean_efficiency: float  # mean stat. efficiency across running jobs
    mean_speedup_utility: float  # UTILITY(A) if provided by the scheduler
    # Per-GPU-type breakdown (aligned tuples; empty for legacy samples).
    gpu_type_names: Tuple[str, ...] = ()
    gpus_in_use_by_type: Tuple[int, ...] = ()
    total_gpus_by_type: Tuple[int, ...] = ()
    seconds: float = 1.0


@dataclass
class SimResult:
    """Everything a simulator run produces."""

    records: List[JobRecord] = field(default_factory=list)
    timeline: List[TimelineSample] = field(default_factory=list)
    node_seconds: float = 0.0
    end_time: float = 0.0
    scheduler_name: str = ""

    # ------------------------------------------------------------------
    # JCT statistics
    # ------------------------------------------------------------------

    def jcts(self, censor: bool = True) -> np.ndarray:
        """JCTs in seconds.

        With ``censor=True`` (default), unfinished jobs contribute their
        *censored* completion time (simulation end minus submission) so that
        a scheduler cannot improve its average JCT by never finishing its
        worst jobs.  With ``censor=False`` only finished jobs count.
        """
        values = []
        for record in self.records:
            if record.jct is not None:
                values.append(record.jct)
            elif censor:
                values.append(self.end_time - record.submission_time)
        return np.array(values, dtype=float)

    @property
    def num_unfinished(self) -> int:
        return sum(1 for r in self.records if r.finish_time is None)

    def avg_jct(self, censor: bool = True) -> float:
        """Average JCT in seconds (censored by default; see :meth:`jcts`)."""
        jcts = self.jcts(censor=censor)
        return float(jcts.mean()) if len(jcts) else float("nan")

    def percentile_jct(self, pct: float, censor: bool = True) -> float:
        """JCT percentile in seconds (censored by default)."""
        jcts = self.jcts(censor=censor)
        return float(np.percentile(jcts, pct)) if len(jcts) else float("nan")

    def makespan(self) -> float:
        """Time from the first submission to the last completion (seconds).

        Unfinished jobs censor the makespan at the simulation end time, so
        a scheduler that abandons jobs is not rewarded.
        """
        if not self.records:
            return 0.0
        first = min(r.submission_time for r in self.records)
        if any(r.finish_time is None for r in self.records):
            return self.end_time - first
        return max(r.finish_time for r in self.records) - first

    # ------------------------------------------------------------------
    # Cluster-level statistics
    # ------------------------------------------------------------------

    def avg_efficiency(self) -> float:
        """Time-averaged mean statistical efficiency of running jobs.

        The paper reports Pollux maintaining ~91 % average statistical
        efficiency vs ~74 % for the baselines (Sec. 5.2.1).
        """
        return _time_average(
            (t.mean_efficiency, t.seconds) for t in self.timeline if t.running_jobs > 0
        )

    def avg_gpu_utilization(self) -> float:
        """Time-averaged fraction of cluster GPUs allocated."""
        return _time_average(
            (t.gpus_in_use / t.total_gpus, t.seconds)
            for t in self.timeline
            if t.total_gpus > 0
        )

    def avg_speedup_utility(self) -> float:
        """Time-averaged UTILITY(A) (Eqn. 17) while jobs were running.

        Only meaningful for schedulers that report a utility (Pollux); 0 for
        the baselines.
        """
        return _time_average(
            (t.mean_speedup_utility, t.seconds)
            for t in self.timeline
            if t.running_jobs > 0
        )

    def per_type_utilization(self) -> Dict[str, float]:
        """Time-averaged GPU utilization per GPU type.

        Aggregates the per-type timeline breakdown by type name (robust to
        the type set changing mid-run under autoscaling).  Empty for runs
        recorded before typed clusters existed.
        """
        used: Dict[str, List[Tuple[float, float]]] = {}
        for sample in self.timeline:
            for name, in_use, total in zip(
                sample.gpu_type_names,
                sample.gpus_in_use_by_type,
                sample.total_gpus_by_type,
            ):
                if total > 0:
                    used.setdefault(name, []).append((in_use / total, sample.seconds))
        return {name: _time_average(vals) for name, vals in used.items()}

    def node_hours(self) -> float:
        """Total node-hours provisioned (the cloud cost proxy, Sec. 5.3.3)."""
        return self.node_seconds / 3600.0

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Headline numbers, in hours where applicable."""
        return {
            "avg_jct_hours": self.avg_jct() / 3600.0,
            "p50_jct_hours": self.percentile_jct(50) / 3600.0,
            "p99_jct_hours": self.percentile_jct(99) / 3600.0,
            "makespan_hours": self.makespan() / 3600.0,
            "avg_efficiency": self.avg_efficiency(),
            "avg_gpu_utilization": self.avg_gpu_utilization(),
            "avg_speedup_utility": self.avg_speedup_utility(),
            "node_hours": self.node_hours(),
            "unfinished_jobs": float(self.num_unfinished),
        }

    def format_summary(self) -> str:
        """Paper-style one-line summary (Table 2 row)."""
        s = self.summary()
        return (
            f"{self.scheduler_name:<24s} avg JCT {s['avg_jct_hours']:.2f}h  "
            f"p99 {s['p99_jct_hours']:.2f}h  makespan {s['makespan_hours']:.2f}h  "
            f"eff {s['avg_efficiency'] * 100.0:.0f}%"
        )


def _time_average(pairs: Iterable[Tuple[float, float]]) -> float:
    """Mean of ``(value, seconds)`` pairs weighted by seconds (nan if none)."""
    pairs = list(pairs)
    if not pairs:
        return float("nan")
    values, weights = zip(*pairs)
    return float(np.average(values, weights=weights))


def decision_digest(result: SimResult) -> str:
    """Hash of the complete decision stream (JCTs, restarts, timeline).

    Two runs with identical digests made bit-for-bit identical scheduling
    decisions: every start/finish time, GPU-time total, restart count, and
    per-tick utilization/efficiency sample hashes in via exact float
    ``repr``.  Used by the pinned tier (the default configuration's digests
    in ``benchmarks/pins.json`` must not move) and by the replay checks (a
    replay of a trace, bare or behind the service, reproduces the
    simulation).
    """
    parts: List[tuple] = []
    for r in result.records:
        parts.append(
            (r.name, repr(r.start_time), repr(r.finish_time), repr(r.gputime),
             r.num_restarts)
        )
    for t in result.timeline:
        parts.append(
            (repr(t.time), t.num_nodes, t.gpus_in_use, t.running_jobs,
             t.pending_jobs, repr(t.mean_efficiency),
             repr(t.mean_speedup_utility), t.gpus_in_use_by_type)
        )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def average_summaries(results: Sequence[SimResult]) -> Dict[str, float]:
    """Average the summary statistics of several runs (multi-seed)."""
    if not results:
        raise ValueError("no results to average")
    keys = results[0].summary().keys()
    return {
        key: float(np.mean([r.summary()[key] for r in results])) for key in keys
    }
