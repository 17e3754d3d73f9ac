"""Seeded input generators for the four workloads.

Everything the program under test sees is produced here from ``--seed``:
the same seed gives byte-identical inputs (``*_hash`` functions make that
checkable), another seed gives another hash.  The generators are written
so that seeds differ in *which* job lands where and when, not in how much
work a run holds: job counts and the model mix are fixed per workload, so
run-to-run spread measures the program, not the draw.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cluster import ClusterSpec
from repro.core import AgentReport, ThroughputParams
from repro.policy import ClusterState, JobSnapshot, ScheduleDecision
from repro.workload import (
    MODEL_ZOO,
    JobSpec,
    hourly_submission_weights,
    sample_tuned_config,
)

#: Model mix of one ``trace_sim`` trace: the paper's category fractions
#: (Sec. 5.1) at 40 jobs, without the XLarge ImageNet class.  One ImageNet
#: job stretches a 16-GPU makespan from ~6 h to ~27 h, so whether a seed
#: draws 0, 1 or 2 of them would decide the run's wall time and JCT.
TRACE_MIX: Dict[str, int] = {
    "yolov3-voc": 2,
    "deepspeech2-arctic": 8,
    "resnet18-cifar10": 15,
    "neumf-movielens": 15,
}

#: Largest job class of the synthetic round states (the paper's 64-GPU cap).
MAX_GPUS_SEEN = 64

_MODEL_NAMES: Tuple[str, ...] = tuple(sorted(MODEL_ZOO))


def sub_seed(seed: int, label: str) -> int:
    """A stable 32-bit seed derived from ``(seed, label)``."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def digest(parts: Sequence[object]) -> str:
    """sha256 of the ``repr`` of ``parts``: floats hash by their exact repr."""
    return hashlib.sha256(repr(tuple(parts)).encode()).hexdigest()


# ----------------------------------------------------------------------
# trace_sim: stratified Philly-like traces
# ----------------------------------------------------------------------


def stratified_trace(
    seed: int,
    layout: int,
    mix: Dict[str, int],
    duration_hours: float,
    max_gpus: int,
    gpus_per_node: int,
) -> List[JobSpec]:
    """A trace with a fixed model mix, arrival shape and job order.

    Arrivals are one jittered draw per equal-probability slice of the
    paper's hourly submission curve (Fig. 6), and ``layout`` (the trace's
    index in its run, not the seed) fixes which model fills which slot.
    The seed decides the jitter and each job's tuned (GPUs, batch size);
    with the simulator's own noise seed that is enough for two seeds to
    take different decisions from the first re-fit on, while every seed
    simulates the same load.  A seeded model order was tried first: it
    alone moved a run's wall time by 27% and its JCT by 8% between seeds.
    """
    rng = np.random.default_rng(seed)
    names = [name for name in sorted(mix) for _ in range(mix[name])]
    count = len(names)
    order = np.random.default_rng(layout).permutation(count)
    weights = hourly_submission_weights(duration_hours)
    cdf = np.concatenate([[0.0], np.cumsum(weights / weights.sum())])
    quantiles = (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count
    times = np.interp(quantiles, cdf, np.arange(len(cdf))) * 3600.0
    jobs = []
    for idx, time in enumerate(times):
        model = MODEL_ZOO[names[order[idx]]]
        num_gpus, batch_size = sample_tuned_config(
            model, rng, max_gpus, gpus_per_node
        )
        jobs.append(
            JobSpec(
                name=f"job-{idx:04d}",
                model=model,
                submission_time=float(time),
                fixed_num_gpus=num_gpus,
                fixed_batch_size=batch_size,
            )
        )
    return jobs


def trace_hash(trace: Sequence[JobSpec]) -> str:
    return digest(
        [
            (
                spec.name,
                spec.model.name,
                repr(spec.submission_time),
                spec.fixed_num_gpus,
                spec.fixed_batch_size,
            )
            for spec in trace
        ]
    )


# ----------------------------------------------------------------------
# round_*: synthetic fitted reports, steady drift, churn
# ----------------------------------------------------------------------


def _report(profile, progress: float, max_gpus_seen: int, theta=None) -> AgentReport:
    return AgentReport(
        throughput_params=profile.theta_true if theta is None else theta,
        grad_noise_scale=float(profile.gns.phi_scalar(progress)),
        init_batch_size=float(profile.init_batch_size),
        limits=profile.limits,
        max_gpus_seen=max_gpus_seen,
    )


def _scaled_theta(
    theta: ThroughputParams, rng: np.random.Generator, spread: float
) -> ThroughputParams:
    """theta with every time constant scaled by U(1 - spread, 1 + spread).

    gamma is left alone: it is bounded, and the table cost this models (a
    re-fit changes the throughput cells' key) does not depend on which
    component moved.
    """
    vec = theta.as_vector()
    vec[:-1] *= rng.uniform(1.0 - spread, 1.0 + spread, len(vec) - 1)
    return ThroughputParams.from_vector(vec)


def synthetic_state(cluster: ClusterSpec, num_jobs: int, seed: int) -> ClusterState:
    """Active jobs with fitted-looking reports at mixed training moments.

    MODEL_ZOO thetas round-robin, phi at a uniform progress point,
    ``max_gpus_seen`` uniform up to the paper's largest job class, uniform
    attained service up to 8 GPU-hours, nothing allocated yet.
    """
    rng = np.random.default_rng(seed)
    cap = min(MAX_GPUS_SEEN, cluster.total_gpus)
    # Stratified draws: every seed holds the same spread of job sizes,
    # training moments and attained service, dealt to different jobs, so a
    # round's work does not depend on the luck of the draw.
    strata = (np.arange(num_jobs) + rng.uniform(0.0, 1.0, (3, num_jobs))) / num_jobs
    seen = 1 + np.floor(rng.permutation(strata[0]) * cap).astype(int)
    progress = rng.permutation(strata[1])
    gputime = rng.permutation(strata[2]) * 8 * 3600.0
    snaps = []
    for idx in range(num_jobs):
        profile = MODEL_ZOO[_MODEL_NAMES[idx % len(_MODEL_NAMES)]]
        snaps.append(
            JobSnapshot(
                name=f"job-{idx}",
                submission_time=0.0,
                allocation=np.zeros(cluster.num_nodes, dtype=np.int64),
                batch_size=0,
                gputime=float(gputime[idx]),
                agent_report=_report(profile, float(progress[idx]), int(seen[idx])),
            )
        )
    return ClusterState(cluster=cluster, jobs=tuple(snaps))


def cold_states(
    cluster: ClusterSpec, num_jobs: int, seed: int, count: int
) -> List[ClusterState]:
    """``count`` synthetic states for a cold probe to take in turn.

    A fresh policy's first round on a couple of dozen jobs costs 26-42 ms
    depending on the state (how soon the GA's plateau early-exit fires);
    a probe over many states holds the same mixture on every seed.
    """
    return [
        synthetic_state(cluster, num_jobs, sub_seed(seed, f"cold-{idx}"))
        for idx in range(count)
    ]


def steady_state(
    state: ClusterState, decision: ScheduleDecision, round_idx: int
) -> ClusterState:
    """The next steady round: decision fed back, phi drifted 1%·round."""
    drift = 1.0 + 0.01 * round_idx
    jobs = tuple(
        dataclasses.replace(
            snap,
            allocation=decision.allocations[snap.name],
            agent_report=dataclasses.replace(
                snap.agent_report,
                grad_noise_scale=snap.agent_report.grad_noise_scale * drift,
            ),
        )
        for snap in state.jobs
    )
    return ClusterState(cluster=state.cluster, jobs=jobs)


def churn_state(
    state: ClusterState,
    decision: ScheduleDecision,
    round_idx: int,
    rng: np.random.Generator,
    fraction: float = 0.05,
) -> ClusterState:
    """A steady step plus arrivals and re-fits.

    ``fraction`` of the jobs leave and are replaced by fresh arrivals (new
    name, nothing allocated, theta jittered up to 5%, one GPU seen, no
    attained service); another ``fraction`` keep running with theta
    perturbed up to 1%, which is what an agent re-fit looks like to the
    scheduler's caches.
    """
    jobs = list(steady_state(state, decision, round_idx).jobs)
    count = max(1, int(round(fraction * len(jobs))))
    picks = rng.choice(len(jobs), size=2 * count, replace=False)
    zeros = np.zeros(state.cluster.num_nodes, dtype=np.int64)
    for slot, idx in enumerate(picks[:count]):
        profile = MODEL_ZOO[_MODEL_NAMES[int(rng.integers(len(_MODEL_NAMES)))]]
        theta = _scaled_theta(profile.theta_true, rng, 0.05)
        jobs[idx] = JobSnapshot(
            name=f"arrival-{round_idx}-{slot}",
            submission_time=60.0 * round_idx,
            allocation=zeros,
            batch_size=0,
            gputime=0.0,
            agent_report=_report(profile, float(rng.uniform(0.0, 1.0)), 1, theta),
        )
    for idx in picks[count:]:
        report = jobs[idx].agent_report
        jobs[idx] = dataclasses.replace(
            jobs[idx],
            agent_report=dataclasses.replace(
                report,
                throughput_params=_scaled_theta(report.throughput_params, rng, 0.01),
            ),
        )
    return ClusterState(cluster=state.cluster, jobs=tuple(jobs))


def state_hash(state: ClusterState) -> str:
    return digest(
        [
            (
                snap.name,
                snap.allocation.tobytes(),
                repr(snap.gputime),
                snap.agent_report.fingerprint(),
                snap.agent_report.max_gpus_seen,
            )
            for snap in state.jobs
        ]
    )


# ----------------------------------------------------------------------
# service_live: standing jobs and the open-loop submit schedule
# ----------------------------------------------------------------------

STANDING_MODEL = "resnet50-imagenet"
SUBMIT_MODELS: Tuple[Tuple[str, float], ...] = (
    ("neumf-movielens", 0.7),
    ("resnet18-cifar10", 0.3),
)


def standing_trace(count: int) -> List[JobSpec]:
    """Long 1-GPU jobs present from t=0, so the cluster is never empty."""
    model = MODEL_ZOO[STANDING_MODEL]
    return [
        JobSpec(
            name=f"standing-{idx:02d}",
            model=model,
            submission_time=0.0,
            fixed_num_gpus=1,
            fixed_batch_size=int(model.init_batch_size),
        )
        for idx in range(count)
    ]


@dataclass(frozen=True)
class Submit:
    """One ``POST /v1/jobs`` of the open loop, due ``due_s`` after its start."""

    due_s: float
    tenant: str
    name: str
    model: str

    @property
    def job_id(self) -> str:
        return f"{self.tenant}/{self.name}"


def poisson_schedule(
    seed: int, rate_per_s: float, duration_s: float, num_tenants: int = 4
) -> List[Submit]:
    """Poisson arrivals at ``rate_per_s``, conditioned on their count.

    Given its count, a Poisson process's arrival times are uniform order
    statistics; fixing the count at ``rate * duration`` keeps the sample
    size (and the load) identical across seeds.
    """
    rng = np.random.default_rng(seed)
    count = int(round(rate_per_s * duration_s))
    due = np.sort(rng.uniform(0.0, duration_s, count))
    names, probs = zip(*SUBMIT_MODELS)
    models = rng.choice(len(names), size=count, p=np.array(probs))
    tenants = rng.integers(0, num_tenants, size=count)
    return [
        Submit(
            due_s=float(due[idx]),
            tenant=f"team-{int(tenants[idx]):02d}",
            name=f"load-{idx:05d}",
            model=names[int(models[idx])],
        )
        for idx in range(count)
    ]


def schedule_hash(schedule: Sequence[Submit]) -> str:
    return digest([(s.name, s.tenant, s.model, repr(s.due_s)) for s in schedule])
