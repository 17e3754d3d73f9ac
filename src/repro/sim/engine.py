"""Cluster mechanism layer behind the simulator and every host backend.

:class:`ClusterEngine` owns everything *mechanical* about driving jobs
on a cluster — the Blox-style mechanism side of the policy/mechanism
split:

- job runtime state (:class:`~repro.sim.job.SimJob`), kept in submission
  order and admitted by a pointer walk; :meth:`ClusterEngine.submit` adds
  a job to the not-yet-admitted tail while the engine runs;
- ground-truth progress: each tick observes running jobs (noisy profiling
  measurements into their agents) and advances them at their true goodput,
  with interference detection and completion interpolation;
- the allocation mechanics: applying per-job allocation vectors with
  checkpoint-restart accounting, resizing the cluster, and the lazily
  rebuilt ``(J, N)`` allocation matrix behind all cluster-level accounting;
- per-tick utilization/efficiency sampling (:class:`~repro.sim.metrics.
  TimelineSample`).

What it deliberately does *not* own is policy dispatch: when scheduling,
autoscaling, and batch-size-tuning events fire is the host's job.  The
discrete-time :class:`~repro.sim.simulator.Simulator` is an engine that
:class:`~repro.host.PolicyHost` drives through
:class:`~repro.host.ReplayBackend` at infinite compression; a standalone
replay drives a fresh engine the same way, optionally paced against the
wall clock, and the live :class:`~repro.host.ThreadedBackend` is the same
engine on a paced clock that accepts submissions while it runs.  There is
one dispatch loop and one tick, so a replay — or a live run over a
preloaded trace without idle gaps — reproduces the simulator's decision
stream on the same trace by construction (``tests/test_host.py`` still
pins it).
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence

import numpy as np

from ..cluster.spec import ClusterSpec, NodeSpec

# No caller left here; the perf-ledger harness (benchmarks/e2e) wraps this
# import-site name, so it stays bound.
from ..policy.dispatch import tune_batch_sizes  # noqa: F401
from ..workload.trace import JobSpec
from .job import SimJob
from .metrics import TimelineSample
from .simconfig import SimConfig

__all__ = ["ClusterEngine"]


class ClusterEngine:
    """Mechanism state for one workload trace on one (resizable) cluster.

    Construction admits nothing: the host admits the jobs due at time 0
    through :meth:`_admit_submitted` when it starts.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        jobs: Sequence[JobSpec],
        config: SimConfig = SimConfig(),
    ):
        self.cluster = cluster
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.now = 0.0
        # Submission-time-ordered bookkeeping: `self.jobs` is sorted by
        # (submission_time, name), so admission is a pointer walk instead
        # of a full rescan each tick, and `_active` drops jobs as they
        # complete.  active_jobs() remains the stateless scan for external
        # callers driving the engine manually.
        self.jobs: List[SimJob] = []
        self._active: List[SimJob] = []
        self._next_submit_idx = 0
        # Jobs ever submitted: the agent-seed counter, which compact()
        # does not rewind.
        self._num_submitted = 0
        # Lazily rebuilt (J_active, N) allocation matrix; `_alloc_version`
        # bumps on any event that can change it (scheduling, resize,
        # completion, admission) and `_alloc_cache` pairs a version with
        # the matrix built at that version.
        self._alloc_version = 0
        self._alloc_cache: Optional[tuple] = None
        self._refresh_type_cache()
        for spec in sorted(jobs, key=lambda s: (s.submission_time, s.name)):
            self.submit(spec)

    def _refresh_type_cache(self) -> None:
        """Cache node speeds and GPU-type structure (change only on resize)."""
        self._node_speeds = self.cluster.node_speeds()
        self._type_ids = self.cluster.node_type_ids()
        self._type_names = tuple(t.name for t in self.cluster.gpu_types)
        self._type_caps = tuple(int(c) for c in self.cluster.type_capacities())
        #: (T, N) 0/1 membership matrix for vectorized per-type GPU sums.
        self._type_masks = (
            self._type_ids[None, :]
            == np.arange(len(self._type_names))[:, None]
        ).astype(np.int64)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec) -> SimJob:
        """Add a job to the not-yet-admitted tail of :attr:`jobs`.

        The tail stays in ``(submission_time, name)`` order; the next
        tick's admission walk admits the job once the clock reaches its
        submission time (at once if that is already past).  The agent
        seed is ``config.seed`` plus the number of jobs submitted before.
        """
        job = SimJob(
            spec,
            self.cluster.num_nodes,
            agent_seed=self.config.seed + self._num_submitted,
            node_speeds=self._node_speeds,
        )
        self._num_submitted += 1
        idx = bisect.bisect_right(
            self.jobs,
            (spec.submission_time, spec.name),
            lo=self._next_submit_idx,
            key=lambda j: (j.submission_time, j.name),
        )
        self.jobs.insert(idx, job)
        return job

    def cancel(self, name: str) -> bool:
        """Cancel an active or not-yet-admitted job by name.

        An active job finishes at the current engine time (allocation
        zeroed and dropped from the active list, as a natural completion
        is); a queued one is dropped before admission, so no host ever
        sees it.  False for unknown or completed jobs.
        """
        for job in self._active:
            if job.name == name:
                job.finish_time = self.now
                job.allocation = np.zeros_like(job.allocation)
                self._active.remove(job)
                self._alloc_version += 1
                return True
        for idx in range(self._next_submit_idx, len(self.jobs)):
            if self.jobs[idx].name == name:
                del self.jobs[idx]
                return True
        return False

    def compact(self) -> List[SimJob]:
        """Drop completed jobs from :attr:`jobs` and return them.

        For hosts that run indefinitely and keep only a bounded history
        of finished jobs; a simulation never compacts.  Only admitted jobs
        can be complete, so the admission pointer moves back by as many.
        """
        done = [job for job in self.jobs[: self._next_submit_idx] if job.complete]
        if done:
            self.jobs = [job for job in self.jobs if not job.complete]
            self._next_submit_idx -= len(done)
        return done

    def active_jobs(self) -> List[SimJob]:
        """Submitted, unfinished jobs."""
        return [
            j
            for j in self.jobs
            if j.submission_time <= self.now and not j.complete
        ]

    def pending_submissions(self) -> bool:
        """Whether the trace still holds not-yet-admitted jobs."""
        return self._next_submit_idx < len(self.jobs)

    def _admit_submitted(self) -> None:
        """Move newly submitted jobs into the active list (in order)."""
        jobs = self.jobs
        idx = self._next_submit_idx
        while idx < len(jobs) and jobs[idx].submission_time <= self.now:
            job = jobs[idx]
            self._active.append(job)
            idx += 1
            self._alloc_version += 1
        self._next_submit_idx = idx

    def idle_gap_ticks(self) -> float:
        """Whole idle ticks until the next pending submission.

        Only meaningful when submissions remain; >= 1 means the engine can
        fast-forward (the next arrival is beyond the current tick).
        """
        next_submit = self.jobs[self._next_submit_idx].submission_time
        return (next_submit - self.now) // self.config.tick_seconds

    def idle_skip(self) -> float:
        """Fast-forward an idle engine to the tick before the next arrival.

        Only meaningful when no job is active and submissions remain; jumps
        ``now`` by whole ticks and returns the seconds skipped (0.0 when
        the next arrival lands within the current tick).  The caller owns
        the consequences: accounting idle node-seconds, re-aligning its
        dispatch timers, and calling :meth:`_admit_submitted`.
        """
        skip = self.idle_gap_ticks()
        if skip < 1:
            return 0.0
        idle = skip * self.config.tick_seconds
        self.now += idle
        return idle

    # ------------------------------------------------------------------
    # Allocation mechanics
    # ------------------------------------------------------------------

    def _alloc_matrix(self, jobs: Sequence[SimJob]) -> np.ndarray:
        """The active jobs' allocations as one (J, N) int matrix.

        Rebuilt only when `_alloc_version` changed since the cached build;
        between scheduling events the same matrix serves every tick's
        cluster-level accounting (node usage, per-type usage, interference
        detection) as single numpy reductions.
        """
        cached = self._alloc_cache
        if cached is not None and cached[0] == self._alloc_version:
            return cached[1]
        if jobs:
            matrix = np.stack([job.allocation for job in jobs])
        else:
            matrix = np.zeros((0, self.cluster.num_nodes), dtype=np.int64)
        self._alloc_cache = (self._alloc_version, matrix)
        return matrix

    def _interference_mask(self, matrix: np.ndarray) -> Optional[np.ndarray]:
        """Boolean (J,) mask of jobs slowed by interference, or None.

        A distributed job is slowed when it shares a node with another
        distributed job (Sec. 5.3.2); computed as array reductions over the
        allocation matrix.
        """
        occupied = matrix > 0
        distributed = occupied.sum(axis=1) >= 2
        if int(distributed.sum()) < 2:
            return None
        sharing = (occupied & distributed[:, None]).sum(axis=0) >= 2  # (N,)
        if not sharing.any():
            return None
        affected = distributed & occupied[:, sharing].any(axis=1)
        return affected

    def _apply_allocations(
        self, allocations, jobs: Sequence[SimJob]
    ) -> None:
        for job in jobs:
            alloc = allocations.get(job.name)
            if alloc is not None:
                job.apply_allocation(alloc, self.now, self.config.restart_delay)
        if allocations:
            self._alloc_version += 1

    def _resize(
        self, num_nodes: int, grow_with: Optional["NodeSpec"] = None
    ) -> None:
        """Grow or shrink the cluster; jobs that lose GPUs restart.

        Every job's allocation vector is reshaped to the new node count
        (dropped nodes truncate from the end, new nodes start empty); a
        restart is counted only when the job actually lost GPUs on dropped
        nodes and still holds some.
        """
        if num_nodes == self.cluster.num_nodes:
            return
        keep = min(self.cluster.num_nodes, num_nodes)
        self.cluster = self.cluster.resized(num_nodes, grow_with=grow_with)
        self._refresh_type_cache()
        self._alloc_version += 1
        for job in self.jobs:
            old_alloc = job.allocation
            lost = int(old_alloc[keep:].sum()) > 0
            new_alloc = np.zeros(num_nodes, dtype=np.int64)
            new_alloc[:keep] = old_alloc[:keep]
            job.allocation = new_alloc
            job.node_speeds = self._node_speeds
            if lost and job.num_gpus > 0:
                job.restart_until = self.now + self.config.restart_delay
                job.num_restarts += 1

    # ------------------------------------------------------------------
    # Ground-truth advancement
    # ------------------------------------------------------------------

    def _observe(self, job: SimJob, slowdown: float) -> None:
        """Feed one noisy ground-truth measurement to the job's agent.

        Lognormal noise on the true iteration time and gradient noise
        scale; phi is decomposed into ``(var, sqr)`` at m0 scale.
        """
        cfg = self.config
        t_iter = job.t_iter_true(slowdown)
        t_obs = t_iter * float(self._rng.lognormal(mean=0.0, sigma=cfg.profile_noise))
        job.agent.record_iteration(
            job.num_nodes_occupied,
            job.num_gpus,
            job.batch_size,
            t_obs,
            speed=job.current_speed,
        )
        phi_obs = job.phi_true() * float(
            self._rng.lognormal(mean=0.0, sigma=cfg.gns_noise)
        )
        # Decompose phi into (var, sqr) at m0 scale: var = phi / m0, sqr = 1.
        job.agent.record_grad_stats(var=phi_obs / job.agent.init_batch_size, sqr=1.0)

    def _advance(self, job: SimJob, dt: float, slowdown: float) -> None:
        """Advance one job across ``[now, now + dt]`` engine seconds.

        GPU-time accounting, restart-window clipping, ground-truth goodput
        integration, and completion interpolation (``finish_time`` lands
        inside the interval, the allocation is zeroed).
        """
        if job.num_gpus == 0:
            return
        job.gputime += job.num_gpus * dt
        run_start = max(self.now, job.restart_until)
        run_time = self.now + dt - run_start
        if run_time <= 0:
            return
        rate = job.goodput_true(slowdown)
        if rate <= 0:
            return
        new_progress = job.progress + rate * run_time
        if new_progress >= job.target:
            remaining = job.target - job.progress
            job.progress = job.target
            job.finish_time = run_start + remaining / rate
            job.allocation = np.zeros_like(job.allocation)
            self._alloc_version += 1
            return
        job.progress = new_progress

    def step_tick(self, profile: bool, seconds: float) -> None:
        """Observe (optionally) and advance every active job by ``seconds``.

        ``profile`` gates agent profiling (hosts pass the policy's
        ``needs_agent`` capability).  Jobs that complete during the tick
        are dropped from the active list.  The engine clock is *not* advanced — sampling
        and clock advancement are separate so hosts control their exact
        interleaving (see :meth:`sample_tick`).
        """
        cfg = self.config
        active = self._active
        matrix = self._alloc_matrix(active)
        affected = (
            self._interference_mask(matrix)
            if cfg.interference_slowdown > 0.0
            else None
        )
        for idx, job in enumerate(active):
            slowdown = (
                cfg.interference_slowdown
                if affected is not None and affected[idx]
                else 0.0
            )
            if (
                profile
                and job.num_gpus > 0
                and self.now >= job.restart_until
            ):
                self._observe(job, slowdown)
            self._advance(job, seconds, slowdown)

        if self._alloc_cache is None or self._alloc_cache[0] != self._alloc_version:
            # A job completed this tick (its allocation was zeroed).
            self._active = [j for j in active if not j.complete]

    def run_one_tick(
        self, profile: bool, utility: float, seconds: float
    ) -> TimelineSample:
        """One complete engine tick of :meth:`repro.host.ReplayBackend.advance`.

        Sequence (order is part of the decision-stream contract):
        observe/advance (:meth:`step_tick`, dropping completed jobs),
        utilization sample, clock advance by ``seconds``, admission at the
        new time.  A simulation steps
        ``config.tick_seconds``; a live host stretches or shortens the step
        before a timer to land on it.  Returns the tick's sample; the
        caller accounts node-seconds (``cluster.num_nodes * seconds`` —
        the cluster cannot change inside a tick).
        """
        self.step_tick(profile, seconds)
        sample = self.sample_tick(utility, seconds)
        self.now += seconds
        self._admit_submitted()
        return sample

    def sample_tick(self, utility: float, seconds: float) -> TimelineSample:
        """Cluster-wide utilization/efficiency sample at the current tick.

        ``utility`` is the policy's last UTILITY(A) telemetry (hosts pass
        ``policy.last_utility``); the engine itself is policy-agnostic.
        ``seconds`` is the length of the step the sample stands for.
        """
        active = self._active
        matrix = self._alloc_matrix(active)
        node_used = matrix.sum(axis=0)
        gpus_in_use = int(node_used.sum())
        running = 0
        pending = 0
        running_efficiencies: List[float] = []
        for job in active:
            if job.num_gpus == 0:
                pending += 1
            elif self.now >= job.restart_until:
                running += 1
                running_efficiencies.append(job.efficiency_true())
        if len(self._type_names) == 1:
            gpus_by_type = (gpus_in_use,)
        else:
            gpus_by_type = tuple(
                int(g) for g in self._type_masks @ node_used
            )
        return TimelineSample(
            time=self.now,
            num_nodes=self.cluster.num_nodes,
            gpus_in_use=gpus_in_use,
            total_gpus=self.cluster.total_gpus,
            running_jobs=running,
            pending_jobs=pending,
            mean_efficiency=(
                float(np.mean(running_efficiencies))
                if running_efficiencies
                else 0.0
            ),
            mean_speedup_utility=float(utility),
            seconds=float(seconds),
            gpu_type_names=self._type_names,
            gpus_in_use_by_type=gpus_by_type,
            total_gpus_by_type=self._type_caps,
        )
