"""ThreadedBackend: the live in-process cluster.

The paper's scheduler runs as a service against jobs submitted while it
runs (Sec. 5).  This backend is the simulator's engine on a paced clock:
a :class:`~repro.host.replay.ReplayBackend` with ``finite = False``.
Jobs are submitted live from any thread (:meth:`ThreadedBackend.submit`)
and the next engine tick admits them, or pre-loaded as a trace.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

from ..cluster.spec import ClusterSpec
from ..sim.simconfig import SimConfig
from ..workload.trace import JobSpec
from .replay import ReplayBackend

__all__ = ["ThreadedConfig", "ThreadedBackend"]


@dataclass(frozen=True)
class ThreadedConfig:
    """Parameters of the in-process live cluster.

    ``time_scale`` is host seconds per wall second (``time_scale=600`` runs
    the paper's 60 s scheduling cadence every 100 ms of wall clock).
    ``quantum_seconds`` is the engine tick in wall seconds: a tick is
    ``quantum_seconds * time_scale`` host seconds, at least the simulator's
    30 s (each tick profiles every running job once) and at most the
    scheduling interval.
    """

    quantum_seconds: float = 0.05
    time_scale: float = 1.0
    restart_delay: float = 30.0
    scheduling_interval: float = 60.0
    agent_interval: float = 30.0
    profile_noise: float = 0.03
    gns_noise: float = 0.10
    max_hours: float = float("inf")
    seed: int = 0

    def __post_init__(self) -> None:
        if self.quantum_seconds <= 0:
            raise ValueError("quantum_seconds must be positive")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")


class ThreadedBackend(ReplayBackend):
    """Live in-process cluster for a :class:`~repro.host.PolicyHost`.

    ``trace`` pre-loads submissions, each admitted when the host clock
    reaches its ``submission_time``; :meth:`submit` adds more at any point.
    """

    finite = False

    def __init__(
        self,
        cluster: ClusterSpec,
        config: ThreadedConfig = ThreadedConfig(),
        trace: Sequence[JobSpec] = (),
    ):
        # Every field but the two clock settings is a SimConfig field.
        shared = asdict(config)
        tick = shared.pop("quantum_seconds") * shared.pop("time_scale")
        tick = max(tick, SimConfig.tick_seconds)
        shared["tick_seconds"] = min(tick, config.scheduling_interval)
        super().__init__(cluster, trace, SimConfig(**shared), config.time_scale)

    def submit(self, spec: JobSpec) -> None:
        """Queue a job for the engine to admit at ``spec.submission_time``."""
        with self._lock:
            job = self.engine.submit(spec)
            host = self._host
            if host is not None and not host.policy.capabilities.adapts_batch_size:
                job.batch_size = float(spec.fixed_batch_size)
