"""Shared run configuration of every engine-backed host."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SimConfig"]


@dataclass(frozen=True)
class SimConfig:
    """Simulator parameters (defaults follow Sec. 5.1).

    Consumed by every host of the :class:`~repro.sim.engine.ClusterEngine`
    mechanism layer: the discrete-time :class:`~repro.sim.simulator.
    Simulator`, the wall-clock replay (:class:`~repro.host.ReplayBackend`)
    and the live cluster (:class:`~repro.host.ThreadedBackend`, which maps
    its :class:`~repro.host.ThreadedConfig` onto one).

    Every ``agent_interval`` Pollux jobs re-tune their batch size by the
    argmax of Eqn. 13 over a geometric batch-size grid on their own
    placement (:func:`repro.policy.dispatch.tune_batch_sizes`), memoized
    per agent while theta and the bucketed phi hold; the grid density is
    ``repro.core.agent.TABLE_TUNING_POINTS_PER_OCTAVE``.  Against the
    paper's per-tick golden-section maximization the grid chooses batch
    sizes within one ~2% grid step, and the last measured seed-averaged
    avg-JCT delta was -0.4% over 6 seeds at paper scale (historical table
    in ``docs/operating.md``) at ~6x less per tick.
    """

    tick_seconds: float = 30.0
    scheduling_interval: float = 60.0
    agent_interval: float = 30.0
    restart_delay: float = 30.0
    interference_slowdown: float = 0.0
    max_hours: float = 200.0
    profile_noise: float = 0.03
    gns_noise: float = 0.10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")
        if self.scheduling_interval < self.tick_seconds:
            raise ValueError("scheduling_interval must be >= tick_seconds")
        if self.agent_interval <= 0:
            raise ValueError("agent_interval must be positive")
        if not (0.0 <= self.interference_slowdown < 1.0):
            raise ValueError("interference_slowdown must be in [0, 1)")
        if self.max_hours <= 0:
            raise ValueError("max_hours must be positive")
