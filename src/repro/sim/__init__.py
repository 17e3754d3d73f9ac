"""Discrete-time cluster simulation (Sec. 5.3)."""

from .engine import ClusterEngine
from .job import JobPhase, SimJob
from .metrics import (
    JobRecord,
    SimResult,
    TimelineSample,
    average_summaries,
    decision_digest,
)
from .simconfig import SimConfig
from .simulator import Simulator

__all__ = [
    "JobPhase",
    "SimJob",
    "JobRecord",
    "SimResult",
    "TimelineSample",
    "average_summaries",
    "decision_digest",
    "ClusterEngine",
    "SimConfig",
    "Simulator",
]
