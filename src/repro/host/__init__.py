"""The scheduling service: the one dispatch loop of the Policy API.

The paper's scheduler is a *service*, not just a trace simulator: a
periodic optimization loop running against live job state, with per-job
agents reporting asynchronously (Sec. 5).  This package is that service
for the repo's :mod:`repro.policy` interface, following the Blox-style
policy/mechanism split: one fixed loop, many clusters.  The discrete-time
simulator is this loop too — :meth:`repro.sim.Simulator.run` is
``PolicyHost(policy, ReplayBackend.over(sim)).run()`` — so the same
registry-constructed ``Policy`` objects drive a simulation, a trace
replay and a real-time cluster unchanged.

Three pieces:

- :class:`~repro.host.service.PolicyHost` — the dispatch loop.  Builds
  frozen :class:`~repro.policy.views.ClusterState` snapshots at the
  configured cadence (plus lifecycle snapshots on submit/complete
  events), honors :class:`~repro.policy.base.PolicyCapabilities` (agent
  reports only for ``needs_agent`` policies, cadenced ``decide_resize``
  before the same round's ``schedule``, agent-cadence batch re-tuning
  for ``adapts_batch_size``), applies
  :class:`~repro.policy.base.ScheduleDecision`\\ s through the backend
  with restart accounting, and records structured per-round metrics
  (dispatch latency, decisions applied, restarts triggered).  Lifecycle:
  blocking ``run()``, or ``start()`` / ``drain()`` / ``stop()`` around a
  background thread.
- :class:`~repro.host.backend.ClusterBackend` — the mechanism protocol
  (node inventory, active jobs, allocation apply, resize, lifecycle
  events, time).
- One mechanism, two modes: :class:`~repro.host.replay.ReplayBackend`
  replays a recorded trace at a configurable time-compression factor
  through the simulator's :class:`~repro.sim.engine.ClusterEngine` (its
  tick loop is the simulator's), and
  :class:`~repro.host.threaded.ThreadedBackend` is the same engine on a
  paced clock that accepts live submissions from any thread.

Running the live host
---------------------

Schedule live jobs with a real policy in a dozen lines
(``examples/live_scheduler.py`` is the runnable version)::

    import repro.policy
    from repro.cluster import ClusterSpec
    from repro.host import PolicyHost, ThreadedBackend, ThreadedConfig
    from repro.workload import MODEL_ZOO, JobSpec

    cluster = ClusterSpec.homogeneous(4, 4)
    policy = repro.policy.create("pollux", cluster=cluster, seed=0)
    # time_scale=600: one wall-clock second is 10 cluster minutes.
    backend = ThreadedBackend(cluster, ThreadedConfig(time_scale=600.0))

    host = PolicyHost(policy, backend)
    host.start()
    backend.submit(JobSpec("job-0", MODEL_ZOO["resnet18-cifar10"], 0.0, 2, 256))
    ...                      # submit more live, watch host.metrics
    result = host.drain()    # finish queued work, collect accounting
    print(host.metrics.summary())

Deterministic replay
--------------------

Replaying a recorded trace reproduces the simulator's decision stream
**bit-for-bit** — same snapshot-build schedule, same report-call schedule
(only for ``needs_agent`` policies), same RNG streams — because a
simulation *is* a replay: the same host round, the same tick loop, the
same :class:`~repro.sim.engine.ClusterEngine`::

    from repro.host import PolicyHost, ReplayBackend
    from repro.sim import SimConfig, decision_digest

    backend = ReplayBackend(cluster, trace, SimConfig(seed=1))
    result = PolicyHost(policy, backend).run()
    assert decision_digest(result) == decision_digest(simulator_result)

``tests/test_host.py`` pins this for every registered policy.  A finite
``compression`` paces the replay against the wall clock (e.g.
``compression=3600`` replays an hour of trace per second) — useful for
watching a policy behave in "fast real time" before pointing it at live
jobs.

Serving the host
----------------

:mod:`repro.service` puts a multi-tenant HTTP front-end (submit/status/
cancel with quotas) and a Prometheus ``/metrics`` page on top of a
running ``PolicyHost`` — see ``docs/operating.md`` for the operator
guide (start/drain/stop, backend choice, time compression, the full
metrics reference) and ``README.md`` for the repo overview.
"""

from .backend import ClusterBackend
from .replay import ReplayBackend
from .service import HostConfig, HostMetrics, PolicyHost, RoundMetrics
from .threaded import ThreadedBackend, ThreadedConfig

__all__ = [
    "ClusterBackend",
    "HostConfig",
    "HostMetrics",
    "PolicyHost",
    "RoundMetrics",
    "ReplayBackend",
    "ThreadedBackend",
    "ThreadedConfig",
]
