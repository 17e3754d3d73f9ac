"""repro: a from-scratch reproduction of Pollux (OSDI 2021).

Pollux co-adaptively schedules deep-learning clusters by modeling each job's
*goodput* — system throughput times statistical efficiency — and jointly
optimizing resource allocations, batch sizes, and learning rates.

Public API overview:

- :mod:`repro.core` — goodput/throughput/efficiency models, AdaScale,
  PolluxAgent, PolluxSched, the genetic algorithm, cloud auto-scaling.
- :mod:`repro.cluster` — nodes, cluster specs, allocation matrices.
- :mod:`repro.workload` — the Table 1 model zoo and trace generation.
- :mod:`repro.sim` — the discrete-time cluster simulator.
- :mod:`repro.policy` — the Policy API v1: Pollux + Tiresias /
  Optimus+Oracle / Or et al. behind one event-driven interface, plus the
  string-keyed registry (``repro.policy.create("pollux", ...)``).
- :mod:`repro.host` — the wall-clock host: ``PolicyHost`` drives any
  registered policy in real time over live (``ThreadedBackend``) or
  replayed (``ReplayBackend``) cluster state.
- :mod:`repro.shard` — cell-partitioned sharded scheduling
  (``pollux-sharded``) for 10k-GPU / 5k-job scale.
- :mod:`repro.service` — scheduling-as-a-service: the multi-tenant HTTP
  front-end + Prometheus ``/metrics`` on top of a running host.

Start at ``README.md`` (overview, quickstart, headline numbers); the
operator guide for running the service is ``docs/operating.md``.
"""

from . import cluster, core, policy, sim, workload

__version__ = "1.0.0"

__all__ = [
    "cluster",
    "core",
    "policy",
    "sim",
    "workload",
    "__version__",
]
