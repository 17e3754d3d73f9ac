"""Off-contract long run: sharded vs unsharded scheduling rounds to 10k GPUs.

The paper runs Pollux on 64 GPUs; this sweep times the same decision
machinery at up to two orders of magnitude more capacity (Sec. 7 discusses
scalability).  At each point it prints one cold and the median steady
scheduling round, driven through ``Policy.schedule``, of:

- ``unsharded``: the default ``pollux`` policy, whose GA works on the full
  jobs x nodes matrix;
- ``sharded``: ``pollux-sharded`` over a
  :class:`~repro.shard.partition.UniformCellPartitioner`, one warm-started
  GA per cell.

The states are the perf ledger's (``benchmarks.e2e.inputs``): fitted-looking
reports at mixed training moments, each round's decision fed back into the
next with phi drifted 1% a round, so the timed round is the recurring one.
Nothing here is recorded or gated: round-time claims live in the ledger
(``benchmarks/e2e``), whose workloads stop at 2048 GPUs, and this sweep is
the run beyond them.  The unsharded rounds at the largest point dominate
its wall-clock.  Run::

    python benchmarks/bench_scale.py
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Sequence, Tuple

import numpy as np

if __name__ == "__main__":  # script mode: make src/ and benchmarks/ importable
    _repo = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_repo / "src"))
    sys.path.insert(0, str(_repo))

import repro.policy
from repro.cluster import ClusterSpec
from repro.core import GAConfig, PolluxSchedConfig
from repro.policy import ClusterState
from repro.shard import UniformCellPartitioner

from benchmarks.e2e.inputs import steady_state, synthetic_state


@dataclass(frozen=True)
class ScalePoint:
    """One swept cluster/workload size."""

    num_nodes: int
    gpus_per_node: int
    num_jobs: int
    num_cells: int
    repeats: int

    @property
    def total_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node


GA = GAConfig(population_size=16, generations=8)

# Up to 10,000 GPUs / 5,000 jobs: the paper's cluster (64 GPUs, Sec. 5.1)
# scaled ~156x with 0.5 resident jobs per GPU.  Cell counts grow with the
# cluster so per-cell matrices stay near a constant (~80 nodes x ~310 jobs
# at the largest point).
POINTS = (
    ScalePoint(64, 8, 256, 4, repeats=3),
    ScalePoint(256, 8, 1024, 8, repeats=3),
    ScalePoint(1250, 8, 5000, 16, repeats=2),
)


def measure(policy, state: ClusterState, repeats: int) -> Tuple[float, float]:
    """Cold round, then the median of ``repeats`` steady rounds, in ms."""
    t0 = time.perf_counter()
    decision = policy.schedule(0.0, state)
    cold_ms = (time.perf_counter() - t0) * 1000.0
    steady = []
    for round_idx in range(1, repeats + 1):
        state = steady_state(state, decision, round_idx)
        t0 = time.perf_counter()
        decision = policy.schedule(float(round_idx) * 60.0, state)
        steady.append((time.perf_counter() - t0) * 1000.0)
    policy.close()
    return cold_ms, float(np.median(steady))


def run_point(point: ScalePoint) -> Dict[str, float]:
    """Both series at one point, each from the same synthetic state."""
    cluster = ClusterSpec.homogeneous(point.num_nodes, point.gpus_per_node)
    # migrate_every=0: the series times the recurring cell rounds, not
    # balancer churn (a migration's cost is the moved job's restart,
    # charged by the host, not round time).
    cells = dict(partitioner=UniformCellPartitioner(point.num_cells), migrate_every=0)
    out: Dict[str, float] = {}
    for name, registry, kwargs in (
        ("unsharded", "pollux", {}),
        ("sharded", "pollux-sharded", cells),
    ):
        policy = repro.policy.create(
            registry,
            cluster=cluster,
            config=PolluxSchedConfig(ga=GA),
            seed=0,
            **kwargs,
        )
        state = synthetic_state(cluster, point.num_jobs, seed=0)
        out[f"{name}_cold_ms"], out[f"{name}_round_ms"] = measure(
            policy, state, point.repeats
        )
    out["sharded_speedup"] = out["unsharded_round_ms"] / out["sharded_round_ms"]
    return out


def main(points: Sequence[ScalePoint] = POINTS) -> int:
    for point in points:
        print(
            f"{point.total_gpus} GPUs ({point.num_nodes}x{point.gpus_per_node}), "
            f"{point.num_jobs} jobs, {point.num_cells} cells ...",
            flush=True,
        )
        result = run_point(point)
        print(
            f"    unsharded {result['unsharded_round_ms']:10.1f} ms "
            f"(cold {result['unsharded_cold_ms']:.1f})   "
            f"sharded {result['sharded_round_ms']:10.1f} ms "
            f"(cold {result['sharded_cold_ms']:.1f})   "
            f"{result['sharded_speedup']:.1f}x",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
