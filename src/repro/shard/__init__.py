"""Sharded scheduling: cells + incremental GA rounds for 10k-GPU scale.

Pollux's GA re-optimizes the entire cluster every round, so round cost
grows with total jobs × nodes even when almost nothing changed.  This
package cuts the cluster into *cells* — disjoint single-GPU-type node sets
— and runs one warm-started :class:`~repro.core.sched.PolluxSched` per
cell, behind the ordinary Policy API as ``pollux-sharded``.  The GA's cost
is superlinear in (jobs × nodes), so C size-balanced cells do roughly
1/C² of the work each, ~1/C in total.  That matrix shrink is the win; the
cell rounds additionally fan out over as many threads (or worker
processes) as the host has usable cores, never more
(:func:`~repro.shard.executor.fanout_width` states the rule and what was
measured: on one core the cells simply run one after another).

Scaling out, step by step
-------------------------

1.  **Partition.**  A :class:`~repro.shard.partition.CellPartitioner`
    splits the :class:`~repro.cluster.spec.ClusterSpec` into cells.  The
    default :class:`~repro.shard.partition.TypeCellPartitioner` makes one
    cell per GPU type — the Gavel-style structure the GA already enforces
    (type-group repair forbids type-spanning placements), so the cut is
    decision-compatible.  For one huge homogeneous pool, pick
    :class:`~repro.shard.partition.UniformCellPartitioner`::

        from repro.shard import UniformCellPartitioner
        import repro.policy

        policy = repro.policy.create(
            "pollux-sharded", cluster=cluster, seed=0,
            partitioner=UniformCellPartitioner(16),
        )

2.  **Balance.**  A top-level balancer — deterministic and RNG-free, so
    sharding adds no random draws — assigns each arrival to the cell with
    the most GPU-equivalents per resident job, and every ``migrate_every``
    rounds migrates one job from the most- to the least-loaded cell when
    their load ratio exceeds ``migration_threshold``.  A migrated running
    job's old GPUs are explicitly zeroed in the stitched decision, so the
    host's restart accounting charges the move like any reallocation.

3.  **Optimize per cell.**  Each cell scheduler sees a standalone
    sub-cluster and only its resident jobs: warm-started populations,
    plateau early-exit, surface caching, and ``cells_path`` persistence
    all apply per cell unchanged.

4.  **Go incremental.**  With ``PolluxSchedConfig(incremental=True)`` a
    cell whose inputs did not move (no arrivals/departures, no theta_sys
    re-fits, allocations untouched) skips its GA entirely and replays its
    previous allocations; a cell where only some jobs changed restricts
    mutation to the dirty jobs' rows and carries the rest from the warm
    population.  ``incremental_refresh_every`` bounds staleness with a
    periodic unrestricted round.

5.  **Stitch.**  Cell-local allocation vectors are scattered back into
    full-cluster coordinates; every active job appears in the decision
    (zeros outside its cell), so no job is ever double-allocated across
    cells — pinned by ``tests/test_shard.py``.

Decision-stream tier: ``pollux-sharded`` with a single cell (any
homogeneous cluster under the default partitioner) reproduces the
unsharded ``pollux`` policy's decision stream **bit-for-bit** (same seed, same RNG
draws — pinned in tests).  Multi-cell configurations are a different,
benchmarked stream: the nightly workflow holds reduced-scale
sharded-vs-unsharded JCT parity (``benchmarks/gates.py parity``), and the
perf ledger (``benchmarks/e2e``) times the rounds.

Execution backends
------------------

Cell rounds run behind a :class:`~repro.shard.executor.CellExecutor`,
selected with ``ShardedPolicy(execution=...)``:

- ``"thread"`` (default): in-process schedulers on a ``shard-cell``
  thread pool.  Threads overlap what releases the GIL for long stretches,
  which is a cold table build (``np.power``); the GA is a run of short
  numpy calls that trades the GIL at each one, so the executor lets one
  cell into its GA at a time (the wait is each cell's ``wait_ms``) and a
  warm round costs what the cells cost one after another.  Zero
  serialization cost; right for small cell counts, short rounds, or
  introspection (``cell_schedulers``).
- ``"process"``: persistent worker processes, each owning its cells' warm
  :class:`~repro.core.sched.PolluxSched` (GA population,
  ``SurfaceCache``/``TputCells``, RNG state all stay worker-side across
  rounds, never re-pickled).  Pays a per-round serialization/IPC toll but
  escapes the GIL entirely — it wins once per-cell GA compute dominates
  that toll, i.e. multi-cell rounds at real job counts on a multi-core
  host (on a single core it is strictly overhead).

What crosses the pipe each round is a compact delta, not state
(:mod:`repro.shard.wire`): per job, the current allocation and attained
GPU-time always travel, the frozen ``AgentReport`` only when its
``theta_fingerprint()`` moved, just ``(phi, max_gpus_seen)`` when only
the noise scale drifted, and nothing when byte-identical; departures by
id.  Replies carry cell-local allocations plus per-phase timings (with
an ``ipc_ms`` share).  Because pickling floats/int64 arrays is exact and
each cell's scheduler evolves from the same ``seed + cell_index``, the
two backends produce **bit-for-bit identical decision streams** at a
fixed seed — pinned in ``tests/test_shard_executor.py`` and gated in CI.

Fallback semantics: a worker crash, hang (``round_timeout``), or error
never loses a dispatch — the affected cells' rounds run in-process on a
parent-side fallback scheduler (logged, counted in
``ShardedPolicy.fallback_rounds``) and the worker is replaced, cold, for
the next round.  ``Policy.close()`` tears the backend down (hosts call it
at end of run); a closed policy revives its executor on the next
``schedule``, re-shipping the warm throughput cells harvested at close.
"""

from .executor import (
    CellExecutor,
    CellResult,
    ProcessCellExecutor,
    ThreadCellExecutor,
    make_executor,
)
from .partition import (
    Cell,
    CellPartitioner,
    TypeCellPartitioner,
    UniformCellPartitioner,
    validate_partition,
)
from .policy import ShardedPolicy

__all__ = [
    "Cell",
    "CellPartitioner",
    "TypeCellPartitioner",
    "UniformCellPartitioner",
    "validate_partition",
    "ShardedPolicy",
    "CellExecutor",
    "CellResult",
    "ThreadCellExecutor",
    "ProcessCellExecutor",
    "make_executor",
]
