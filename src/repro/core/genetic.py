"""The genetic algorithm of PolluxSched (Sec. 4.2.1).

Operates on a population of allocation matrices (one row per job, one column
per node).  Each generation:

1. **Mutation** — every element A_jn is mutated with probability 1/N; a
   mutated element is set to a uniform random integer in [0, capacity_n].
2. **Crossover** — parents are picked by tournament selection; offspring rows
   are randomly mixed from the two parents.
3. **Repair** — matrices are modified to satisfy (a) single-GPU-type
   placements on heterogeneous clusters (each job keeps only the nodes of
   its dominant type, so the per-type speedup lookup stays O(1); a no-op on
   single-type clusters), (b) per-job GPU caps (the 2x-lifetime-max
   exploration rule of Sec. 4.1), (c) per-node capacity (random elements in
   over-capacity columns are decremented until the constraint holds), and
   (d) optionally the interference-avoidance constraint (at most one
   *distributed* job per node).
4. **Selection** — parents and offspring compete; the population size is
   kept constant by discarding the lowest-fitness matrices.

Fitness is the weighted mean of per-job SPEEDUPs (Eqn. 14), with
RESTART_PENALTY subtracted for each running job whose allocation changes.

:class:`GeneticOptimizer` implements the loop with every operator batched
over the whole ``(P, J, N)`` population (see its docstring).  Its decision
stream under a fixed seed is what the pinned tier of ``docs/operating.md``
("Decision-stream policy") protects.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..cluster.spec import ClusterSpec

__all__ = ["GAConfig", "JobGAInfo", "AllocationProblem", "GeneticOptimizer"]

#: Row width from which the repair operators go sparse.  Both are batched
#: over rows: ``_repair_interference`` over population members, each a
#: ``(J, N)`` matrix of ``J * N`` cells, ``_repair_caps_capacity`` over
#: violating rows and columns of ``max(J, N)`` cells.  The sparse forms add
#: numpy calls (~9 a pass to keep the interference counts current, ~30 to
#: work on a population's non-zero cells), so they pay only once a row's
#: dense work outweighs those.  Measured, sparse over dense.  Interference, a
#: scheduling round of 24 members on 4 nodes: +3..+5% at 8-24 cells a member,
#: +0.5..+2.6% at 32, -0.7% at 40, -2..-3% at 64, -13% at 384 (16 nodes x 24
#: jobs); per call 0.55x at 384 cells, 0.16x at 16384 (64 nodes x 256 jobs).
#: With 8 members it pays from ~96 cells, with 48-100 already from 16-32
#: (0.68-0.82x per call), which this rule leaves unused.  Caps + capacity,
#: per call on mutated populations of saturated 4-GPU nodes: at 16 nodes and
#: 24 members (``service_live`` once 64 or more jobs are active) 0.50x at 64
#: columns, 0.43-0.47x at 72, 0.37-0.44x at 80, 0.34-0.35x at 96; below the
#: switch 0.48-0.60x at 40-56 and 0.82x at 32, but 1.16-1.29x at 8-16; with 4
#: members 0.90x at 64 and 1.03-1.08x at 40-48; at 4 nodes and 24 members
#: 1.36-1.62x at 2-10 jobs and 1.04x at 32.  At 64 the switch is on the
#: winning side for every shape measured; lowering it would also move the
#: interference switch, which loses below ~40 cells.  With sparse
#: interference on everywhere, a 16-GPU trace simulation (4 nodes, 1-10
#: jobs) read +4.4% on its steady round over ten pairs.  The switch also
#: decides the support hand-off: only the wide caps repair finds a
#: population's non-zero cells, and only then do interference repair and
#: fitness read those cells instead of reducing the whole tensor.
_SPARSE_MIN_WIDTH = 64


@dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters of the genetic algorithm.

    The paper runs 100 generations with a population of 100 per 60 s
    scheduling interval (Sec. 5.1); smaller budgets give the same decisions
    on small clusters and are used to keep test/benchmark runtimes modest.

    ``patience`` enables plateau early-exit: when > 0, the GA stops once
    the best fitness has not improved for that many consecutive
    generations.  Warm-started rounds typically plateau within
    a few generations — the previous round's winner is already in the seed
    population — while cold starts (first round, autoscaler probes) keep
    improving and run their full budget, so the default of 5 buys the
    steady-state speedup without costing cold-start search quality
    (seed-averaged fig-6 JCT held; see ``docs/operating.md``).  0 disables
    early exit and gives fixed-budget runs.
    """

    population_size: int = 100
    generations: int = 100
    tournament_size: int = 3
    seed: int = 0
    patience: int = 5

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be non-negative")


@dataclass
class JobGAInfo:
    """Per-job inputs to the allocation problem.

    Attributes:
        speedup_table: Array of shape (max_gpus + 1, 2) for single-type
            clusters, or (max_gpus + 1, 2, num_types) for typed clusters;
            axis 1 index 0 is the speedup when all GPUs are co-located on
            one node, index 1 when they span two or more nodes, and the
            trailing axis (when present) selects the GPU type of the
            placement (see :mod:`repro.core.speedup`).  ``None`` when the
            problem fills its table on demand (``AllocationProblem``'s
            ``fill``).
        weight: The job's weight w_j in FITNESS (Eqn. 14/16).
        max_gpus: Hard cap on total GPUs for this job (Sec. 4.1: at most 2x
            the lifetime maximum).
        current_alloc: The job's current allocation vector (length = number
            of nodes); used for the restart penalty.
        running: Whether the job currently holds GPUs (a change of a running
            job's allocation requires a checkpoint-restart and incurs
            RESTART_PENALTY).
    """

    speedup_table: Optional[np.ndarray]
    weight: float
    max_gpus: int
    current_alloc: np.ndarray
    running: bool

    def __post_init__(self) -> None:
        if self.max_gpus < 1:
            raise ValueError("max_gpus must be >= 1")
        if self.weight < 0:
            raise ValueError("weight must be non-negative")
        self.current_alloc = np.asarray(self.current_alloc, dtype=np.int64)
        if self.speedup_table is None:
            return
        self.speedup_table = np.asarray(self.speedup_table, dtype=float)
        if self.speedup_table.ndim not in (2, 3) or self.speedup_table.shape[1] != 2:
            raise ValueError(
                "speedup_table must have shape (K+1, 2) or (K+1, 2, T)"
            )
        if self.max_gpus > self.speedup_table.shape[0] - 1:
            raise ValueError(
                f"max_gpus={self.max_gpus} exceeds speedup table rows "
                f"({self.speedup_table.shape[0]})"
            )


#: Fills (job, K) rows of a speedup table: given aligned job indices and
#: GPU counts, sorted by (job, K), returns their ``(R, 2, T)`` entries.
RowFill = Callable[[np.ndarray, np.ndarray], np.ndarray]


class AllocationProblem:
    """Fitness evaluation and constraints for one scheduling round.

    The speedup table ``tables[j, K, flag, type]`` is either stacked from
    the jobs' own ``speedup_table`` arrays, or, given ``fill``, filled on
    demand: a (job, K) row is filled the first time a lookup reaches it,
    at most one ``fill`` call per :meth:`fitness` or :meth:`speedups` call
    (:meth:`ensure_rows`).  ``fill_ms`` is the wall-clock those calls
    took.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        jobs: Sequence[JobGAInfo],
        restart_penalty: float = 0.25,
        forbid_interference: bool = True,
        fill: Optional[RowFill] = None,
    ):
        self.cluster = cluster
        self.jobs = list(jobs)
        self.restart_penalty = float(restart_penalty)
        self.forbid_interference = forbid_interference
        self.num_jobs = len(self.jobs)
        self.num_nodes = cluster.num_nodes
        self.capacities = cluster.capacities()
        self.num_types = cluster.num_types
        self.node_type_ids = cluster.node_type_ids()
        self.type_speeds = cluster.type_speeds()
        #: (T, N) 0/1 membership matrix for per-type GPU sums.
        self.type_masks = (
            self.node_type_ids[None, :] == np.arange(self.num_types)[:, None]
        ).astype(np.int64)
        #: Cluster compute capacity in slowest-type-GPU equivalents.  Typed
        #: speedup tables are normalized by the slowest type, so this is the
        #: UTILITY denominator that keeps Eqn. 17 in [0, ~1] on mixed
        #: fleets; it equals total_gpus on single-type clusters.
        self.effective_gpus = float(
            np.sum(self.capacities * cluster.node_speeds())
            / self.type_speeds.min()
        )

        self._fill = fill
        self.fill_ms = 0.0
        if self.num_jobs:
            self.max_gpus = np.array([j.max_gpus for j in self.jobs], dtype=np.int64)
            self.weights = np.array([j.weight for j in self.jobs], dtype=float)
            self.current = np.stack([j.current_alloc for j in self.jobs])
            self.running = np.array([j.running for j in self.jobs], dtype=bool)
        else:
            self.max_gpus = np.zeros(0, dtype=np.int64)
            self.weights = np.zeros(0, dtype=float)
            self.current = np.zeros((0, self.num_nodes), dtype=np.int64)
            self.running = np.zeros(0, dtype=bool)
        k_rows = int(self.max_gpus.max(initial=0)) + 1
        if fill is None:
            self.tables = self._stack_tables(k_rows)
        else:
            self.tables = np.zeros(
                (self.num_jobs, k_rows, 2, self.num_types), dtype=float
            )
            #: Filled rows, flat over (job, K).  K = 0 is all-zero and rows
            #: past a job's cap are never read: both count as filled.
            k = np.arange(k_rows)
            self._filled = ((k == 0) | (k > self.max_gpus[:, None])).reshape(-1)
            self._row_base = np.arange(self.num_jobs) * k_rows
        #: Nodes each job's current allocation occupies, for the restart
        #: test on a population's support.
        self._current_nodes = np.count_nonzero(self.current, axis=1)

    def _stack_tables(self, k_rows: int) -> np.ndarray:
        """The jobs' own tables as one ``(J, k_rows, 2, T)`` stack.

        An untyped table broadcasts its one type column to every type; a
        table shorter than ``k_rows`` repeats its last row, which repair
        (K <= max_gpus) never selects.
        """
        shape = (self.num_jobs, k_rows, 2, self.num_types)
        if not self.num_jobs:
            return np.zeros(shape)
        tables = []
        for job in self.jobs:
            table = job.speedup_table
            if table.ndim == 2:
                table = table[:, :, None]
            elif table.shape[2] != self.num_types:
                raise ValueError(
                    f"speedup_table has {table.shape[2]} type columns, "
                    f"cluster has {self.num_types}"
                )
            tables.append(np.broadcast_to(table, (len(table), 2, self.num_types)))
        lengths = np.array([len(table) for table in tables])
        starts = np.cumsum(lengths) - lengths
        rows = np.minimum(np.arange(k_rows), lengths[:, None] - 1)
        return np.concatenate(tables)[starts[:, None] + rows]

    def ensure_rows(self, job: np.ndarray, k: np.ndarray) -> None:
        """Fill the (``job``, ``k``) rows not filled yet, in one ``fill``.

        A no-op on a stacked or complete table.  Rows reach ``fill``
        deduplicated and sorted by (job, K).
        """
        if self._fill is not None:
            self._ensure_keys(np.asarray(job) * self.tables.shape[1] + k)

    def _ensure_keys(self, keys: np.ndarray) -> None:
        """:meth:`ensure_rows` on flat (job, K) keys."""
        keys = keys[~self._filled[keys]]
        if not keys.size:
            return
        t0 = time.perf_counter()
        keys = np.unique(keys)
        job, k = np.divmod(keys, self.tables.shape[1])
        self.tables[job, k] = self._fill(job, k)
        self._filled[keys] = True
        if self._filled.all():  # complete: lookups stop checking
            self._fill = None
        self.fill_ms += (time.perf_counter() - t0) * 1000.0

    def speedups(
        self, population: np.ndarray, *, support: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-job SPEEDUP for a (P, J, N) population; returns (P, J).

        On typed clusters the lookup uses the *slowest occupied* GPU type,
        matching the simulator's ground truth (synchronous data-parallel
        SGD is gated by its slowest replica).  Repaired populations hold
        single-type placements, where this is simply the placement's type;
        un-repaired matrices (e.g. current allocations straddling types
        after a resize) are scored at the speed they would actually run at.

        ``support``, the ascending flat indices of the population's non-zero
        cells (what the wide repair returns), replaces the reductions over
        the whole tensor by counts over those cells; the result is
        bit-identical.  Without it the reductions are dense.
        """
        pop = np.asarray(population)
        return self._lookup(*self._occupancy(pop, support))

    def _occupancy(
        self, pop: np.ndarray, support: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """GPUs and occupied nodes of every (member, job) row, and on typed
        clusters its GPUs per type (``None`` on single-type ones)."""
        per_type = None
        if support is None:
            if self.num_types > 1:
                per_type = np.einsum("pjn,tn->pjt", pop, self.type_masks)
            return pop.sum(axis=-1), (pop > 0).sum(axis=-1), per_type
        shape = pop.shape[:2]
        rows = shape[0] * shape[1]
        member_job, node = np.divmod(support, self.num_nodes)
        held = pop.take(support)
        gpus = np.bincount(member_job, held, rows).astype(np.int64)
        nodes = np.bincount(member_job, minlength=rows)
        if self.num_types > 1:
            num_types = self.num_types
            per_type = np.bincount(
                member_job * num_types + self.node_type_ids[node],
                held,
                rows * num_types,
            ).reshape(*shape, num_types)
        return gpus.reshape(shape), nodes.reshape(shape), per_type

    def _lookup(
        self, gpus: np.ndarray, nodes: np.ndarray, per_type: Optional[np.ndarray]
    ) -> np.ndarray:
        k = np.minimum(gpus, self.max_gpus[None, :])
        if self._fill is not None:
            self._ensure_keys(self._row_base + k)
        flag = (nodes >= 2).astype(np.int64)
        j_idx = np.arange(self.num_jobs)[None, :]
        if per_type is None:
            return self.tables[j_idx, k, flag, 0]
        occupied_speeds = np.where(
            per_type > 0, self.type_speeds[None, None, :], np.inf
        )
        # Rows with no GPUs degenerate to type 0; their K = 0 lookup is 0.
        type_idx = np.argmin(occupied_speeds, axis=-1)
        return self.tables[j_idx, k, flag, type_idx]

    def fitness(
        self, population: np.ndarray, *, support: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """FITNESS(A) (Eqn. 14) for a (P, J, N) population; returns (P,).

        With ``support`` (see :meth:`speedups`) every count, the restart
        test's included, comes from the population's non-zero cells and
        the result is bit-identical; without it the reductions are dense.
        """
        pop = np.asarray(population)
        if self.num_jobs == 0:
            return np.zeros(pop.shape[0], dtype=float)
        gpus, nodes, per_type = self._occupancy(pop, support)
        sp = self._lookup(gpus, nodes, per_type)
        if support is None:
            changed = np.any(pop != self.current[None], axis=-1)
        else:
            # A row equals its current allocation iff it occupies as many
            # nodes and every one of its non-zero cells matches.
            differs = pop.take(support) != self.current.take(
                support % (self.num_jobs * self.num_nodes)
            )
            changed = nodes != self._current_nodes[None, :]
            changed.reshape(-1)[support[differs] // self.num_nodes] = True
        penalty = self.restart_penalty * (changed & self.running[None, :])
        weighted = self.weights[None, :] * (sp - penalty)
        denom = self.weights.sum()
        if denom <= 0:
            return np.zeros(pop.shape[0], dtype=float)
        return weighted.sum(axis=-1) / denom

    def utility(self, matrix: np.ndarray) -> float:
        """UTILITY(A) = sum_j SPEEDUP_j / TOTAL_GPUS (Eqn. 17).

        On typed clusters the denominator is the capacity in
        slowest-type-GPU equivalents (a V100 at 2x counts as 2), so the
        value stays comparable to the operator's [0, 1] utility band; on
        single-type clusters this is exactly the paper's TOTAL_GPUS.
        """
        sp = self.speedups(np.asarray(matrix)[None])
        total = self.effective_gpus
        return float(sp.sum() / total) if total > 0 else 0.0


class GeneticOptimizer:
    """Runs the Sec. 4.2.1 genetic algorithm on an allocation problem.

    Every operator is batched over the whole ``(P, J, N)`` population:

    - **Vectorized repair.**  Job-cap and capacity repair are *fused*:
      over-cap job rows and over-capacity node columns are resolved
      together by one randomized largest-remainder rounding (the excess is
      split proportionally to the entry counts, the fractional remainder
      assigned by random priorities; see :meth:`_repair_caps_capacity`).
      Narrow populations stack the violating vectors into one dense counts
      matrix; once rows are ``_SPARSE_MIN_WIDTH`` wide the repair reads and
      writes only the population's non-zero cells, a few percent of it.
      Interference repair runs node-major passes batched over the whole
      population — every member's first violating node keeps one uniformly
      random distributed job — with the distributed set updated in place
      between passes (see :meth:`_repair_interference` for why single-pass
      resolution over-removes).
    - **One scan per population, one buffer set per run.**  The wide
      repair hands the non-zero cells it found to interference repair,
      which hands on the ones it left, and fitness scores the population
      from them: a repaired population is scanned once.  Narrow
      populations keep the dense reductions.  :meth:`run` allocates its
      population-sized arrays once, a ``(3P, J, N)`` selection pool and
      the survivors, and every generation writes into them: mutation and
      crossover (one gather of parent rows) fill the pool's slices,
      repair works on them in place and selection gathers from the pool.
    - **Explore, then recombine.**  Each generation mutates the
      population, scores the repaired mutants, and recombines tournament
      winners *of the mutants* — the order matters (crossover of two good
      mutants assembles coordinated multi-job reallocation moves;
      elite-crossover variants measurably cost avg JCT on saturated
      traces).  Selection is a stable sort: on fitness ties the earlier
      pool member wins, so an equally-fit incumbent (restart-free)
      allocation is never displaced by a reshuffled twin — with arbitrary
      tie-breaking that churn alone cost several percent avg JCT.
    - **Warm start.**  The seed population pads with mutated neighbors of
      the *best known* matrix (the previous round's winner when a bootstrap
      population is given) rather than copies of the current allocations,
      and ``GAConfig.patience > 0`` (default 5) early-exits once the best
      fitness has plateaued for that many generations — warm-started
      rounds finish in a few generations, cold starts run their budget.

    The engine is deterministic under a fixed seed, and its random stream
    is part of the pinned decision stream (``docs/operating.md``): a pure
    performance change must not add, drop or reorder a draw.  ``phase_ms``
    accumulates wall-clock per GA phase (``repair_ms``/``fitness_ms``/
    ``select_ms``/``mutate_ms``) across one :meth:`run`; timing
    instrumentation consumes no randomness.
    """

    def __init__(
        self,
        problem: AllocationProblem,
        config: GAConfig = GAConfig(),
        rng: Optional[np.random.Generator] = None,
    ):
        self.problem = problem
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.phase_ms: Dict[str, float] = {}
        self._reset_timings()

    def _reset_timings(self) -> None:
        self.phase_ms = {
            "repair_ms": 0.0,
            "fitness_ms": 0.0,
            "select_ms": 0.0,
            "mutate_ms": 0.0,
        }

    def _timed_fitness(
        self, population: np.ndarray, support: Optional[np.ndarray]
    ) -> np.ndarray:
        """Fitness, timed without the table rows it fills (the problem's
        ``fill_ms``, which the scheduler counts as table time)."""
        filled_ms = self.problem.fill_ms
        t0 = time.perf_counter()
        out = self.problem.fitness(population, support=support)
        self.phase_ms["fitness_ms"] += (
            (time.perf_counter() - t0) * 1000.0 - (self.problem.fill_ms - filled_ms)
        )
        return out

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------

    def _mutate(
        self, population: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Mutate each element with probability 1/N to a random feasible value.

        On uniform-capacity clusters ``Generator.integers`` takes a scalar
        upper bound, which is substantially cheaper than the
        broadcast-array bound (same distribution, different stream — which
        of the two runs is fixed by the cluster, not by a switch).

        The mutants are written to ``out`` (a C-contiguous int64 array of
        ``population``'s shape, not ``population`` itself) when given, else
        to a new array.  ``out``'s memory, read as float64, first holds the
        mask's uniforms: the same block ``rng.random(shape)`` draws.
        """
        caps = self.problem.capacities
        prob = 1.0 / max(self.problem.num_nodes, 1)
        shape = population.shape
        if out is None:
            out = np.empty(shape, dtype=np.int64)
        mask = self.rng.random(out=out.view(np.float64)) < prob
        if caps.size and caps.min() == caps.max():
            random_vals = self.rng.integers(0, int(caps[0]) + 1, size=shape)
        else:
            random_vals = self.rng.integers(0, caps[None, None, :] + 1, size=shape)
        np.copyto(out, population)
        np.copyto(out, random_vals, where=mask)
        return out

    def _tournament(self, fitness: np.ndarray, count: int) -> np.ndarray:
        """Indices of ``count`` winners of size-k tournaments."""
        pop_size = len(fitness)
        k = min(self.config.tournament_size, pop_size)
        entrants = self.rng.integers(0, pop_size, size=(count, k))
        winner_slot = np.argmax(fitness[entrants], axis=1)
        return entrants[np.arange(count), winner_slot]

    def _crossover(
        self,
        population: np.ndarray,
        fitness: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Produce offspring by randomly mixing rows of tournament winners.

        Offspring row ``j`` is row ``j`` of parent a or of parent b, so the
        offspring are one gather from the population's ``(P * J, N)`` rows,
        into ``out`` when given.  The row indices are in range by
        construction; ``mode="clip"`` only spares the gather the buffered
        copy ``mode="raise"`` makes of ``out``.
        """
        count, num_jobs, num_nodes = population.shape
        parents_a = self._tournament(fitness, count)
        parents_b = self._tournament(fitness, count)
        take_a = self.rng.random((count, num_jobs)) < 0.5
        rows = np.where(take_a, parents_a[:, None], parents_b[:, None])
        rows = rows * num_jobs + np.arange(num_jobs)
        return population.reshape(count * num_jobs, num_nodes).take(
            rows, axis=0, out=out, mode="clip"
        )

    # ------------------------------------------------------------------
    # Vectorized repair
    # ------------------------------------------------------------------

    def _repair(self, population: np.ndarray) -> np.ndarray:
        """A repaired copy of ``population`` (see :meth:`_repair_in_place`)."""
        pop = population.copy()
        self._repair_in_place(pop)
        return pop

    def _repair_in_place(self, pop: np.ndarray) -> Optional[np.ndarray]:
        """Type groups, then fused caps+capacity, then interference.

        ``pop`` is repaired in place and must be C-contiguous.  Returns
        the ascending flat indices of its non-zero cells when the wide
        repair found them (:meth:`_repair_on_support`), else ``None``.
        """
        t0 = time.perf_counter()
        if self.problem.num_types > 1:
            self._repair_type_groups(pop)
        support = self._repair_caps_capacity(pop)
        if self.problem.forbid_interference:
            support = self._repair_interference(pop, support)
        self.phase_ms["repair_ms"] += (time.perf_counter() - t0) * 1000.0
        return support

    def _repair_type_groups(self, pop: np.ndarray) -> None:
        """Restrict each job's placement to a single GPU-type group.

        Rows spanning several types keep only the nodes of their dominant
        type (most GPUs; ties break toward the first type), zeroing the
        rest.  Deterministic — consumes no randomness — so single-type
        clusters (where this step is skipped entirely) replay the seed's
        exact random stream.
        """
        per_type = np.einsum(
            "pjn,tn->pjt", pop, self.problem.type_masks
        )  # (P, J, T)
        spans = (per_type > 0).sum(axis=-1) >= 2  # (P, J)
        where_p, where_j = np.where(spans)
        if len(where_p) == 0:
            return
        dominant = np.argmax(per_type[where_p, where_j], axis=-1)  # (V,)
        keep_mask = self.problem.type_masks[dominant]  # (V, N)
        pop[where_p, where_j] = pop[where_p, where_j] * keep_mask

    def _repair_caps_capacity(self, pop: np.ndarray) -> Optional[np.ndarray]:
        """Fused job-cap + node-capacity repair in one batched pass.

        Both violation sets are detected on the *same* input matrix and
        resolved by one :func:`_largest_remainder` call: over-cap job rows
        (length N) and over-capacity node columns (length J) share one
        ``rng.random`` block of ``max(J, N)`` columns, so the proportional
        split, the randomized largest-remainder rounding, and the argsort
        behind it all run once over the combined violation set instead of
        twice sequentially.

        Application stays order-correct: row removals land first (exact —
        every over-cap job ends at or below its cap, and later column
        removals only shrink rows further), then each violating column's
        removal is re-targeted at its *remaining* excess.  A column whose
        entries no row removal touched applies the fused draw as-is (its
        total already equals the excess).  Columns that overlapped a row
        removal are *redrawn* against the post-row-removal state with a
        second proportional removal and a second ``rng.random`` block —
        exactly what the sequential form did for every column.  The redraw
        matters: a deterministic fix-up (e.g. clipping plus argmax
        give-back) skews removals toward the largest allocations and
        measurably degrades seed-averaged JCT parity, while the
        randomized-proportional redraw preserves the repair distribution.
        Column removals only subtract, so already-satisfied row caps stay
        satisfied.

        Two forms, one result.  Populations narrower than
        ``_SPARSE_MIN_WIDTH`` pad the violating rows and columns into one
        dense counts matrix (:meth:`_batched_remove`); wider ones read and
        write only the population's non-zero cells
        (:meth:`_repair_on_support`) — a mutated 16 x 256 x 64 population
        is ~2.5% non-zero.  Both draw the same blocks in the same order and
        leave the same arrays; the wide form returns the support it
        repaired, the dense one ``None``.
        """
        num_jobs = self.problem.num_jobs
        num_nodes = self.problem.num_nodes
        width = max(num_nodes, num_jobs)
        if width >= _SPARSE_MIN_WIDTH:
            return self._repair_on_support(pop)
        row_totals = pop.sum(axis=-1)  # (P, J)
        row_excess = row_totals - self.problem.max_gpus[None, :]
        row_p, row_j = np.where(row_excess > 0)
        col_totals = pop.sum(axis=1)  # (P, N)
        col_excess = col_totals - self.problem.capacities[None, :]
        col_p, col_n = np.where(col_excess > 0)
        n_rows, n_cols = len(row_p), len(col_p)
        if n_rows == 0 and n_cols == 0:
            return None

        counts = np.zeros((n_rows + n_cols, width), dtype=np.int64)
        if n_rows:
            counts[:n_rows, :num_nodes] = pop[row_p, row_j]
        if n_cols:
            counts[n_rows:, :num_jobs] = pop[col_p, :, col_n]
        excess = np.concatenate(
            [row_excess[row_p, row_j], col_excess[col_p, col_n]]
        )
        removal = self._batched_remove(counts, excess)

        if n_rows:
            pop[row_p, row_j] -= removal[:n_rows, :num_nodes]
        if n_cols:
            cols = pop[col_p, :, col_n]  # (V, J), post-row-removal
            take = np.minimum(removal[n_rows:, :num_jobs], cols)
            need = np.maximum(
                cols.sum(axis=1) - self.problem.capacities[col_n], 0
            )
            # Columns untouched by row removals keep the fused draw (the
            # clip never binds and the total already equals the excess);
            # the rest are redrawn proportionally on the surviving mass.
            redo = np.where(take.sum(axis=1) != need)[0]
            if len(redo):
                take[redo] = 0
                live = redo[need[redo] > 0]
                if len(live):
                    take[live] = self._batched_remove(cols[live], need[live])
            pop[col_p, :, col_n] = cols - take
        return None

    def _repair_on_support(self, pop: np.ndarray) -> np.ndarray:
        """The wide form of :meth:`_repair_caps_capacity`, on non-zero cells.

        ``pop`` must be C-contiguous: it is read and written through one
        flat view.  Returns the ascending flat indices of the cells still
        non-zero after the repair, the support the later steps read.

        A vector's entries are its non-zero cells in the order of the dense
        row — over-cap rows take theirs in flat order, over-capacity columns
        through a stable sort on ``member * N + node`` — so the stable sort
        in :func:`_largest_remainder` breaks key ties as it does on the full
        row.  Keys are gathered from the full-width draw blocks the dense
        form makes, so the arrays and the random stream are its own.
        """
        num_members, num_jobs, num_nodes = pop.shape
        flat = pop.reshape(-1)
        cell = np.flatnonzero(flat != 0)
        count = flat[cell]
        member_job, node = np.divmod(cell, num_nodes)
        member, job = np.divmod(member_job, num_jobs)
        member_node = member * num_nodes + node
        row_excess = np.bincount(
            member_job, count, num_members * num_jobs
        ).astype(np.int64) - np.tile(self.problem.max_gpus, num_members)
        capacity = np.tile(self.problem.capacities, num_members)
        col_excess = np.bincount(
            member_node, count, num_members * num_nodes
        ).astype(np.int64) - capacity
        row_over, col_over = row_excess > 0, col_excess > 0
        n_rows, n_cols = np.count_nonzero(row_over), np.count_nonzero(col_over)
        if n_rows == 0 and n_cols == 0:
            return cell

        row_ent = np.flatnonzero(row_over[member_job])
        row_vec = (np.cumsum(row_over) - 1)[member_job[row_ent]]
        col_ent = np.flatnonzero(col_over[member_node])
        # In the narrowest dtype that holds every key: numpy's stable sort
        # is a radix sort for 8- and 16-bit integers (6x faster at P x N =
        # 16 x 64).
        key = member_node[col_ent].astype(np.min_scalar_type(num_members * num_nodes))
        col_ent = col_ent[np.argsort(key, kind="stable")]
        col_vec = (np.cumsum(col_over) - 1)[member_node[col_ent]]
        draws = self.rng.random((n_rows + n_cols, max(num_nodes, num_jobs)))
        vec = np.concatenate([row_vec, n_rows + col_vec])
        removal = _remove_on_entries(
            vec,
            count[np.concatenate([row_ent, col_ent])],
            draws[vec, np.concatenate([node[row_ent], job[col_ent]])],
            np.concatenate([row_excess[row_over], col_excess[col_over]]),
        )

        flat[cell[row_ent]] -= removal[: row_ent.size]
        col_cell = cell[col_ent]
        held = flat[col_cell]  # post-row-removal
        take = np.minimum(removal[row_ent.size:], held)
        need = np.maximum(
            np.bincount(col_vec, held, n_cols).astype(np.int64)
            - capacity[col_over],
            0,
        )
        # As in the dense form: columns untouched by row removals keep the
        # fused draw, the rest are redrawn on the surviving mass.
        redo = np.bincount(col_vec, take, n_cols) != need
        if redo.any():
            take[redo[col_vec]] = 0
            live = redo & (need > 0)
            if live.any():
                # The redraw's support is the column's post-row-removal
                # one: an entry a row removal zeroed sheds nothing.
                sel = np.flatnonzero(live[col_vec] & (held > 0))
                live_vec = (np.cumsum(live) - 1)[col_vec[sel]]
                redraw = self.rng.random((int(live.sum()), num_jobs))
                take[sel] = _remove_on_entries(
                    live_vec,
                    held[sel],
                    redraw[live_vec, job[col_ent[sel]]],
                    need[live],
                )
        flat[col_cell] = held - take
        return cell[flat[cell] != 0]

    def _batched_remove(
        self, counts: np.ndarray, excess: np.ndarray
    ) -> np.ndarray:
        """Removal matrix taking ``excess[i]`` units from row ``counts[i]``.

        Draws one uniform per cell, ``rng.random(counts.shape)``, and
        resolves every row at full width with :func:`_largest_remainder`.
        """
        return _largest_remainder(counts, self.rng.random(counts.shape), excess)

    def _repair_interference(
        self, pop: np.ndarray, support: Optional[np.ndarray] = None
    ) -> Optional[np.ndarray]:
        """Node-major interference resolution, batched over the population.

        Each pass picks every member's *first* still-violating node, keeps
        one of its distributed jobs (uniformly at random via
        max-of-iid-uniform keys), and drops the others from that node — all
        members at once.  The distributed-job set is kept current between
        passes, so a job that fell to a single node stops being evicted
        elsewhere: resolving everything in one pass from the *pre-repair*
        distributed set over-removes (a job conflicted at several nodes
        would lose all of them at once), which measurably under-allocates
        saturated clusters.  At most one pass per node.

        The population is reduced once, into ``cnt`` (nodes each job
        occupies), ``dist_present`` (the job is distributed and on the node)
        and ``share`` (distributed jobs on each node); a pass then costs
        what it repairs.  With ``support``, the ascending flat indices of
        ``pop``'s non-zero cells, that reduction is two ``bincount`` calls
        and one scatter over those cells; without it, it reduces the whole
        ``(P, J, N)`` tensor.  A pass moves the state in three places only:
        the fixed node is left with its one kept job, every dropped job
        occupies one node fewer, and a job that just fell to a single node
        stops counting as distributed on the one node it still holds.
        Members of fewer than ``_SPARSE_MIN_WIDTH`` cells re-reduce before
        every pass instead, which is cheaper there.  Either way the per-pass
        ``rng.random((V, J))`` block and the first-violating-node order are
        those of a full rescan, and so are the result and the random
        stream.  Returns ``support`` minus the cells it zeroed, or ``None``
        when given none.
        """
        num_members, num_jobs, num_nodes = pop.shape
        if num_jobs < 2 or num_nodes < 2:
            return support  # a conflict takes two jobs that each span two nodes
        sparse = num_jobs * num_nodes >= _SPARSE_MIN_WIDTH
        member_idx = np.arange(num_members)
        for n_pass in range(num_nodes):
            if n_pass == 0 and support is not None:
                member_job = support // num_nodes
                cnt = np.bincount(member_job, minlength=num_members * num_jobs)
                dist = support[cnt[member_job] >= 2]
                dist_present = np.zeros(pop.shape, dtype=bool)
                dist_present.reshape(-1)[dist] = True
                member_node = (
                    dist // (num_jobs * num_nodes) * num_nodes + dist % num_nodes
                )
                share = np.bincount(
                    member_node, minlength=num_members * num_nodes
                ).reshape(num_members, num_nodes)
                cnt = cnt.reshape(num_members, num_jobs)
            elif n_pass == 0 or not sparse:
                present = pop > 0
                cnt = present.sum(axis=-1)  # (P, J)
                dist_present = present & (cnt >= 2)[:, :, None]  # (P, J, N)
                share = dist_present.sum(axis=1)  # (P, N)
            violating = share >= 2
            if not violating.any():
                break
            first_n = np.argmax(violating, axis=1)  # (P,)
            rows = np.flatnonzero(violating[member_idx, first_n])
            nodes = first_n[rows]
            drop = dist_present[rows, :, nodes]  # (V, J) candidates, a copy
            keys = np.where(drop, self.rng.random(drop.shape), -1.0)
            drop[member_idx[: rows.size], np.argmax(keys, axis=1)] = False
            v_d, j_d = np.nonzero(drop)
            p_d = rows[v_d]
            pop[p_d, j_d, nodes[v_d]] = 0
            if sparse:
                # share == 1 keeps a fixed node from being picked again,
                # so its column of ``dist_present`` is left stale.
                share[rows, nodes] = 1
                left = cnt[p_d, j_d] - 1
                cnt[p_d, j_d] = left
                single = left == 1
                p_s, j_s = p_d[single], j_d[single]
                dist_present[p_s, j_s] = False
                # A single-node row's one positive entry is its argmax.
                last_n = np.argmax(pop[p_s, j_s], axis=1)
                np.subtract.at(share, (p_s, last_n), 1)
        if support is None:
            return None
        return support[pop.take(support) != 0]

    # ------------------------------------------------------------------
    # Warm start and main loop
    # ------------------------------------------------------------------

    def seed_population(
        self, initial: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Seed from the current allocations plus the previous round's best.

        Member 0 is always the current allocation matrix (the restart-free
        candidate).  A bootstrap population contributes its members next —
        it arrives fitness-sorted, so member 1 is the previous round's best
        allocation.  Any remaining slots are mutated neighbors of the best
        known matrix, which concentrates the initial population around the
        incumbent solution so warm-started rounds plateau (and early-exit)
        quickly.
        """
        return self._seed(initial)[0]

    def _seed(
        self, initial: Optional[np.ndarray], out: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """:meth:`seed_population`, built in ``out`` (a C-contiguous int64
        ``(P, J, N)`` array) when given, and the support its repair
        returned."""
        p_size = self.config.population_size
        num_jobs = self.problem.num_jobs
        num_nodes = self.problem.num_nodes
        pop = np.empty((p_size, num_jobs, num_nodes), np.int64) if out is None else out
        pop[0] = self.problem.current
        anchor = self.problem.current
        filled = 1
        if initial is not None:
            init = np.asarray(initial, dtype=np.int64)
            if init.ndim != 3 or init.shape[1:] != (num_jobs, num_nodes):
                raise ValueError(
                    f"initial population has shape {init.shape}, expected "
                    f"(*, {num_jobs}, {num_nodes})"
                )
            if len(init):
                anchor = init[0]
                bootstrap = init[: p_size - 1]
                pop[1 : 1 + len(bootstrap)] = bootstrap
                filled += len(bootstrap)
        if filled < p_size:
            neighbors = pop[filled:]
            self._mutate(np.broadcast_to(anchor, neighbors.shape), out=neighbors)
        return pop, self._repair_in_place(pop)

    def run(
        self, initial: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, float, np.ndarray]:
        """Run the GA and return (best matrix, best fitness, population).

        The returned population is fitness-sorted descending, so element 0
        of the next round's bootstrap is this round's best allocation.  It
        is the array selection gathers the survivors into, not a view of
        the pool, so holding it keeps no other buffer of the run alive.
        """
        self._reset_timings()
        if self.problem.num_jobs == 0:
            empty = np.zeros((0, self.problem.num_nodes), dtype=np.int64)
            return empty, 0.0, np.zeros(
                (self.config.population_size, 0, self.problem.num_nodes),
                dtype=np.int64,
            )

        p_size = self.config.population_size
        pool = np.empty(
            (3 * p_size, self.problem.num_jobs, self.problem.num_nodes), np.int64
        )
        # The population's, the mutants' and the offspring's slices.
        current, mutated, offspring = np.split(pool, 3)
        population = np.empty_like(current)
        _, support = self._seed(initial, out=current)
        fitness = self._timed_fitness(current, support)
        t0 = time.perf_counter()
        order = np.argsort(-fitness, kind="stable")
        current.take(order, axis=0, out=population, mode="clip")
        fitness = fitness[order]
        self.phase_ms["select_ms"] += (time.perf_counter() - t0) * 1000.0

        best_fitness = float(fitness[0])
        stall = 0
        for _ in range(self.config.generations):
            # Mutate the population, score the repaired mutants, then
            # recombine tournament winners *of the mutants*.  The
            # explore-then-recombine order matters: crossover of two good
            # mutants assembles coordinated multi-job reallocation moves
            # (take GPUs from one job, give to another) that crossover of
            # near-identical elites cannot, and saturated clusters are
            # exactly where such moves pay (benchmarked: elite-crossover
            # variants cost several percent avg JCT on overloaded traces).
            t0 = time.perf_counter()
            self._mutate(population, out=mutated)
            self.phase_ms["mutate_ms"] += (time.perf_counter() - t0) * 1000.0
            support = self._repair_in_place(mutated)
            mutated_fitness = self._timed_fitness(mutated, support)
            t0 = time.perf_counter()
            self._crossover(mutated, mutated_fitness, out=offspring)
            self.phase_ms["select_ms"] += (time.perf_counter() - t0) * 1000.0
            support = self._repair_in_place(offspring)
            offspring_fitness = self._timed_fitness(offspring, support)

            t0 = time.perf_counter()
            np.copyto(current, population)
            pool_fitness = np.concatenate(
                [fitness, mutated_fitness, offspring_fitness]
            )
            # Stable sort: on fitness ties the *earlier* pool member wins,
            # so an equally-fit incumbent (restart-free) allocation is
            # never displaced by a reshuffled twin.
            keep = np.argsort(-pool_fitness, kind="stable")[:p_size]
            pool.take(keep, axis=0, out=population, mode="clip")
            fitness = pool_fitness[keep]
            self.phase_ms["select_ms"] += (time.perf_counter() - t0) * 1000.0

            if self.config.patience > 0:
                if float(fitness[0]) > best_fitness + 1e-12:
                    best_fitness = float(fitness[0])
                    stall = 0
                else:
                    stall += 1
                    if stall >= self.config.patience:
                        break
            else:
                best_fitness = float(fitness[0])

        return population[0].copy(), float(fitness[0]), population


def _largest_remainder(
    counts: np.ndarray, draws: np.ndarray, excess: np.ndarray
) -> np.ndarray:
    """Removal matrix taking ``excess[i]`` units from row ``counts[i]``.

    The removal is proportional to the counts with the fractional remainder
    assigned by random priorities (``draws``, one per cell) among the
    rounded-down entries, so every entry with mass can shed GPUs and the
    expected removal per entry matches the uniform-without-replacement
    repair in distribution shape (exactly proportional mean, randomized
    remainder).  Guarantees ``0 <= removal <= counts`` and ``removal.sum(1)
    >= excess`` row-wise (equality except in pathological float-rounding
    corners, where a deterministic top-up keeps the constraint satisfied).
    Zero cells never shed anything and key ties go to the earlier cell, so
    a row packed to its non-zero cells in column order (zero padding on the
    right) gets the removal its full-width form would.
    """
    c = counts.astype(float)
    total = c.sum(axis=1)
    ideal = np.minimum(excess[:, None] * (c / total[:, None]), c)
    base = np.floor(ideal)
    frac = ideal - base
    base = base.astype(np.int64)
    extra = excess - base.sum(axis=1)  # (V,)
    # Random priority among entries with a fractional share; entries
    # with frac == 0 sort last and are never picked (there are always
    # at least `extra` fractional entries, since the fracs sum to it).
    keys = np.where(frac > 0.0, draws, -1.0)
    order = np.argsort(-keys, axis=1, kind="stable")
    ranks = np.empty_like(order)
    v_idx = np.arange(order.shape[0])[:, None]
    ranks[v_idx, order] = np.arange(order.shape[1])[None, :]
    removal = base + ((ranks < extra[:, None]) & (frac > 0.0))
    # Float-rounding safety net: top up any row still short of its
    # excess from the entries with the most remaining mass.  Never
    # triggers for exact arithmetic; bounded by the residual deficit.
    deficit = excess - removal.sum(axis=1)
    while np.any(deficit > 0):
        rows = np.where(deficit > 0)[0]
        headroom = counts[rows] - removal[rows]
        pick = np.argmax(headroom, axis=1)
        removal[rows, pick] += 1
        deficit[rows] -= 1
    return removal


def _remove_on_entries(
    vec: np.ndarray, held: np.ndarray, held_draws: np.ndarray, excess: np.ndarray
) -> np.ndarray:
    """:func:`_largest_remainder` on vectors given as their entries.

    Entry ``e`` holds ``held[e]`` GPUs in vector ``vec[e]`` with key
    ``held_draws[e]``; ``vec`` is non-decreasing and lists each vector's
    entries in column order.  They are packed into a ``(V, S)`` matrix, S
    the widest support; returns the per-entry removal.
    """
    support = np.bincount(vec, minlength=len(excess))
    slot = np.arange(vec.size) - (np.cumsum(support) - support)[vec]
    shape = (len(excess), int(support.max()))
    counts = np.zeros(shape, dtype=np.int64)
    counts[vec, slot] = held
    draws = np.zeros(shape)
    draws[vec, slot] = held_draws
    return _largest_remainder(counts, draws, excess)[vec, slot]
