"""Speedup-table rows on demand.

A large round's ``AllocationProblem`` fills its speedup table row by row:
``build_problem`` builds each job's normalization row, the row of its
current allocation and those of the bootstrap population, and every
lookup that reaches a new (job, K) row folds it then.  What the GA reads
must not depend on when a row was filled: every entry equals the one
``build_speedup_tables_batch`` computes for the whole table, bit for bit.
"""

import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import repro.core.sched as sched_module  # noqa: E402
import repro.policy  # noqa: E402
from benchmarks.e2e import inputs  # noqa: E402
from repro.cluster import ClusterSpec, GpuType, NodeSpec  # noqa: E402
from repro.core import (  # noqa: E402
    AgentReport,
    AllocationProblem,
    BatchSizeLimits,
    GAConfig,
    JobGAInfo,
    PolluxSched,
    PolluxSchedConfig,
    SchedJobInfo,
)
from repro.core.speedup import build_speedup_tables_batch  # noqa: E402
from repro.workload import MODEL_ZOO  # noqa: E402

_ZOO = [MODEL_ZOO[name] for name in sorted(MODEL_ZOO)]
_NODES_PER_TYPE, _GPUS_PER_NODE = 3, 4


def _cluster(speeds) -> ClusterSpec:
    return ClusterSpec(
        nodes=tuple(
            NodeSpec(_GPUS_PER_NODE, GpuType(f"type{t}", speed))
            for t, speed in enumerate(speeds)
            for _ in range(_NODES_PER_TYPE)
        )
    )


@st.composite
def row_problems(draw):
    """Reports (caps down to 1, some without a feasible placement), a type
    speed set, and a seed for the populations."""
    speeds = draw(st.sampled_from([(1.0,), (2.5,), (1.0, 2.5), (3.0, 1.0)]))
    total_gpus = len(speeds) * _NODES_PER_TYPE * _GPUS_PER_NODE
    reports = []
    for _ in range(draw(st.integers(1, 12))):
        profile = _ZOO[draw(st.integers(0, len(_ZOO) - 1))]
        seen = draw(st.integers(0, total_gpus))  # 0: cap 1
        limits = profile.limits
        cap = max(1, min(2 * seen, total_gpus))
        if draw(st.integers(0, 4)) == 0:
            # The initial batch needs more GPUs than the cap allows.
            limits = BatchSizeLimits(
                init_batch_size=limits.init_batch_size,
                max_batch_size=limits.max_batch_size,
                max_local_bsz=limits.init_batch_size / (cap + 1),
            )
            assert limits.min_gpus() > cap
        reports.append(
            AgentReport(
                throughput_params=profile.theta_true,
                grad_noise_scale=draw(st.floats(0.0, 1e5, allow_nan=False)),
                init_batch_size=float(limits.init_batch_size),
                limits=limits,
                max_gpus_seen=seen,
            )
        )
    return reports, speeds, draw(st.integers(0, 2**32 - 1))


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.int64)


@settings(max_examples=40, deadline=None)
@given(problem=row_problems())
def test_on_demand_rows_equal_the_eager_table(problem):
    reports, speeds, seed = problem
    cluster = _cluster(speeds)
    zeros = np.zeros(cluster.num_nodes, dtype=np.int64)
    jobs = [SchedJobInfo(f"j{i}", r, zeros, 0.0) for i, r in enumerate(reports)]
    sched = PolluxSched(cluster)
    with patch.object(sched_module, "_EAGER_MAX_ROWS", 0):
        # A first round on every other job: the second reads some rows
        # from the cache and builds the rest.
        sched.build_problem(jobs[::2])
        on_demand = sched.build_problem(jobs)
    caps = on_demand.max_gpus
    tables = build_speedup_tables_batch(
        [r.goodput_model() for r in reports],
        caps,
        points_per_octave=sched_module.TABLE_POINTS_PER_OCTAVE,
        type_speeds=speeds,
        squeeze=False,
    )
    eager = AllocationProblem(
        cluster,
        [JobGAInfo(t, 1.0, int(c), zeros, False) for t, c in zip(tables, caps)],
    )
    rng = np.random.default_rng(seed)
    for _ in range(4):
        population = rng.integers(
            0, _GPUS_PER_NODE + 1, (5, len(jobs), cluster.num_nodes)
        )
        population *= rng.random(population.shape) < 0.4
        np.testing.assert_array_equal(
            _bits(on_demand.speedups(population)), _bits(eager.speedups(population))
        )
    filled = on_demand._filled.reshape(len(jobs), -1).copy()
    filled &= np.arange(filled.shape[1]) <= caps[:, None]  # past a cap: unread
    np.testing.assert_array_equal(
        _bits(on_demand.tables[filled]), _bits(eager.tables[filled])
    )


def test_cold_dense_round_folds_few_rows():
    """A cold 512-GPU, 256-job round reads a small share of its rows."""
    cluster = ClusterSpec.homogeneous(64, 8)
    state = inputs.synthetic_state(cluster, 256, inputs.sub_seed(1, "state"))
    policy = repro.policy.create(
        "pollux",
        cluster=cluster,
        config=PolluxSchedConfig(ga=GAConfig(population_size=16, generations=8)),
        seed=0,
    )
    policy.schedule(0.0, state)
    rows = sum(s.agent_report.exploration_cap(cluster.total_gpus) for s in state.jobs)
    stats = policy.sched.surface_cache.stats
    assert rows >= sched_module._EAGER_MAX_ROWS
    assert 0 < stats.rows_folded < 0.15 * rows
    assert stats.cells_misses == 256 and stats.cells_hits == 0
