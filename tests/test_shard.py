"""Tests for the sharded scheduling layer (repro.shard).

Covers the partitioner invariants (every node in exactly one cell), the
sharded policy's stitching guarantees (no job lost or double-allocated
across cells, feasible full-cluster decisions), the balancer's migration
semantics (old-cell GPUs explicitly zeroed, so host restart accounting
sees the move), and the decision-stream tier pin: a single-cell
homogeneous configuration reproduces the unsharded v2 decision stream
bit-for-bit.  The ``pollux-sharded`` registry entry is additionally held
to the full Policy API contract on both hosts by
``tests/test_policy_contract.py``, automatically.
"""

import dataclasses

import numpy as np
import pytest

import repro.policy
from repro.cluster import ClusterSpec, validate_allocation_matrix
from repro.core import (
    AgentReport,
    GAConfig,
    PolluxSchedConfig,
)
from repro.policy.views import ClusterState, JobSnapshot
from repro.shard import (
    Cell,
    TypeCellPartitioner,
    UniformCellPartitioner,
    validate_partition,
)
from repro.workload import MODEL_ZOO

QUICK_GA = GAConfig(population_size=8, generations=6)
QUICK_CFG = PolluxSchedConfig(ga=QUICK_GA)


def make_report(model_name="resnet18-cifar10", phi=1000.0, max_gpus_seen=8):
    profile = MODEL_ZOO[model_name]
    return AgentReport(
        throughput_params=profile.theta_true,
        grad_noise_scale=phi,
        init_batch_size=float(profile.init_batch_size),
        limits=profile.limits,
        max_gpus_seen=max_gpus_seen,
    )


def make_snapshot(name, num_nodes, alloc=None, phi=1000.0, gputime=0.0):
    if alloc is None:
        alloc = np.zeros(num_nodes, dtype=np.int64)
    return JobSnapshot(
        name=name,
        submission_time=0.0,
        allocation=alloc,
        batch_size=0,
        gputime=gputime,
        agent_report=make_report(phi=phi),
    )


def make_state(cluster, count, phis=None, allocs=None):
    snaps = tuple(
        make_snapshot(
            f"job-{i}",
            cluster.num_nodes,
            alloc=None if allocs is None else allocs[i],
            phi=1000.0 if phis is None else phis[i],
        )
        for i in range(count)
    )
    return ClusterState(cluster=cluster, jobs=snaps)


def feedback(state, decision):
    """Next round's state: the decision's allocations applied verbatim."""
    return ClusterState(
        cluster=state.cluster,
        jobs=tuple(
            dataclasses.replace(
                snap, allocation=decision.allocations[snap.name]
            )
            for snap in state.jobs
        ),
    )


HET = ClusterSpec.heterogeneous([("t4", 3, 4), ("v100", 2, 4), ("a100", 1, 4)])


class TestPartitioners:
    def test_type_partitioner_covers_each_node_once(self):
        cells = TypeCellPartitioner().partition(HET)
        validate_partition(HET, cells)
        assert [c.name for c in cells] == ["t4", "v100", "a100"]
        covered = sorted(i for c in cells for i in c.node_indices)
        assert covered == list(range(HET.num_nodes))

    def test_type_partitioner_homogeneous_single_cell(self):
        cluster = ClusterSpec.homogeneous(6, 4)
        cells = TypeCellPartitioner().partition(cluster)
        assert len(cells) == 1
        assert cells[0].node_indices == tuple(range(6))
        assert cells[0].subspec(cluster).nodes == cluster.nodes

    @pytest.mark.parametrize("num_cells", [1, 2, 4, 8])
    def test_uniform_partitioner_covers_each_node_once(self, num_cells):
        cluster = ClusterSpec.homogeneous(8, 4)
        cells = UniformCellPartitioner(num_cells).partition(cluster)
        validate_partition(cluster, cells)
        assert len(cells) == num_cells
        sizes = [len(c.node_indices) for c in cells]
        assert max(sizes) - min(sizes) <= 1  # size-balanced

    def test_uniform_partitioner_heterogeneous_single_type_cells(self):
        cells = UniformCellPartitioner(4).partition(HET)
        validate_partition(HET, cells)
        type_ids = HET.node_type_ids()
        for cell in cells:
            assert len({int(type_ids[i]) for i in cell.node_indices}) == 1

    def test_uniform_partitioner_rejects_fewer_cells_than_types(self):
        with pytest.raises(ValueError, match="GPU types"):
            UniformCellPartitioner(2).partition(HET)

    def test_validate_partition_rejects_overlap_and_gap(self):
        cluster = ClusterSpec.homogeneous(4, 4)
        with pytest.raises(ValueError, match="partition"):
            validate_partition(
                cluster,
                (Cell("a", (0, 1)), Cell("b", (1, 2, 3))),
            )
        with pytest.raises(ValueError, match="partition"):
            validate_partition(cluster, (Cell("a", (0, 1, 2)),))

    def test_cell_rejects_unsorted_or_empty(self):
        with pytest.raises(ValueError):
            Cell("a", ())
        with pytest.raises(ValueError):
            Cell("a", (2, 1))


class TestShardedDecisions:
    def make_policy(self, cluster, **kwargs):
        return repro.policy.create(
            "pollux-sharded", cluster=cluster, config=QUICK_CFG, seed=0, **kwargs
        )

    def test_every_job_allocated_in_exactly_one_cell(self):
        policy = self.make_policy(HET)
        state = make_state(HET, 7)
        decision = policy.schedule(0.0, state)
        # No job lost: every active job gets an explicit vector.
        assert set(decision.allocations) == {s.name for s in state.jobs}
        index_sets = {
            i: np.asarray(c.node_indices) for i, c in enumerate(policy.cells)
        }
        for snap in state.jobs:
            alloc = decision.allocations[snap.name]
            cell_idx = policy.assignment[snap.name]
            outside = np.delete(alloc, index_sets[cell_idx])
            # No double allocation: GPUs only inside the assigned cell.
            assert outside.sum() == 0

    def test_stitched_decision_is_feasible(self):
        policy = self.make_policy(HET)
        state = make_state(HET, 7)
        for rnd in range(3):
            decision = policy.schedule(60.0 * rnd, state)
            matrix = np.stack(
                [decision.allocations[s.name] for s in state.jobs]
            )
            assert validate_allocation_matrix(matrix, HET) == []
            state = feedback(state, decision)

    def test_migration_zeroes_old_cell_gpus(self):
        cluster = ClusterSpec.homogeneous(4, 4)
        policy = self.make_policy(
            cluster,
            partitioner=UniformCellPartitioner(2),
            migrate_every=1,
            migration_threshold=1.0,
        )
        state = make_state(cluster, 4)
        decision = policy.schedule(0.0, state)
        # Pile every job onto cell 0 so the next balance check must move
        # one to cell 1.
        policy._assignment = {s.name: 0 for s in state.jobs}
        state = feedback(state, decision)
        before = policy.assignment
        decision = policy.schedule(60.0, state)
        after = policy.assignment
        moved = [n for n in before if before[n] != after[n]]
        assert moved and policy.migrations >= 1
        cell0 = np.asarray(policy.cells[0].node_indices)
        for name in moved:
            # The migrated job's decision explicitly zeroes its old-cell
            # GPUs — the host's allocation-change accounting therefore
            # charges the move as a restart; nothing is silently kept.
            assert decision.allocations[name][cell0].sum() == 0

    def test_migration_prefers_pending_jobs(self):
        cluster = ClusterSpec.homogeneous(4, 4)
        policy = self.make_policy(
            cluster,
            partitioner=UniformCellPartitioner(2),
            migrate_every=1,
            migration_threshold=1.0,
        )
        state = make_state(cluster, 4)
        decision = policy.schedule(0.0, state)
        policy._assignment = {s.name: 0 for s in state.jobs}
        # Make job-3 the only pending job; the rest hold GPUs on cell 0.
        allocs = []
        for i, snap in enumerate(state.jobs):
            alloc = np.zeros(cluster.num_nodes, dtype=np.int64)
            if i != 3:
                alloc[i % 2] = 2
            allocs.append(alloc)
        state = make_state(cluster, 4, allocs=allocs)
        policy.schedule(60.0, state)
        assert policy.assignment["job-3"] == 1

    def test_repartition_on_cluster_resize(self):
        cluster = ClusterSpec.homogeneous(4, 4)
        policy = self.make_policy(
            cluster, partitioner=TypeCellPartitioner()
        )
        policy.schedule(0.0, make_state(cluster, 3))
        grown = cluster.resized(6)
        decision = policy.schedule(60.0, make_state(grown, 3))
        assert policy.cells[0].node_indices == tuple(range(6))
        assert all(len(a) == 6 for a in decision.allocations.values())

    def test_empty_state_resets(self):
        policy = self.make_policy(HET)
        policy.schedule(0.0, make_state(HET, 4))
        decision = policy.schedule(60.0, make_state(HET, 0))
        assert decision.allocations == {}
        assert policy.assignment == {}


class TestSingleCellBitForBit:
    """The decision-stream tier pin: one cell == unsharded v2, exactly."""

    def test_single_cell_matches_unsharded_stream(self):
        cluster = ClusterSpec.homogeneous(4, 4)
        unsharded = repro.policy.create(
            "pollux", cluster=cluster, config=QUICK_CFG, seed=7
        )
        sharded = repro.policy.create(
            "pollux-sharded", cluster=cluster, config=QUICK_CFG, seed=7
        )
        assert len(sharded.cells) == 1
        state_u = make_state(cluster, 6)
        state_s = make_state(cluster, 6)
        for rnd in range(4):
            # Drift phi between rounds like a live trace would.
            phis = [1000.0 * (1.0 + 0.01 * rnd * (i + 1)) for i in range(6)]
            state_u = make_state(
                cluster,
                6,
                phis=phis,
                allocs=[s.allocation for s in state_u.jobs],
            )
            state_s = make_state(
                cluster,
                6,
                phis=phis,
                allocs=[s.allocation for s in state_s.jobs],
            )
            du = unsharded.schedule(60.0 * rnd, state_u)
            ds = sharded.schedule(60.0 * rnd, state_s)
            assert set(du.allocations) == set(ds.allocations)
            for name in du.allocations:
                assert np.array_equal(
                    du.allocations[name], ds.allocations[name]
                ), f"round {rnd}, {name}: sharded diverged from unsharded"
            assert sharded.last_utility == pytest.approx(
                unsharded.last_utility
            )
            state_u = feedback(state_u, du)
            state_s = feedback(state_s, ds)
