"""Cluster-to-cell partitioning for sharded scheduling.

A *cell* is a subset of a :class:`~repro.cluster.spec.ClusterSpec`'s nodes
that one :class:`~repro.core.sched.PolluxSched` instance optimizes on its
own.  Partitioners only pick node index sets; :class:`Cell.subspec` turns
one into a standalone ``ClusterSpec`` for the per-cell scheduler, and
``node_indices`` maps cell-local allocation vectors back into full-cluster
coordinates.

Both built-in strategies keep every cell single-GPU-type, which is what
makes per-cell optimization decision-compatible with the unsharded GA: the
type-group repair already forbids a job from spanning GPU types, so a
per-type cut never removes an allocation the unsharded optimizer could
actually have kept (cross-type *moves* between rounds are the only lost
freedom, and the top-level balancer's migrations recover those).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..cluster.spec import ClusterSpec

__all__ = [
    "Cell",
    "CellPartitioner",
    "TypeCellPartitioner",
    "UniformCellPartitioner",
    "validate_partition",
]


@dataclass(frozen=True)
class Cell:
    """One shard of a cluster: a name plus the member node indices."""

    name: str
    node_indices: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.node_indices:
            raise ValueError(f"cell {self.name!r} has no nodes")
        if list(self.node_indices) != sorted(set(self.node_indices)):
            raise ValueError(
                f"cell {self.name!r} node indices must be sorted and unique"
            )

    def subspec(self, cluster: ClusterSpec) -> ClusterSpec:
        """The standalone ``ClusterSpec`` this cell's scheduler sees."""
        return ClusterSpec(
            nodes=tuple(cluster.nodes[i] for i in self.node_indices)
        )

    def capacity_eq(self, cluster: ClusterSpec) -> float:
        """GPU-equivalents in the cell (GPUs weighted by compute speed).

        The balancer's goodput-capacity signal: arrivals go to the cell
        with the most equivalents per resident job, and migrations flow
        toward the cell whose marginal equivalents-per-job is highest.
        """
        return float(
            sum(
                cluster.nodes[i].num_gpus * cluster.nodes[i].gpu_type.compute_speed
                for i in self.node_indices
            )
        )


class CellPartitioner:
    """Strategy interface: split a cluster into disjoint, covering cells."""

    def partition(self, cluster: ClusterSpec) -> Tuple[Cell, ...]:
        raise NotImplementedError


class TypeCellPartitioner(CellPartitioner):
    """One cell per ``GpuType``, in first-appearance order (the default).

    On a homogeneous cluster this degenerates to a single cell containing
    every node — which is exactly what makes the default sharded
    configuration reproduce the unsharded ``pollux`` decision stream bit-for-bit
    (pinned in ``tests/test_shard.py``).
    """

    def partition(self, cluster: ClusterSpec) -> Tuple[Cell, ...]:
        cells = []
        for t, gpu_type in enumerate(cluster.gpu_types):
            indices = tuple(
                int(i) for i in np.flatnonzero(cluster.node_type_ids() == t)
            )
            cells.append(Cell(name=gpu_type.name, node_indices=indices))
        return tuple(cells)


class UniformCellPartitioner(CellPartitioner):
    """``num_cells`` size-balanced cells, each still single-GPU-type.

    Cells are allotted to GPU types proportionally to node counts (every
    type gets at least one), then each type's nodes are split into
    contiguous chunks.  ``num_cells`` must be at least the number of GPU
    types; homogeneous clusters simply get ``num_cells`` contiguous
    chunks.  This is the scale-out strategy: at 10k GPUs a single
    homogeneous cell is still one giant GA, and cutting it into C cells
    divides the per-round (jobs × nodes) work by ~C² per cell.
    """

    def __init__(self, num_cells: int):
        if num_cells < 1:
            raise ValueError("num_cells must be >= 1")
        self.num_cells = int(num_cells)

    def partition(self, cluster: ClusterSpec) -> Tuple[Cell, ...]:
        type_ids = cluster.node_type_ids()
        num_types = len(cluster.gpu_types)
        if self.num_cells < num_types:
            raise ValueError(
                f"num_cells={self.num_cells} < {num_types} GPU types; every "
                "cell must be single-type"
            )
        type_counts = np.bincount(type_ids, minlength=num_types)
        # Largest-remainder allotment of cells to types, >= 1 each.
        shares = type_counts * (self.num_cells / type_counts.sum())
        alloted = np.maximum(np.floor(shares).astype(int), 1)
        while alloted.sum() > self.num_cells:
            alloted[int(np.argmax(alloted))] -= 1
        while alloted.sum() < self.num_cells:
            # Favor the type with the most nodes per allotted cell.
            alloted[int(np.argmax(type_counts / alloted))] += 1
        cells = []
        for t, gpu_type in enumerate(cluster.gpu_types):
            indices = np.flatnonzero(type_ids == t)
            for part, chunk in enumerate(np.array_split(indices, alloted[t])):
                if len(chunk) == 0:
                    continue
                name = (
                    gpu_type.name
                    if alloted[t] == 1
                    else f"{gpu_type.name}/{part}"
                )
                cells.append(
                    Cell(name=name, node_indices=tuple(int(i) for i in chunk))
                )
        return tuple(cells)


def validate_partition(
    cluster: ClusterSpec, cells: Tuple[Cell, ...]
) -> None:
    """Raise unless the cells cover every node exactly once."""
    seen: list = []
    for cell in cells:
        seen.extend(cell.node_indices)
    if sorted(seen) != list(range(cluster.num_nodes)):
        raise ValueError(
            f"cells do not partition the cluster's {cluster.num_nodes} "
            f"nodes: covered={sorted(set(seen))}"
        )
