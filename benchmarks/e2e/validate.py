"""Allocation invariants every applied decision must satisfy.

Checked from outside the program, on the decisions it returns
(``round_*``, ``trace_sim``) or applies (``service_live``), never inside a
timed region.  Digest equality says two runs agree; this says a run is
*right*.
"""

from __future__ import annotations

from typing import Collection, List, Mapping

import numpy as np

from repro.cluster import ClusterSpec


def check_allocations(
    cluster: ClusterSpec,
    active: Collection[str],
    allocations: Mapping[str, np.ndarray],
) -> List[str]:
    """Violations of the allocation invariants, as one line each.

    - only active jobs are allocated;
    - every row spans the full cluster width with non-negative integers;
    - no node is given more GPUs than it has;
    - a job's GPUs are of a single type;
    - at most one distributed (multi-node) job per node, the paper's
      interference-avoidance rule (Sec. 4.2.1).
    """
    problems: List[str] = []
    num_nodes = cluster.num_nodes
    type_ids = cluster.node_type_ids()
    rows = []
    for name, alloc in allocations.items():
        if name not in active:
            problems.append(f"{name}: allocated but not active")
            continue
        row = np.asarray(alloc)
        if row.shape != (num_nodes,):
            problems.append(f"{name}: row shape {row.shape}, want ({num_nodes},)")
            continue
        if not np.issubdtype(row.dtype, np.integer) or (row < 0).any():
            problems.append(f"{name}: row is not non-negative integers")
            continue
        if len(set(type_ids[row > 0].tolist())) > 1:
            problems.append(f"{name}: spans more than one GPU type")
        rows.append(row)
    if not rows:
        return problems
    matrix = np.stack(rows)
    over = np.flatnonzero(matrix.sum(axis=0) > cluster.capacities())
    for node in over:
        problems.append(
            f"node {node}: {int(matrix[:, node].sum())} GPUs allocated, "
            f"{int(cluster.capacities()[node])} present"
        )
    occupied = matrix > 0
    distributed = occupied.sum(axis=1) > 1
    crowded = np.flatnonzero(occupied[distributed].sum(axis=0) > 1)
    for node in crowded:
        problems.append(f"node {node}: shared by more than one distributed job")
    return problems
