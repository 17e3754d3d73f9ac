"""The scheduler's cache of per-job throughput cells (perf subsystem).

Pollux's scheduling loop evaluates each job's goodput surface — the
``max_m GOODPUT(K, placement-flag[, type])`` rows of
:mod:`repro.core.speedup` — every 60 s round, and again for each
``utility()`` evaluation and autoscaler cluster-size probe.  The expensive
half of a row is THROUGHPUT (Eqns. 9-11) on every feasible grid cell,
which depends on theta_sys alone; phi_t moves on every tick, while
theta_sys re-fits only every ``refit_every`` observations.  Gavel
(Narayanan et al., OSDI 2020) makes the same split for throughput-ratio
tables: compute the stable half once, look it up everywhere.

:class:`SurfaceCache` is that lookup: an LRU of :class:`RowCells` keyed on
``(AgentReport.theta_fingerprint(), cap, type speeds)``.  An entry holds
the cells of the rows (GPU counts k) that rounds have reached so far, each
built at most once per key; a round folds the rows its GA reads from them
(``repro.core.sched``), so a table is a per-round value owned by the
``AllocationProblem`` that fills it.  A cached cell is bit-identical to
the one a rebuild would compute, so the cache is invisible to scheduling
decisions (asserted bit-for-bit by ``tests/test_surfacecache.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .speedup import TputCells

if TYPE_CHECKING:  # annotations only
    from .agent import AgentReport

__all__ = ["SurfaceCache", "CacheStats", "RowCells"]

#: Entries a fresh cache holds before :meth:`SurfaceCache.ensure_capacity`
#: grows it.
INITIAL_MAXSIZE = 512


class CacheStats:
    """Counters of one :class:`SurfaceCache`.

    ``misses`` counts per-round tables, one per job per
    ``PolluxSched.build_problem`` (no table is ever reused);
    ``cells_hits``/``cells_misses`` count entry lookups, one per job per
    ``build_problem``, and ``evictions`` the entries the LRU dropped.
    ``rows_folded`` counts the (job, k) table rows folded from cells —
    those a round's GA reaches, or every row of an eager round.
    """

    __slots__ = (
        "misses",
        "evictions",
        "cells_hits",
        "cells_misses",
        "rows_folded",
    )

    def __init__(self) -> None:
        self.misses = 0
        self.evictions = 0
        self.cells_hits = 0
        self.cells_misses = 0
        self.rows_folded = 0


class RowCells:
    """One cache entry: a job's throughput cells, row by row.

    ``full`` holds every row k = 1..cap as one :class:`TputCells` once an
    eager round has built the whole job; otherwise slot k of ``tput`` /
    ``m_cells`` holds the ``(2, T, c)`` throughput and ``(c,)`` batch sizes
    of row k once some round has built it, else ``None``.  Arrays are
    frozen ``writeable=False`` on the way in — folds only read them, and
    the flag turns any accidental in-place mutation into a hard error
    instead of silent cross-round corruption.
    """

    __slots__ = ("full", "tput", "m_cells")

    def __init__(self, cap: int) -> None:
        self.full: Optional[TputCells] = None
        self.tput: List[Optional[np.ndarray]] = [None] * (cap + 1)
        self.m_cells: List[Optional[np.ndarray]] = [None] * (cap + 1)

    def add(self, ks: Sequence[int], cells: TputCells) -> None:
        """Store rows ``ks`` of ``cells`` (its rows, in order) as a frozen
        copy — a view into the caller's batch would pin the whole batch for
        as long as this entry lives.  Every row at once becomes ``full``."""
        cells = TputCells(cells.tput.copy(), cells.m_cells.copy(), cells.counts.copy())
        for array in (cells.tput, cells.m_cells, cells.counts):
            array.flags.writeable = False
        if len(ks) == len(self.tput) - 1:
            self.full = cells
        else:
            self._views(ks, cells)

    def has(self, k: int) -> bool:
        """Whether row ``k`` is built."""
        return self.full is not None or self.tput[k] is not None

    def row(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row ``k``'s throughput and batch sizes (built), splitting
        ``full`` into row views on first use."""
        if self.tput[k] is None:
            self._views(range(1, len(self.tput)), self.full)
        return self.tput[k], self.m_cells[k]

    def _views(self, ks: Sequence[int], cells: TputCells) -> None:
        start = 0
        for k, stop in zip(ks, np.cumsum(cells.counts).tolist()):
            self.tput[k] = cells.tput[:, :, start:stop]
            self.m_cells[k] = cells.m_cells[start:stop]
            start = stop


class SurfaceCache:
    """LRU cache of per-job :class:`RowCells`."""

    def __init__(self) -> None:
        self.maxsize = INITIAL_MAXSIZE
        self.stats = CacheStats()
        self._entries: "OrderedDict[tuple, RowCells]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        self._entries.clear()

    def ensure_capacity(self, maxsize: int) -> None:
        """Grow ``maxsize`` to at least the given value (never shrinks).

        PolluxSched calls this each round with a multiple of the active-job
        count: a fixed-size LRU thrashes once a tick's working set — one
        entry per job per distinct exploration cap, and the autoscaler's
        binary-search probes touch several caps per job — outgrows it, at
        which point cells are evicted before their cross-round reuse.
        Growing is decision-safe: hits return bit-identical cells to the
        build a miss would have performed.
        """
        if maxsize > self.maxsize:
            self.maxsize = int(maxsize)

    # ------------------------------------------------------------------
    # Two-phase API (batched builds)
    # ------------------------------------------------------------------

    def cells_key(
        self,
        report: "AgentReport",
        max_gpus: int,
        type_speeds: Sequence[float],
    ) -> tuple:
        """Cache key for a job's phi-free throughput cells.

        Keyed on ``AgentReport.theta_fingerprint()`` — phi is deliberately
        excluded, because the cells it identifies are phi-independent: they
        stay valid across every round in which only the job's gradient
        noise scale moved, which is the common case between theta_sys
        re-fits.
        """
        return (
            report.theta_fingerprint(),
            int(max_gpus),
            tuple(float(s) for s in type_speeds),
        )

    def lookup(self, key: tuple) -> Optional[RowCells]:
        """Probe without building; counts a cells hit or miss.

        A miss returns ``None``; the caller then stores a fresh
        :class:`RowCells` (:meth:`store`) and adds the rows it builds.
        """
        cells = self._entries.get(key)
        if cells is None:
            self.stats.cells_misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.cells_hits += 1
        return cells

    def store(self, key: tuple, cells: RowCells) -> RowCells:
        """Insert an entry (the other half of :meth:`lookup`)."""
        self._entries[key] = cells
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return cells
