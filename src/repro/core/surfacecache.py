"""The scheduler's cache of per-job throughput cells (perf subsystem).

Pollux's scheduling loop evaluates each job's goodput surface — the
``max_m GOODPUT(K, placement-flag[, type])`` tables of
:mod:`repro.core.speedup` — every 60 s round, and again for each
``utility()`` evaluation and autoscaler cluster-size probe.  The expensive
half of a table is THROUGHPUT (Eqns. 9-11) on every feasible grid cell,
which depends on theta_sys alone; phi_t moves on every tick, while
theta_sys re-fits only every ``refit_every`` observations.  Gavel
(Narayanan et al., OSDI 2020) makes the same split for throughput-ratio
tables: compute the stable half once, look it up everywhere.

:class:`SurfaceCache` is that lookup: an LRU of
:class:`~repro.core.speedup.TputCells` keyed on ``(AgentReport.
theta_fingerprint(), cap, type speeds)``.  Cells are built at most once
per key; every table is folded from them per call, so a table is a
per-round value owned by the ``AllocationProblem`` that stacks it.  A
cached cell is bit-identical to the one a rebuild would compute, so the
cache is invisible to scheduling decisions (asserted bit-for-bit by
``tests/test_surfacecache.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Sequence

from .speedup import TputCells

if TYPE_CHECKING:  # annotations only
    from .agent import AgentReport

__all__ = ["SurfaceCache", "CacheStats"]

#: Entries a fresh cache holds before :meth:`SurfaceCache.ensure_capacity`
#: grows it.
INITIAL_MAXSIZE = 512


class CacheStats:
    """Counters of one :class:`SurfaceCache`.

    ``misses`` counts tables folded from cells, one per job per
    ``PolluxSched.build_problem`` (no table is ever reused);
    ``cells_hits``/``cells_misses`` count cell lookups, and ``evictions``
    the cells the LRU dropped.
    """

    __slots__ = ("misses", "evictions", "cells_hits", "cells_misses")

    def __init__(self) -> None:
        self.misses = 0
        self.evictions = 0
        self.cells_hits = 0
        self.cells_misses = 0


class SurfaceCache:
    """LRU cache of per-job :class:`~repro.core.speedup.TputCells`.

    Cached arrays are frozen with ``writeable=False`` — the table fold only
    reads them, and the flag turns any accidental in-place mutation into a
    hard error instead of silent cross-round corruption.
    """

    def __init__(self) -> None:
        self.maxsize = INITIAL_MAXSIZE
        self.stats = CacheStats()
        self._entries: "OrderedDict[tuple, TputCells]" = OrderedDict()

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
        excluded, because the :class:`~repro.core.speedup.TputCells` it
        identifies are phi-independent: they stay valid across every round
        in which only the job's gradient noise scale moved, which is the
        common case between theta_sys re-fits.
        """
        return (
            report.theta_fingerprint(),
            int(max_gpus),
            tuple(float(s) for s in type_speeds),
        )

    def lookup(self, key: tuple) -> Optional[TputCells]:
        """One half of the two-phase protocol: probe without building.

        Counts a cells hit or miss; a miss returns ``None`` and the caller
        is expected to build the cells (typically batched with other misses
        via :func:`repro.core.speedup.build_tput_cells`) and :meth:`store`
        them.
        """
        cells = self._entries.get(key)
        if cells is None:
            self.stats.cells_misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.cells_hits += 1
        return cells

    def store(self, key: tuple, cells: TputCells) -> TputCells:
        """Insert built cells (the other half of :meth:`lookup`), frozen
        read-only on the way in."""
        for array in (cells.tput, cells.m_cells, cells.counts):
            array.flags.writeable = False
        self._entries[key] = cells
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return cells
