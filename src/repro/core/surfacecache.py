"""The scheduler's cache of per-job speedup tables (perf subsystem).

Pollux's scheduling loop evaluates each job's goodput surface — the
``max_m GOODPUT(K, placement-flag[, type])`` tables of
:mod:`repro.core.speedup` — in several places per 60 s round: once when
``PolluxSched.optimize`` builds the GA problem, once per ``utility()``
evaluation (the autoscaler's in-band check), and once per cluster-size
probe of the binary search in :mod:`repro.core.autoscale`.  Within a tick
these all see the *same* agent reports and (because probe clusters share
the live cluster's GPU-type set) the same type speeds, so they rebuild
bit-identical tables three or more times per job.  Gavel (Narayanan et
al., OSDI 2020) makes the same observation for throughput-ratio tables:
compute once, look up everywhere.

:class:`SurfaceCache` is that lookup.  It is keyed on
``(AgentReport.fingerprint(), table shape parameters)`` and stores the
speedup tables :func:`repro.core.speedup.build_speedup_tables_batch`
builds.  Because the fingerprint is a pure value key on the exact phi, a
cache hit returns the identical array object a miss would have computed —
caching is invisible to scheduling decisions (asserted bit-for-bit by
``tests/test_surfacecache.py``).

phi_t drifts every tick while agents re-fit theta_sys only every
``refit_every`` observations, so exact table keys miss across rounds; a
second level keyed on theta alone (:meth:`SurfaceCache.cells_key`) keeps
the phi-free throughput cells those rebuilds start from.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # annotations only
    from .agent import AgentReport

__all__ = ["SurfaceCache", "CacheStats"]


class CacheStats:
    """Hit/miss/eviction counters for one :class:`SurfaceCache`.

    ``hits``/``misses`` count *table* requests (one per job per
    ``build_problem``); ``cells_hits``/``cells_misses`` count the
    scheduler's second-level lookups of phi-free throughput cells, which only
    happen after a table miss and are tracked separately so the table-level
    hit-rate keeps meaning "tables served without any rebuild".
    """

    __slots__ = ("hits", "misses", "evictions", "cells_hits", "cells_misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.cells_hits = 0
        self.cells_misses = 0

    @property
    def builds(self) -> int:
        """Number of table assemblies performed (== misses)."""
        return self.misses

    def snapshot(self) -> Tuple[int, int, int]:
        """(hits, misses, evictions) at this instant."""
        return (self.hits, self.misses, self.evictions)

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, cells_hits={self.cells_hits}, "
            f"cells_misses={self.cells_misses})"
        )


class SurfaceCache:
    """LRU cache of per-job surface entries (shapes: see :meth:`store`).

    Args:
        maxsize: Maximum number of cached entries; least recently used
            entries are evicted beyond it.  A table entry is a few KB (one
            ``(cap + 1, 2[, T])`` float table), so the default comfortably
            covers hundreds of jobs at several caps each.

    Cached arrays are returned with ``writeable=False`` — consumers
    (``JobGAInfo``, the GA's table gather) only read them, and the flag
    turns any accidental in-place mutation into a hard error instead of
    silent cross-round corruption.
    """

    def __init__(self, maxsize: int = 512):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self.stats = CacheStats()
        self._entries: "OrderedDict[tuple, Tuple[np.ndarray, ...]]" = (
            OrderedDict()
        )

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
        which point entries are evicted before their cross-round reuse
        (pending jobs' reports are unchanged between rounds).  Growing is
        decision-safe: hits return bit-identical tables to the build a miss
        would have performed.
        """
        if maxsize > self.maxsize:
            self.maxsize = int(maxsize)

    # ------------------------------------------------------------------
    # Two-phase API (batched builds)
    # ------------------------------------------------------------------

    def speedup_key(
        self,
        report: "AgentReport",
        max_gpus: int,
        points_per_octave: int,
        type_speeds: Sequence[float],
    ) -> tuple:
        """Cache key for a job's speedup table.

        The table is flat, ``(max_gpus + 1, 2)``, exactly when
        ``type_speeds`` names one type.
        """
        return (
            "speedup",
            report.fingerprint(),
            int(max_gpus),
            int(points_per_octave),
            tuple(float(s) for s in type_speeds),
        )

    def cells_key(
        self,
        report: "AgentReport",
        max_gpus: int,
        points_per_octave: int,
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
            "cells",
            report.theta_fingerprint(),
            int(max_gpus),
            int(points_per_octave),
            tuple(float(s) for s in type_speeds),
        )

    def lookup(self, key: tuple) -> Optional[Tuple[np.ndarray, ...]]:
        """One half of the two-phase protocol: probe without building.

        Counts a hit or a miss (in the cells counters for cells keys); a
        miss returns ``None`` and the caller is expected to compute the
        entry (typically batched with other misses via
        :func:`repro.core.speedup.build_speedup_tables_batch`) and
        :meth:`store` it.  A hit returns the tuple :meth:`store` took.
        """
        is_cells = bool(key) and key[0] == "cells"
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            if is_cells:
                self.stats.cells_hits += 1
            else:
                self.stats.hits += 1
            return entry
        if is_cells:
            self.stats.cells_misses += 1
        else:
            self.stats.misses += 1
        return None

    def store(self, key: tuple, entry: tuple) -> tuple:
        """Insert a built entry (the other half of :meth:`lookup`).

        ``entry`` is a tuple of arrays, one of two shapes by key tag:
        ``(speedup_table,)`` under :meth:`speedup_key` and ``(tput,
        m_cells, counts)`` under :meth:`cells_key`.  Every array is frozen
        read-only on the way in.
        """
        for array in entry:
            array.flags.writeable = False
        self._entries[key] = entry
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return entry
