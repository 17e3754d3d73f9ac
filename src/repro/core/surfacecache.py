"""Shared cache of per-job speedup/goodput surfaces (perf subsystem).

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
``(AgentReport.fingerprint(), table shape parameters)``; the scheduler
stores speedup tables, and :meth:`SurfaceCache.get_flat` the speedup
table *and* the argmax batch-size table of one per-job surface pass, for
table-driven batch tuning (``PolluxAgent.tune_batch_size``).  Because
the fingerprint is a pure value key, a cache hit returns the identical
array object a miss would have computed — caching is invisible to
scheduling decisions (asserted bit-for-bit by
``tests/test_surfacecache.py``).

Agents re-fit theta_sys only every ``refit_every`` observations, but phi_t
drifts every tick, so exact keys miss across rounds.  Constructing the
cache with ``phi_tol > 0`` quantizes phi into relative buckets (see
:meth:`repro.core.agent.AgentReport.fingerprint`), trading a bounded
goodput-model staleness for table reuse across rounds.  Only an agent's
own batch-tuning cache does that (``TABLE_TUNING_PHI_TOL``); the
scheduler's cache keys on exact phi.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from .speedup import build_surfaces

if TYPE_CHECKING:  # avoid a runtime cycle: agent.py imports this module
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
            or two ``(cap + 1, 2[, T])`` float tables), so the default
            comfortably covers hundreds of jobs at several caps each.
        phi_tol: Relative phi quantization passed through to
            :meth:`~repro.core.agent.AgentReport.fingerprint`.  0 keys on
            the exact phi (bit-identical scheduling; within-tick reuse
            only); > 0 buckets phi for opt-in cross-round reuse.

    Cached arrays are returned with ``writeable=False`` — consumers
    (``JobGAInfo``, the GA's table gather, batch-size lookups) only read
    them, and the flag turns any accidental in-place mutation into a hard
    error instead of silent cross-round corruption.
    """

    def __init__(self, maxsize: int = 512, phi_tol: float = 0.0):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        if phi_tol < 0:
            raise ValueError("phi_tol must be non-negative")
        self.maxsize = int(maxsize)
        self.phi_tol = float(phi_tol)
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

    def flat_key(
        self,
        report: "AgentReport",
        max_gpus: int,
        points_per_octave: int,
        speed: float,
    ) -> tuple:
        """Cache key for a single-type surface (see :meth:`get_flat`)."""
        return (
            "flat",
            report.fingerprint(self.phi_tol),
            int(max_gpus),
            int(points_per_octave),
            float(speed),
        )

    def speedup_key(
        self,
        report: "AgentReport",
        max_gpus: int,
        points_per_octave: int,
        type_speeds: Sequence[float],
    ) -> tuple:
        """Cache key for the scheduler's speedup-only table entries.

        Its own tag, so :meth:`get_flat` never takes an entry without a
        batch-size table.  The table is flat, ``(max_gpus + 1, 2)``,
        exactly when ``type_speeds`` names one type.
        """
        return (
            "speedup",
            report.fingerprint(self.phi_tol),
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

        ``entry`` is a tuple of arrays, one of three shapes by key tag:
        ``(speedup_table, bsz_table)`` under :meth:`flat_key`,
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

    # ------------------------------------------------------------------

    def get_flat(
        self,
        report: "AgentReport",
        max_gpus: int,
        points_per_octave: int,
        speed: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Surfaces for a single-type cluster: ``(max_gpus + 1, 2)`` pair.

        :meth:`lookup`, then on a miss one per-job
        :func:`repro.core.speedup.build_surfaces` pass and :meth:`store` —
        bit-identical to calling the builder directly (a hit returns the
        very arrays a miss computed).
        """
        key = self.flat_key(report, max_gpus, points_per_octave, speed)
        entry = self.lookup(key)
        if entry is None:
            entry = self.store(
                key,
                build_surfaces(
                    report.goodput_model(),
                    max_gpus,
                    points_per_octave=points_per_octave,
                    speed=speed,
                ),
            )
        return entry
