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
table-driven batch tuning (``PolluxAgent.tune_batch_size`` with
``method="table"``).  Because the fingerprint is a
pure value key, a cache hit returns the identical array object a miss
would have computed — caching is invisible to scheduling decisions
(asserted bit-for-bit by ``tests/test_surfacecache.py``).

Cross-round reuse is opt-in: agents re-fit theta_sys only every
``refit_every`` observations, but phi_t drifts every tick, so exact keys
miss across rounds.  Constructing the cache with ``phi_tol > 0`` quantizes
phi into relative buckets (see :meth:`repro.core.agent.AgentReport.
fingerprint`), trading a bounded goodput-model staleness for table reuse
across rounds.  This changes decisions (slightly) and is therefore off by
default; ``PolluxSchedConfig.surface_phi_tol`` is the operator knob.
"""

from __future__ import annotations

import json
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

    # ------------------------------------------------------------------
    # Persistence (phi-free cells entries only)
    # ------------------------------------------------------------------

    def export_cells(self) -> list:
        """The phi-free ``TputCells`` entries as ``[(key, arrays), ...]``.

        The in-memory form of :meth:`to_file`: only ``"cells"`` entries
        are exported, because their keys contain nothing but
        ``theta_fingerprint()`` and table-shape scalars (no phi), so they
        stay valid wherever the same reports are scheduled.  The returned
        list is picklable — the sharded policy's process executor uses it
        to hand warm cells between a retiring worker and its replacement
        without a filesystem round trip.
        """
        return [
            (key, entry)
            for key, entry in self._entries.items()
            if key and key[0] == "cells"
        ]

    def import_cells(self, entries) -> int:
        """Merge an :meth:`export_cells` list into this cache.

        Decision-safe for the same reason :meth:`load_file` is: a cells
        hit feeds the same deterministic table assembly a rebuild would.
        Returns the number of entries imported.
        """
        entries = list(entries)
        self.ensure_capacity(len(self._entries) + len(entries))
        for key, entry in entries:
            self.store(key, tuple(np.asarray(array) for array in entry))
        return len(entries)

    def to_file(self, path: str) -> int:
        """Serialize the phi-free ``TputCells`` entries to an ``.npz`` file.

        Persists exactly what :meth:`export_cells` returns: entries whose
        keys carry no phi stay valid across scheduler restarts for as long
        as the jobs' theta_sys fits do — which is exactly the expensive
        part of a cold round.  Surface-level entries (phi-keyed, a cheap
        assembly away from their cells) are rebuilt on demand and not
        written.

        Returns the number of entries written.  The file is written at
        ``path`` exactly (no ``.npz`` suffix is appended).
        """
        keys: list = []
        arrays = {}
        for key, entry in self.export_cells():
            idx = len(keys)
            keys.append(list(key[:2]) + [int(key[2]), int(key[3]), list(key[4])])
            tput, m_cells, counts = entry
            arrays[f"tput_{idx}"] = tput
            arrays[f"m_{idx}"] = m_cells
            arrays[f"counts_{idx}"] = counts
        # default=float covers numpy scalar leakage into fingerprints;
        # int/float drift is lookup-safe (tuple hashing treats 1 == 1.0).
        arrays["keys_json"] = np.array(json.dumps(keys, default=float))
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        return len(keys)

    def load_file(self, path: str) -> int:
        """Merge cells entries written by :meth:`to_file` into this cache.

        Loaded entries are decision-safe: a cells hit feeds the same
        deterministic table assembly a rebuild would, and the persisted
        arrays are bit-identical to what :func:`~repro.core.speedup.
        build_tput_cells` computes for the same ``theta_fingerprint()``
        on the same numpy stack.  Keys whose jobs have since re-fit
        theta_sys simply never hit and age out of the LRU.

        Returns the number of entries loaded.
        """
        with np.load(path, allow_pickle=False) as data:
            raw_keys = json.loads(str(data["keys_json"]))
            self.ensure_capacity(len(self._entries) + len(raw_keys))
            loaded = 0
            for idx, raw in enumerate(raw_keys):
                tag, theta, max_gpus, ppo, speeds = raw
                if tag != "cells":
                    continue
                key = (
                    "cells",
                    tuple(theta),
                    int(max_gpus),
                    int(ppo),
                    tuple(float(s) for s in speeds),
                )
                self.store(
                    key,
                    (data[f"tput_{idx}"], data[f"m_{idx}"], data[f"counts_{idx}"]),
                )
                loaded += 1
        return loaded

    @classmethod
    def from_file(
        cls, path: str, maxsize: int = 512, phi_tol: float = 0.0
    ) -> "SurfaceCache":
        """Construct a cache pre-warmed from a :meth:`to_file` snapshot."""
        cache = cls(maxsize=maxsize, phi_tol=phi_tol)
        cache.load_file(path)
        return cache
