"""Execution backends for :class:`~repro.shard.policy.ShardedPolicy`.

A :class:`CellExecutor` owns the per-cell :class:`~repro.core.sched.
PolluxSched` instances and runs one optimize round per cell when asked.
Two implementations:

- :class:`ThreadCellExecutor` (default): schedulers live in-process and
  the cells run one after another on the calling thread.
- :class:`ProcessCellExecutor`: persistent worker processes each own their
  cells' warm schedulers (GA population, ``SurfaceCache``/``TputCells``,
  RNG state all live worker-side across rounds, never re-pickled).  The
  parent ships compact per-round deltas (:mod:`repro.shard.wire`) and
  receives allocations plus per-phase timings back.

The process backend fans a round out over :func:`fanout_width` workers —
the one rule for how wide, and the measurements behind it, are on that
function.

Both backends produce bit-identical decision streams at a fixed seed: each
cell's scheduler is constructed the same way (``seed + cell_index``) and
fed value-identical inputs in the same per-cell order, and pickling
floats/int64 arrays is exact (pinned in ``tests/test_shard_executor.py``).

A worker crash, timeout, or error never loses a dispatch: the affected
cells' rounds run in-process on a parent-side fallback scheduler (logged,
counted in :attr:`CellExecutor.fallback_rounds`) and the worker is
replaced for the next round.  The replacement starts cold — the crashed
worker's warm state is gone with it — so post-crash streams legitimately
differ from an uninterrupted run.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.spec import ClusterSpec
from ..core.sched import PolluxSched, PolluxSchedConfig, SchedJobInfo
from . import wire
from .partition import Cell

__all__ = [
    "CellResult",
    "CellExecutor",
    "ThreadCellExecutor",
    "ProcessCellExecutor",
    "fanout_width",
    "make_executor",
]

logger = logging.getLogger("repro.shard")

#: Generous ceiling for worker construction (spawn pays an interpreter
#: start plus a numpy import before it can acknowledge the configure).
_CONFIGURE_TIMEOUT_S = 120.0
#: How long a terminated worker process is given to exit.
_EXIT_TIMEOUT_S = 5.0


def _usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def fanout_width(num_cells: int, max_workers: Optional[int] = None) -> int:
    """Worker processes one round's cells fan out over (process backend).

    ``min(num_cells, usable cores)``: a cell round is CPU-bound from start
    to finish, so a worker beyond the core count adds no throughput, only
    contention.  Worker processes run whole cell rounds side by side, each
    with its own interpreter lock and heap.  Threads of one interpreter do
    not: two cell GAs at once trade the GIL at every numpy call (1.3x the
    wall and 1.8x the CPU of one after the other), so
    :class:`ThreadCellExecutor` does not fan out at all.  Measurements:
    ROADMAP.md ("Measured findings to keep").

    ``max_workers`` overrides the core count (still capped at the cell
    count): pass it when the cores are shared with other work or when the
    affinity mask overstates what a container's CPU quota delivers.  The
    width never changes a decision — cell order, per-cell seeds and inputs
    do not depend on it (``tests/test_shard_executor.py``).
    """
    return max(1, min(num_cells, max_workers or _usable_cores()))


@dataclass
class CellResult:
    """One cell's round outcome, as returned by an executor.

    ``phase_timings`` carries the cell scheduler's own per-phase wall
    clock (``PolluxSched.last_phase_timings``), plus (process executor
    only) ``ipc_ms`` — the round-trip time not accounted for by
    worker-side compute, i.e. serialization plus pipe transfer plus
    queueing.  ``fallback`` marks a round that ran on
    the parent-side fallback scheduler after a worker failure.
    """

    allocations: Dict[str, np.ndarray]
    utility: float
    phase_timings: Dict[str, float] = field(default_factory=dict)
    fallback: bool = False


def _cell_round(
    sched: PolluxSched, jobs: Sequence[SchedJobInfo], fallback: bool = False
) -> CellResult:
    """Run one ``sched.optimize`` round and wrap its outcome."""
    allocations = sched.optimize(jobs)
    return CellResult(
        allocations=allocations,
        utility=float(sched.last_utility),
        phase_timings=dict(sched.last_phase_timings),
        fallback=fallback,
    )


class CellExecutor:
    """Backend interface: owns cell schedulers, runs cell rounds.

    Lifecycle: :meth:`configure` (re)builds one scheduler per cell —
    called at policy construction and again on every repartition (node
    layout change), after which all warm state is deliberately cold, just
    like the pre-executor code.  :meth:`run_rounds` runs one optimize
    round per cell and must return one :class:`CellResult` per cell, in
    cell order.  :meth:`close` releases worker processes and cached
    cells; a closed executor revives lazily on the next :meth:`run_rounds`.
    """

    #: Rounds that fell back in-process after a worker failure (telemetry).
    fallback_rounds: int = 0
    #: Worker processes the last round actually ran on (telemetry; see
    #: :func:`fanout_width`); always 1 for the in-process executor.
    width: int = 1

    def configure(
        self,
        cluster: ClusterSpec,
        cells: Sequence[Cell],
        config: PolluxSchedConfig,
        seed: int,
    ) -> None:
        raise NotImplementedError

    def run_rounds(
        self, rounds: Sequence[Sequence[SchedJobInfo]]
    ) -> List[CellResult]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def schedulers(self) -> Tuple[PolluxSched, ...]:
        """The in-process cell schedulers; ``()`` where they live elsewhere."""
        raise NotImplementedError


class ThreadCellExecutor(CellExecutor):
    """In-process cell rounds: the cells run on the calling thread.

    One round runs the cells one after another, in cell order, and starts
    no thread (its ``width`` is always 1).  Threads would buy nothing:
    two GAs of one interpreter trade the GIL at every numpy call and
    finish no sooner than one after the other.  ``close()`` drops the
    schedulers' cached cells; their GA populations survive, so a closed
    executor keeps its warm state if the policy keeps going.
    """

    def __init__(self):
        self._scheds: List[PolluxSched] = []

    @property
    def schedulers(self) -> Tuple[PolluxSched, ...]:
        return tuple(self._scheds)

    def configure(self, cluster, cells, config, seed):
        self._scheds = [
            PolluxSched(cell.subspec(cluster), config, seed=seed + i)
            for i, cell in enumerate(cells)
        ]

    def run_rounds(self, rounds):
        return [
            _cell_round(sched, jobs)
            for sched, jobs in zip(self._scheds, rounds, strict=True)
        ]

    def close(self):
        for sched in self._scheds:
            sched.surface_cache.clear()


# ----------------------------------------------------------------------
# Process backend
# ----------------------------------------------------------------------


class _WorkerHandle:
    """One persistent worker process and the cells it owns."""

    __slots__ = ("process", "conn", "cell_indices", "alive", "sent_at")

    def __init__(self, process, conn, cell_indices):
        self.process = process
        self.conn = conn
        self.cell_indices: List[int] = list(cell_indices)
        self.alive = True
        self.sent_at = 0.0


def _worker_main(conn) -> None:
    """Worker loop: owns warm ``PolluxSched`` instances for its cells.

    Top-level so every start method (including ``spawn``) can import it.
    Messages are ``(kind, payload)`` tuples; every request gets exactly
    one reply, so the parent can match them without sequence numbers.  A
    worker runs until its pipe closes or the parent terminates it.
    """
    scheds: Dict[int, PolluxSched] = {}
    reports: Dict[int, dict] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        kind = msg[0]
        if kind == "configure":
            try:
                scheds = {}
                reports = {}
                for idx, (spec, config, seed) in msg[1].items():
                    scheds[idx] = PolluxSched(spec, config, seed=seed)
                    reports[idx] = {}
                conn.send(("ok",))
            except Exception:
                conn.send(("error", traceback.format_exc()))
        elif kind == "rounds":
            try:
                out = []
                for idx, wire_jobs, departures in msg[1]:
                    sched = scheds[idx]
                    infos = wire.decode_jobs(wire_jobs, departures, reports[idx])
                    allocations = sched.optimize(infos)
                    out.append(
                        (
                            idx,
                            allocations,
                            float(sched.last_utility),
                            dict(sched.last_phase_timings),
                        )
                    )
                conn.send(("results", out))
            except Exception:
                conn.send(("error", traceback.format_exc()))
        else:  # pragma: no cover - protocol guard
            conn.send(("error", f"unknown message kind {kind!r}"))


class ProcessCellExecutor(CellExecutor):
    """Persistent worker processes, one warm scheduler per cell.

    Args:
        max_workers: Worker process count; defaults to
            :func:`fanout_width`'s ``min(cells, usable cores)``.
            Fewer workers than cells round-robins cells over workers
            (worker ``j`` owns cells ``{i : i % workers == j}``) and runs
            each worker's cells sequentially — the decision stream does
            not depend on the mapping, only wall-clock does.
        start_method: ``multiprocessing`` start method; ``None`` picks
            ``fork`` where available (cheap worker start) else ``spawn``.
            Pass ``"spawn"`` explicitly for fork-unsafe embedders (e.g. a
            heavily threaded parent); workers are persistent, so the
            spawn cost is paid once per (re)configure, not per round.
        round_timeout: Seconds to wait for each worker's round reply
            before declaring it hung and falling back in-process
            (``None`` waits indefinitely, like the thread backend).
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        round_timeout: Optional[float] = None,
    ):
        if round_timeout is not None and round_timeout <= 0:
            raise ValueError("round_timeout must be positive (or None)")
        self.max_workers = max_workers
        self.start_method = start_method
        self.round_timeout = round_timeout
        self.fallback_rounds = 0
        self._workers: List[_WorkerHandle] = []
        self._trackers: List[wire.DeltaTracker] = []
        self._fallback_scheds: Dict[int, PolluxSched] = {}
        self._cluster: Optional[ClusterSpec] = None
        self._cells: Tuple[Cell, ...] = ()
        self._config: Optional[PolluxSchedConfig] = None
        self._seed = 0

    @property
    def schedulers(self) -> Tuple[PolluxSched, ...]:
        """``()``: the schedulers live in workers."""
        return ()

    # -- lifecycle ------------------------------------------------------

    def _context(self):
        method = self.start_method
        if method is None:
            method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        return mp.get_context(method)

    def configure(self, cluster, cells, config, seed):
        self._cluster = cluster
        self._cells = tuple(cells)
        self._config = config
        self._seed = seed
        self._fallback_scheds = {}
        self._trackers = [wire.DeltaTracker() for _ in self._cells]
        num_workers = fanout_width(len(self._cells), self.max_workers)
        if len(self._workers) != num_workers or not all(
            h.alive for h in self._workers
        ):
            self._stop_workers()
            ctx = self._context()
            for rank in range(num_workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                process = ctx.Process(
                    target=_worker_main,
                    args=(child_conn,),
                    name=f"shard-cell-worker-{rank}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._workers.append(
                    _WorkerHandle(process, parent_conn, [])
                )
        for handle in self._workers:
            handle.cell_indices = []
        for idx in range(len(self._cells)):
            self._workers[idx % num_workers].cell_indices.append(idx)
        for handle in self._workers:
            self._configure_worker(handle)

    def _configure_worker(self, handle: _WorkerHandle) -> None:
        payload = {
            idx: (
                self._cells[idx].subspec(self._cluster),
                self._config,
                self._seed + idx,
            )
            for idx in handle.cell_indices
        }
        handle.conn.send(("configure", payload))
        reply = self._recv(handle, _CONFIGURE_TIMEOUT_S)
        if reply is None or reply[0] != "ok":
            detail = reply[1] if reply and len(reply) > 1 else "no reply"
            self._kill_worker(handle)
            raise RuntimeError(
                f"shard worker {handle.process.name} failed to configure:\n"
                f"{detail}"
            )

    def _stop_workers(self) -> None:
        for handle in self._workers:
            self._kill_worker(handle)
        self._workers = []

    def _kill_worker(self, handle: _WorkerHandle) -> None:
        handle.alive = False
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=_EXIT_TIMEOUT_S)

    def close(self):
        """Stop the workers; their warm state goes with them, and the
        fallback schedulers drop their cached cells.

        A revived executor respawns workers on the retained configuration
        and starts cold decision-wise, exactly like a repartition.
        """
        self._stop_workers()
        for sched in self._fallback_scheds.values():
            sched.surface_cache.clear()

    # -- rounds ---------------------------------------------------------

    def _recv(self, handle: _WorkerHandle, timeout: Optional[float]):
        """One reply from a worker, or ``None`` on timeout/crash."""
        try:
            if timeout is not None and not handle.conn.poll(timeout):
                return None
            return handle.conn.recv()
        except (EOFError, OSError):
            return None

    def run_rounds(self, rounds):
        if not self._workers and self._cells:
            # Revived after close(): respawn on the retained configuration.
            self.configure(self._cluster, self._cells, self._config, self._seed)
        results: List[Optional[CellResult]] = [None] * len(rounds)
        batches: Dict[int, list] = {}
        for wid, handle in enumerate(self._workers):
            if not handle.alive:
                continue
            batch = [
                (idx, *self._trackers[idx].encode(rounds[idx]))
                for idx in handle.cell_indices
            ]
            batches[wid] = batch
            handle.sent_at = perf_counter()
            try:
                handle.conn.send(("rounds", batch))
            except (BrokenPipeError, OSError):
                logger.warning(
                    "shard worker %s died before dispatch", handle.process.name
                )
                handle.alive = False
        for wid, handle in enumerate(self._workers):
            if not handle.alive or wid not in batches:
                continue
            reply = self._recv(handle, self.round_timeout)
            round_trip_ms = (perf_counter() - handle.sent_at) * 1e3
            if reply is None or reply[0] != "results":
                detail = (
                    "timed out"
                    if reply is None
                    else f"errored:\n{reply[1] if len(reply) > 1 else reply}"
                )
                logger.warning(
                    "shard worker %s %s; cells %s fall back in-process",
                    handle.process.name,
                    detail,
                    handle.cell_indices,
                )
                handle.alive = False
                continue
            cell_results = reply[1]
            worker_ms = sum(
                timings.get("total_ms", 0.0)
                for _, _, _, timings in cell_results
            )
            ipc_share = max(0.0, round_trip_ms - worker_ms) / max(
                1, len(cell_results)
            )
            for idx, allocations, utility, timings in cell_results:
                timings = dict(timings)
                timings["ipc_ms"] = ipc_share
                results[idx] = CellResult(
                    allocations=allocations,
                    utility=utility,
                    phase_timings=timings,
                )
        # Cells of a failed worker run below, one by one, in this process.
        self.width = max(1, sum(handle.alive for handle in self._workers))
        for idx, result in enumerate(results):
            if result is None:
                results[idx] = self._fallback_round(idx, rounds[idx])
        self._replace_dead_workers()
        return results

    def _fallback_round(self, idx: int, jobs) -> CellResult:
        self.fallback_rounds += 1
        sched = self._fallback_scheds.get(idx)
        if sched is None:
            sched = PolluxSched(
                self._cells[idx].subspec(self._cluster),
                self._config,
                seed=self._seed + idx,
            )
            self._fallback_scheds[idx] = sched
        return _cell_round(sched, jobs, fallback=True)

    def _replace_dead_workers(self) -> None:
        ctx = None
        for handle in self._workers:
            if handle.alive:
                continue
            self._kill_worker(handle)
            if ctx is None:
                ctx = self._context()
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_main,
                args=(child_conn,),
                name=handle.process.name,
                daemon=True,
            )
            process.start()
            child_conn.close()
            handle.process = process
            handle.conn = parent_conn
            handle.alive = True
            for idx in handle.cell_indices:
                # The dead worker's report cache died with it: next round
                # must ship full reports (its replacement starts cold).
                self._trackers[idx].reset()
            try:
                self._configure_worker(handle)
            except RuntimeError:
                logger.exception(
                    "shard worker %s failed to restart; its cells stay on "
                    "the in-process fallback path",
                    handle.process.name,
                )
                handle.alive = False

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety
        try:
            self._stop_workers()
        except Exception:
            pass


def make_executor(
    execution: str = "thread",
    max_workers: Optional[int] = None,
    start_method: Optional[str] = None,
    round_timeout: Optional[float] = None,
) -> CellExecutor:
    """Build the executor for ``ShardedPolicy(execution=...)``.

    ``max_workers``, ``start_method`` and ``round_timeout`` configure the
    worker processes; passing any of them with ``execution="thread"``
    raises ``ValueError`` rather than being ignored.
    """
    if execution == "thread":
        if (max_workers, start_method, round_timeout) != (None, None, None):
            raise ValueError(
                "max_workers, start_method and round_timeout apply to "
                "execution='process' only; the thread executor runs its "
                "cells on the calling thread"
            )
        return ThreadCellExecutor()
    if execution == "process":
        return ProcessCellExecutor(
            max_workers=max_workers,
            start_method=start_method,
            round_timeout=round_timeout,
        )
    raise ValueError(
        f"unknown execution backend {execution!r}; use 'thread' or 'process'"
    )
