"""Tracked performance benchmark for the scheduling/simulation hot path.

Unlike the ``bench_fig*`` benchmarks (which reproduce the paper's *results*),
this benchmark tracks the *cost* of producing them: how long one PolluxSched
scheduling round takes, how long one theta_sys fit takes, and the end-to-end
wall-clock of the simulator driving the Pollux policy (with and without cloud
autoscaling) at the configured ``REPRO_BENCH_SCALE``.  It writes the numbers
plus a decision digest (a hash of the JCT/restart/timeline streams) and the
surface-cache hit/miss counters to ``BENCH_perf.json``.

The committed ``BENCH_perf.json`` at the repo root holds the **pinned
tier** (``docs/operating.md``, "Decision-stream policy"): the decision
digests of the default configuration, ``sim_pollux`` and
``sim_pollux_autoscale``.  ``--check`` fails when either moves on a numeric
stack matching the recorded one, or when the scheduling-round timing
regresses more than 2x (machine variance headroom included);
``tests/test_pinned_digests.py`` holds the smoke digests in tier-1.

Run modes:

    pytest benchmarks/bench_perf.py -s          # benchmark + print
    python benchmarks/bench_perf.py             # same, writes BENCH_perf.json
    python benchmarks/bench_perf.py --check     # also compare vs baseline

``REPRO_BENCH_SCALE=smoke|reduced|paper`` selects the workload size.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

if __name__ == "__main__":  # script mode: make src/ and benchmarks/ importable
    _repo = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_repo / "src"))
    sys.path.insert(0, str(_repo))

import repro.policy
from repro.cluster import ClusterSpec
from repro.core import (
    AgentReport,
    AutoscaleConfig,
    GAConfig,
    PolluxSched,
    PolluxSchedConfig,
    SchedJobInfo,
)
from repro.core.throughput import (
    ExplorationState,
    ProfileEntry,
    ThroughputModel,
    fit_throughput_params,
)
from repro.sim import SimConfig, Simulator, decision_digest
from repro.workload import MODEL_ZOO, TraceConfig, generate_trace

from benchmarks.common import SCALE, print_header

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: CI fails when sched_round_ms exceeds baseline * this factor.
REGRESSION_FACTOR = 2.0

#: ``run_bench`` entries whose ``decision_digest`` is pinned: the default
#: configuration, without and with cloud autoscaling.
PINNED_SIMS = ("sim_pollux", "sim_pollux_autoscale")


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return float(np.median(times))


def _calibration_ms(repeats: int = 9) -> float:
    """Median runtime of a fixed numpy workload, for machine normalization.

    The regression check compares ``sched_round_ms / calibration_ms``
    ratios rather than absolute times: the baseline is measured on one
    machine and CI runs on another, so an absolute threshold would gate
    runner speed, not code regressions.  The kernel mixes the op classes
    the scheduling round exercises (reductions, einsum-style contractions,
    sorting, fancy indexing) at fixed sizes.
    """
    rng = np.random.default_rng(12345)
    a = rng.random((64, 48, 8))
    masks = (rng.random((4, 8)) > 0.5).astype(np.int64)
    idx = rng.integers(0, 48, size=(64, 48))

    def kernel() -> None:
        for _ in range(8):
            s = np.einsum("pjn,tn->pjt", a, masks)
            f = s.sum(axis=-1) + a.sum(axis=-1)
            order = np.argsort(-f.ravel(), kind="stable")
            g = f.ravel()[order].reshape(f.shape)
            np.maximum(g[:, :24], g[:, 24:]).mean()
            a[np.arange(64)[:, None], idx, :1].sum()

    return _median_ms(kernel, repeats)


# ----------------------------------------------------------------------
# Micro: one scheduling round (GA + table builds) on a synthetic cluster
# ----------------------------------------------------------------------

def _synthetic_round_jobs(
    cluster: ClusterSpec, num_jobs: int, seed: int = 0
) -> List[SchedJobInfo]:
    """Job snapshots with fitted-looking reports at mixed training moments."""
    rng = np.random.default_rng(seed)
    names = sorted(MODEL_ZOO)
    jobs = []
    for i in range(num_jobs):
        profile = MODEL_ZOO[names[i % len(names)]]
        report = AgentReport(
            throughput_params=profile.theta_true,
            grad_noise_scale=float(
                profile.gns.phi_scalar(float(rng.uniform(0.0, 1.0)))
            ),
            init_batch_size=float(profile.init_batch_size),
            limits=profile.limits,
            max_gpus_seen=int(rng.integers(1, cluster.total_gpus // 2 + 2)),
        )
        alloc = np.zeros(cluster.num_nodes, dtype=np.int64)
        jobs.append(
            SchedJobInfo(
                job_id=f"job-{i}",
                report=report,
                current_alloc=alloc,
                gputime=float(rng.uniform(0, 8 * 3600.0)),
            )
        )
    return jobs


def _drifted_jobs(
    jobs: List[SchedJobInfo], round_idx: int
) -> List[SchedJobInfo]:
    """Per-round phi drift: theta_sys stable, phi moving (the steady state)."""
    out = []
    for job in jobs:
        rep = job.report
        out.append(
            SchedJobInfo(
                job_id=job.job_id,
                report=AgentReport(
                    throughput_params=rep.throughput_params,
                    grad_noise_scale=rep.grad_noise_scale
                    * (1.0 + 0.01 * round_idx),
                    init_batch_size=rep.init_batch_size,
                    limits=rep.limits,
                    max_gpus_seen=rep.max_gpus_seen,
                ),
                current_alloc=job.current_alloc,
                gputime=job.gputime,
            )
        )
    return out


def bench_sched_round(repeats: int = 5) -> Dict[str, object]:
    """Per-round PolluxSched.optimize timings.

    ``steady_ms`` (the tracked headline and CI-gated number) measures the
    recurring round: one scheduler kept alive across rounds — warm caches,
    bootstrap population — with each round's reports carrying a fresh phi
    (what every simulator tick after the first looks like).  ``cold_ms``
    measures a from-scratch scheduler with empty caches.  ``phase_ms``
    breaks the last steady round down by phase so regressions localize.
    """
    cluster = ClusterSpec.homogeneous(SCALE.num_nodes, SCALE.gpus_per_node)
    jobs = _synthetic_round_jobs(cluster, SCALE.num_jobs)
    config = PolluxSchedConfig(
        ga=GAConfig(
            population_size=SCALE.ga_population, generations=SCALE.ga_generations
        ),
    )

    sched = PolluxSched(cluster, config, seed=1)
    sched.optimize(jobs)  # warm-up round
    steady = []
    for round_idx in range(1, repeats * 3 + 1):
        drifted = _drifted_jobs(jobs, round_idx)
        t0 = time.perf_counter()
        sched.optimize(drifted)
        steady.append((time.perf_counter() - t0) * 1000.0)
    phase_ms = {k: round(v, 3) for k, v in sched.last_phase_timings.items()}

    def one_cold_round() -> None:
        PolluxSched(cluster, config, seed=1).optimize(jobs)

    # The cells-persistence lever: a restarted scheduler that pre-warms
    # its surface cache from the previous process's phi-free cells
    # snapshot (``PolluxSchedConfig(cells_path=...)``).
    cells_file = tempfile.NamedTemporaryFile(suffix=".npz", delete=False)
    cells_file.close()
    try:
        sched.save_cells(cells_file.name)
        warm_config = dataclasses.replace(config, cells_path=cells_file.name)

        def one_warm_cells_round() -> None:
            PolluxSched(cluster, warm_config, seed=1).optimize(jobs)

        cold_warm_cells_ms = _median_ms(one_warm_cells_round, repeats)
    finally:
        os.unlink(cells_file.name)

    return {
        "steady_ms": round(float(np.median(steady)), 3),
        "cold_ms": round(_median_ms(one_cold_round, repeats), 3),
        "cold_warm_cells_ms": round(cold_warm_cells_ms, 3),
        "phase_ms": phase_ms,
    }


# ----------------------------------------------------------------------
# Micro: one theta_sys fit on a realistic profile
# ----------------------------------------------------------------------

def bench_agent_fit(repeats: int = 5) -> float:
    """Median milliseconds for one cold theta_sys fit (~30 observations)."""
    profile = MODEL_ZOO["resnet18-cifar10"]
    model = ThroughputModel(profile.theta_true)
    rng = np.random.default_rng(3)
    obs = []
    exploration = ExplorationState()
    for _ in range(30):
        gpus = int(rng.integers(1, 17))
        nodes = int(rng.integers(1, gpus + 1))
        bs = float(rng.uniform(128, 4096))
        t = float(model.t_iter(nodes, gpus, bs)) * float(rng.lognormal(0, 0.03))
        obs.append(ProfileEntry(nodes, gpus, bs, t))
        exploration.observe(nodes, gpus)

    def one_fit() -> None:
        fit_throughput_params(obs, exploration, seed=0)

    return _median_ms(one_fit, repeats)


# ----------------------------------------------------------------------
# Macro: end-to-end simulator wall-clock
# ----------------------------------------------------------------------

def _make_sim(autoscale: bool) -> Simulator:
    """Simulator at benchmark scale, every option at its default.

    The policy is constructed through the :mod:`repro.policy` registry, so
    the pinned digests gate the whole shipped path: snapshot views, the
    capability-driven loop, autoscaling via ``decide_resize``, batched
    table builds, the GA and table-driven batch tuning.
    """
    cluster = ClusterSpec.homogeneous(SCALE.num_nodes, SCALE.gpus_per_node)
    trace = generate_trace(
        TraceConfig(
            num_jobs=SCALE.num_jobs,
            duration_hours=SCALE.duration_hours,
            seed=1,
            max_gpus=cluster.total_gpus,
            gpus_per_node=SCALE.gpus_per_node,
        )
    )
    sched_config = PolluxSchedConfig(
        ga=GAConfig(
            population_size=SCALE.ga_population,
            generations=SCALE.ga_generations,
        ),
    )
    policy_kwargs = {}
    if autoscale:
        policy_kwargs = dict(
            autoscale=AutoscaleConfig(min_nodes=1, max_nodes=SCALE.num_nodes * 2),
            autoscale_interval=600.0,
        )
    policy = repro.policy.create(
        "pollux", cluster=cluster, config=sched_config, **policy_kwargs
    )
    return Simulator(
        cluster, policy, trace, SimConfig(seed=1001, max_hours=SCALE.max_hours)
    )


def bench_sim(autoscale: bool) -> Dict[str, object]:
    sim = _make_sim(autoscale)
    t0 = time.perf_counter()
    result = sim.run()
    wall = time.perf_counter() - t0
    cache = sim.policy.sched.surface_cache
    out: Dict[str, object] = {
        "wall_s": round(wall, 3),
        "decision_digest": decision_digest(result),
        "avg_jct_hours": round(result.avg_jct() / 3600.0, 6),
        "num_restarts": int(sum(r.num_restarts for r in result.records)),
    }
    if cache is not None:
        out["surface_cache"] = {
            "hits": cache.stats.hits,
            "misses": cache.stats.misses,
            "evictions": cache.stats.evictions,
            # The second level: phi-free throughput cells reused across
            # rounds while only phi drifted.
            "cells_hits": cache.stats.cells_hits,
            "cells_misses": cache.stats.cells_misses,
        }
    return out


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def run_bench() -> Dict[str, object]:
    repeats = 3 if SCALE.name == "paper" else 5
    import scipy

    round_default = bench_sched_round(repeats)
    data: Dict[str, object] = {
        "scale": SCALE.name,
        # Decision digests are exact float streams: they are only required
        # to reproduce on matching numeric stacks, so the versions ride
        # along for the baseline check to compare.
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "calibration_ms": round(_calibration_ms(), 3),
        # The timing-gated number: the steady-state round (see
        # bench_sched_round).
        "sched_round_ms": round_default["steady_ms"],
        "sched_round_cold_ms": round_default["cold_ms"],
        # Restart with a cells_path snapshot: the cold round minus the
        # phi-free TputCells rebuilds (the persistence lever).
        "sched_round_cold_warm_cells_ms": round_default["cold_warm_cells_ms"],
        "sched_phase_ms": round_default["phase_ms"],
        "agent_fit_ms": round(bench_agent_fit(repeats), 3),
        "sim_pollux": bench_sim(autoscale=False),
        "sim_pollux_autoscale": bench_sim(autoscale=True),
    }
    return data


def _print_report(data: Dict[str, object]) -> None:
    print_header("Perf: scheduling/simulation hot path")
    print(
        f"sched round          {data['sched_round_ms']:10.2f} ms steady  "
        f"{data['sched_round_cold_ms']:10.2f} ms cold  "
        f"{data['sched_round_cold_warm_cells_ms']:10.2f} ms cold+cells"
    )
    phases = ", ".join(
        f"{k}={v:.1f}" for k, v in data["sched_phase_ms"].items()
    )
    print(f"sched phases (ms)    {phases}")
    print(f"agent fit            {data['agent_fit_ms']:10.2f} ms")
    for key in PINNED_SIMS:
        sim = data[key]
        cache = sim.get("surface_cache")
        cache_str = ""
        if cache:
            total = cache["hits"] + cache["misses"]
            rate = cache["hits"] / total if total else 0.0
            cache_str = (
                f"  cache {cache['hits']}/{total} hits ({rate * 100:.0f}%)"
            )
        print(
            f"{key:34s} {sim['wall_s']:8.2f} s  "
            f"avg JCT {sim['avg_jct_hours']:.3f} h{cache_str}"
        )


def _check_baseline(data: Dict[str, object]) -> int:
    """Compare against the committed baseline; return a process exit code."""
    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; skipping check")
        return 0
    baseline = json.loads(BASELINE_PATH.read_text())
    entry = baseline.get(str(data["scale"]))
    if entry is None:
        print(f"baseline has no entry for scale={data['scale']}; skipping check")
        return 0
    base_ms = float(entry["sched_round_ms"])
    now_ms = float(data["sched_round_ms"])
    base_cal = float(entry.get("calibration_ms", 0.0))
    now_cal = float(data.get("calibration_ms", 0.0))
    if base_cal > 0 and now_cal > 0:
        # Normalize out machine speed: compare sched-round cost in units of
        # the fixed calibration kernel, measured in the same process.
        base_ratio = base_ms / base_cal
        now_ratio = now_ms / now_cal
        limit = base_ratio * REGRESSION_FACTOR
        print(
            f"sched round: {now_ratio:.1f}x calibration "
            f"({now_ms:.2f} ms / {now_cal:.2f} ms) vs baseline "
            f"{base_ratio:.1f}x (limit {limit:.1f}x)"
        )
        if now_ratio > limit:
            print(
                "PERF REGRESSION: scheduling round exceeds 2x the "
                "calibration-normalized baseline"
            )
            return 1
    else:
        limit = base_ms * REGRESSION_FACTOR
        print(
            f"sched round: {now_ms:.2f} ms vs baseline {base_ms:.2f} ms "
            f"(limit {limit:.2f} ms; no calibration entry, absolute compare)"
        )
        if now_ms > limit:
            print("PERF REGRESSION: scheduling round exceeds 2x baseline")
            return 1
    # The pinned tier: the default configuration's decision stream must not
    # move — but only on a numeric stack matching the baseline's.  A
    # numpy/scipy release can legitimately move last-ulp rounding (and with
    # it every digest), so on mismatched versions this downgrades to a loud
    # warning instead of breaking CI until the baseline is refreshed.
    exit_code = 0
    same_stack = all(
        entry.get(key) == data.get(key)
        for key in ("numpy_version", "scipy_version")
    )
    for key in PINNED_SIMS:
        base_digest = entry.get(key, {}).get("decision_digest")
        now_digest = data[key]["decision_digest"]
        if not base_digest or base_digest == now_digest:
            continue
        print(
            f"PINNED DIGEST MISMATCH ({key}): {now_digest[:12]}... vs "
            f"baseline {base_digest[:12]}... — a pure-performance change "
            "must not move the default decision stream; an intentional one "
            "re-pins it (docs/operating.md, Decision-stream policy)"
        )
        if same_stack:
            exit_code = 1
        else:
            print(
                "  numpy/scipy differ from the baseline's "
                f"({data.get('numpy_version')}/{data.get('scipy_version')} vs "
                f"{entry.get('numpy_version')}/{entry.get('scipy_version')}): "
                "treating as a warning — refresh the baseline on this stack"
            )
    return exit_code


def test_perf(benchmark) -> None:
    data = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    _print_report(data)
    # Sanity floor, not a perf assertion: a scheduling round at any scale
    # should complete in far under a minute.
    assert float(data["sched_round_ms"]) < 60_000.0
    # Caching must be observably on and effective in the autoscale run.
    cache = data["sim_pollux_autoscale"].get("surface_cache")
    assert cache is not None and cache["hits"] > 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    data = run_bench()
    _print_report(data)
    out_path = Path(os.environ.get("REPRO_BENCH_OUT", "BENCH_perf.json"))
    existing: Dict[str, object] = {}
    if out_path.exists():
        try:
            existing = json.loads(out_path.read_text())
        except json.JSONDecodeError:
            existing = {}
    existing[str(data["scale"])] = data
    out_path.write_text(json.dumps(existing, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    if "--check" in argv:
        return _check_baseline(data)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
