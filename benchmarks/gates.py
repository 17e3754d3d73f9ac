"""Decision gates: the pinned simulator digests and multi-cell JCT parity.

Pollux's claims are about decisions, so these are the benchmark checks that
gate a change; timings, and any claim about them, live in the perf ledger
(``benchmarks/e2e``).  Three commands::

    python benchmarks/gates.py check smoke|reduced   # the pinned tier
    python benchmarks/gates.py record smoke|reduced  # re-pin it
    python benchmarks/gates.py parity                # sharded vs unsharded JCT

``check`` rebuilds the default configuration's two pinned simulator runs
(registry ``pollux`` on the benchmark trace, without and with cloud
autoscaling) and compares them with ``benchmarks/pins.json``.  It fails
closed: a missing pins file, scale entry or digest exits 1, as does any
moved digest.  Digests are exact float streams, so on a numpy/scipy other
than the recorded one it prints a warning and a moved digest does not fail.
``record`` re-pins a scale after an intentional stream change
(``docs/operating.md``, "Decision-stream policy").
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import scipy

if __name__ == "__main__":  # script mode: make src/ and benchmarks/ importable
    _repo = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_repo / "src"))
    sys.path.insert(0, str(_repo))

import repro.policy
from repro.cluster import ClusterSpec
from repro.core import AutoscaleConfig, GAConfig, PolluxSchedConfig
from repro.shard import UniformCellPartitioner
from repro.sim import SimConfig, Simulator, decision_digest
from repro.workload import TraceConfig, generate_trace

from benchmarks.common import _REDUCED, _SMOKE, BenchScale

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: The pinned runs: the default configuration without and with autoscaling.
PINNED_SIMS = ("sim_pollux", "sim_pollux_autoscale")

#: The scales ``pins.json`` holds.
SCALES = {"smoke": _SMOKE, "reduced": _REDUCED}

#: ``parity`` fails when sharded avg JCT exceeds unsharded by more than this
#: fraction.  Multi-cell sharding partitions capacity (a job cannot span
#: cells), so a small JCT cost is expected; measured at the parity preset
#: the delta is ~2-6% across seeds, and this bound is the regression
#: tripwire well outside that band.
PARITY_JCT_BOUND = 0.15


def make_sim(scale: BenchScale, autoscale: bool) -> Simulator:
    """Simulator at ``scale``, every option at its default.

    The policy is constructed through the :mod:`repro.policy` registry, so
    the pinned digests gate the whole shipped path: snapshot views, the
    host dispatch round, autoscaling via ``decide_resize``, batched table
    builds, the GA and table-driven batch tuning.
    """
    cluster = ClusterSpec.homogeneous(scale.num_nodes, scale.gpus_per_node)
    trace = generate_trace(
        TraceConfig(
            num_jobs=scale.num_jobs,
            duration_hours=scale.duration_hours,
            seed=1,
            max_gpus=cluster.total_gpus,
            gpus_per_node=scale.gpus_per_node,
        )
    )
    sched_config = PolluxSchedConfig(
        ga=GAConfig(
            population_size=scale.ga_population,
            generations=scale.ga_generations,
        ),
    )
    policy_kwargs = {}
    if autoscale:
        policy_kwargs = dict(
            autoscale=AutoscaleConfig(min_nodes=1, max_nodes=scale.num_nodes * 2),
            autoscale_interval=600.0,
        )
    policy = repro.policy.create(
        "pollux", cluster=cluster, config=sched_config, **policy_kwargs
    )
    return Simulator(
        cluster, policy, trace, SimConfig(seed=1001, max_hours=scale.max_hours)
    )


def run_pinned(scale: BenchScale, key: str) -> Dict[str, object]:
    """Run one of ``PINNED_SIMS`` at ``scale``: the values it is pinned by."""
    result = make_sim(scale, autoscale=key == "sim_pollux_autoscale").run()
    return {
        "decision_digest": decision_digest(result),
        "avg_jct_hours": round(result.avg_jct() / 3600.0, 6),
        "num_restarts": int(sum(r.num_restarts for r in result.records)),
    }


def _stack() -> Dict[str, str]:
    return {"numpy_version": np.__version__, "scipy_version": scipy.__version__}


def check(scale: BenchScale, pins_path: Path = PINS_PATH) -> int:
    """Compare the pinned runs at ``scale`` with ``pins_path``; an exit code."""
    if not pins_path.exists():
        print(f"FAIL: no pins file at {pins_path}")
        return 1
    entry = json.loads(pins_path.read_text()).get(scale.name)
    if entry is None:
        print(f"FAIL: {pins_path} has no {scale.name!r} entry")
        return 1
    missing = [
        k for k in PINNED_SIMS if not (entry.get(k) or {}).get("decision_digest")
    ]
    if missing:
        print(f"FAIL: no pinned digest for {', '.join(missing)} at {scale.name}")
        return 1
    stack = _stack()
    same_stack = all(entry.get(k) == v for k, v in stack.items())
    if not same_stack:
        print(
            f"WARNING: numpy/scipy {'/'.join(stack.values())} differ from the "
            f"recorded {entry.get('numpy_version')}/{entry.get('scipy_version')}; "
            "a moved digest only warns here: re-record the pins on this stack"
        )
    moved = []
    for key in PINNED_SIMS:
        got, want = run_pinned(scale, key), entry[key]
        ok = got["decision_digest"] == want["decision_digest"]
        print(
            f"{scale.name} {key}: {'ok' if ok else 'MOVED'}  "
            f"{got['decision_digest'][:12]}... vs {want['decision_digest'][:12]}...  "
            f"avg JCT {got['avg_jct_hours']} h (pinned {want.get('avg_jct_hours')}), "
            f"restarts {got['num_restarts']} (pinned {want.get('num_restarts')})"
        )
        if not ok:
            moved.append(key)
    if moved:
        print(
            f"PINNED DIGEST MISMATCH ({', '.join(moved)}): a pure-performance "
            "change must not move the default decision stream; an intentional "
            "one re-pins it (docs/operating.md, Decision-stream policy)"
        )
    return 1 if moved and same_stack else 0


def record(scale: BenchScale, pins_path: Path = PINS_PATH) -> int:
    """Re-pin ``scale`` in ``pins_path`` from this stack's runs."""
    pins = json.loads(pins_path.read_text()) if pins_path.exists() else {}
    entry: Dict[str, object] = {
        "provenance": (
            f"Recorded with `python benchmarks/gates.py record {scale.name}`; "
            "replace this with why the stream moved and on what machine."
        ),
        **_stack(),
    }
    for key in PINNED_SIMS:
        entry[key] = run_pinned(scale, key)
    pins[scale.name] = entry
    pins_path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {pins_path} [{scale.name}]")
    return 0


def parity(seed: int = 1) -> int:
    """Reduced-scale simulation: multi-cell sharded vs unsharded JCT.

    Single-cell equivalence is pinned bit-for-bit in ``tests/
    test_shard.py``; this is the *multi*-cell decision-quality check —
    same trace, same simulator seed, 2 cells — which can only be
    benchmarked (cells partition capacity, so decisions legitimately
    differ).  Runs in seconds on 2 cores; the nightly workflow runs it.
    """
    cluster = ClusterSpec.homogeneous(6, 4)
    trace = generate_trace(
        TraceConfig(
            num_jobs=40,
            duration_hours=6.0,
            seed=seed,
            max_gpus=cluster.total_gpus,
            gpus_per_node=cluster.max_gpus_per_node,
        )
    )
    config = PolluxSchedConfig(ga=GAConfig(population_size=24, generations=10))
    results = {}
    for name, kwargs in (
        ("pollux", {}),
        ("pollux-sharded", {"partitioner": UniformCellPartitioner(2)}),
    ):
        scheduler = repro.policy.create(
            name, cluster=cluster, config=config, seed=0, **kwargs
        )
        sim_config = SimConfig(seed=seed + 1000, max_hours=100.0)
        result = results[name] = Simulator(cluster, scheduler, trace, sim_config).run()
        print(
            f"[parity] {name:15s} avg JCT {result.avg_jct() / 3600.0:.4f} h  "
            f"unfinished {result.num_unfinished}",
            flush=True,
        )
    delta = results["pollux-sharded"].avg_jct() / results["pollux"].avg_jct() - 1.0
    if delta > PARITY_JCT_BOUND:
        print(
            f"PARITY REGRESSION: sharded avg JCT is {delta * 100:.1f}% worse "
            f"than unsharded (bound: {PARITY_JCT_BOUND * 100:.0f}%)"
        )
        return 1
    print(
        f"parity OK: sharded avg JCT delta {delta * 100:+.1f}% "
        f"(bound {PARITY_JCT_BOUND * 100:.0f}%)"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "record"):
        commands.add_parser(name).add_argument("scale", choices=sorted(SCALES))
    commands.add_parser("parity")
    args = parser.parse_args(argv)
    if args.command == "parity":
        return parity()
    return {"check": check, "record": record}[args.command](SCALES[args.scale])


if __name__ == "__main__":
    raise SystemExit(main())
