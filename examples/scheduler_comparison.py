#!/usr/bin/env python
"""Compare scheduling policies on one trace (Sec. 5.2/5.3, Table 2 style).

Generates a synthetic Philly-like trace, runs it through the selected
scheduling policies on the same simulated cluster, and prints Table-2-style
rows (average / tail JCT, makespan, average statistical efficiency).

Policies are selected by :mod:`repro.policy` registry name with one
``--policy`` flag — any policy registered with ``repro.policy.register``
(including your own) drops into the comparison without code changes here.

Run:  python examples/scheduler_comparison.py [--jobs N] [--nodes N]
      python examples/scheduler_comparison.py --policy pollux --policy tiresias
"""

import argparse
import time

import repro.policy
from repro.cluster import ClusterSpec
from repro.core import GAConfig, PolluxSchedConfig
from repro.sim import SimConfig, Simulator
from repro.workload import TraceConfig, generate_trace

DEFAULT_POLICIES = ("pollux", "optimus", "tiresias")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=40, help="number of jobs")
    parser.add_argument("--nodes", type=int, default=8, help="number of 4-GPU nodes")
    parser.add_argument("--hours", type=float, default=4.0, help="submission window")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--policy",
        action="append",
        default=None,
        metavar="NAME",
        help="registry name of a policy to run; repeatable "
        f"(default: {', '.join(DEFAULT_POLICIES)}; "
        f"registered: {', '.join(repro.policy.available())})",
    )
    args = parser.parse_args()

    cluster = ClusterSpec.homogeneous(args.nodes, 4)
    trace = generate_trace(
        TraceConfig(
            num_jobs=args.jobs,
            duration_hours=args.hours,
            seed=args.seed,
            max_gpus=cluster.total_gpus,
        )
    )
    print(
        f"workload: {args.jobs} jobs over {args.hours} h on "
        f"{cluster.num_nodes} nodes x 4 GPUs"
    )

    # Per-policy registry kwargs beyond the uniform cluster/seed pair,
    # keyed by canonical name so aliases resolve to the same entry.
    extra_kwargs = {
        "pollux": dict(
            config=PolluxSchedConfig(
                ga=GAConfig(population_size=32, generations=12)
            )
        ),
        "optimus": dict(max_gpus_per_job=cluster.total_gpus),
    }
    names = tuple(args.policy) if args.policy else DEFAULT_POLICIES

    results = {}
    for name in names:
        policy = repro.policy.create(
            name,
            cluster=cluster,
            **extra_kwargs.get(repro.policy.canonical(name), {}),
        )
        start = time.time()
        sim = Simulator(cluster, policy, trace, SimConfig(seed=7, max_hours=100))
        result = sim.run()
        results[policy.name] = result
        print(f"{result.format_summary()}   [{time.time() - start:.0f}s wall]")

    if "pollux" in results:
        pollux_jct = results["pollux"].avg_jct()
        print("\navg JCT relative to Pollux:")
        for name, result in results.items():
            print(f"  {name:<24s} {result.avg_jct() / pollux_jct:.2f}x")


if __name__ == "__main__":
    main()
