#!/usr/bin/env python
"""Run a scheduling policy as a live wall-clock service (repro.host).

The same registry-constructed Policy objects that drive the discrete-time
simulator drive the real-time :class:`~repro.host.PolicyHost` here,
unchanged — the Blox-style policy/mechanism split in action.

Two modes:

- **live** (default): an in-process cluster, the simulator's engine on a
  paced clock (:class:`~repro.host.ThreadedBackend`).  Jobs are submitted
  *while the host is running*; the host dispatches the policy on its
  wall-clock cadence and prints per-round metrics.  ``--time-scale``
  compresses cluster time (600 = one wall second is 10 cluster minutes).
- **--replay**: replays a recorded trace through
  :class:`~repro.host.ReplayBackend` and verifies the host reproduces the
  simulator's decision stream bit-for-bit (the host-agreement guarantee).

Run:  python examples/live_scheduler.py [--policy pollux] [--jobs 4]
      python examples/live_scheduler.py --replay
"""

import argparse
import time

import repro.policy
from repro.cluster import ClusterSpec
from repro.core import GAConfig, PolluxSchedConfig
from repro.host import PolicyHost, ReplayBackend, ThreadedBackend, ThreadedConfig
from repro.sim import SimConfig, Simulator, decision_digest
from repro.workload import MODEL_ZOO, JobSpec, TraceConfig, generate_trace

MODELS = ("resnet18-cifar10", "neumf-movielens", "deepspeech2-arctic")


def make_policy(name: str, cluster: ClusterSpec):
    kwargs = {"cluster": cluster, "seed": 0}
    if repro.policy.canonical(name) == "pollux":
        kwargs["config"] = PolluxSchedConfig(
            ga=GAConfig(population_size=16, generations=8)
        )
    return repro.policy.create(name, **kwargs)


def run_live(args: argparse.Namespace) -> None:
    cluster = ClusterSpec.homogeneous(args.nodes, args.gpus_per_node)
    policy = make_policy(args.policy, cluster)
    backend = ThreadedBackend(
        cluster,
        ThreadedConfig(time_scale=args.time_scale, quantum_seconds=0.02),
    )
    host = PolicyHost(policy, backend)
    print(
        f"starting live host: policy={policy.name} cluster="
        f"{args.nodes}x{args.gpus_per_node} time_scale={args.time_scale:g}"
    )
    host.start()
    # Submit jobs live, spread over the first (scaled) half hour.
    for i in range(args.jobs):
        model = MODEL_ZOO[MODELS[i % len(MODELS)]]
        backend.submit(
            JobSpec(
                name=f"live-{i}",
                model=model,
                submission_time=i * 1800.0 / max(args.jobs - 1, 1),
                fixed_num_gpus=2,
                fixed_batch_size=int(model.init_batch_size),
            )
        )
        print(f"submitted live-{i} ({model.name}) at t={backend.now():8.0f}s")
        time.sleep(0.3)
    result = host.drain(timeout=300.0)
    assert result is not None, "host did not drain in time"
    print("\nper-round metrics (last 5):")
    for round_ in list(host.metrics.rounds)[-5:]:
        print(
            f"  t={round_.time:8.0f}s jobs={round_.num_jobs} "
            f"applied={round_.decisions_applied} "
            f"restarts={round_.restarts_triggered} "
            f"latency={round_.latency_s * 1000:6.1f}ms"
        )
    summary = host.metrics.summary()
    print(
        f"\n{summary['scheduling_rounds']} scheduling rounds, "
        f"{summary['decisions_applied']} decisions, "
        f"{summary['restarts_triggered']} restarts, "
        f"mean dispatch latency {summary['mean_latency_s'] * 1000:.1f}ms"
    )
    for record in result.records:
        jct = record.jct
        status = f"JCT {jct / 3600:.2f}h" if jct is not None else "unfinished"
        print(f"  {record.name:10s} {record.model:20s} {status}")
    print(f"live host done: avg JCT {result.avg_jct() / 3600.0:.2f}h")


def run_replay(args: argparse.Namespace) -> None:
    cluster = ClusterSpec.homogeneous(args.nodes, args.gpus_per_node)
    trace = generate_trace(
        TraceConfig(
            num_jobs=args.jobs,
            duration_hours=1.0,
            seed=1,
            max_gpus=cluster.total_gpus,
            gpus_per_node=args.gpus_per_node,
        )
    )
    config = SimConfig(seed=1001, max_hours=30.0)
    print(f"replaying {args.jobs} recorded jobs: simulator, then replay host...")
    sim_result = Simulator(
        cluster, make_policy(args.policy, cluster), trace, config
    ).run()
    host = PolicyHost(
        make_policy(args.policy, cluster),
        ReplayBackend(cluster, trace, config),
    )
    host_result = host.run()
    sim_digest = decision_digest(sim_result)
    host_digest = decision_digest(host_result)
    print(f"simulator digest  {sim_digest[:16]}")
    print(f"replay digest     {host_digest[:16]}")
    assert sim_digest == host_digest, "replay host diverged from simulator"
    print(
        "bit-for-bit agreement: the wall-clock host IS the simulator's "
        "scheduler on a recorded trace"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--policy", default="pollux")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--gpus-per-node", type=int, default=4)
    parser.add_argument(
        "--time-scale",
        type=float,
        default=1200.0,
        help="cluster seconds per wall-clock second (live mode)",
    )
    parser.add_argument(
        "--replay",
        action="store_true",
        help="replay a recorded trace and verify simulator agreement",
    )
    args = parser.parse_args()
    if args.replay:
        run_replay(args)
    else:
        run_live(args)


if __name__ == "__main__":
    main()
