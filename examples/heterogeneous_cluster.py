"""Walkthrough: Pollux on a heterogeneous (multi-GPU-type) cluster.

Builds a mixed T4 + V100 fleet, shows how the typed abstractions fit
together (per-type speedup tables, throughput-ratio projection, the
type-aware genetic algorithm), then runs a small trace through Pollux and
reports per-type utilization.

Run:  python examples/heterogeneous_cluster.py [--jobs N] [--hours H]
"""

import argparse

import repro.policy
from repro.cluster import GPU_TYPES, ClusterSpec
from repro.core import GAConfig, PolluxSchedConfig, build_speedup_tables_batch
from repro.core.throughput import project_throughput_params
from repro.sim import SimConfig, Simulator
from repro.workload import MODEL_ZOO, TraceConfig, generate_trace, true_goodput_model


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=8)
    parser.add_argument("--hours", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # 1. A typed cluster: two 4-GPU V100 nodes plus four 4-GPU T4 nodes
    # (fastest group first, so autoscaling shrink sheds T4 nodes first).
    cluster = ClusterSpec.heterogeneous((("v100", 2, 4), ("t4", 4, 4)))
    print("== cluster ==")
    for gpu_type, cap in zip(cluster.gpu_types, cluster.type_capacities()):
        print(
            f"  {int(cap):3d} x {gpu_type.name:<6s} "
            f"(compute speed {gpu_type.compute_speed:g}x the T4 reference)"
        )

    # 2. Throughput-ratio projection: a profile measured on T4 nodes
    # predicts V100 iteration times by scaling T_grad with the speed ratio.
    model = true_goodput_model(MODEL_ZOO["resnet18-cifar10"])
    ratio = GPU_TYPES["v100"].compute_speed / GPU_TYPES["t4"].compute_speed
    t4_t_iter = float(model.throughput_model.t_iter(1, 2, 256.0))
    v100_t_iter = float(model.throughput_model.t_iter(1, 2, 256.0, speed=ratio))
    projected = project_throughput_params(model.throughput_model.params, ratio)
    print("\n== throughput-ratio projection (2 GPUs, batch 256) ==")
    print(f"  T_iter on t4:              {t4_t_iter * 1000:.1f} ms")
    print(f"  T_iter projected to v100:  {v100_t_iter * 1000:.1f} ms")
    print(f"  projected beta_grad:       {projected.beta_grad:.2e} s/sample")

    # 3. Per-type speedup tables: what the genetic algorithm actually sees.
    [table] = build_speedup_tables_batch(
        [model], [8], type_speeds=cluster.type_speeds(), squeeze=False
    )
    names = [t.name for t in cluster.gpu_types]
    print("\n== per-type SPEEDUP table (co-located placements) ==")
    print("  K " + "".join(f"{n:>8s}" for n in names))
    for k in (1, 2, 4, 8):
        print(f"  {k} " + "".join(f"{table[k, 0, i]:8.2f}" for i in range(len(names))))

    # 4. Run a small trace through Pollux on the mixed fleet.
    trace = generate_trace(
        TraceConfig(
            num_jobs=args.jobs,
            duration_hours=args.hours,
            seed=args.seed,
            max_gpus=cluster.total_gpus,
        )
    )
    scheduler = repro.policy.create(
        "pollux",
        cluster=cluster,
        config=PolluxSchedConfig(ga=GAConfig(population_size=16, generations=10)),
    )
    sim = Simulator(
        cluster, scheduler, trace, SimConfig(seed=args.seed, max_hours=50.0)
    )
    result = sim.run()

    print(f"\n== Pollux on {args.jobs} jobs / {args.hours:g}h trace ==")
    print(f"  avg JCT:        {result.avg_jct() / 3600:.2f} h")
    print(f"  makespan:       {result.makespan() / 3600:.2f} h")
    print(f"  unfinished:     {result.num_unfinished}")
    print("  per-type GPU utilization:")
    for name, util in sorted(result.per_type_utilization().items()):
        print(f"    {name:<6s} {util * 100:5.1f}%")


if __name__ == "__main__":
    main()
