#!/usr/bin/env python
"""Quickstart: model a DL job's goodput and let Pollux tune it.

Walks through the paper's core ideas on one job (ResNet18 on CIFAR-10):

1. fit the throughput model (Eqn. 8-11) to observed iteration times,
2. measure statistical efficiency via the gradient noise scale (Eqn. 7),
3. combine them into GOODPUT (Eqn. 6) and find the best batch size
   (Eqn. 13) for several GPU allocations,
4. build the SPEEDUP table (Eqn. 15) PolluxSched would schedule with.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core import (
    EfficiencyModel,
    PolluxAgent,
    build_speedup_tables_batch,
)
from repro.workload import MODEL_ZOO


def main() -> None:
    profile = MODEL_ZOO["resnet18-cifar10"]
    rng = np.random.default_rng(0)

    # ------------------------------------------------------------------
    # 1. A PolluxAgent profiles the job during training.  Here the "real
    #    system" is the model zoo's ground truth plus measurement noise.
    # ------------------------------------------------------------------
    agent = PolluxAgent(
        init_batch_size=float(profile.init_batch_size),
        init_lr=profile.init_lr,
        limits=profile.limits,
    )
    truth = profile.throughput_true
    for nodes, gpus in [(1, 1), (1, 2), (1, 4), (2, 8), (4, 16)]:
        for batch_size in (128, 256, 512, 1024, 2048):
            if batch_size > gpus * profile.max_local_bsz:
                continue
            t_true = float(truth.t_iter(nodes, gpus, batch_size))
            t_obs = t_true * rng.lognormal(sigma=0.03)
            agent.record_iteration(nodes, gpus, batch_size, t_obs)
    theta = agent.fit()
    print("fitted theta_sys:")
    for name in (
        "alpha_grad",
        "beta_grad",
        "alpha_sync_local",
        "beta_sync_local",
        "alpha_sync_node",
        "beta_sync_node",
        "gamma",
    ):
        print(f"  {name:18s} = {getattr(theta, name):.5f}")

    # ------------------------------------------------------------------
    # 2. Gradient statistics -> noise scale -> statistical efficiency.
    # ------------------------------------------------------------------
    phi = profile.gns.phi(0.5)  # mid-training
    agent.record_grad_stats(var=phi / profile.init_batch_size, sqr=1.0)
    eff = EfficiencyModel(float(profile.init_batch_size), phi)
    print(f"\ngradient noise scale at mid-training: phi = {phi:.0f}")
    for m in (128, 512, 2048, 8192):
        print(f"  EFFICIENCY(m={m:5d}) = {eff.efficiency(m):.3f}")

    # ------------------------------------------------------------------
    # 3. Goodput-optimal batch size per allocation (Eqn. 13).
    # ------------------------------------------------------------------
    model = agent.goodput_model()
    print("\ngoodput-optimal batch size by allocation:")
    for nodes, gpus in [(1, 1), (1, 4), (2, 8), (4, 16)]:
        m_star, goodput = model.optimize_batch_size(nodes, gpus)
        tput = float(model.throughput(nodes, gpus, m_star))
        print(
            f"  {gpus:2d} GPUs / {nodes} node(s): m* = {m_star:7.0f}   "
            f"throughput = {tput:8.0f} samples/s   goodput = {goodput:8.0f}"
        )

    # ------------------------------------------------------------------
    # 4. The speedup table PolluxSched's genetic algorithm consumes.
    # ------------------------------------------------------------------
    [table] = build_speedup_tables_batch([model], [16])
    print("\nSPEEDUP table (column 0: co-located, column 1: multi-node):")
    for gpus in (1, 2, 4, 8, 16):
        print(
            f"  K={gpus:2d}:  single-node {table[gpus, 0]:6.2f}   "
            f"multi-node {table[gpus, 1]:6.2f}"
        )


if __name__ == "__main__":
    main()
