"""Ablations of Pollux's design choices (beyond the paper's figures).

Three studies of knobs the paper fixes by design:

1. **Restart penalty** — Sec. 4.2.1 charges RESTART_PENALTY=0.25 per
   re-allocated running job to damp thrashing.  We sweep {0, 0.25, 1.0} and
   report JCT and total restarts: no penalty should thrash (more restarts),
   a huge penalty should freeze allocations.
2. **GA budget** — Sec. 5.1 uses population 100 x 100 generations per 60 s
   round.  We sweep small budgets to show the fitness the GA reaches and
   that scheduling quality saturates quickly (why the reduced-scale
   benchmarks are representative).
3. **Batch-size argmax method** — golden-section (paper) vs dense grid
   (our table vectorization): same optima, different cost profile.

Run:  pytest benchmarks/bench_ablations.py --benchmark-only -s
"""

import time

import numpy as np

from repro.cluster import ClusterSpec
from repro.core import (
    AllocationProblem,
    EfficiencyModel,
    GAConfig,
    GeneticOptimizer,
    GoodputModel,
    JobGAInfo,
    build_speedup_tables_batch,
)
from repro.workload import MODEL_ZOO

from .common import SCALE, print_header, run_policy

PENALTIES = (0.0, 0.25, 1.0)
GA_BUDGETS = ((8, 4), (16, 8), (32, 16), (64, 32))


def run_restart_penalty_ablation():
    rows = {}
    for penalty in PENALTIES:
        result = run_policy(
            "pollux",
            SCALE.seeds[0],
            pollux_kwargs={"restart_penalty": penalty},
        )
        rows[penalty] = {
            "avg_jct_hours": result.avg_jct() / 3600.0,
            "restarts": float(sum(r.num_restarts for r in result.records)),
        }
    return rows


def test_ablation_restart_penalty(benchmark):
    rows = benchmark.pedantic(run_restart_penalty_ablation, rounds=1, iterations=1)
    print_header("Ablation: RESTART_PENALTY")
    print(f"{'penalty':>8s} {'avg JCT':>9s} {'restarts':>9s}")
    for penalty in PENALTIES:
        row = rows[penalty]
        print(
            f"{penalty:8.2f} {row['avg_jct_hours']:8.2f}h "
            f"{row['restarts']:9.0f}"
        )
    # No penalty -> more churn than the paper's 0.25 default.
    assert rows[0.0]["restarts"] >= rows[0.25]["restarts"]
    # A huge penalty freezes allocations almost entirely.
    assert rows[1.0]["restarts"] <= rows[0.25]["restarts"]


def _static_problem():
    """A fixed allocation problem for GA-budget comparisons."""
    cluster = ClusterSpec.homogeneous(8, 4)
    jobs = []
    for idx, (name, phi) in enumerate(
        [
            ("resnet18-cifar10", 800.0),
            ("resnet18-cifar10", 3000.0),
            ("deepspeech2-arctic", 120.0),
            ("yolov3-voc", 60.0),
            ("neumf-movielens", 2000.0),
            ("resnet50-imagenet", 6000.0),
        ]
    ):
        profile = MODEL_ZOO[name]
        model = GoodputModel(
            profile.theta_true,
            EfficiencyModel(float(profile.init_batch_size), phi),
            profile.limits,
        )
        [table] = build_speedup_tables_batch([model], [cluster.total_gpus])
        jobs.append(
            JobGAInfo(
                speedup_table=table,
                weight=1.0,
                max_gpus=cluster.total_gpus,
                current_alloc=np.zeros(8, dtype=np.int64),
                running=False,
            )
        )
    return AllocationProblem(cluster, jobs)


def run_ga_budget_ablation():
    problem = _static_problem()
    rows = []
    for population, generations in GA_BUDGETS:
        config = GAConfig(
            population_size=population, generations=generations, seed=0
        )
        start = time.perf_counter()
        _, fitness, _ = GeneticOptimizer(problem, config).run()
        elapsed = time.perf_counter() - start
        rows.append((population, generations, fitness, elapsed))
    return rows


def test_ablation_ga_budget(benchmark):
    rows = benchmark.pedantic(run_ga_budget_ablation, rounds=1, iterations=1)
    print_header("Ablation: GA budget (population x generations)")
    print(f"{'pop':>5s} {'gens':>5s} {'fitness':>9s} {'seconds':>8s}")
    for population, generations, fitness, elapsed in rows:
        print(f"{population:5d} {generations:5d} {fitness:9.3f} {elapsed:8.3f}")
    fitnesses = [r[2] for r in rows]
    # Bigger budgets help weakly monotonically...
    assert fitnesses[-1] >= fitnesses[0] - 1e-9
    # ...but quality saturates: an 8x larger budget (64x32 vs 16x8) buys
    # only a modest fitness improvement (measured ~12%), far from the 8x
    # cost it pays — which is why reduced GA budgets preserve scheduling
    # behaviour.
    assert fitnesses[-1] <= fitnesses[1] * 1.25


def run_argmax_comparison():
    profile = MODEL_ZOO["resnet50-imagenet"]
    model = GoodputModel(
        profile.theta_true,
        EfficiencyModel(float(profile.init_batch_size), 5000.0),
        profile.limits,
    )
    placements = [(1, k) if k <= 4 else (2, k) for k in range(1, 33)]

    start = time.perf_counter()
    golden = [
        model.optimize_batch_size(nodes, gpus, tol=1.0)[1]
        for nodes, gpus in placements
    ]
    t_golden = time.perf_counter() - start

    start = time.perf_counter()
    build_speedup_tables_batch([model], [32])
    t_table = time.perf_counter() - start

    grid = [
        model.optimize_batch_size_grid(nodes, gpus)[1]
        for nodes, gpus in placements
    ]
    return golden, grid, t_golden, t_table


def test_ablation_argmax_method(benchmark):
    golden, grid, t_golden, t_table = benchmark.pedantic(
        run_argmax_comparison, rounds=1, iterations=1
    )
    print_header("Ablation: golden-section vs vectorized grid argmax")
    max_rel = max(abs(g - r) / r for g, r in zip(golden, grid))
    print(f"placements evaluated: {len(golden)}")
    print(f"max relative goodput difference: {max_rel * 100:.3f}%")
    print(f"golden-section (32 placements, looped): {t_golden * 1e3:7.2f} ms")
    print(f"vectorized speedup table (all 64 cells): {t_table * 1e3:7.2f} ms")
    # The two maximization methods agree (GOODPUT is unimodal in m).
    assert max_rel < 0.01
