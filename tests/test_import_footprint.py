"""What a process loads: scheduling alone never imports scipy.

The theta_sys fit is the only user of scipy (its L-BFGS-B kernel), and
importing that kernel loads all of ``scipy.optimize``: about 0.6 s and
49 MB of RSS.  A process that only schedules (the Policy API fed external
reports, a cell worker, a Tiresias or Optimus simulation) must not pay
for it, so each check here runs in a fresh interpreter and reads
``sys.modules`` there.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_PRELUDE = """
import json
import sys

import numpy as np


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def run_fresh(body: str):
    """Run ``body`` in a new interpreter; returns the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(body)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_scheduling_without_a_fit_never_imports_scipy():
    """Imports, a pollux and a thread-executor pollux-sharded round on
    reports built without a fit, a Tiresias simulation, and a live
    Tiresias host: none of them loads scipy."""
    loaded = run_fresh(
        """
        import repro
        import repro.host
        import repro.policy
        import repro.service
        import repro.shard
        import repro.sim
        import repro.workload

        stages = {"import": scipy_modules()}

        from repro.cluster import ClusterSpec
        from repro.core import AgentReport, GAConfig, PolluxSchedConfig
        from repro.host import PolicyHost, ThreadedBackend, ThreadedConfig
        from repro.policy import ClusterState, JobSnapshot
        from repro.shard import UniformCellPartitioner
        from repro.sim import SimConfig, Simulator
        from repro.workload import MODEL_ZOO, JobSpec

        cluster = ClusterSpec.homogeneous(2, 4)
        profiles = [MODEL_ZOO[name] for name in sorted(MODEL_ZOO)]
        snaps = tuple(
            JobSnapshot(
                name=f"job-{idx}",
                submission_time=0.0,
                allocation=np.zeros(cluster.num_nodes, dtype=np.int64),
                batch_size=0,
                gputime=0.0,
                agent_report=AgentReport(
                    throughput_params=profile.theta_true,
                    grad_noise_scale=float(profile.gns.phi_scalar(0.5)),
                    init_batch_size=float(profile.init_batch_size),
                    limits=profile.limits,
                    max_gpus_seen=2,
                ),
            )
            for idx, profile in enumerate(profiles)
        )
        state = ClusterState(cluster=cluster, jobs=snaps)
        config = PolluxSchedConfig(ga=GAConfig(population_size=8, generations=4))
        for name, kwargs in (
            ("pollux", {}),
            (
                "pollux-sharded",
                {"execution": "thread", "partitioner": UniformCellPartitioner(2)},
            ),
        ):
            policy = repro.policy.create(
                name, cluster=cluster, config=config, seed=0, **kwargs
            )
            decision = policy.schedule(0.0, state)
            assert sum(int(a.sum()) for a in decision.allocations.values()) > 0
            policy.close()
            stages[name] = scipy_modules()

        trace = [
            JobSpec(f"t-{idx}", MODEL_ZOO["neumf-movielens"], 600.0 * idx, 2, 256)
            for idx in range(3)
        ]
        result = Simulator(
            cluster,
            repro.policy.create("tiresias", cluster=cluster, seed=0),
            trace,
            SimConfig(seed=0, max_hours=10),
        ).run()
        assert result.num_unfinished == 0
        stages["tiresias simulation"] = scipy_modules()

        host = PolicyHost(
            repro.policy.create("tiresias", cluster=cluster, seed=0),
            ThreadedBackend(cluster, ThreadedConfig(time_scale=2400.0)),
        )
        host.start()
        host.stop(timeout=30.0)
        stages["tiresias host"] = scipy_modules()
        print(json.dumps(stages))
        """
    )
    assert list(loaded) == [
        "import",
        "pollux",
        "pollux-sharded",
        "tiresias simulation",
        "tiresias host",
    ]
    assert loaded == {stage: [] for stage in loaded}


def test_first_fit_imports_the_kernel():
    loaded = run_fresh(
        """
        from repro.core.throughput import ProfileEntry, fit_throughput_params

        before = scipy_modules()
        fit_throughput_params([ProfileEntry(1, 1, 128.0, 0.2)])
        print(json.dumps([before, "scipy.optimize._lbfgsb" in sys.modules]))
        """
    )
    assert loaded == [[], True]


def test_live_pollux_host_imports_the_kernel_before_its_first_round():
    """``PolicyHost.start()`` loads the kernel itself, so the loop's first
    fit does not import it while holding the dispatch lock."""
    loaded = run_fresh(
        """
        import repro.policy
        from repro.cluster import ClusterSpec
        from repro.host import PolicyHost, ThreadedBackend, ThreadedConfig

        at_loop_entry = []
        run = PolicyHost.run

        def spy(self):
            at_loop_entry.append("scipy.optimize._lbfgsb" in sys.modules)
            return run(self)

        PolicyHost.run = spy
        cluster = ClusterSpec.homogeneous(2, 4)
        host = PolicyHost(
            repro.policy.create("pollux", cluster=cluster, seed=0),
            ThreadedBackend(cluster, ThreadedConfig(time_scale=2400.0)),
        )
        before = scipy_modules()
        host.start()
        host.stop(timeout=30.0)
        print(json.dumps([before, at_loop_entry]))
        """
    )
    assert loaded == [[], [True]]
