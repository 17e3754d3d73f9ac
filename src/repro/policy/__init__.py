"""Policy API v1: event-driven, host-agnostic scheduling policies.

This package is the repo's policy/mechanism seam (in the spirit of Blox,
Agarwal et al.): scheduling *policies* consume frozen snapshot views and
return decisions; *hosts* own the event loop, job runtime state,
profiling, and the application of decisions.  There is one host loop —
:class:`repro.host.PolicyHost`, using the helpers in
:mod:`repro.policy.dispatch` — and the discrete-time simulator
(:mod:`repro.sim`) runs on it through a trace-replay backend, so a policy
written once runs simulated, replayed or live, and a simulation and a
replay of the same trace agree bit-for-bit.  The four paper policies —
Pollux and the Tiresias / Optimus+Oracle / Or-et-al baselines — plus
both autoscaling behaviors (goodput-utility and throughput-marginal) all
live behind this one interface, constructible by registry name::

    import repro.policy

    policy = repro.policy.create("pollux", cluster=cluster, seed=0)
    sim = Simulator(cluster, policy, trace, SimConfig(seed=1))

Registered names: ``pollux``, ``pollux-sharded`` (cell-partitioned
Pollux, :mod:`repro.shard`; ``execution="process"`` selects persistent
worker processes with the identical decision stream), ``tiresias``,
``optimus`` (alias ``optimus+oracle``), ``orelastic`` (alias
``or-etal``); see :func:`available` / :func:`describe`.

Writing a new policy
--------------------

1.  **Subclass** :class:`~repro.policy.base.Policy` and declare what you
    need from the host in a
    :class:`~repro.policy.base.PolicyCapabilities`::

        from repro.policy import (
            Policy, PolicyCapabilities, ScheduleDecision, register,
        )

        class RandomPolicy(Policy):
            name = "random"
            capabilities = PolicyCapabilities()  # no agent, no autoscaling

            def __init__(self, cluster=None, seed=0):
                self.seed = seed              # every policy records seed
                self._rng = np.random.default_rng(seed)

    ``adapts_batch_size`` asks the host to let each job's agent re-tune
    its batch size; ``needs_agent`` asks the host to profile jobs and
    attach :class:`~repro.core.agent.AgentReport` snapshots;
    ``autoscales`` + ``autoscale_interval`` subscribe the policy to
    cadenced :meth:`~repro.policy.base.Policy.decide_resize` events.

2.  **Implement** ``schedule(now, state)``.  ``state`` is a frozen
    :class:`~repro.policy.views.ClusterState`: the cluster spec plus one
    immutable :class:`~repro.policy.views.JobSnapshot` per active job
    (write-locked allocation vectors — policies cannot mutate host
    state).  Return a :class:`~repro.policy.base.ScheduleDecision`
    mapping job names to per-node GPU vectors; omitted jobs keep their
    current allocation.  Policies that fix batch sizes themselves (rather
    than via per-job agents) return them in ``batch_sizes``; autoscaling
    policies may bundle a ``resize`` request or answer
    ``decide_resize``.

3.  **React to lifecycle events** (optional): ``on_job_submitted`` /
    ``on_job_completed`` fire as jobs enter and leave the active set —
    useful for policies that keep cross-event state (queues, histories)
    without rescanning every snapshot.

4.  **Register** it so benchmarks and sweep scripts can construct it by
    name with uniform ``cluster``/``seed`` kwargs::

        register("random", RandomPolicy, description="uniform random")
        policy = repro.policy.create("random", seed=7)

    ``seed`` must be accepted (and recorded) even by deterministic
    policies, so sweeps never silently drop the determinism knob.

Decision-stream guarantees
--------------------------

Hosts build snapshots at exactly the dispatch events (reports only for
``needs_agent`` policies), so the report-call schedule — and with it every
RNG stream — is fixed by the API, not by the host: the default
configuration's simulator digests in ``benchmarks/pins.json`` are pinned
through registry-constructed policies (``tests/test_pinned_digests.py``,
``benchmarks/gates.py check``) and the wall-clock replay host reproduces them
bit-for-bit.  See "Decision-stream policy" in ``docs/operating.md``.
"""

from .base import (
    ClusterResizeRequest,
    Policy,
    PolicyCapabilities,
    ScheduleDecision,
)
from .dispatch import (
    apply_decision,
    build_cluster_state,
    relay_job_event,
    tune_batch_sizes,
)
from .registry import available, canonical, create, describe, register
from .views import ClusterState, JobSnapshot, snapshot_job

# Importing the policy modules registers the built-in policies.
from .optimus import OptimusPolicy
from .orelastic import OrElasticPolicy
from .pollux import PolluxPolicy
from .tiresias import TiresiasPolicy

# The sharded policy lives outside this package (repro.shard) and imports
# from it, so its registration import must come after the core policies.
from ..shard.policy import ShardedPolicy

__all__ = [
    "Policy",
    "PolicyCapabilities",
    "ScheduleDecision",
    "ClusterResizeRequest",
    "ClusterState",
    "JobSnapshot",
    "snapshot_job",
    "build_cluster_state",
    "apply_decision",
    "relay_job_event",
    "tune_batch_sizes",
    "create",
    "register",
    "available",
    "describe",
    "canonical",
    "PolluxPolicy",
    "ShardedPolicy",
    "TiresiasPolicy",
    "OptimusPolicy",
    "OrElasticPolicy",
]
