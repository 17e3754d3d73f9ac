"""Self-tests of the perf ledger harness (a few seconds, collected by tier-1).

They check the harness, not the program: that a tiny sizing of each workload
emits every metric the ledger names, that the statistics refuse what their
sample cannot support, that span trees are well-formed, that tracing leaves
no patch behind and survives a vanished wrap target, and that the committed
``BENCHMARK.json`` is the one ``spec.py`` describes.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

import repro.core.agent
import repro.core.sched
import repro.host.service
import repro.policy
import repro.policy.dispatch
import repro.service.server
import repro.shard.executor
import repro.sim.engine
import repro.sim.simulator
from repro.cluster import ClusterSpec

from . import inputs, run, spec, stats
from .tracing import Tracer, self_times
from .validate import check_allocations
from .wl_rounds import RoundsSize
from .wl_service import ServiceSize
from .wl_trace_sim import TraceSimSize

REPO = Path(__file__).resolve().parent.parent.parent

TINY = {
    "trace_sim": TraceSimSize(
        num_traces=1,
        mix={"neumf-movielens": 4},
        duration_hours=0.1,
        num_nodes=2,
        ga_population=8,
        ga_generations=4,
        cold_rounds=2,
    ),
    "round_dense": RoundsSize(4, 4, 12, 0, cold=2, steady=3, churn=3,
                              ga_population=8, ga_generations=4),
    "round_sharded": RoundsSize(8, 4, 24, 2, cold=2, steady=3, churn=3,
                                ga_population=8, ga_generations=4),
    "service_live": ServiceSize(
        loop_seconds=1.0, rate_per_s=10.0, warmup_seconds=0.3,
        alloc_deadline_seconds=10.0, num_nodes=4, standing_jobs=3,
        ga_population=8, ga_generations=4, cold_rounds=2, setup_repeats=1,
    ),
}

_PATCHED = [
    (repro.policy.dispatch, "build_cluster_state"),
    (repro.host.service, "build_cluster_state"),
    (repro.sim.simulator, "build_cluster_state"),
    (repro.policy.dispatch, "apply_decision"),
    (repro.sim.engine, "tune_batch_sizes"),
    (repro.core.sched.PolluxSched, "optimize"),
    (repro.core.agent, "fit_throughput_params"),
    (repro.core.agent.PolluxAgent, "tune_batch_size"),
    (repro.sim.engine.ClusterEngine, "run_one_tick"),
    (repro.shard.executor.ThreadCellExecutor, "run_rounds"),
    (repro.service.server, "render_metrics"),
]
_ORIGINALS = [vars(owner)[attr] for owner, attr in _PATCHED]


@pytest.fixture(scope="module")
def traced_runs():
    """Every workload once, tiny and traced."""
    return {name: run.measure(name, 1, True, size=size) for name, size in TINY.items()}


def test_tiny_workloads_emit_every_metric(traced_runs):
    named = set()
    for name, (report, tracer) in traced_runs.items():
        assert not report.problems, (name, report.problems)
        assert report.failed == 0 and report.attempted >= 1
        assert tracer.missing == []
        for metric, unit, _, _ in spec.END_TO_END:
            assert report.e2e[metric] > 0, (name, metric)
            assert spec.END_TO_END_UNITS[metric] == unit
        line = run.contract_line(report, trace=True)
        assert set(line["metrics"]) == {m for m, _, _ in spec.PER_LAYER}
        assert all(isinstance(v["value"], float) for v in line["metrics"].values())
        assert set(run.contract_line(report, trace=False)["metrics"]) == {
            m for m, *_ in spec.END_TO_END
        }
        named |= set(report.layer)
        assert set(report.layer) <= set(spec.PER_LAYER_UNITS), (
            set(report.layer) - set(spec.PER_LAYER_UNITS)
        )
    # trace.overhead_frac needs the untraced run of the same inputs; only
    # run.py's command line has both.
    assert named == set(spec.PER_LAYER_UNITS) - {"trace.overhead_frac"}


def test_layers_have_values_where_they_run(traced_runs):
    sim = traced_runs["trace_sim"][0].layer
    assert sim["core.agent_fits"] > 0 and sim["core.tune_calls"] > 0
    assert sim["sim.ticks"] > 0 and 0 < sim["sim.loop_self_share"] < 1
    assert sim["sim.engine_only_wall_s"] > 0
    dense = traced_runs["round_dense"][0].layer
    assert dense["core.optimize_ms_p50"] > 0
    assert dense["core.cells_hit_frac.cold"] == 0.0
    assert dense["core.cells_hit_frac.steady"] == 1.0
    assert dense["core.table_builds.churn"] > 0
    sharded = traced_runs["round_sharded"][0].layer
    assert sharded["shard.run_rounds_ms_p50"] > 0
    assert sharded["shard.stitch_self_ms_p50"] >= 0
    assert sharded["shard.cell_ms_sum"] >= sharded["shard.cell_ms_max"] > 0
    live = traced_runs["service_live"][0].layer
    assert live["service.submit_ack_ms_p50"] > 0
    assert live["service.submit_call_ms_p50"] > 0
    assert live["host.rounds"] > 0 and live["service.reads"] > 0
    assert live["service.http_non2xx"] == 0
    # Ten submits cannot support a p90: refused, hence null.
    assert live["service.submit_ack_ms_p90"] is None


def test_span_tables_account_for_their_metric(traced_runs):
    report, _ = traced_runs["trace_sim"]
    table = report.tables["dispatch_wall_s"]
    assert sum(row["share"] for row in table) == pytest.approx(1.0)
    assert any(row["span"] == "sim.run.self" for row in table)
    for name in ("round_dense", "round_sharded"):
        table = traced_runs[name][0].tables["round_steady_ms_p50"]
        assert {row["span"] for row in table} >= {"core.repair", "core.table"}
        assert sum(row["share"] for row in table) == pytest.approx(1.0)
        # Cell rounds run side by side on the pool's threads; one scheduler
        # has nothing to overlap.
        overlap = table[0]["overlap"]
        assert overlap == pytest.approx(1.0) if name == "round_dense" else overlap >= 1.0
    table = traced_runs["service_live"][0].tables["service.submit_to_alloc_ms"]
    assert sum(row["share"] for row in table) == pytest.approx(1.0)


def test_span_trees_are_well_formed(traced_runs):
    for name, (_, tracer) in traced_runs.items():
        by_id = {span.id: span for span in tracer.spans}
        assert len(by_id) == len(tracer.spans)
        for span in tracer.spans:
            assert span.end >= span.start
            if span.parent is not None:
                parent = by_id[span.parent]
                assert parent.start <= span.start and span.end <= parent.end, (
                    name, span.name, parent.name,
                )
        assert min(self_times(tracer.spans).values()) >= -1e-9


def test_tracing_restores_every_patched_name(traced_runs):
    for (owner, attr), original in zip(_PATCHED, _ORIGINALS):
        assert vars(owner)[attr] is original, (owner, attr)


def test_missing_wrap_target_yields_null_not_an_exception():
    tracer = Tracer()
    assert not tracer.wrap("repro.core.sched:PolluxSched.gone_tomorrow", "core.gone")
    assert not tracer.wrap("repro.no_such_module:thing", "core.gone_too")
    assert not tracer.wrap(object(), "host.gone", attr="submit")
    assert tracer.missing == ["core.gone", "core.gone_too", "host.gone"]
    assert tracer.durations_ms("core.gone") is None
    assert tracer.tally("core.gone_too") is None
    assert run._number(None) == 0.0
    tracer.restore()


def test_percentile_refuses_what_the_sample_cannot_support():
    assert stats.percentile(list(range(15)), 50) == 7
    assert stats.percentile(list(range(120)), 90) == 108
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    values = [10.0, 11.0, 12.0, 13.0]
    row = stats.spread(values)
    assert row["median"] == 11.5
    assert row["spread"] == row["iqr_over_median"] == pytest.approx((12.75 - 10.25) / 11.5)
    assert row["range_over_median"] == pytest.approx(3.0 / 11.5)
    # Two values: the quartile rule extrapolates, so the range is the gate.
    assert stats.spread([10.0, 11.0])["spread"] == pytest.approx(1.0 / 10.5)
    assert stats.spread([3.0])["spread"] == 0.0


def test_validator_names_each_violation():
    cluster = ClusterSpec.heterogeneous([("t4", 2, 4), ("v100", 1, 4)])
    ok = {
        "a": np.array([2, 2, 0]),  # distributed over nodes 0-1
        "b": np.array([2, 0, 0]),
        "c": np.array([0, 0, 4]),
    }
    assert check_allocations(cluster, set(ok), ok) == []
    bad = {
        "a": np.array([3, 2, 0]),
        "b": np.array([2, 1, 0]),  # second distributed job on nodes 0-1; node 0 over
        "c": np.array([0, 1, 1]),  # t4 + v100
        "d": np.array([0, 0]),  # not full width
        "ghost": np.array([0, 0, 1]),
    }
    found = "\n".join(check_allocations(cluster, {"a", "b", "c", "d"}, bad))
    for needle in (
        "ghost: allocated but not active",
        "d: row shape",
        "c: spans more than one GPU type",
        "node 0: 5 GPUs allocated, 4 present",
        "node 0: shared by more than one distributed job",
    ):
        assert needle in found, (needle, found)


def test_inputs_are_a_function_of_the_seed():
    def hashes(seed):
        cluster = ClusterSpec.homogeneous(4, 4)
        state = inputs.synthetic_state(cluster, 12, inputs.sub_seed(seed, "state"))
        trace = inputs.stratified_trace(seed, 0, {"neumf-movielens": 5}, 1.0, 8, 4)
        schedule = inputs.poisson_schedule(seed, 6.0, 5.0)
        assert len(schedule) == 30 and schedule[0].due_s <= schedule[-1].due_s < 5.0
        return (
            inputs.state_hash(state),
            inputs.trace_hash(trace),
            inputs.schedule_hash(schedule),
        )

    assert hashes(7) == hashes(7)
    assert all(a != b for a, b in zip(hashes(7), hashes(8)))


def test_churn_replaces_and_refits_a_twentieth():
    cluster = ClusterSpec.homogeneous(8, 4)
    state = inputs.synthetic_state(cluster, 40, 0)
    decision = repro.policy.ScheduleDecision(
        allocations={snap.name: snap.allocation for snap in state.jobs}
    )
    after = inputs.churn_state(state, decision, 3, np.random.default_rng(0))
    before_names = {snap.name for snap in state.jobs}
    arrivals = [snap for snap in after.jobs if snap.name not in before_names]
    assert len(after.jobs) == 40 and len(arrivals) == 2
    assert all(s.agent_report.max_gpus_seen == 1 and not s.allocation.any() for s in arrivals)
    theta = {s.name: s.agent_report.theta_fingerprint() for s in state.jobs}
    refit = [
        s for s in after.jobs
        if s.name in theta and s.agent_report.theta_fingerprint() != theta[s.name]
    ]
    assert len(refit) == 2


def test_benchmark_json_is_the_contract_spec_describes():
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    assert contract == spec.contract()
    assert contract["paths"] == ["benchmarks/e2e"]
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in contract["workloads"]]
    assert names == ["trace_sim", "round_dense", "round_sharded", "service_live"]
    metrics = contract["end_to_end"] + contract["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert 1 <= len(contract["end_to_end"]) <= 16 and len(contract["per_layer"]) <= 128
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in contract["end_to_end"])}
