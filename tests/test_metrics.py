"""Tests for simulation result metrics (JCT, makespan, efficiency)."""

import numpy as np
import pytest

from repro.sim.metrics import JobRecord, SimResult, TimelineSample, average_summaries


def record(name, submit, finish, **kwargs):
    defaults = dict(
        model="m",
        category="small",
        start_time=submit,
        gputime=0.0,
        num_restarts=0,
        user_configured=False,
    )
    defaults.update(kwargs)
    return JobRecord(
        name=name, submission_time=submit, finish_time=finish, **defaults
    )


@pytest.fixture
def result() -> SimResult:
    res = SimResult(scheduler_name="test")
    res.records = [
        record("a", 0.0, 3600.0),
        record("b", 1800.0, 9000.0),
        record("c", 3600.0, None),  # unfinished
    ]
    res.end_time = 10000.0
    return res


class TestJCT:
    def test_censored_by_default(self, result):
        jcts = result.jcts()
        assert len(jcts) == 3
        assert jcts[2] == pytest.approx(10000.0 - 3600.0)

    def test_uncensored_excludes_unfinished(self, result):
        jcts = result.jcts(censor=False)
        assert len(jcts) == 2

    def test_avg(self, result):
        expected = np.mean([3600.0, 7200.0, 6400.0])
        assert result.avg_jct() == pytest.approx(expected)

    def test_percentile(self, result):
        assert result.percentile_jct(50) == pytest.approx(6400.0)

    def test_unfinished_count(self, result):
        assert result.num_unfinished == 1

    def test_empty_result(self):
        res = SimResult()
        assert np.isnan(res.avg_jct())
        assert res.makespan() == 0.0


class TestMakespan:
    def test_censored_at_end_time_with_unfinished(self, result):
        # Job "c" never finished, so the makespan is censored at end_time.
        assert result.makespan() == pytest.approx(10000.0)

    def test_all_finished(self):
        res = SimResult()
        res.records = [record("a", 100.0, 500.0), record("b", 0.0, 900.0)]
        assert res.makespan() == pytest.approx(900.0)


class TestClusterStats:
    def test_avg_efficiency_over_busy_samples(self):
        res = SimResult()
        res.timeline = [
            TimelineSample(0, 4, 8, 16, 2, 0, 0.8, 0.0),
            TimelineSample(30, 4, 8, 16, 2, 0, 0.9, 0.0),
            TimelineSample(60, 4, 0, 16, 0, 0, 0.0, 0.0),  # idle: ignored
        ]
        assert res.avg_efficiency() == pytest.approx(0.85)

    def test_avg_gpu_utilization(self):
        res = SimResult()
        res.timeline = [
            TimelineSample(0, 4, 8, 16, 1, 0, 1.0, 0.0),
            TimelineSample(30, 4, 16, 16, 1, 0, 1.0, 0.0),
        ]
        assert res.avg_gpu_utilization() == pytest.approx(0.75)

    def test_time_averages_weight_by_step_length(self):
        res = SimResult()
        res.timeline = [
            TimelineSample(0, 4, 8, 16, 1, 0, 0.5, 0.0, seconds=10.0),
            TimelineSample(10, 4, 16, 16, 1, 0, 1.0, 0.0, seconds=30.0),
        ]
        assert res.avg_gpu_utilization() == pytest.approx(0.875)
        assert res.avg_efficiency() == pytest.approx(0.875)

    def test_node_hours(self):
        res = SimResult()
        res.node_seconds = 7200.0
        assert res.node_hours() == pytest.approx(2.0)


class TestPresentation:
    def test_summary_keys(self, result):
        summary = result.summary()
        for key in (
            "avg_jct_hours",
            "p50_jct_hours",
            "p99_jct_hours",
            "makespan_hours",
            "avg_efficiency",
            "unfinished_jobs",
        ):
            assert key in summary

    def test_format_summary_contains_name(self, result):
        assert "test" in result.format_summary()

    def test_average_summaries(self, result):
        avg = average_summaries([result, result])
        assert avg["avg_jct_hours"] == pytest.approx(
            result.summary()["avg_jct_hours"]
        )

    def test_average_summaries_empty_raises(self):
        with pytest.raises(ValueError):
            average_summaries([])
