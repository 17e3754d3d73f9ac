"""``tools/paired_bench.py``: the statistics and the "claim met" rule.

The tool's runs are the ledger's; what is tested here is what it makes of
their result objects, fed canned.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "paired_bench",
    Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py",
)
paired_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired_bench)


def result(**values):
    return {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": "ms"} for k, v in values.items()},
    }


PARENT = [100.0, 104.0, 96.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0]


class TestCompare:
    def test_medians_quartiles_and_delta(self):
        row = paired_bench.compare(PARENT, [v * 0.5 for v in PARENT], "lower")
        assert row["parent"] == (100.0, 97.75, 102.25)
        assert row["change"] == (50.0, 48.875, 51.125)
        assert row["delta"] == pytest.approx(-0.5)
        assert row["parent_iqr"] == pytest.approx(4.5)
        assert (row["won"], row["ties"], row["pairs"]) == (10, 0, 10)
        assert row["claim_met"]

    def test_nine_of_ten_is_enough_eight_is_not(self):
        change = [v - 10.0 for v in PARENT]
        change[0] = PARENT[0] + 1.0
        assert paired_bench.compare(PARENT, change, "lower")["claim_met"]
        change[1] = PARENT[1] + 1.0
        row = paired_bench.compare(PARENT, change, "lower")
        assert row["won"] == 8 and not row["claim_met"]

    def test_ties_count_for_neither_side(self):
        change = [v - 10.0 for v in PARENT]
        change[0], change[1] = PARENT[0], PARENT[1]
        row = paired_bench.compare(PARENT, change, "lower")
        assert (row["won"], row["ties"]) == (8, 2)
        assert not row["claim_met"]

    def test_winning_every_pair_inside_the_parents_spread_is_no_claim(self):
        row = paired_bench.compare(PARENT, [v - 1.0 for v in PARENT], "lower")
        assert row["won"] == 10 and not row["claim_met"]

    def test_higher_is_better_flips_the_sign(self):
        up = [v + 10.0 for v in PARENT]
        assert paired_bench.compare(PARENT, up, "higher")["claim_met"]
        row = paired_bench.compare(PARENT, up, "lower")
        assert row["won"] == 0 and not row["claim_met"]

    def test_unpaired_runs_are_rejected(self):
        with pytest.raises(ValueError):
            paired_bench.compare(PARENT, PARENT[:-1], "lower")


def test_rows_and_table_from_result_objects():
    metrics = [
        {"name": "round_steady_ms_p50", "better": "lower"},
        {"name": "round_utility_mean", "better": "higher"},
    ]
    parent = [result(round_steady_ms_p50=v, round_utility_mean=0.65) for v in PARENT]
    change = [
        result(round_steady_ms_p50=v * 0.7, round_utility_mean=0.65) for v in PARENT
    ]
    rows = paired_bench.rows_for("round_sharded", parent, change, metrics)
    assert [row["metric"] for row in rows] == [m["name"] for m in metrics]
    assert rows[0]["claim_met"] and not rows[1]["claim_met"]
    assert rows[1]["ties"] == 10
    table = paired_bench.format_table(rows).splitlines()
    assert len(table) == 4
    assert "| round_sharded | round_steady_ms_p50 | 100 [97.75, 102.2] |" in table[2]
    assert "| -30.0% | 4.5 | 10/10 | yes |" in table[2]
    assert "| 0/10, 10 ties | no |" in table[3]


def test_seeds_assigned_round_robin_and_utility_by_seed():
    seeds = [21, 22, 23]
    assert [paired_bench.seed_of(seeds, pair) for pair in range(7)] == [
        21, 22, 23, 21, 22, 23, 21,
    ]
    assert paired_bench.seed_of([5], 3) == 5
    # Seed 21 runs pairs 0 and 3, seed 22 pairs 1 and 4, seed 23 pair 2.
    parent = [result(round_utility_mean=v) for v in (0.5, 0.6, 0.8, 0.7, 0.6)]
    change = [result(round_utility_mean=v) for v in (0.6, 0.6, 0.8, 0.8, 0.6)]
    lines = paired_bench.utility_by_seed("round_dense", parent, change, seeds)
    lines = lines.splitlines()
    assert lines == [
        "round_dense round_utility_mean by seed (parent -> change):",
        "  seed 21: 0.6000 -> 0.7000 (+16.67%)",
        "  seed 22: 0.6000 -> 0.6000 (+0.00%)",
        "  seed 23: 0.8000 -> 0.8000 (+0.00%)",
        "  mean over 3 seeds: 0.6667 -> 0.7000 (+5.00%)",
    ]


def test_decision_digests_read_from_the_detail_line():
    def stdout(digest):
        inputs = {"hash": "ab12"} if digest is None else {"decision_digest": digest}
        detail = {"workload": "trace_sim", "inputs": inputs}
        return [
            "== trace_sim seed=1 seconds=20 trace=0 ==",
            paired_bench.DETAIL_PREFIX + json.dumps(detail),
            json.dumps({"correct": True}),
        ]

    assert paired_bench.decision_digest(stdout("9a95" * 16)) == "9a95" * 16
    assert paired_bench.decision_digest(stdout(None)) is None
    assert paired_bench.decision_digest(stdout("x")[::2]) is None  # no detail line

    def runs(*digests):
        out = []
        for digest in digests:
            run = result(round_utility_mean=0.5)
            run["decision_digest"] = paired_bench.decision_digest(stdout(digest))
            out.append(run)
        return out

    equal = paired_bench.digest_agreement(
        "trace_sim", runs("aa", "bb", "cc"), runs("aa", "bb", "cc")
    )
    assert equal == "trace_sim decision digest equal in 3/3 pairs"
    differ = paired_bench.digest_agreement(
        "trace_sim", runs("aa", "bb", "cc"), runs("aa", "b0", "cc")
    )
    assert differ == "trace_sim decision digest equal in 2/3 pairs"
    # A workload that reports no digest prints no line.
    none = runs(None, None)
    assert paired_bench.digest_agreement("round_dense", none, none) is None
