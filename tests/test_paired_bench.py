"""``tools/paired_bench.py``: the statistics and the "claim met" rule.

The tool's runs are the ledger's; what is tested here is what it makes of
their result objects, fed canned.
"""

import importlib.util
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
