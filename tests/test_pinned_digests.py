"""The pinned tier in every tier-1 run, and the gate that holds it.

``benchmarks/pins.json["smoke"]`` holds the decision digests of the default
configuration (``docs/operating.md``, "Decision-stream policy"): registry
``pollux`` on the smoke trace, without and with cloud autoscaling.  A
pure-performance change must reproduce them exactly; an intentional stream
change re-pins them.  ``python benchmarks/gates.py check smoke|reduced``
gates the same digests from the command line, and fails closed.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks import common, gates  # noqa: E402

PINNED = json.loads(gates.PINS_PATH.read_text())["smoke"]


@pytest.fixture(scope="module")
def smoke_runs():
    """Both pinned smoke runs, simulated once for the module."""
    return {key: gates.run_pinned(common._SMOKE, key) for key in gates.PINNED_SIMS}


@pytest.mark.skipif(
    (np.__version__, scipy.__version__)
    != (PINNED["numpy_version"], PINNED["scipy_version"]),
    reason=(
        "digests are exact float streams, recorded on numpy "
        f"{PINNED['numpy_version']} / scipy {PINNED['scipy_version']}; this "
        f"stack is numpy {np.__version__} / scipy {scipy.__version__}"
    ),
)
@pytest.mark.parametrize("key", gates.PINNED_SIMS)
def test_default_configuration_digest_is_pinned(key, smoke_runs):
    got, want = smoke_runs[key], PINNED[key]
    assert got["decision_digest"] == want["decision_digest"], (
        f"{key}: the default decision stream moved (avg JCT "
        f"{got['avg_jct_hours']} h vs pinned {want['avg_jct_hours']} h, restarts "
        f"{got['num_restarts']} vs {want['num_restarts']}); see docs/operating.md, "
        "Decision-stream policy"
    )


class TestCheckFailsClosed:
    """``gates.check`` against a temp pins file recorded on this stack."""

    @pytest.fixture
    def entry(self, smoke_runs, monkeypatch):
        # check() reads the module's run_pinned: serve it the module's runs.
        monkeypatch.setattr(gates, "run_pinned", lambda scale, key: smoke_runs[key])
        return {
            "numpy_version": np.__version__,
            "scipy_version": scipy.__version__,
            **{key: dict(run) for key, run in smoke_runs.items()},
        }

    @staticmethod
    def _check(tmp_path, pins) -> int:
        path = tmp_path / "pins.json"
        path.write_text(json.dumps(pins))
        return gates.check(common._SMOKE, path)

    def test_matching_pins_pass(self, entry, tmp_path):
        assert self._check(tmp_path, {"smoke": entry}) == 0

    def test_a_flipped_digest_fails(self, entry, tmp_path):
        run = entry["sim_pollux_autoscale"]
        digest = run["decision_digest"]
        run["decision_digest"] = ("1" if digest[0] == "0" else "0") + digest[1:]
        assert self._check(tmp_path, {"smoke": entry}) == 1

    def test_a_missing_scale_entry_fails(self, entry, tmp_path):
        assert self._check(tmp_path, {"reduced": entry}) == 1

    def test_a_missing_digest_fails(self, entry, tmp_path):
        del entry["sim_pollux"]["decision_digest"]
        assert self._check(tmp_path, {"smoke": entry}) == 1

    def test_a_missing_pins_file_fails(self, tmp_path):
        assert gates.check(common._SMOKE, tmp_path / "absent.json") == 1

    def test_another_numpy_only_warns(self, entry, tmp_path, capsys):
        entry["numpy_version"] = "0.0.0"
        assert self._check(tmp_path, {"smoke": entry}) == 0
        assert "WARNING: numpy/scipy" in capsys.readouterr().out
