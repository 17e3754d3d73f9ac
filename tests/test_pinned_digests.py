"""The pinned tier, where every session runs it.

``BENCH_perf.json["smoke"]`` holds the decision digests of the default
configuration (``docs/operating.md``, "Decision-stream policy"): registry
``pollux`` on the smoke trace, without and with cloud autoscaling.  A
pure-performance change must reproduce them exactly; an intentional stream
change re-pins them.  ``bench_perf.py --check`` gates the same digests (and
the reduced-scale ones) from the command line.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks import bench_perf, common  # noqa: E402

PINNED = json.loads(bench_perf.BASELINE_PATH.read_text())["smoke"]

pytestmark = pytest.mark.skipif(
    (np.__version__, scipy.__version__)
    != (PINNED["numpy_version"], PINNED["scipy_version"]),
    reason=(
        "digests are exact float streams, recorded on numpy "
        f"{PINNED['numpy_version']} / scipy {PINNED['scipy_version']}; this "
        f"stack is numpy {np.__version__} / scipy {scipy.__version__}"
    ),
)


@pytest.mark.parametrize("key", bench_perf.PINNED_SIMS)
def test_default_configuration_digest_is_pinned(key, monkeypatch):
    # benchmarks.common fixes SCALE from the environment at import; select
    # the smoke preset the way REPRO_BENCH_SCALE=smoke would have.
    monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
    monkeypatch.setattr(bench_perf, "SCALE", common._select_scale())
    got = bench_perf.bench_sim(autoscale=key == "sim_pollux_autoscale")
    want = PINNED[key]
    assert got["decision_digest"] == want["decision_digest"], (
        f"{key}: the default decision stream moved (avg JCT "
        f"{got['avg_jct_hours']} h vs pinned {want['avg_jct_hours']} h, restarts "
        f"{got['num_restarts']} vs {want['num_restarts']}); see docs/operating.md, "
        "Decision-stream policy"
    )
