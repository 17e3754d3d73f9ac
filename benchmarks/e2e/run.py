"""One command for the perf ledger.

A single measured run, the form the benchmark contract drives (one fresh
process per run; the last line of stdout is the contract's JSON object)::

    python3 benchmarks/e2e/run.py --workload round_dense --seed 1 --seconds 20 --trace 0

The whole ledger: every workload in its own subprocess, untraced and, with
``--trace``, traced; ``--repeat N --check`` runs N sets and fails when an
end-to-end metric's spread exceeds its bound or a deterministic value
differs between sets.  Writes ``benchmarks/e2e/LEDGER.json``::

    python -m benchmarks.e2e.run [--seed 1] [--workload NAME] [--trace] [--repeat N --check]

``--write-contract`` regenerates the root ``BENCHMARK.json`` from
``spec.py``.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT = HERE / "out"

# Measurement hygiene: one BLAS/OpenMP thread.  The agents' L-BFGS fits call
# BLAS on 7-vectors; OpenBLAS's default pool (one thread per core) turns that
# into spinning and contention on this 2-core container: trace_sim's three
# simulations took 20-38 s wall with the default pool and 16.2 s with one
# thread, same decisions.  The program's own pools (cell executor, HTTP
# handlers, backend workers) are not touched.  Must precede numpy's import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
# And no madvise(MADV_HUGEPAGE) on numpy's large arrays: with the kernel's
# "madvise" defrag mode every such page fault may stall on compaction, which
# made round_dense's cold rounds drift from 570 to 900 ms over ten runs as
# memory fragmented; without it they are 569 ms +-3% (and not slower).
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

if __package__ in (None, ""):  # script mode: make repro and this package importable
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(REPO))
    __package__ = "benchmarks.e2e"

from . import spec, stats  # noqa: E402  (stdlib only; the heavy imports are timed)

DETAIL_PREFIX = "E2E_DETAIL "


# ----------------------------------------------------------------------
# One run, in this process
# ----------------------------------------------------------------------


def measure(workload: str, seed: int, trace: bool, seconds: float = 0.0, size=None):
    """Run one workload here; returns ``(report, tracer or None)``.

    ``size`` overrides the sizing derived from ``seconds`` (the self-tests
    pass tiny ones).  The workload modules, and with them numpy, scipy and
    ``repro``, are imported here so that the import is part of ``setup_s``.
    """
    try:
        if workload == "trace_sim":
            from . import wl_trace_sim as module

            size = size or module.TraceSimSize.for_seconds(seconds)
        elif workload == "round_dense":
            from . import wl_rounds as module

            size = size or module.RoundsSize.dense(seconds)
        elif workload == "round_sharded":
            from . import wl_rounds as module

            size = size or module.RoundsSize.sharded(seconds)
        elif workload == "service_live":
            from . import wl_service as module

            size = size or module.ServiceSize.for_seconds(seconds)
        else:
            raise ValueError(f"unknown workload {workload!r}; known: {spec.WORKLOAD_NAMES}")
    except ModuleNotFoundError as exc:
        raise SystemExit(
            f"cannot import the program under test ({exc}): "
            f"this harness measures the checkout it sits in, {REPO}/src"
        )
    tracer = None
    if trace:
        from .tracing import Tracer

        tracer = Tracer()
    import_s = time.perf_counter() - _PROCESS_T0
    before = _calibration_ms()
    report = module.run(seed, size, tracer)
    report.layer["machine.calibration_ms"] = (before + _calibration_ms()) / 2.0
    report.e2e["setup_s"] += import_s
    report.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.layer["fail_frac"] = report.failed / max(report.attempted, 1)
    return report, tracer


def _calibration_ms() -> float:
    """Median wall of a fixed numpy kernel: how fast the machine is right now.

    Never used to rescale a metric.  It is there so that a reader of two runs
    (parent and change, or two sets) can tell a slow program from a slow
    quarter of an hour on a shared host, which this container has.
    """
    import numpy as np

    data = np.random.default_rng(0).random(200_000)
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.sort(data).cumsum().sum()
        walls.append((time.perf_counter() - t0) * 1000.0)
    return stats.median(walls)


def contract_line(report, trace: bool) -> Dict[str, object]:
    """The object the contract wants on the last line of stdout."""
    if trace:
        metrics = {
            name: {"value": _number(report.layer.get(name)), "unit": unit}
            for name, unit, _ in spec.PER_LAYER
        }
    else:
        metrics = {
            name: {"value": _number(report.e2e.get(name)), "unit": unit}
            for name, unit, _, _ in spec.END_TO_END
        }
    missing = [n for n, *_ in spec.END_TO_END if not _positive(report.e2e.get(n))]
    return {
        "correct": not report.failed and not report.problems and not missing,
        "attempted": int(max(report.attempted, 1)),
        "failed": int(report.failed),
        "metrics": metrics,
    }


def single_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    t0 = time.perf_counter()
    report, tracer = measure(workload, seed, trace, seconds)
    process_wall_s = time.perf_counter() - t0

    OUT.mkdir(exist_ok=True)
    untraced_path = OUT / f"untraced_{workload}_{seed}_{seconds:g}.json"
    if tracer is not None:
        # Overhead against the untraced run of the same inputs, when this
        # checkout has one; the ledger always runs that one first.
        if untraced_path.exists():
            base = json.loads(untraced_path.read_text())["dispatch_wall_s"]
            report.layer["trace.overhead_frac"] = (
                report.e2e["dispatch_wall_s"] - base
            ) / base
        (OUT / f"trace_{workload}.json").write_text(json.dumps(tracer.dump()))
    else:
        untraced_path.write_text(json.dumps({"dispatch_wall_s": report.e2e["dispatch_wall_s"]}))

    print(f"== {workload} seed={seed} seconds={seconds:g} trace={int(trace)} ==")
    print(f"inputs {report.inputs.get('hash')}")
    for name, unit, _, bound in spec.END_TO_END:
        print(
            f"  {name:28s} {_fmt(report.e2e.get(name)):>14s} {unit:6s}"
            f" n={report.samples.get(name, 1)} bound={bound:g}"
        )
    for name, unit, _ in spec.PER_LAYER:
        if report.layer.get(name) is not None:
            print(f"  {name:36s} {_fmt(report.layer[name]):>14s} {unit}")
    if tracer is not None:
        from .tracing import format_table

        if tracer.missing:
            print(f"  wrap targets gone (metrics null): {', '.join(tracer.missing)}")
        for metric, table in report.tables.items():
            print(format_table(f"where {metric} went", workload, table))
    print(f"  attempted={report.attempted} failed={report.failed} wall={process_wall_s:.1f}s")
    for note in report.notes:
        print(f"  NOTE {note}")
    for problem in report.problems[:20]:
        print(f"  PROBLEM {problem}")

    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "e2e": report.e2e,
        "layer": report.layer,
        "samples": report.samples,
        "inputs": report.inputs,
        "tables": {k: v[:8] for k, v in report.tables.items()},
        "attempted": report.attempted,
        "failed": report.failed,
        "problems": report.problems[:20],
        "notes": report.notes,
    }
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps(contract_line(report, trace)))
    return 0


def _positive(value: Optional[float]) -> bool:
    return value is not None and math.isfinite(value) and value > 0


def _number(value: Optional[float]) -> float:
    """Contract values are numbers: a metric this run has no value for is 0."""
    return float(value) if value is not None and math.isfinite(value) else 0.0


def _fmt(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.6g}"


# ----------------------------------------------------------------------
# The ledger: subprocess runs, repeats, the repeatability gate
# ----------------------------------------------------------------------


def _spawn(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", f"{seconds:g}",
            "--trace", str(int(trace)),
        ],
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    print("\n".join(line for line in lines[:-1] if not line.startswith(DETAIL_PREFIX)))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run exited with {proc.returncode}")
    detail = next(line for line in lines if line.startswith(DETAIL_PREFIX))
    return json.loads(detail[len(DETAIL_PREFIX):])


def _environment() -> Dict[str, object]:
    import numpy
    import scipy

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True
    ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit or None,
    }


def _spread_row(values: List[float], bound: float, **extra) -> Dict[str, object]:
    return {**extra, "bound": bound, "values": values, **stats.spread(values)}


def ledger(
    workloads: List[str], seed: int, seconds: float, trace: bool, repeat: int, check: bool
) -> int:
    sets: List[Dict[str, Dict[str, object]]] = []
    for index in range(repeat):
        print(f"#### set {index + 1}/{repeat}")
        current: Dict[str, Dict[str, object]] = {}
        for workload in workloads:
            run = _spawn(workload, seed, seconds, False)
            if trace:
                run["traced"] = _spawn(workload, seed, seconds, True)
            current[workload] = run
        sets.append(current)

    print(f"#### {repeat} set(s): median, quartiles, spread (gated), max relative spread")
    failures: List[str] = []
    why = dict(spec.WORKLOADS)
    out: Dict[str, object] = {
        "environment": _environment(),
        "seed": seed,
        "seconds": seconds,
        "sets": repeat,
        "note": (
            "end_to_end and native_end_to_end are from untraced runs, one value "
            "per set; per_layer and span_tables are from the last set's traced "
            "run (its untraced run when the ledger ran without --trace)."
        ),
        "workloads": {},
    }
    for workload in workloads:
        runs = [s[workload] for s in sets]
        last = runs[-1]
        layers = last.get("traced", last)
        entry: Dict[str, object] = {
            "why": why[workload],
            "inputs": last["inputs"],
            "attempted": last["attempted"],
            "failed": last["failed"],
            "fail_frac": last["failed"] / max(last["attempted"], 1),
            "notes": last["notes"],
            "end_to_end": {},
            "native_end_to_end": {},
            "per_layer": {
                name: {"value": layers["layer"].get(name), "unit": unit}
                for name, unit, _ in spec.PER_LAYER
            },
            "span_tables": layers["tables"],
        }
        rows = []
        for name, unit, better, bound in spec.END_TO_END:
            row = _spread_row(
                [run["e2e"][name] for run in runs],
                bound,
                unit=unit,
                better=better,
                samples=last["samples"].get(name, 1),
            )
            rows.append((name, name != "setup_s", entry["end_to_end"], row))
        for name, (native_workload, bound) in spec.NATIVE_BOUNDS.items():
            values = [run["layer"].get(name) for run in runs]
            if native_workload == workload and None not in values:
                row = _spread_row(
                    values, bound, unit=spec.PER_LAYER_UNITS[name], better="lower"
                )
                rows.append((name, True, entry["native_end_to_end"], row))
        for name, gated, table, row in rows:
            table[name] = row
            print(
                f"  {workload:14s} {name:24s} median {row['median']:12.5g} {row['unit']:4s}"
                f" q1 {row['q1']:12.5g} q3 {row['q3']:12.5g}"
                f" spread {row['spread']:.3f} max {row['range_over_median']:.3f}"
                f" bound {row['bound']:g}"
            )
            if check and gated and row["spread"] > row["bound"]:
                failures.append(
                    f"{workload}.{name}: spread {row['spread']:.3f} > bound {row['bound']}"
                )
        if any(run["failed"] or run["problems"] for run in runs):
            failures.append(f"{workload}: failed operations: {last['problems'][:3]}")
        if check:
            hashes = {run["inputs"]["hash"] for run in runs}
            if len(hashes) != 1:
                failures.append(f"{workload}: input hashes differ between sets: {hashes}")
            if workload in spec.DETERMINISTIC_WORKLOADS:
                for name in spec.DETERMINISTIC:
                    seen = {repr(run["e2e"].get(name, run["layer"].get(name))) for run in runs}
                    if len(seen) != 1:
                        failures.append(f"{workload}.{name}: differs between sets: {seen}")
        out["workloads"][workload] = entry

    (HERE / "LEDGER.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'LEDGER.json'}")
    for failure in failures:
        print(f"CHECK FAILED {failure}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--write-contract", action="store_true")
    args = parser.parse_args(argv)
    if args.write_contract:
        (REPO / "BENCHMARK.json").write_text(json.dumps(spec.contract(), indent=2) + "\n")
        return 0
    if args.seconds is not None:
        if args.workload is None:
            parser.error("--seconds runs one workload: name it with --workload")
        return single_run(args.workload, args.seed, args.seconds, bool(args.trace))
    workloads = [args.workload] if args.workload else list(spec.WORKLOAD_NAMES)
    return ledger(
        workloads, args.seed, float(spec.RUN_SECONDS), bool(args.trace), args.repeat, args.check
    )


if __name__ == "__main__":
    raise SystemExit(main())
