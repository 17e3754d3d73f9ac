#!/usr/bin/env python
"""Parent against change on the perf ledger, as alternating pairs.

Exports ``<git-ref>`` into a scratch directory (``git archive``: nothing
is left behind in ``.git``), then runs the ledger's single-run command::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds 20 --trace 0

once in that export and once in the working tree, ``--pairs`` times per
workload; which side goes first alternates from pair to pair, so a slow
quarter of an hour on a shared host lands on both sides.  Of each run only
the last line of stdout is read (the contract's JSON object).  Printed per
workload and end-to-end metric: both medians with their quartiles, the
median delta, the parent's inter-quartile distance, the pairs the change
won, and whether the numbers would carry a claimed gain — the change
better in at least nine tenths of the pairs (ties count for neither side)
*and* the medians apart by more than the parent's inter-quartile distance.

``--seed 21,22,...`` runs pair ``i`` at ``seeds[i % len(seeds)]`` on both
sides (one seed runs every pair).  Under the table each workload's ``round_utility_mean`` is printed
per seed (the mean of that seed's pairs on each side) with the mean over
the seeds and its delta: the readout for a change that moves the random
stream, where one seed's utility says little.  A workload whose runs
report ``inputs.decision_digest`` on their ``E2E_DETAIL`` line
(``trace_sim``) also prints in how many pairs the two sides' digests are
equal: a change that claims to keep the decisions shows it there.

Run:  python tools/paired_bench.py <git-ref> [--workload W ...]
          [--pairs 10] [--seed N[,N,...]] [--out runs.json]
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO = Path(__file__).resolve().parent.parent

#: Share of the pairs the change must win before a gain may be claimed.
CLAIM_WIN_SHARE = 0.9

#: How ``benchmarks/e2e/run.py`` starts the stdout line of a run's detail.
DETAIL_PREFIX = "E2E_DETAIL "


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` by ``statistics.quantiles(n=4)``, the ledger's rule."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(parent: Sequence[float], change: Sequence[float], better: str) -> Dict:
    """Statistics of one metric over paired runs (``parent[i]`` with ``change[i]``)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs on both sides")
    sign = -1.0 if better == "lower" else 1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    won = sum(g > 0 for g in gains)
    iqr = p_q3 - p_q1
    return {
        "pairs": len(parent),
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "delta": (c_med - p_med) / p_med if p_med else 0.0,
        "parent_iqr": iqr,
        "won": won,
        "ties": sum(g == 0 for g in gains),
        "claim_met": won >= CLAIM_WIN_SHARE * len(parent)
        and sign * (c_med - p_med) > iqr,
    }


def rows_for(workload: str, parent, change, metrics) -> List[Dict]:
    """One :func:`compare` row per end-to-end metric of one workload.

    ``parent`` and ``change`` are the runner's result objects, pair ``i``
    at index ``i``; ``metrics`` is ``BENCHMARK.json``'s ``end_to_end`` list.
    """
    rows = []
    for metric in metrics:
        name = metric["name"]
        row = compare(
            [run["metrics"][name]["value"] for run in parent],
            [run["metrics"][name]["value"] for run in change],
            metric["better"],
        )
        row.update(workload=workload, metric=name)
        rows.append(row)
    return rows


def seed_of(seeds: Sequence[int], pair: int) -> int:
    """The seed both sides of pair ``pair`` run at."""
    return seeds[pair % len(seeds)]


def utility_by_seed(workload: str, parent, change, seeds: Sequence[int]) -> str:
    """``round_utility_mean`` per seed, parent -> change, and over the seeds.

    ``parent`` and ``change`` are paired as in :func:`rows_for`; a seed's
    value on a side is the mean over the pairs that ran it.
    """
    by_seed: Dict[int, tuple] = {}
    for pair, (p_run, c_run) in enumerate(zip(parent, change)):
        sides = by_seed.setdefault(seed_of(seeds, pair), ([], []))
        sides[0].append(p_run["metrics"]["round_utility_mean"]["value"])
        sides[1].append(c_run["metrics"]["round_utility_mean"]["value"])

    def line(label, p_value, c_value):
        delta = (c_value - p_value) / p_value if p_value else 0.0
        return f"  {label}: {p_value:.4f} -> {c_value:.4f} ({delta:+.2%})"

    lines = [f"{workload} round_utility_mean by seed (parent -> change):"]
    means = []
    for seed, (p_values, c_values) in by_seed.items():
        means.append((statistics.fmean(p_values), statistics.fmean(c_values)))
        lines.append(line(f"seed {seed}", *means[-1]))
    lines.append(
        line(
            f"mean over {len(means)} seeds",
            statistics.fmean(m[0] for m in means),
            statistics.fmean(m[1] for m in means),
        )
    )
    return "\n".join(lines)


def decision_digest(lines: Sequence[str]) -> Optional[str]:
    """``inputs.decision_digest`` from a run's ``E2E_DETAIL`` stdout line,
    or ``None`` when the run has no such line or no digest."""
    for line in lines:
        if line.startswith(DETAIL_PREFIX):
            detail = json.loads(line[len(DETAIL_PREFIX):])
            return detail.get("inputs", {}).get("decision_digest")
    return None


def digest_agreement(workload: str, parent, change) -> Optional[str]:
    """In how many pairs both sides' decision digests are equal, over the
    pairs where both have one; ``None`` when no pair has two."""
    digests = [
        (p_run.get("decision_digest"), c_run.get("decision_digest"))
        for p_run, c_run in zip(parent, change)
    ]
    digests = [pair for pair in digests if None not in pair]
    if not digests:
        return None
    equal = sum(p == c for p, c in digests)
    return f"{workload} decision digest equal in {equal}/{len(digests)} pairs"


def format_table(rows: Sequence[Dict]) -> str:
    def spread(triple):
        med, q1, q3 = triple
        return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

    lines = [
        "| workload | metric | parent median [q1, q3] | change median [q1, q3] "
        "| median delta | parent IQR | change better in | claim met |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        won = f"{row['won']}/{row['pairs']}"
        if row["ties"]:
            won += f", {row['ties']} ties"
        lines.append(
            f"| {row['workload']} | {row['metric']} | {spread(row['parent'])} "
            f"| {spread(row['change'])} | {row['delta']:+.1%} "
            f"| {row['parent_iqr']:.4g} | {won} "
            f"| {'yes' if row['claim_met'] else 'no'} |"
        )
    return "\n".join(lines)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Dict:
    """One ledger run in ``tree``: the object on its last stdout line, with
    the run's ``decision_digest`` (:func:`decision_digest`) added."""
    proc = subprocess.run(
        [
            "python3", "benchmarks/e2e/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", f"{seconds:g}",
            "--trace", "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} failed in {tree} (exit {proc.returncode})")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["decision_digest"] = decision_digest(lines)
    return result


def export_ref(ref: str, target: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref],
        cwd=REPO, capture_output=True, check=True,
    )
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive.stdout, check=True)


def main(argv=None) -> int:
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    known = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git ref of the parent side")
    parser.add_argument("--workload", action="append", choices=known)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--seed",
        type=lambda text: [int(seed) for seed in text.split(",")],
        default=[1],
        help="comma-separated seeds; pair i runs at seeds[i %% len(seeds)]",
    )
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--out", type=Path, help="write every run's object here")
    args = parser.parse_args(argv)

    scratch = Path(tempfile.mkdtemp(prefix="paired_bench_"))
    runs: Dict[str, Dict[str, List[Dict]]] = {}
    rows: List[Dict] = []
    try:
        export_ref(args.ref, scratch)
        sides = {"parent": scratch, "change": REPO}
        for workload in args.workload or known:
            runs[workload] = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(
                        sides[side], workload, seed_of(args.seed, pair), args.seconds
                    )
                    runs[workload][side].append(result)
                    print(
                        f"{workload} pair {pair + 1}/{args.pairs} {side}: "
                        f"correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}",
                        file=sys.stderr,
                    )
            rows += rows_for(workload, **runs[workload], metrics=contract["end_to_end"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if args.out is not None:
            args.out.write_text(json.dumps(runs))
    print(format_table(rows))
    for workload, by_side in runs.items():
        print(utility_by_seed(workload, **by_side, seeds=args.seed))
        agreement = digest_agreement(workload, **by_side)
        if agreement is not None:
            print(agreement)
    flat = [run for by_side in runs.values() for side in by_side.values() for run in side]
    bad = sum(not run["correct"] or run["failed"] > 0 for run in flat)
    print(f"{len(flat)} runs, {bad} incorrect or with failed operations")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
