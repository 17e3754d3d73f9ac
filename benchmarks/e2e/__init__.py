"""End-to-end perf ledger: four workloads measured at the three seams.

See ``benchmarks/e2e/README.md``.  Self-contained: imports ``repro.*`` and
nothing from the sibling ``benchmarks/*.py`` modules.
"""
