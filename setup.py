"""Setuptools shim for environments without PEP 517 build isolation.

Install for development with ``pip install -e .[dev]`` — the ``dev`` extra
is the single source of truth for the test/lint/benchmark toolchain (every
CI job installs exactly this, so dependency drift cannot diverge between
jobs).
"""

from setuptools import find_packages, setup

setup(
    name="pollux-repro",
    version="0.5.0",
    description=(
        "Reproduction of Pollux: co-adaptive cluster scheduling for "
        "goodput-optimized deep learning (OSDI 2021)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=[
        "numpy",
        # The theta_sys fit drives scipy's private L-BFGS-B kernel,
        # scipy.optimize._lbfgsb.setulb, with scipy 1.17's own loop
        # (repro.core.throughput._run_lbfgsb).  Raise the ceiling only once
        # tests/test_perf_paths.py::TestDriverAgainstMinimize passes on the
        # new series: it holds the fit bit for bit to scipy.optimize.minimize.
        "scipy>=1.17,<1.18",
    ],
    extras_require={
        "dev": [
            "pytest",
            "pytest-benchmark",
            "pytest-xdist",
            "hypothesis",
            "ruff",
        ],
    },
)
