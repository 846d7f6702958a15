"""Shared helpers for the benchmark harness.

Each benchmark regenerates one experiment — the measurable form of the
paper's theorem claims (the paper itself has no tables/figures; DESIGN.md
§4 indexes the experiments).  Every bench prints its table and persists it
to ``benchmarks/results/<experiment>.txt``.  Performance is recorded by
``perfbench`` (``BENCHMARK.json``); ``floors.py`` holds the wall-clock
floors.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def record_experiment(experiment_id: str, title: str, table: str) -> None:
    """Print and persist one experiment's output table."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    banner = f"== {experiment_id}: {title} =="
    text = f"{banner}\n{table}\n"
    print("\n" + text)
    path = os.path.join(RESULTS_DIR, f"{experiment_id}.txt")
    with open(path, "w") as fh:
        fh.write(text)


@pytest.fixture
def rng():
    return np.random.default_rng(2020)
