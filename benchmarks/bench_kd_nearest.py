"""E8 — (k, d)-nearest rounds (Theorem 10): the charge grows like
O((k/n^{2/3} + log d) log d) — quadratic in log d, *independent of n*
otherwise.  Also times the two substrates (matrix algorithm vs BFS
oracle), which must agree exactly."""

import numpy as np

from conftest import record_experiment
from repro.analysis import format_table
from repro.graph import generators as gen
from repro.toolkit import kd_nearest_bfs, kd_nearest_matrix


def kd_rows(seed=17):
    g = gen.make_family("er_sparse", 120, seed=seed)
    rows = []
    for d in (2, 4, 16, 64, 256):
        out_m, rounds = kd_nearest_matrix(g, 8, d)
        out_b, _ = kd_nearest_bfs(g, 8, d)
        agree = bool(np.array_equal(out_m, out_b.dense()))
        rows.append([g.n, 8, d, round(rounds, 2), agree])
    return rows


def test_kd_nearest_rounds_table(benchmark):
    rows = benchmark.pedantic(kd_rows, rounds=1, iterations=1)
    table = format_table(["n", "k", "d", "rounds (Thm 10)", "matrix==bfs"], rows)
    record_experiment("E8", "(k,d)-nearest round scaling in log d (Thm 10)", table)
    assert all(row[4] for row in rows)
    # log^2 d scaling: d 4 -> 256 quadruples log d, so ~16x rounds.
    r4 = next(r[3] for r in rows if r[2] == 4)
    r256 = next(r[3] for r in rows if r[2] == 256)
    assert 8 <= r256 / r4 <= 24
