"""Workload generators.

The paper's results are asymptotic statements about *unweighted undirected*
``n``-vertex graphs, so the benchmark harness sweeps over synthetic graph
families that stress different regimes of the algorithms:

* **dense neighbourhoods** (Erdős–Rényi above the connectivity threshold,
  ring-of-cliques, caveman) exercise the *heavy vertex* / hitting-set code
  paths of the emulator;
* **large diameter** (paths, cycles, grids, trees) exercises the additive
  term ``beta`` and the long-distance regime of MSSP/APSP where the emulator
  alone provides the ``(1+eps)`` guarantee;
* **skewed degrees** (Barabási–Albert) exercises the high-degree phase of
  the ``(2+eps)``-APSP algorithm (hitting set ``S`` over ``N(v)``).

All generators return :class:`repro.graph.Graph` and take a seeded
``numpy.random.Generator`` for reproducibility.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .graph import Graph

__all__ = [
    "erdos_renyi",
    "gnm_random",
    "random_regular",
    "path_graph",
    "cycle_graph",
    "grid_graph",
    "torus_graph",
    "random_tree",
    "balanced_tree",
    "barabasi_albert",
    "ring_of_cliques",
    "caveman",
    "complete_graph",
    "star_graph",
    "connected_erdos_renyi",
    "FAMILIES",
    "make_family",
]


#: Above this many candidate pairs, ``np.triu_indices`` would
#: materialize gigabytes; G(n, p) switches to O(m)-memory sampling.
_DENSE_PAIR_LIMIT = 1 << 26

#: Uniform draws per chunk of the small-graph G(n, p) pair walk.  Each
#: chunk's temporaries stay under glibc's 128 KiB mmap threshold: freeing
#: a larger mmap'd block raises that threshold for the rest of the
#: process, which left a server that generates its graph before loading
#: an artifact ~7 MB larger (measured PSS at n = 6000 with 2^20 chunks).
_PAIR_CHUNK = 1 << 13


def erdos_renyi(n: int, p: float, rng: np.random.Generator) -> Graph:
    """G(n, p): each of the ``n(n-1)/2`` edges present independently w.p. ``p``.

    Small graphs walk the pair universe in row-major upper-triangle order
    with one uniform draw per pair, in chunks of ``_PAIR_CHUNK`` draws
    (bit-for-bit the historical ``np.triu_indices`` sampling for a given
    seed, including the generator state afterwards, in O(chunk + m)
    memory); past ``_DENSE_PAIR_LIMIT`` pairs the edge *count* is drawn
    Binomial(n(n-1)/2, p)-exact and the edge *set* by rejection sampling,
    so giant sparse instances (n = 10^5+) cost O(m) memory instead of
    O(n^2).
    """
    if not 0 <= p <= 1:
        raise ValueError(f"p must be in [0, 1], got {p}")
    total = n * (n - 1) // 2
    if total <= _DENSE_PAIR_LIMIT:
        # Row i of the upper triangle holds the pairs (i, i+1..n-1) at
        # flat positions row_start[i] .. row_start[i+1] - 1.
        row_start = np.concatenate(
            [[0], np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))]
        )
        rows, cols = [], []
        for lo in range(0, total, _PAIR_CHUNK):
            hi = min(lo + _PAIR_CHUNK, total)
            flat = lo + np.flatnonzero(rng.random(hi - lo) < p)
            i = np.searchsorted(row_start, flat, side="right") - 1
            rows.append(i)
            cols.append(flat - row_start[i] + i + 1)
        if not rows:
            return Graph(n, np.empty((0, 2), dtype=np.int64))
        return Graph(
            n, np.stack([np.concatenate(rows), np.concatenate(cols)], axis=1)
        )
    m = int(rng.binomial(total, p))
    pairs = np.empty((0, 2), dtype=np.int64)
    while pairs.shape[0] < m:
        need = m - pairs.shape[0]
        draw = rng.integers(0, n, size=(need + max(16, need // 8), 2))
        draw = draw[draw[:, 0] != draw[:, 1]]
        lo = np.minimum(draw[:, 0], draw[:, 1])
        hi = np.maximum(draw[:, 0], draw[:, 1])
        pairs = np.unique(
            np.concatenate([pairs, np.stack([lo, hi], axis=1)]), axis=0
        )
    if pairs.shape[0] > m:
        keep = rng.choice(pairs.shape[0], size=m, replace=False)
        pairs = pairs[np.sort(keep)]
    return Graph(n, pairs)


def gnm_random(n: int, m: int, rng: np.random.Generator) -> Graph:
    """G(n, m): ``m`` distinct edges chosen uniformly at random."""
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise ValueError(f"m={m} exceeds max {max_m} for n={n}")
    iu, ju = np.triu_indices(n, k=1)
    chosen = rng.choice(max_m, size=m, replace=False)
    return Graph(n, np.stack([iu[chosen], ju[chosen]], axis=1))


def random_regular(n: int, d: int, rng: np.random.Generator) -> Graph:
    """A random (near-)``d``-regular graph via the configuration model with
    rejection of self loops/multi-edges (retries until simple)."""
    if n * d % 2 != 0:
        raise ValueError("n * d must be even for a d-regular graph")
    if d >= n:
        raise ValueError(f"degree d={d} must be < n={n}")
    best: np.ndarray | None = None
    for _ in range(200):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        keep = pairs[:, 0] != pairs[:, 1]
        lo = np.minimum(pairs[keep, 0], pairs[keep, 1])
        hi = np.maximum(pairs[keep, 0], pairs[keep, 1])
        uniq = np.unique(np.stack([lo, hi], axis=1), axis=0)
        if keep.all() and uniq.shape[0] == pairs.shape[0]:
            return Graph(n, uniq)
        if best is None or uniq.shape[0] > best.shape[0]:
            best = uniq
    # Fall back to the best relaxed simple graph seen (near-regular).
    return Graph(n, best if best is not None else [])


def path_graph(n: int) -> Graph:
    """The path ``0 - 1 - … - (n-1)`` — the worst case for hop counts."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """The ``n``-cycle."""
    edges = [(i, i + 1) for i in range(n - 1)]
    if n > 2:
        edges.append((n - 1, 0))
    return Graph(n, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """The ``rows × cols`` grid; diameter ``rows + cols - 2``."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def torus_graph(rows: int, cols: int) -> Graph:
    """The ``rows × cols`` torus (grid with wraparound)."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            edges.append((v, r * cols + (c + 1) % cols))
            edges.append((v, ((r + 1) % rows) * cols + c))
    return Graph(rows * cols, edges)


def random_tree(n: int, rng: np.random.Generator) -> Graph:
    """A uniformly random labelled tree (random attachment form)."""
    if n <= 1:
        return Graph.empty(max(n, 0))
    parents = [int(rng.integers(0, i)) for i in range(1, n)]
    return Graph(n, [(i + 1, p) for i, p in enumerate(parents)])


def balanced_tree(branching: int, height: int) -> Graph:
    """The complete ``branching``-ary tree of the given height."""
    edges: List[Tuple[int, int]] = []
    frontier = [0]
    next_id = 1
    for _ in range(height):
        new_frontier = []
        for v in frontier:
            for _ in range(branching):
                edges.append((v, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return Graph(next_id, edges)


def barabasi_albert(n: int, k: int, rng: np.random.Generator) -> Graph:
    """Preferential attachment: each new vertex attaches to ``k`` existing
    vertices chosen proportionally to degree."""
    if k < 1 or k >= n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    edges: List[Tuple[int, int]] = []
    targets = list(range(k))
    repeated: List[int] = list(range(k))
    for v in range(k, n):
        for t in set(targets):
            edges.append((v, t))
            repeated.extend([v, t])
        targets = [repeated[int(i)] for i in rng.integers(0, len(repeated), size=k)]
    return Graph(n, edges)


def ring_of_cliques(num_cliques: int, clique_size: int) -> Graph:
    """``num_cliques`` cliques of ``clique_size`` vertices arranged in a ring,
    adjacent cliques joined by a single bridge edge.  Dense locally, large
    diameter globally — the adversarial mix for heavy/light splits."""
    n = num_cliques * clique_size
    edges: List[Tuple[int, int]] = []
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j))
        nxt = ((c + 1) % num_cliques) * clique_size
        if num_cliques > 1:
            edges.append((base + clique_size - 1, nxt))
    return Graph(n, edges)


def caveman(num_caves: int, cave_size: int, rng: np.random.Generator) -> Graph:
    """Connected caveman graph: cliques with one edge per cave rewired to the
    next cave."""
    g = ring_of_cliques(num_caves, cave_size)
    return g


def complete_graph(n: int) -> Graph:
    """K_n."""
    iu, ju = np.triu_indices(n, k=1)
    return Graph(n, np.stack([iu, ju], axis=1))


def star_graph(n: int) -> Graph:
    """The star with centre 0 and ``n - 1`` leaves."""
    return Graph(n, [(0, i) for i in range(1, n)])


def connected_erdos_renyi(n: int, avg_degree: float, rng: np.random.Generator) -> Graph:
    """G(n, p) with ``p = avg_degree / n``, patched into one connected
    component by threading bridge edges between components."""
    g = erdos_renyi(n, min(1.0, avg_degree / max(n, 1)), rng)
    comp = _components(g)
    roots = sorted({c: i for i, c in enumerate(comp)}.keys())
    if len(roots) <= 1:
        return g
    reps = []
    seen = set()
    for v in range(n):
        if comp[v] not in seen:
            seen.add(comp[v])
            reps.append(v)
    extra = [(reps[i], reps[i + 1]) for i in range(len(reps) - 1)]
    return Graph(n, np.concatenate([g.edges(), np.asarray(extra, dtype=np.int64)]))


def _components(g: Graph) -> np.ndarray:
    """Connected component id per vertex (simple BFS sweep)."""
    comp = np.full(g.n, -1, dtype=np.int64)
    cid = 0
    for s in range(g.n):
        if comp[s] != -1:
            continue
        comp[s] = cid
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.neighbors(u):
                if comp[v] == -1:
                    comp[v] = cid
                    stack.append(int(v))
        cid += 1
    return comp


# ----------------------------------------------------------------------
# Named benchmark families
# ----------------------------------------------------------------------

FAMILIES = (
    "er_sparse",
    "er_dense",
    "regular",
    "grid",
    "path",
    "cycle",
    "tree",
    "ba",
    "ring_of_cliques",
)


def make_family(name: str, n: int, seed: int = 0) -> Graph:
    """Instantiate a named benchmark family at roughly ``n`` vertices.

    The returned graph is connected for every family (the sweeps measure
    stretch over reachable pairs only, but connectivity keeps the round
    ledgers comparable across families).
    """
    rng = np.random.default_rng(seed)
    if name == "er_sparse":
        return connected_erdos_renyi(n, avg_degree=4.0, rng=rng)
    if name == "er_dense":
        return connected_erdos_renyi(n, avg_degree=max(4.0, np.sqrt(n)), rng=rng)
    if name == "regular":
        d = 4 if (n * 4) % 2 == 0 else 5
        return random_regular(n, d, rng)
    if name == "grid":
        side = max(2, int(round(np.sqrt(n))))
        return grid_graph(side, side)
    if name == "path":
        return path_graph(n)
    if name == "cycle":
        return cycle_graph(n)
    if name == "tree":
        return random_tree(n, rng)
    if name == "ba":
        return barabasi_albert(n, k=3, rng=rng)
    if name == "ring_of_cliques":
        size = max(3, int(round(np.sqrt(n))))
        num = max(2, n // size)
        return ring_of_cliques(num, size)
    raise ValueError(f"unknown family {name!r}; known: {FAMILIES}")
