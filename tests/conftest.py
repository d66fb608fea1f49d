"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random

import pytest

from pathcycle.graphs import Graph, components_after_removal, is_connected


# -- tiny named graphs -------------------------------------------------------


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


# -- independent oracles -----------------------------------------------------


def brute_max_matching_size(g: Graph) -> int:
    """Exhaustive maximum matching size by branching over edges."""
    edges = g.edges
    best = 0

    def rec(i: int, used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        for j in range(i, len(edges)):
            u, v = edges[j]
            if used >> u & 1 or used >> v & 1:
                continue
            rec(j + 1, used | 1 << u | 1 << v, count + 1)

    rec(0, 0, 0)
    return best


def naive_least_violation(g: Graph, f):
    """Full-order scan of all disjoint (S, T): least violating pair under
    (|S| + |T|, S, T) with tuple-lexicographic subset comparison, or None.

    Independent of the kernel and of the phase-2 ordered search.
    """
    from pathcycle.tutte import delta

    verts = list(range(g.n))
    best = None
    for s_size in range(g.n + 1):
        for s in itertools.combinations(verts, s_size):
            rest = [v for v in verts if v not in set(s)]
            for t_size in range(len(rest) + 1):
                for t in itertools.combinations(rest, t_size):
                    if delta(g, f, s, t) < 0:
                        key = (len(s) + len(t), s, t)
                        if best is None or key < best:
                            best = key
    if best is None:
        return None
    return best[1], best[2]


def naive_pair_evaluation(g: Graph, f, s, t) -> dict:
    """Deficiency terms of (S, T), one BFS per component and set-based
    e(D, T), independent of the pair evaluator in ``pathcycle.tutte``."""
    s_set, t_set = set(s), set(t)
    odd = []
    e_t = []
    for comp in components_after_removal(g, s_set | t_set):
        members = set(comp)
        e = sum(1 for y in t_set for x in g.neighbors(y) if x in members)
        if (sum(f[v] for v in comp) + e) % 2 == 1:
            odd.append(comp)
            e_t.append(e)
    deg_gs_t = sum(1 for y in t_set for x in g.neighbors(y) if x not in s_set)
    delta = sum(f[v] for v in s_set) + deg_gs_t - sum(f[v] for v in t_set) - len(odd)
    return {
        "odd": odd,
        "e_t": e_t,
        "u": tuple(sorted(v for comp in odd for v in comp)),
        "deg_gs_t": deg_gs_t,
        "delta": delta,
    }


def naive_nbhd1_violation(g: Graph, w):
    """Least vertex with two or more neighbours in W, with those
    neighbours, from a scan of every vertex; None when there is none."""
    wset = set(w)
    for v in range(g.n):
        inside = tuple(u for u in g.neighbors(v) if u in wset)
        if len(inside) > 1:
            return v, inside
    return None


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p), possibly disconnected."""
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def random_pair(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    """Disjoint S and T in random order; either may be empty and T need not
    be independent."""
    perm = list(range(n))
    rng.shuffle(perm)
    k = rng.randrange(n + 1)
    cut = rng.randrange(k + 1)
    return perm[:cut], perm[cut:k]


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    while True:
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = Graph(n, edges)
        if is_connected(g):
            return g


def sample_even_terminal_sets(
    rng: random.Random, n: int, count: int
) -> list[tuple[int, ...]]:
    """Distinct even-size subsets of 0..n-1; all of them when few exist."""
    if n <= 5:
        out = []
        for size in range(0, n + 1, 2):
            out.extend(itertools.combinations(range(n), size))
        return out
    seen: set[tuple[int, ...]] = {()}
    out: list[tuple[int, ...]] = [()]
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        size = rng.randrange(0, n + 1, 2)
        w = tuple(sorted(rng.sample(range(n), size)))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


# -- corpora -----------------------------------------------------------------


@pytest.fixture(scope="session")
def atlas_connected() -> list[Graph]:
    """All connected graphs on at most 7 vertices, up to isomorphism."""
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for G in graph_atlas_g():
        if G.number_of_nodes() >= 1 and nx.is_connected(G):
            mapping = {v: i for i, v in enumerate(sorted(G.nodes()))}
            out.append(
                Graph(
                    G.number_of_nodes(),
                    [(mapping[u], mapping[v]) for u, v in G.edges()],
                )
            )
    assert len(out) == 996
    return out
