"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest

from pathcycle.graphs import Graph, distance


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


def components(g: Graph, removed=()) -> list[tuple[int, ...]]:
    """Components of G minus ``removed`` by plain BFS over ``Graph.neighbors``:
    sorted tuples, listed by ascending least vertex."""
    seen = set(removed)
    blocks = []
    for start in range(g.n):
        if start in seen:
            continue
        seen.add(start)
        comp, queue = [start], deque([start])
        while queue:
            for v in g.neighbors(queue.popleft()):
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    queue.append(v)
        blocks.append(tuple(sorted(comp)))
    return blocks


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


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


def reference_matching_mates(n: int, adj) -> list[int]:
    """Mate array of the blossom search before dead trees and member
    lists: every search resets all n vertices and rescans them per
    blossom.  The matcher must return exactly this array."""
    mate = [-1] * n

    # greedy maximal matching in index order
    for u in range(n):
        if mate[u] < 0:
            for v in adj[u]:
                if mate[v] < 0:
                    mate[u] = v
                    mate[v] = u
                    break

    parent = [-1] * n
    base = list(range(n))
    used = [False] * n

    def lca(a: int, b: int) -> int:
        hit = [False] * n
        x = base[a]
        while True:
            hit[x] = True
            if mate[x] < 0:
                break
            x = base[parent[mate[x]]]
        y = base[b]
        while not hit[y]:
            y = base[parent[mate[y]]]
        return y

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def find_augmenting(root: int) -> int:
        for i in range(n):
            parent[i] = -1
            base[i] = i
            used[i] = False
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] >= 0 and parent[mate[to]] >= 0):
                    # odd cycle through two even vertices: contract the blossom
                    cur_base = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, cur_base, to, in_blossom)
                    mark_path(to, cur_base, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur_base
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] < 0:
                    parent[to] = v
                    if mate[to] < 0:
                        return to
                    used[mate[to]] = True
                    queue.append(mate[to])
        return -1

    for root in range(n):
        if mate[root] >= 0:
            continue
        finish = find_augmenting(root)
        if finish >= 0:
            v = finish
            while v >= 0:
                pv = parent[v]
                ppv = mate[pv]
                mate[v] = pv
                mate[pv] = v
                v = ppv
    return mate


def _reference_max_flow_unit(g: Graph, source: int, sink: int) -> tuple[int, set[int]]:
    """Max flow with unit capacity per undirected edge, plus the residual
    source-side vertex set at termination (a minimum cut shore): the
    uncapped single-pair flow, kept apart from the code under test."""
    # residual capacities: cap[u][v] for both orientations of each edge
    cap = [dict.fromkeys(g.neighbors(v), 1) for v in range(g.n)]
    flow = 0
    while True:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, c in cap[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow, set(parent)
        v = sink
        while v != source:
            u = parent[v]
            cap[u][v] -= 1
            cap[v][u] = cap[v].get(u, 0) + 1
            v = u
        flow += 1


def reference_edge_connectivity(g: Graph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Edge connectivity and a cut from n - 1 unit flows, vertex 0 to each
    other vertex: the loop before the dominating-set bound."""
    if g.n <= 1:
        return 0, ()
    best = None
    best_side: set[int] = set()
    for v in range(1, g.n):
        value, side = _reference_max_flow_unit(g, 0, v)
        if best is None or value < best:
            best, best_side = value, side
            if best == 0:
                break
    cut = tuple(
        e for e in g.edges if (e[0] in best_side) != (e[1] in best_side)
    )
    return best, cut


def naive_least_violation(g: Graph, f):
    """Full-order scan of all disjoint (S, T): least violating pair under
    (|S| + |T|, S, T) with tuple-lexicographic subset comparison, or None.

    Independent of the kernel and of the phase-2 ordered search.
    """
    from pathcycle.tutte import evaluate_pair

    verts = list(range(g.n))
    best = None
    for s_size in range(g.n + 1):
        for s in itertools.combinations(verts, s_size):
            rest = [v for v in verts if v not in set(s)]
            for t_size in range(len(rest) + 1):
                for t in itertools.combinations(rest, t_size):
                    if evaluate_pair(g, f, s, t).delta < 0:
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
    for comp in components(g, s_set | t_set):
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


def naive_nbhd1_violation(g: Graph, w, limit: int = 1):
    """Least vertex with more than ``limit`` neighbours in W, with those
    neighbours, from a scan of every vertex; None when there is none."""
    wset = set(w)
    for v in range(g.n):
        inside = tuple(u for u in g.neighbors(v) if u in wset)
        if len(inside) > limit:
            return v, inside
    return None


def naive_distance3_violation(g: Graph, w):
    """Least pair (a, b, d) of terminals a < b at distance d <= 2, from
    :func:`~pathcycle.graphs.distance` over all pairs; None when there is
    none."""
    for a, b in itertools.combinations(sorted(set(w)), 2):
        d = distance(g, a, b)
        if d <= 2:
            return a, b, d
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


#: The sharpness instances of the counterexamples benchmark workload, as
#: (generator name in ``pathcycle.families``, parameters).
COUNTEREXAMPLE_LADDER = [
    ("gen_prop2_r4", (6,)), ("gen_prop2_r4", (8,)), ("gen_prop2_r4", (10,)),
    ("gen_prop2_r4", (12,)), ("gen_prop2_r4", (14,)),
    ("gen_prop1_even", (6, 6)), ("gen_prop1_even", (6, 8)),
    ("gen_prop1_odd", (5, 6)), ("gen_prop1_odd", (5, 8)),
    ("gen_prop1_even", (8, 8)), ("gen_prop1_even", (10, 12)),
]


def counterexample_gadgets():
    """(label, vertex count, adjacency lists) of the gadget of every
    instance of the ladder."""
    from pathcycle import families
    from pathcycle.factor import build_gadget, degree_spec_from_terminals

    for gen, params in COUNTEREXAMPLE_LADDER:
        inst = getattr(families, gen)(*params)
        f = degree_spec_from_terminals(inst.graph, inst.w)
        adj = build_gadget(inst.graph, f).adj
        yield f"{gen}{params}", len(adj), adj


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
