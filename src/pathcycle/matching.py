"""Deterministic maximum-cardinality matching in general graphs.

Augmenting-path search with blossom contraction (base pointers), scanning
vertices and adjacency lists in index order, so the result is a pure
function of the input graph.  A greedy maximal matching seeds the search;
each remaining exposed vertex is tried exactly once, which is sound
because an exposed vertex with no augmenting path stays inessential after
later augmentations elsewhere.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges of some host graph."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)

    def mate_array(self, n: int) -> list[int]:
        mate = [-1] * n
        for u, v in self.pairs:
            mate[u] = v
            mate[v] = u
        return mate

    def is_perfect(self, g: Graph) -> bool:
        return 2 * self.size == g.n

    @classmethod
    def from_mates(cls, mate: list[int]) -> "Matching":
        pairs = tuple(
            (u, v) for u, v in ((u, mate[u]) for u in range(len(mate)))
            if v >= 0 and u < v
        )
        return cls(pairs)


def maximum_matching(g: Graph) -> Matching:
    """Maximum-cardinality matching of ``g`` (deterministic)."""
    mate = _maximum_matching_mates(g.n, g._adj)
    matching = Matching.from_mates(mate)
    for u, v in matching.pairs:
        if not g.has_edge(u, v):
            raise AssertionError(f"matched pair ({u},{v}) is not an edge")
    return matching


def _maximum_matching_mates(n: int, adj) -> list[int]:
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
