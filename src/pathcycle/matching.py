"""Deterministic maximum-cardinality matching in general graphs.

Augmenting-path search with blossom contraction (base pointers), scanning
vertices and adjacency lists in index order, so the result is a pure
function of the input graph.  A greedy maximal matching seeds the search;
each remaining exposed vertex is tried exactly once, which is sound
because an exposed vertex with no augmenting path stays inessential after
later augmentations elsewhere.

A failed search leaves a Hungarian tree: every neighbour of an even
vertex lies in the tree, as an odd vertex or in the same blossom, and no
augmenting path of the current or any later matching meets it, since the
matching on it never changes (J. Edmonds, "Paths, trees, and flowers",
Canad. J. Math. 17 (1965); L. Lovász and M. D. Plummer, *Matching
Theory* (1986), ch. 9).  Its vertices are therefore marked dead and
skipped by every later search.  A search resets only the vertices it
labelled, and takes a blossom's members from per-base member lists; it
enqueues newly even members in ascending vertex order, as a scan of all
vertices would.  The mate arrays equal those of the plain search, which
the tests keep as a reference.
"""

from __future__ import annotations

from collections import deque


def maximum_matching_mates(n: int, adj) -> list[int]:
    """Maximum matching of the graph on vertices 0..n-1 with adjacency
    lists ``adj``, as a mate array: ``mate[u]`` is u's partner, or -1."""
    mate = [-1] * n

    # greedy maximal matching in index order
    for u in range(n):
        if mate[u] < 0:
            for v in adj[u]:
                if mate[v] < 0:
                    mate[u] = v
                    mate[v] = u
                    break

    # allocated once; a search resets only the vertices of its own tree
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    dead = [False] * n
    path_mark = [0] * n  # lca's marks, by stamp
    blossom_mark = [0] * n  # bases in the current blossom, by stamp
    stamp = 0
    tree: list[int] = []  # every vertex the current search labelled

    def lca(a: int, b: int) -> int:
        x = base[a]
        while True:
            path_mark[x] = stamp
            if mate[x] < 0:
                break
            x = base[parent[mate[x]]]
        y = base[b]
        while path_mark[y] != stamp:
            y = base[parent[mate[y]]]
        return y

    def mark_path(v: int, b: int, child: int, bases: list[int]) -> None:
        while base[v] != b:
            for x in (base[v], base[mate[v]]):
                if blossom_mark[x] != stamp:
                    blossom_mark[x] = stamp
                    bases.append(x)
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def find_augmenting(root: int) -> int:
        nonlocal stamp
        for i in tree:
            parent[i] = -1
            base[i] = i
            used[i] = False
        tree.clear()
        members: dict[int, list[int]] = {}  # base -> its blossom, if contracted
        used[root] = True
        tree.append(root)
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if dead[to] or base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] >= 0 and parent[mate[to]] >= 0):
                    # odd cycle through two even vertices: contract the blossom
                    stamp += 1
                    cur_base = lca(v, to)
                    bases: list[int] = []
                    mark_path(v, cur_base, to, bases)
                    mark_path(to, cur_base, v, bases)
                    merged = members.setdefault(cur_base, [cur_base])
                    fresh = []
                    for b in bases:
                        if b == cur_base:
                            continue
                        group = members.pop(b, None) or [b]
                        for i in group:
                            base[i] = cur_base
                            if not used[i]:
                                fresh.append(i)
                        merged.extend(group)
                    # index order, as a scan of all vertices would meet them
                    fresh.sort()
                    for i in fresh:
                        used[i] = True
                        queue.append(i)
                elif parent[to] < 0:
                    parent[to] = v
                    tree.append(to)
                    if mate[to] < 0:
                        return to
                    used[mate[to]] = True
                    tree.append(mate[to])
                    queue.append(mate[to])
        # no augmenting path: the tree is Hungarian, so it stays out of
        # every later search
        for i in tree:
            dead[i] = True
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
