"""Independent checks of pathcycle's outputs.

Nothing here imports pathcycle: graphs are plain ``(n, edges)`` pairs and
every property is recomputed from scratch, so a fault in the program cannot
hide behind the same fault in its checker.
"""

from __future__ import annotations

from collections import deque


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


# -- file formats ---------------------------------------------------------------


def read_graph(text: str) -> tuple[int, list[tuple[int, int]]]:
    """``(n, edges)`` from the ``p n m`` / ``e u v`` graph format."""
    n = None
    edges = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            n = int(fields[1])
        elif fields[0] == "e":
            edges.append((int(fields[1]), int(fields[2])))
        else:
            raise ValueError(f"unknown graph line {line!r}")
    if n is None:
        raise ValueError("graph text has no 'p' line")
    return n, edges


def read_vertex_lists(text: str) -> dict[str, list[tuple[int, ...]]]:
    """Lines ``label: v v v`` grouped by label, in order of appearance."""
    out: dict[str, list[tuple[int, ...]]] = {}
    for line in text.splitlines():
        label, sep, rest = line.partition(":")
        if not sep:
            raise ValueError(f"line without a label: {line!r}")
        out.setdefault(label.strip(), []).append(tuple(int(x) for x in rest.split()))
    return out


def read_system(text: str) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """``(paths, cycles)`` from solver output; raises on anything else."""
    rows = read_vertex_lists(text)
    if set(rows) - {"path", "cycle"}:
        raise ValueError(f"unexpected solver output labels {sorted(rows)}")
    return rows.get("path", []), rows.get("cycle", [])


# -- deficiency -----------------------------------------------------------------


def deficiency(n: int, edges, f, s, t) -> int:
    """delta(S, T) = f(S) + deg_{G-S}(T) - f(T) - q(S, T), by plain BFS.

    q counts the components D of G - (S u T) with f(V(D)) + e(D, T) odd.
    """
    s, t = set(s), set(t)
    if s & t:
        raise ValueError("S and T overlap")
    adj = adjacency(n, edges)
    deg_gs_t = sum(1 for y in t for x in adj[y] if x not in s)
    seen = s | t
    q = 0
    for start in range(n):
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        parity = 0
        while queue:
            u = queue.popleft()
            parity += f[u] + sum(1 for x in adj[u] if x in t)
            for x in adj[u]:
                if x not in seen:
                    seen.add(x)
                    queue.append(x)
        q += parity % 2
    return sum(f[v] for v in s) + deg_gs_t - sum(f[v] for v in t) - q


def terminal_spec(n: int, w) -> list[int]:
    """f = 1 on W, 2 elsewhere."""
    f = [2] * n
    for v in w:
        f[v] = 1
    return f


# -- path-cycle systems and factors -----------------------------------------------


def system_errors(n: int, edges, w, paths, cycles) -> list[str]:
    """Every way in which ``paths`` and ``cycles`` fail to be a spanning
    path-cycle system of G whose path ends are exactly W."""
    adj = adjacency(n, edges)
    errors = []
    covered = sorted(v for part in list(paths) + list(cycles) for v in part)
    if covered != list(range(n)):
        errors.append("paths and cycles do not partition the vertex set")
    for p in paths:
        if len(p) < 2:
            errors.append(f"path {p} has no edge")
        errors += [f"path step {a}-{b} is not an edge" for a, b in zip(p, p[1:]) if b not in adj[a]]
    for c in cycles:
        if len(c) < 3:
            errors.append(f"cycle {c} has fewer than 3 vertices")
        closed = list(zip(c, c[1:])) + [(c[-1], c[0])]
        errors += [f"cycle step {a}-{b} is not an edge" for a, b in closed if b not in adj[a]]
    ends = sorted(v for p in paths for v in (p[0], p[-1]))
    if ends != sorted(w):
        errors.append(f"path ends {ends} differ from the terminals {sorted(w)}")
    wset = set(w)
    errors += [f"terminal {v} inside path {p}" for p in paths for v in p[1:-1] if v in wset]
    return errors


def factor_errors(n: int, edges, f, factor_edges) -> list[str]:
    """Every way in which ``factor_edges`` fails to be an f-factor of G."""
    adj = adjacency(n, edges)
    errors = [f"factor edge {u}-{v} is not an edge" for u, v in factor_edges if v not in adj[u]]
    if len(set(map(frozenset, factor_edges))) != len(factor_edges):
        errors.append("factor repeats an edge")
    deg = [0] * n
    for u, v in factor_edges:
        deg[u] += 1
        deg[v] += 1
    errors += [f"vertex {v} has factor degree {deg[v]}, not {f[v]}" for v in range(n) if deg[v] != f[v]]
    return errors


# -- structural properties -----------------------------------------------------------


def is_regular(n: int, edges, r: int) -> bool:
    return all(len(nb) == r for nb in adjacency(n, edges))


def star_free(n: int, edges, r: int) -> bool:
    """K_{1,r}-freeness of an r-regular graph: no neighbourhood is independent."""
    adj = adjacency(n, edges)
    if any(len(nb) != r for nb in adj):
        raise ValueError("star_free expects an r-regular graph")
    return all(any(adj[a] & nb for a in nb) for nb in adj)


def edge_connectivity(n: int, edges) -> int:
    """lambda(G), from networkx."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return nx.edge_connectivity(g)


def terminals_nbhd1(n: int, edges, w) -> bool:
    """|W| even and every vertex has at most one neighbour in W."""
    wset = set(w)
    return len(wset) % 2 == 0 and all(len(nb & wset) <= 1 for nb in adjacency(n, edges))


def terminals_distance3(n: int, edges, w) -> bool:
    """|W| even and any two terminals are at distance at least 3."""
    adj = adjacency(n, edges)
    wset = set(w)
    if len(wset) % 2:
        return False
    for a in wset:
        near = adj[a] | {x for y in adj[a] for x in adj[y]}
        if (near - {a}) & wset:
            return False
    return True
