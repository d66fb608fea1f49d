"""Spanning path-cycle systems via degree-constrained factors.

A graph has a spanning path-cycle system with path end-vertices exactly W
iff it has a factor F with deg_F = 1 on W and 2 elsewhere.  Factors with a
prescribed degree function f are found through the classical gadget
reduction to perfect matching (W. T. Tutte, Canad. J. Math. 6, 1954): each
vertex v becomes deg(v) edge ports plus deg(v) - f(v) core vertices, ports
joined completely to cores of the same vertex, and each original edge joins
its two ports.  Perfect matchings of the gadget correspond to f-factors of
the original graph.

:func:`brute_force_f_factor` is an independent exhaustive oracle used to
cross-check the matching pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import UndecidedAtScaleError
from .graphs import Graph, as_vertex_set
from .matching import maximum_matching_mates

Edge = tuple[int, int]


@dataclass(frozen=True)
class DegreeSpec:
    """Required degree f(v) for every vertex, indexed by vertex."""

    targets: tuple[int, ...]

    def __post_init__(self):
        if any(t < 0 for t in self.targets):
            raise ValueError("degree targets must be nonnegative")

    def __getitem__(self, v: int) -> int:
        return self.targets[v]

    def __len__(self) -> int:
        return len(self.targets)

    @property
    def total(self) -> int:
        return sum(self.targets)

    def subset_sum(self, vertices: Iterable[int]) -> int:
        return sum(self.targets[v] for v in vertices)


def degree_spec_from_terminals(g: Graph, w: Iterable[int]) -> DegreeSpec:
    """f = 1 on the terminal set, 2 elsewhere; |W| must be even."""
    ws = as_vertex_set(g, w, "terminal set")
    if len(ws) % 2 != 0:
        raise ValueError(f"terminal set has odd size {len(ws)}")
    targets = [2] * g.n
    for v in ws:
        targets[v] = 1
    return DegreeSpec(tuple(targets))


def _check_spec_length(g: Graph, f: DegreeSpec) -> None:
    """Raise ``ValueError`` unless f gives one target per vertex of g."""
    if len(f) != g.n:
        raise ValueError("degree spec length does not match vertex count")


# -- gadget reduction ------------------------------------------------------


@dataclass(frozen=True)
class GadgetGraph:
    """Perfect-matching gadget for an f-factor instance, as adjacency lists.

    Host vertex v owns the gadget vertices ``start[v] .. start[v+1]-1``:
    first its deg(v) ports, one per neighbour in ascending order, then its
    deg(v) - f(v) cores.  ``adj[x]`` lists the neighbours of gadget vertex
    x in ascending order: a port's are its vertex's cores and its partner
    port, the port of the same host edge at the other end, which comes
    first toward a smaller neighbour and last toward a larger one; a
    core's are its vertex's ports.
    """

    host: Graph
    spec: DegreeSpec
    start: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...]

    @property
    def graph(self) -> Graph:
        """The gadget as a :class:`Graph`, built anew on each access.  The
        package never reads it; the benchmark's tracer (``perfbench/spans.py``)
        counts the gadget's vertices and edges through it."""
        edges = [(u, v) for u, nbrs in enumerate(self.adj) for v in nbrs if u < v]
        return Graph._trusted(len(self.adj), edges)

    def ports_of(self, v: int) -> range:
        return range(self.start[v], self.start[v] + self.host.degree(v))

    def cores_of(self, v: int) -> range:
        return range(self.start[v] + self.host.degree(v), self.start[v + 1])


def build_gadget(g: Graph, f: DegreeSpec) -> GadgetGraph:
    """Construct the matching gadget; requires f(v) <= deg(v) everywhere."""
    _check_spec_length(g, f)
    for v in range(g.n):
        if f[v] > g.degree(v):
            raise ValueError(f"f({v}) = {f[v]} exceeds degree {g.degree(v)}")
    start = [0]
    for v in range(g.n):
        start.append(start[-1] + 2 * g.degree(v) - f[v])
    # vertices in ascending order reach each x from its smaller neighbours
    # in ascending order, and those own x's first ports.  So a larger
    # neighbour x gives v's port the next free port of x; a smaller one has
    # already recorded the partner of v's port
    next_port = start[:-1]
    partner = [0] * start[-1]
    adj = []
    for v in range(g.n):
        nbrs = g.neighbors(v)
        port = start[v]
        cores = tuple(range(port + len(nbrs), start[v + 1]))
        for x in nbrs:
            # the partner port of a smaller neighbour lies below v's cores,
            # that of a larger one above them, so each list stays ascending
            if x < v:
                adj.append((partner[port],) + cores)
            else:
                across = next_port[x]
                next_port[x] = across + 1
                partner[across] = port
                adj.append(cores + (across,))
            port += 1
        adj.extend([tuple(range(start[v], port))] * len(cores))
    return GadgetGraph(g, f, tuple(start), tuple(adj))


@dataclass(frozen=True)
class FFactor:
    """A spanning subgraph given by its edge set, on vertices 0..n-1."""

    n: int
    edges: tuple[Edge, ...]

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def matches_spec(self, f: DegreeSpec) -> bool:
        return self.degrees() == list(f.targets)


def extract_f_factor(gg: GadgetGraph, mate: list[int]) -> FFactor:
    """Read the factor off the mate array of a perfect gadget matching."""
    if len(mate) != len(gg.adj) or -1 in mate:
        raise ValueError("matching is not perfect on the gadget")
    # v's port p toward a larger neighbour x lists its partner last, and
    # edge (v, x) is chosen iff the two are matched.  v and x ascending
    # meet the edges in the sorted order of host.edges
    host, start, adj = gg.host, gg.start, gg.adj
    chosen = []
    for v in range(host.n):
        p = start[v]
        for x in host.neighbors(v):
            if x > v and mate[p] == adj[p][-1]:
                chosen.append((v, x))
            p += 1
    factor = FFactor(host.n, tuple(chosen))
    if not factor.matches_spec(gg.spec):
        raise AssertionError("gadget matching produced a degree-violating factor")
    return factor


# -- decomposition ---------------------------------------------------------


@dataclass(frozen=True)
class PathCycleSystem:
    """Vertex-disjoint paths and cycles covering all vertices.

    Canonical form: every path runs from its smaller endpoint, every cycle
    starts at its minimum vertex heading toward the smaller neighbor, and
    both lists are sorted by first vertex.
    """

    paths: tuple[tuple[int, ...], ...]
    cycles: tuple[tuple[int, ...], ...]

    def format(self) -> str:
        lines = [" ".join(["path:"] + [str(v) for v in p]) for p in self.paths]
        lines += [" ".join(["cycle:"] + [str(v) for v in c]) for c in self.cycles]
        return "\n".join(lines) + ("\n" if lines else "")

    def covered_vertices(self) -> list[int]:
        out: list[int] = []
        for p in self.paths:
            out.extend(p)
        for c in self.cycles:
            out.extend(c)
        return sorted(out)

    def endpoints(self) -> tuple[int, ...]:
        out: list[int] = []
        for p in self.paths:
            out.append(p[0])
            out.append(p[-1])
        return tuple(sorted(out))

    def validate(self, g: Graph, w: Iterable[int]) -> None:
        """Assert every structural invariant against the host graph."""
        ws = as_vertex_set(g, w, "terminal set")
        if self.covered_vertices() != list(range(g.n)):
            raise AssertionError("components do not partition the vertex set")
        for p in self.paths:
            if len(p) < 2:
                raise AssertionError(f"path {p} has no edge")
            for a, b in zip(p, p[1:]):
                if not g.has_edge(a, b):
                    raise AssertionError(f"path step {a}-{b} is not an edge")
        for c in self.cycles:
            if len(c) < 3:
                raise AssertionError(f"cycle {c} has fewer than 3 vertices")
            for a, b in zip(c, c[1:] + (c[0],)):
                if not g.has_edge(a, b):
                    raise AssertionError(f"cycle step {a}-{b} is not an edge")
        if self.endpoints() != ws:
            raise AssertionError(
                f"path endpoints {self.endpoints()} differ from terminals {ws}"
            )
        wset = set(ws)
        for p in self.paths:
            for inner in p[1:-1]:
                if inner in wset:
                    raise AssertionError(f"terminal {inner} is interior to a path")
        for c in self.cycles:
            for v in c:
                if v in wset:
                    raise AssertionError(f"terminal {v} lies on a cycle")


def decompose_system(factor: FFactor, w: Iterable[int]) -> PathCycleSystem:
    """Split a degree-(1 on W, 2 elsewhere) factor into paths and cycles."""
    n = factor.n
    ws = tuple(sorted(set(w)))
    wset = set(ws)
    deg = factor.degrees()
    expected = [1 if v in wset else 2 for v in range(n)]
    if deg != expected:
        raise ValueError("factor degrees do not match the terminal spec")
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in factor.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    paths: list[tuple[int, ...]] = []
    cycles: list[tuple[int, ...]] = []

    def walk(start: int, first: int) -> list[int]:
        out = [start, first]
        seen[start] = seen[first] = True
        prev, cur = start, first
        while True:
            nxts = [x for x in adj[cur] if x != prev]
            if not nxts:
                return out
            nxt = nxts[0]
            if nxt == start:
                return out
            seen[nxt] = True
            out.append(nxt)
            prev, cur = cur, nxt

    for v in ws:  # paths first: walk from each endpoint of smaller index
        if seen[v]:
            continue
        trail = walk(v, adj[v][0])
        if trail[0] > trail[-1]:
            trail.reverse()
        paths.append(tuple(trail))
    for v in range(n):
        if seen[v]:
            continue
        nbrs = sorted(adj[v])
        trail = walk(v, nbrs[0])  # min vertex first, toward smaller neighbor
        cycles.append(tuple(trail))
    return PathCycleSystem(
        tuple(sorted(paths, key=lambda p: p[0])),
        tuple(sorted(cycles, key=lambda c: c[0])),
    )


# -- solver ----------------------------------------------------------------


def find_f_factor(g: Graph, f: DegreeSpec) -> FFactor | None:
    """Some f-factor of g, or None when none exists (gadget + matching)."""
    _check_spec_length(g, f)
    if f.total % 2 != 0:
        return None
    if any(f[v] > g.degree(v) for v in range(g.n)):
        return None
    gg = build_gadget(g, f)
    adj = gg.adj
    mate = maximum_matching_mates(len(adj), adj)
    for u, v in enumerate(mate):
        if v < 0:
            return None
        if mate[v] != u or v not in adj[u]:
            raise AssertionError(f"matched pair ({u},{v}) is not a gadget edge")
    return extract_f_factor(gg, mate)


def solve(g: Graph, w: Iterable[int]) -> PathCycleSystem | None:
    """Spanning path-cycle system with path ends exactly W; None if infeasible."""
    f = degree_spec_from_terminals(g, w)
    factor = find_f_factor(g, f)
    if factor is None:
        return None
    system = decompose_system(factor, w)
    system.validate(g, w)
    return system


# -- exhaustive oracle -----------------------------------------------------

#: Largest ``max_edges`` :func:`brute_force_f_factor` accepts.  The search
#: recurses one frame per edge, so a bound near the interpreter's recursion
#: limit would crash instead of answering.
MAX_ORACLE_EDGES = 64


def brute_force_f_factor(
    g: Graph, f: DegreeSpec, *, max_edges: int = 24
) -> FFactor | None:
    """Exhaustive f-factor search with degree pruning; independent of the
    matching pipeline.  Raises UndecidedAtScaleError beyond ``max_edges``,
    and ValueError when ``max_edges`` is negative or exceeds
    :data:`MAX_ORACLE_EDGES`."""
    if max_edges < 0:
        raise ValueError(f"edge bound {max_edges} is negative")
    if max_edges > MAX_ORACLE_EDGES:
        raise ValueError(
            f"edge bound {max_edges} exceeds the oracle's limit of {MAX_ORACLE_EDGES}"
        )
    m = g.edge_count
    if m > max_edges:
        raise UndecidedAtScaleError(
            f"{m} edges exceeds the brute-force bound {max_edges}"
        )
    _check_spec_length(g, f)
    if f.total % 2 != 0 or any(f[v] > g.degree(v) for v in range(g.n)):
        return None
    edges = g.edges
    remaining = [g.degree(v) for v in range(g.n)]
    chosen_deg = [0] * g.n
    picked: list[Edge] = []

    def feasible(v: int) -> bool:
        return chosen_deg[v] <= f[v] <= chosen_deg[v] + remaining[v]

    def rec(i: int) -> bool:
        if i == m:
            return all(chosen_deg[v] == f[v] for v in range(g.n))
        u, v = edges[i]
        remaining[u] -= 1
        remaining[v] -= 1
        # try including the edge
        if chosen_deg[u] < f[u] and chosen_deg[v] < f[v]:
            chosen_deg[u] += 1
            chosen_deg[v] += 1
            picked.append((u, v))
            if feasible(u) and feasible(v) and rec(i + 1):
                return True
            picked.pop()
            chosen_deg[u] -= 1
            chosen_deg[v] -= 1
        # try excluding it
        if feasible(u) and feasible(v) and rec(i + 1):
            return True
        remaining[u] += 1
        remaining[v] += 1
        return False

    if rec(0):
        return FFactor(g.n, tuple(picked))
    return None
