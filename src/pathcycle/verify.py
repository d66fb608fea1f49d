"""Checkers for the structural hypotheses used by the solver and families.

Every checker is a pure function of an immutable :class:`~pathcycle.graphs.Graph`
and returns either a plain value or a :class:`PropertyReport`.  A failing
report always carries a witness that can be re-checked against the graph
without trusting this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Iterator

from .graphs import Graph, as_vertex_set

Edge = tuple[int, int]


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of a structural check: ``holds`` says whether the property
    holds, and a failure may carry a ``witness`` and a ``detail``."""

    name: str
    holds: bool
    witness: object = None
    detail: str = ""

    def format_line(self) -> str:
        if self.holds:
            return f"{self.name}: PASS"
        parts = [f"{self.name}: FAIL"]
        if self.witness is not None:
            parts.append(repr(self.witness))
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


def check_regular(g: Graph, r: int) -> PropertyReport:
    """Does every vertex have degree exactly ``r``?"""
    if r <= 0:
        raise ValueError("degree must be positive")
    for v in range(g.n):
        if g.degree(v) != r:
            return PropertyReport(
                "regular", False, witness=(v, g.degree(v)),
                detail=f"vertex {v} has degree {g.degree(v)}, expected {r}",
            )
    return PropertyReport("regular", True)


# -- edge connectivity ----------------------------------------------------


def _max_flow_unit(
    g: Graph, sources: tuple[int, ...], sinks: Container[int], limit: int, parent: list[int]
) -> tuple[int, set[int] | None]:
    """Max flow, one unit per undirected edge, from a source set to a
    disjoint sink set, each contracted, capped at ``limit`` augmenting paths.

    ``sinks`` is any container that answers ``in``; :func:`edge_connectivity`
    passes the one set that it grows between calls.  It is only queried,
    never copied, so a call costs what its searches touch.  The
    flow is the set ``sent`` of arc keys ``u * n + v``, one for each arc
    carrying a unit from u to v: u -> v is residual iff its key is not sent.
    ``parent`` is the caller's list of n entries, all -1; each breadth-first
    search, the last one too, resets only the parents it set, so a search
    that meets a sink a few hops away stays that small and the list is all
    -1 again on return.
    Returns ``(limit, None)`` once the flow reaches ``limit``; below it,
    ``(value, side)`` with ``side`` the vertices residually reachable from
    the sources.  That is the intersection of all minimum cut shores
    containing the sources, whatever maximum flow was found, so the shore
    does not depend on the order in which paths were augmented.
    """
    n, adj = g.n, g._adj
    sent: set[int] = set()
    flow = 0
    while flow < limit:
        for s in sources:
            parent[s] = s
        queue = list(sources)
        reached = -1
        for u in queue:  # grows while it is walked: a breadth-first search
            base = u * n
            for v in adj[u]:
                if parent[v] < 0 and base + v not in sent:
                    parent[v] = u
                    if v in sinks:
                        reached = v
                        break
                    queue.append(v)
            if reached >= 0:
                break
        if reached < 0:
            for u in queue:
                parent[u] = -1
            return flow, set(queue)
        v = reached
        while parent[v] != v:
            u = parent[v]
            back = v * n + u
            if back in sent:
                sent.remove(back)
            else:
                sent.add(u * n + v)
            v = u
        parent[reached] = -1
        for u in queue:
            parent[u] = -1
        flow += 1
    return limit, None


def _growing_sink(dominating: list[int]) -> Iterator[tuple[tuple[int], set[int]]]:
    """The pairs ((d_i,), {d_0, ..., d_{i-1}}); d_i joins the sink after its flow."""
    sink = {dominating[0]}
    for d in dominating[1:]:
        yield (d,), sink
        sink.add(d)


def edge_connectivity(g: Graph) -> tuple[int, tuple[Edge, ...]]:
    """Global edge connectivity and one minimum edge cut.

    lambda = min(delta, min over i >= 1 of max-flow(d_i, {d_0, ..., d_{i-1}}))
    with unit edge capacities, for any dominating set D = (d_0, d_1, ...)
    (D. W. Matula, "Determining edge connectivity in O(nm)", FOCS 1987).
    If lambda < delta, each shore X of a minimum cut has more than delta
    vertices (fewer would send |X|(delta - |X| + 1) >= delta edges out), so
    X holds a vertex without cut edges, and D dominates it from inside X.
    So both shores meet D, and the first d_i on the side away from d_0 has
    every earlier d in the sink.  An earlier dominating vertex is usually a
    few hops from d_i, so each flow's searches stay local.  D is a greedy
    maximal independent set in index order, and the sink grows by d_i after
    each flow, each flow stopping at the least cut so far.

    The cut starts as the star of the lowest vertex of minimum degree.  A
    flow that ends below delta, and below every earlier flow, replaces it
    with its own least shore: the intersection of all minimum shores of d_i
    against the earlier D.  So the cut comes from the first d_i whose flow
    reaches lambda.  Returns (0, ()) for disconnected or trivial graphs;
    for n >= 2 the value is 0 exactly when the graph is disconnected.
    """
    if g.n <= 1:
        return 0, ()
    v0 = min(range(g.n), key=g.degree)
    blocked = [False] * g.n
    dominating = []
    for v in range(g.n):
        if not blocked[v]:
            dominating.append(v)
            for u in g.neighbors(v):
                blocked[u] = True
    best, side = g.degree(v0), {v0}
    parent = [-1] * g.n
    for sources, sinks in _growing_sink(dominating):
        if best == 0:
            break
        value, found = _max_flow_unit(g, sources, sinks, best, parent)
        if value < best:
            best, side = value, found
    cut = tuple(e for e in g.edges if (e[0] in side) != (e[1] in side))
    if len(cut) != best:
        raise AssertionError("residual cut size must equal the flow value")
    return best, cut


# -- induced stars --------------------------------------------------------


def find_induced_star(g: Graph, m: int) -> tuple[int, tuple[int, ...]] | None:
    """Find a vertex with ``m`` pairwise non-adjacent neighbors, if any.

    Returns (center, leaves) for the first center in vertex order and the
    first independent ``m``-subset of its neighbours in combinations order;
    ``None`` means the graph is K_{1,m}-free.  Each centre's neighbourhood
    is searched depth first on an explicit stack, so the depth is not
    bounded by the recursion limit.  The search keeps the set of neighbours
    that no pick is adjacent to, and for each pick the neighbours it took
    out of that set.  Those sets are disjoint, so the search holds at most
    one entry per neighbour of the centre.
    """
    if m <= 0:
        raise ValueError("star size must be positive")
    adj = g._adj
    # both empty again after every centre whose search fails
    picks: list[int] = []  # positions of the chosen neighbours
    taken: list[set[int]] = []  # taken[d]: the free neighbours of the d-th pick
    for center in range(g.n):
        nbrs = adj[center]
        k = len(nbrs)
        if k < m:
            continue
        free = set(nbrs)  # the neighbours no pick is adjacent to
        i = 0
        while len(picks) < m:
            if len(picks) + k - i < m:  # too few neighbours left: backtrack
                if not picks:
                    break
                i = picks.pop() + 1
                free |= taken.pop()
            elif nbrs[i] not in free:
                i += 1
            else:
                picks.append(i)
                taken.append(free.intersection(adj[nbrs[i]]))
                free -= taken[-1]
                i += 1
        if picks:
            return center, tuple(nbrs[j] for j in picks)
    return None


# -- the theorem's graph hypotheses -----------------------------------------


@dataclass(frozen=True)
class GraphHypotheses:
    """The theorem's three graph hypotheses: r-regular, K_{1,r}-free and
    r-edge-connected."""

    r: int
    regular: bool
    star_free: bool
    edge_connected: bool  # lambda(G) >= r

    @classmethod
    def compute(cls, g: Graph, r: int) -> "GraphHypotheses":
        lam, _ = edge_connectivity(g)
        return cls(
            r=r,
            regular=check_regular(g, r).holds,
            star_free=find_induced_star(g, r) is None,
            edge_connected=lam >= r,
        )


# -- terminal sets --------------------------------------------------------


def _terminals_seen(
    g: Graph, ws: tuple[int, ...], closed: bool
) -> tuple[dict[int, int], dict[int, list[int]]]:
    """Which terminals each vertex sees, from one pass over the sorted W.

    Returns ``(first, more)``: ``first[v]`` is the least terminal in N(v),
    or in N[v] when ``closed``, for every v that sees one, and ``more[v]``
    lists all of v's terminals, ascending, for every v that sees two or
    more.
    """
    first: dict[int, int] = {}
    more: dict[int, list[int]] = {}
    for a in ws:
        for v in (a, *g.neighbors(a)) if closed else g.neighbors(a):
            if v in first:
                more.setdefault(v, [first[v]]).append(a)
            else:
                first[v] = a
    return first, more


def check_terminal_set(g: Graph, w: Iterable[int], mode: str) -> PropertyReport:
    """Check a terminal set under ``distance3`` or ``nbhd1``.

    Each mode needs |W| even and bounds how many terminals one
    neighbourhood holds, so one scan of N(W) decides it:

    * distance3: at most one in each closed N[v], i.e. terminals pairwise
      at distance >= 3; fails at the least pair seen together, at distance
      1 if adjacent, else 2.  It implies nbhd1, which the passing report
      notes.
    * nbhd1: at most one in each open N(v); fails at the least v that sees
      more, with witness (v, its terminals).
    """
    if mode not in ("distance3", "nbhd1"):
        raise ValueError(f"unknown mode {mode!r}")
    ws = as_vertex_set(g, w, "terminal set")
    name = f"terminals-{mode}"
    if len(ws) % 2 != 0:
        return PropertyReport(name, False, witness=len(ws), detail="terminal set has odd size")
    _, more = _terminals_seen(g, ws, closed=mode == "distance3")
    if mode == "distance3":
        if not more:
            return PropertyReport(name, True, detail="implies nbhd1: confirmed")
        a, b = min(ts[:2] for ts in more.values())
        d = 1 if g.has_edge(a, b) else 2
        return PropertyReport(
            name, False, witness=(a, b, d),
            detail=f"terminals {a} and {b} are at distance {d}",
        )
    if not more:
        return PropertyReport(name, True)
    bad = min(more)
    return PropertyReport(
        name, False, witness=(bad, tuple(more[bad])),
        detail=f"vertex {bad} has neighbors {more[bad]} in W",
    )


def _terminal_load(g: Graph, w: Iterable[int]) -> PropertyReport:
    """The Prop. 2 families' terminal claim: the most terminals any open
    N(v) holds is exactly 2.  The witness is the least v holding the most,
    and that count."""
    first, more = _terminals_seen(g, as_vertex_set(g, w, "terminal set"), closed=False)
    loads = {v: len(ts) for v, ts in more.items()} or dict.fromkeys(first, 1)
    top = max(loads.values(), default=0)
    least = min((v for v, k in loads.items() if k == top), default=0)
    return PropertyReport(
        "terminals-nbhd2", top == 2,
        witness=(least, top) if g.n else None,
        detail=f"max |N(v) n W| = {top}, claimed exactly 2 at the maximum",
    )
