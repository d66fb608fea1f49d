"""Parameterized instance families with known infeasibility witnesses.

Each generator returns a :class:`FamilyInstance`: the graph, the terminal
set W, an optional witness pair (S, T) whose deficiency certifies that no
spanning path-cycle system with respect to W exists, a name map from
construction labels to vertex indices, and the structural claims the
instance is supposed to satisfy.  Claims are re-checkable through
:func:`verify_claims`.  Every instance checks the cheap ones when it is
built: its regularity, its terminal claim and its witness deficiency,
with the same reports :func:`verify_claims` returns, and raises
``AssertionError`` naming the instance and the claim otherwise.  The glued
Prop. 2 families also decide the whole instance's edge connectivity, which
they claim is exactly r.  The other families' edge connectivity, and every
family's star-freeness, are left to callers.  Every terminal condition is
decided in :mod:`pathcycle.verify`; this module counts no terminals.
Nothing is cached: every call builds and checks a fresh instance.

Families:

* ``prop1-odd``    r odd: r-regular, K_{1,r}-free, edge connectivity r-1.
* ``prop1-even``   r even: r-regular, K_{1,r}-free, edge connectivity r-2.
* ``prop1-bipartite``  r-regular r-edge-connected bipartite (not K_{1,r}-free).
* ``prop2-r4`` / ``prop2-general`` / ``prop2-r5``  r-edge-connected
  K_{1,r}-free r-regular with terminals satisfying |N(v) n W| <= 2.
* ``random``       seed-deterministic valid instances for property tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .factor import degree_spec_from_terminals
from .graphs import (
    Graph,
    _normalize_edge,
    distance,
    serialize_graph,
    serialize_terminals,
)
from .tutte import TutteCertificate, evaluate_pair, format_certificate
from .verify import (
    GraphHypotheses,
    PropertyReport,
    _terminal_load,
    check_regular,
    check_terminal_set,
    edge_connectivity,
    find_induced_star,
)

Witness = tuple[tuple[int, ...], tuple[int, ...], int]

#: Largest edge count a generator builds.  Every generator computes its
#: edge count from its parameters and refuses larger instances before it
#: builds anything; the largest instance the tests build, ``prop2-r5`` at
#: m = 2000, has 45 000 edges.
MAX_EDGES = 10**6


@dataclass(frozen=True)
class FamilyInstance:
    """A generated instance and its claims.  Building one raises
    ``AssertionError`` unless it is r-regular, meets its terminal claim and,
    when it has a witness, the witness has the recorded deficiency."""

    name: str
    graph: Graph
    w: tuple[int, ...]
    witness: Witness | None
    name_map: dict[str, int]
    r: int
    edge_connectivity_value: int
    edge_connectivity_exact: bool
    star_free: bool          # claimed K_{1,r}-free; False claims a star exists
    terminal_mode: str       # distance3 | nbhd1 | nbhd2

    def __post_init__(self) -> None:
        reports = [check_regular(self.graph, self.r), self._terminal_report()]
        if self.witness is not None:
            reports.append(self._witness_report())
        for rep in reports:
            if not rep.holds:
                raise AssertionError(f"{self.name}: {rep.format_line()}")

    def _terminal_report(self) -> PropertyReport:
        if self.terminal_mode == "nbhd2":  # at most two, met with equality somewhere
            return _terminal_load(self.graph, self.w)
        return check_terminal_set(self.graph, self.w, self.terminal_mode)

    def _witness_certificate(self) -> TutteCertificate:
        s, t, _ = self.witness
        f = degree_spec_from_terminals(self.graph, self.w)
        return evaluate_pair(self.graph, f, s, t)

    def _witness_report(self) -> PropertyReport:
        delta, expected = self._witness_certificate().delta, self.witness[2]
        return PropertyReport(
            "witness-deficiency", delta == expected,
            witness=delta, detail=f"expected {expected}",
        )

    @property
    def claims(self) -> tuple[str, ...]:
        rel = "=" if self.edge_connectivity_exact else ">="
        return (
            f"{self.r}-regular",
            f"edge-connectivity {rel} {self.edge_connectivity_value}",
            ("K_{1,%d}-free" % self.r) if self.star_free
            else ("contains induced K_{1,%d}" % self.r),
            f"terminal condition: {self.terminal_mode}",
        )


# -- small builders ---------------------------------------------------------


def _circulant_block(nv: int, offsets: Iterable[int]) -> set[tuple[int, int]]:
    """Edges of a circulant on vertices 0..nv-1."""
    edges: set[tuple[int, int]] = set()
    for off in offsets:
        if not 0 < off <= nv // 2:
            raise ValueError(f"offset {off} invalid for {nv} vertices")
        for i in range(nv):
            edges.add(_normalize_edge(i, (i + off) % nv))
    return edges


def _apex_pairs(first: int, sets: Iterable[Iterable[int]]) -> set[tuple[int, int]]:
    """Edges of the apex pairs (first + 2i, first + 2i + 1), each pair
    joined to each other and to every vertex of the i-th set."""
    edges: set[tuple[int, int]] = set()
    for i, vertices in enumerate(sets):
        a = first + 2 * i
        edges.add((a, a + 1))
        for v in vertices:
            edges.add(_normalize_edge(a, v))
            edges.add(_normalize_edge(a + 1, v))
    return edges


def _check_size(n: int, r: int) -> None:
    """Refuse an r-regular instance on n vertices above :data:`MAX_EDGES`."""
    if n * r // 2 > MAX_EDGES:
        raise ValueError(
            f"{n} vertices of degree {r} make {n * r // 2} edges, "
            f"above the limit of {MAX_EDGES}"
        )


# -- families 1 and 2: hubs plus circulant blocks, edge connectivity < r -----


_Block = tuple[int, set[tuple[int, int]], Sequence[int], int]


def _hub_family(
    name: str,
    r: int,
    hub_count: int,
    blocks: Sequence[_Block],
    diagonal_hubs: Sequence[int],
    lam: int,
) -> FamilyInstance:
    """Shared assembly for the two Prop. 1 families.

    Hubs x_1..x_{hub_count} come first, then the blocks H_1, H_2, ... in
    order.  Each block is (vertex count, its edges on 0.., its deficient
    vertices d_0, d_1, ..., its terminal index).  Block j <= hub_count
    attaches d_0 and d_1 to x_j and d_t to x_{j+t-1}, wrapping modulo
    hub_count; block hub_count + i attaches d_t to the 0-based hub
    ``diagonal_hubs[i] + t``.  W is the hubs plus each block's terminal.
    Removing the hubs leaves hub_count + 2 odd blocks, so the pair
    (S, T) = (hubs, empty) has deficiency -2.
    """
    names: dict[str, int] = {f"x_{i + 1}": i for i in range(hub_count)}
    edges: set[tuple[int, int]] = set()
    w = list(range(hub_count))
    pos = hub_count
    for j, (nv, block_edges, deficient, w_idx) in enumerate(blocks):
        for t in range(nv):
            names[f"H_{j + 1}:v_{t}"] = pos + t
        edges.update((pos + u, pos + v) for u, v in block_edges)
        if j < hub_count:
            hubs = [(j + max(t - 1, 0)) % hub_count for t in range(len(deficient))]
        else:
            hubs = [diagonal_hubs[j - hub_count] + t for t in range(len(deficient))]
        edges.update(_normalize_edge(pos + d, x) for d, x in zip(deficient, hubs))
        w.append(pos + w_idx)
        pos += nv
    return FamilyInstance(
        name=name,
        graph=Graph(pos, edges),
        w=tuple(sorted(w)),
        witness=(tuple(range(hub_count)), (), -2),
        name_map=names,
        r=r,
        edge_connectivity_value=lam,
        edge_connectivity_exact=True,
        star_free=True,
        terminal_mode="distance3",
    )


def gen_prop1_odd(r: int, k: int) -> FamilyInstance:
    """Odd r >= 5, even k >= r+1: edge connectivity r-1.

    2r hubs plus 2r+2 blocks: 2r+1 copies of a near-(r-regular)
    circulant-with-chords block H on r+k-1 vertices and one enlarged block
    H* on r+k+1 vertices.  The deficient vertices of H_1..H_{2r} attach to
    the hubs shifted, those of H_{2r+1} to x_1..x_{r-1} and those of H* to
    x_r..x_{2r}; each block contributes one deep vertex to W.
    """
    if r < 5 or r % 2 == 0:
        raise ValueError("r must be odd and >= 5")
    if k < r + 1 or k % 2 != 0:
        raise ValueError("k must be even and >= r+1")
    half = (r - 1) // 2
    kk = k // 2
    _check_size(2 * r + (2 * r + 1) * (r + k - 1) + r + k + 1, r)

    def block(nv: int, d: int) -> _Block:  # deficient v_0..v_{d-1}, then kk chords
        edges = _circulant_block(nv, range(1, half + 1))
        edges.update(_normalize_edge(s, (s + kk) % nv) for s in range(d, d + kk))
        return nv, edges, range(d), d + kk - 1

    blocks = [block(r + k - 1, r - 1)] * (2 * r + 1) + [block(r + k + 1, r + 1)]
    return _hub_family("prop1-odd", r, 2 * r, blocks, (0, r - 1), r - 1)


def gen_prop1_even(r: int, k: int) -> FamilyInstance:
    """Even r, k >= r (even k required when r % 4 == 0): edge connectivity r-2.

    r-2 hubs plus r copies of a circulant block with a short list of
    deleted chords; the r-2 degree-deficient vertices of each copy attach
    to hubs, shifted for the first r-2 copies and onto x_1..x_{r-2} for the
    last two.  For r % 4 == 2 the block has r+k+1 vertices, deleting
    (0,2),(1,3),(4,6),(5,7),...; for r % 4 == 0 it has r+k vertices with
    the extra deletion (r-4, r-2), and the deficient vertices are taken in
    an order that keeps consecutive ones adjacent.
    """
    if r % 2 != 0:
        raise ValueError("r must be even")
    if r % 4 == 2 and r < 6:
        raise ValueError("r must be >= 6 when r % 4 == 2")
    if r % 4 == 0 and r < 8:
        raise ValueError("r must be >= 8 when r % 4 == 0")
    if k < r:
        raise ValueError("k must be >= r")
    if r % 4 == 0 and k % 2 != 0:
        raise ValueError("k must be even when r % 4 == 0")

    if r % 4 == 2:
        nv = r + k + 1
        deleted = []
        for b in range(0, r - 5, 4):
            deleted += [(b, b + 2), (b + 1, b + 3)]
        deficient = list(range(r - 2))             # v_0..v_{r-3}
        w_idx = (3 * r - 4) // 2
    else:
        nv = r + k
        deleted = []
        for b in range(0, r - 7, 4):
            deleted += [(b, b + 2), (b + 1, b + 3)]
        deleted.append((r - 4, r - 2))
        # consecutive entries adjacent: swap v_{r-5}, v_{r-4}; append v_{r-2}
        deficient = list(range(r - 5)) + [r - 4, r - 5, r - 2]
        w_idx = (3 * r - 2) // 2
    _check_size(r - 2 + r * nv, r)
    edges = _circulant_block(nv, range(1, r // 2 + 1)) - set(deleted)
    return _hub_family(
        "prop1-even", r, r - 2, [(nv, edges, deficient, w_idx)] * r, (0, 0), r - 2
    )


# -- family 3: bipartite, parity obstruction ---------------------------------


def gen_prop1_bipartite(r: int, n: int) -> FamilyInstance:
    """r-regular r-edge-connected bipartite circulant with both terminals
    in the same side at distance 4; equal side sizes make any system with
    two path-ends on one side impossible, with no (S, T) witness needed."""
    if r < 4:
        raise ValueError("r must be >= 4")
    if n < 3 * r:
        raise ValueError(f"side size {n} too small for a distance-4 pair")
    _check_size(2 * n, r)
    edges = []
    for i in range(n):
        for d in range(r):
            edges.append((i, n + (i + d) % n))
    g = Graph(2 * n, edges)
    w = (0, 2 * (r - 1))
    d = distance(g, w[0], w[1])
    if d != 4:
        raise ValueError(f"terminal pair has distance {d}, expected 4")
    names = {f"L_{i}": i for i in range(n)}
    names.update({f"R_{i}": n + i for i in range(n)})
    return FamilyInstance(
        name="prop1-bipartite",
        graph=g,
        w=w,
        witness=None,
        name_map=names,
        r=r,
        edge_connectivity_value=r,
        edge_connectivity_exact=True,
        star_free=False,
        terminal_mode="distance3",
    )


# -- family 4: r = 4, terminals with two neighbors allowed -------------------


def gen_prop2_r4(n: int) -> FamilyInstance:
    """4-regular 4-edge-connected K_{1,4}-free instance on 10n vertices.

    A cycle x_1 y_1 x_2 y_2 ... x_{3n} y_{3n}; apex pairs a_{2i-1}, a_{2i}
    over A_i = {x_i, x_{i+n}, x_{i+2n}} and b_{2i-1}, b_{2i} over
    B_i = {y_{3i-2}, y_{3i-1}, y_{3i}}.  W = {x_{n+1}..x_{3n}, b_1, b_3};
    S = all x and b, T = all y and a has deficiency -2.
    """
    if n < 6:
        raise ValueError("n must be >= 6")
    _check_size(10 * n, 4)
    m3 = 3 * n

    def x(i: int) -> int:  # 1-based, wraps
        return 2 * ((i - 1) % m3)

    def y(i: int) -> int:
        return 2 * ((i - 1) % m3) + 1

    a_start, b_start = 6 * n, 8 * n  # a_j is a_start + j - 1, b_j likewise
    edges: set[tuple[int, int]] = set()
    for i in range(1, m3 + 1):
        edges.add(_normalize_edge(x(i), y(i)))
        edges.add(_normalize_edge(y(i), x(i + 1)))
    a_sets = ((x(i), x(i + n), x(i + 2 * n)) for i in range(1, n + 1))
    b_sets = ((y(3 * i - 2), y(3 * i - 1), y(3 * i)) for i in range(1, n + 1))
    edges |= _apex_pairs(a_start, a_sets) | _apex_pairs(b_start, b_sets)
    g = Graph(10 * n, edges)
    w = tuple(sorted([x(i) for i in range(n + 1, m3 + 1)] + [b_start, b_start + 2]))
    s = tuple(sorted([x(i) for i in range(1, m3 + 1)] + list(range(b_start, 10 * n))))
    t = tuple(sorted([y(i) for i in range(1, m3 + 1)] + list(range(a_start, b_start))))
    names = {f"x_{i}": x(i) for i in range(1, m3 + 1)}
    names.update({f"y_{i}": y(i) for i in range(1, m3 + 1)})
    names.update({f"a_{j + 1}": a_start + j for j in range(2 * n)})
    names.update({f"b_{j + 1}": b_start + j for j in range(2 * n)})
    return FamilyInstance(
        name="prop2-r4",
        graph=g,
        w=w,
        witness=(s, t, -2),
        name_map=names,
        r=4,
        edge_connectivity_value=4,
        edge_connectivity_exact=True,
        star_free=True,
        terminal_mode="nbhd2",
    )


# -- families 5 and 6: r >= 6 and r = 5 via glued biregular blocks ------------


def _glued_family(
    r: int,
    m: int,
    m1_offsets: Sequence[int],
    h2_edges_labels: list[tuple[int, int]],
    h2_x_count: int,
    special_labels: list[int],
    b_sets: list[list[int]],
    w_b_labels: tuple[int, int],
    family_name: str,
) -> FamilyInstance:
    """Shared assembly for the r >= 6 and r = 5 constructions.

    H1 subdivides the circulant on 2m vertices with ``m1_offsets``; its
    subdivision vertices are the sorted base edges.  ``h2_edges_labels``
    lists (x2_index, y_label) incidences of the second block and ``b_sets``
    partition the Y labels.  Y label i is glued onto subdivision vertex i,
    except that ``special_labels`` take the first subdivision vertices with
    an endpoint outside X_1', in ascending order, and the remaining labels
    the remaining vertices.  The glued graph's edge connectivity is decided
    and must be exactly r, as the instance claims.
    """
    n_apex = (r - 2) * m // (r - 1)
    x1_count = 2 * m
    base_edges = sorted(_circulant_block(x1_count, m1_offsets))
    y_count = len(base_edges)
    if y_count != (r - 2) * m:
        raise AssertionError("block sizes disagree with the glue count")

    eligible = [
        sub for sub, (u, v) in enumerate(base_edges)
        if u >= 2 * n_apex or v >= 2 * n_apex
    ]
    if len(eligible) < len(special_labels):
        raise AssertionError("not enough eligible glue vertices")
    if len(set(special_labels)) != len(special_labels):
        raise AssertionError("special labels must be duplicate-free")
    glued = dict(zip(eligible, special_labels))  # subdivision vertex -> label
    others = iter(sorted(set(range(y_count)) - set(special_labels)))
    inv = [glued[sub] if sub in glued else next(others) for sub in range(y_count)]

    x2_start = x1_count
    y_start = x2_start + h2_x_count
    a_start = y_start + y_count
    b_start = a_start + 2 * n_apex
    total = b_start + 2 * n_apex

    edges: set[tuple[int, int]] = set()
    for sub, (u, v) in enumerate(base_edges):  # first block, through the glue
        yv = y_start + inv[sub]
        edges.add(_normalize_edge(u, yv))
        edges.add(_normalize_edge(v, yv))
    for x2, ylabel in h2_edges_labels:    # second block
        edges.add(_normalize_edge(x2_start + x2, y_start + ylabel))

    # apex pair a_{2i+1}, a_{2i+2} over two of X_1' and r - 3 of the pool
    pool = list(range(2 * n_apex, y_start))
    if len(pool) != n_apex * (r - 3):
        raise AssertionError("apex pool does not split into r - 3 vertices per apex")
    edges |= _apex_pairs(
        a_start,
        ([2 * i, 2 * i + 1] + pool[i * (r - 3):(i + 1) * (r - 3)] for i in range(n_apex)),
    )
    if len(b_sets) != n_apex:
        raise AssertionError("one b-set per apex is required")
    if sorted(v for bs in b_sets for v in bs) != list(range(y_count)):
        raise AssertionError("b-sets must partition the y labels")
    edges |= _apex_pairs(b_start, ([y_start + label for label in bs] for bs in b_sets))

    g = Graph(total, edges)
    lam, _ = edge_connectivity(g)
    if lam != r:
        raise AssertionError(f"{family_name}: edge connectivity {lam} != {r}")
    w = tuple(range(2 * n_apex)) + (b_start + w_b_labels[0], b_start + w_b_labels[1])
    s = tuple(range(y_start)) + tuple(range(b_start, total))  # X_1, X_2, b
    t = tuple(range(y_start, b_start))                        # Y, a
    names = {f"X1_{i}": i for i in range(x1_count)}
    names.update({f"X2_{i}": x2_start + i for i in range(h2_x_count)})
    names.update({f"Y0_{i}": y_start + i for i in range(y_count)})
    names.update({f"a_{j + 1}": a_start + j for j in range(2 * n_apex)})
    names.update({f"b_{j + 1}": b_start + j for j in range(2 * n_apex)})
    return FamilyInstance(
        name=family_name,
        graph=g,
        w=w,
        witness=(s, t, -2),
        name_map=names,
        r=r,
        edge_connectivity_value=r,
        edge_connectivity_exact=True,
        star_free=True,
        terminal_mode="nbhd2",
    )


def gen_prop2_general(r: int, m: int) -> FamilyInstance:
    """r >= 6, m a multiple of r-1 with m >= 2(r-1)^2.

    Glues a subdivided circulant (2m vertices of degree r-2) to a biregular
    shift-product block with degrees (r-2, r-4), then adds apex pairs over
    a partition of the degree-(r-2) side and of the glued middle layer.
    W is a fixed 2n-subset of the first side plus two b apexes.
    """
    if r < 6:
        raise ValueError("r must be >= 6")
    if m % (r - 1) != 0 or m < 2 * (r - 1) ** 2:
        raise ValueError("m must be a multiple of r-1 with m >= 2(r-1)^2")
    n_apex = (r - 2) * m // (r - 1)
    y_count = (r - 2) * m
    _check_size(2 * m + (r - 4) * m + y_count + 4 * n_apex, r)
    if r % 2 == 0:
        m1_offsets = tuple(range(1, (r - 2) // 2 + 1))
    else:
        m1_offsets = tuple(range(1, (r - 3) // 2 + 1)) + (m,)

    # second block: x = (i, s) joined to y = (i + (s+1)t mod m, t)
    h2_x_count = (r - 4) * m
    h2_edges_labels = []
    for s_layer in range(r - 4):
        for i in range(m):
            for t_layer in range(r - 2):
                j = (i + (s_layer + 1) * t_layer) % m
                h2_edges_labels.append((s_layer * m + i, t_layer * m + j))

    # B_i takes the i-th run of r - 1 labels; B_1 and B_2 glue onto
    # eligible subdivision vertices
    b_sets = [list(range(i * (r - 1), (i + 1) * (r - 1))) for i in range(n_apex)]
    return _glued_family(
        r, m, m1_offsets, h2_edges_labels, h2_x_count,
        b_sets[0] + b_sets[1], b_sets, (0, 2), "prop2-general",
    )


def gen_prop2_r5(m: int) -> FamilyInstance:
    """r = 5, m a multiple of 4 with m >= 96.

    First block: subdivided Moebius ladder on 2m vertices (degree 3 and 2).
    Second block: m disjoint 3-leaf stars, leaves labeled (j, h) with
    1 <= j <= m, h in {1, 2, 3}.  The middle layer is partitioned as
    B_i = {(j, h) : 4p + h <= j <= 4p + h + 3} for i = 3p + h; the labels
    feeding B_1, B_2 and B_4 are glued onto subdivision vertices with at
    most one endpoint among the doubled terminals, so W = X_1' u {b_1, b_4}
    keeps every neighborhood at no more than two terminals.
    """
    r = 5
    if m % 4 != 0 or m < 96:
        raise ValueError("m must be a multiple of 4 with m >= 96")
    _check_size(9 * m, r)
    n_apex = 3 * m // 4
    # second block: star centre j joined to its leaves, labels 3j .. 3j + 2
    h2_edges_labels = [(j, 3 * j + h) for j in range(m) for h in range(3)]

    def label(j: int, h: int) -> int:  # 1-based star j, leaf h
        return 3 * ((j - 1) % m) + (h - 1)

    b_sets: list[list[int]] = []
    for i in range(1, n_apex + 1):
        h = (i - 1) % 3 + 1
        p = (i - h) // 3
        b_sets.append([label(4 * p + h + d, h) for d in range(4)])

    # B_1, B_4 (distinct stars by the label scheme) and B_2 (apexed by the
    # terminal b_4) all glue onto eligible subdivision vertices; the
    # offsets (1, m) make the Moebius ladder
    return _glued_family(
        r, m, (1, m), h2_edges_labels, m,
        b_sets[0] + b_sets[3] + b_sets[1], b_sets, (0, 3), "prop2-r5",
    )


# -- random valid instances ---------------------------------------------------


def _random_cubic(rng: random.Random, h: int) -> Graph | None:
    """Connected cubic graph on h vertices: random cycle plus matching."""
    order = list(range(h))
    rng.shuffle(order)
    cycle = {_normalize_edge(order[i], order[(i + 1) % h]) for i in range(h)}
    for _ in range(50):
        pair = list(range(h))
        rng.shuffle(pair)
        matching = {
            _normalize_edge(pair[2 * i], pair[2 * i + 1]) for i in range(h // 2)
        }
        if matching & cycle:
            continue
        return Graph(h, cycle | matching)
    return None


def _line_graph(g: Graph) -> Graph:
    idx = {e: i for i, e in enumerate(g.edges)}
    edges = set()
    for v in range(g.n):
        inc = [idx[_normalize_edge(v, u)] for u in g.neighbors(v)]
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                edges.add(_normalize_edge(inc[i], inc[j]))
    return Graph(len(idx), edges)


def _greedy_terminals(g: Graph, cap: int) -> tuple[int, ...]:
    """Scan vertices in index order; admit v unless it is a neighbor of, or
    shares a neighbor with, a chosen terminal.  Stop at ``cap`` terminals.
    """
    chosen: list[int] = []
    blocked: set[int] = set()
    for v in range(g.n):
        if len(chosen) >= cap:
            break
        if v in blocked:
            continue
        chosen.append(v)
        blocked.add(v)
        for u in g.neighbors(v):
            blocked.add(u)
            blocked.update(g.neighbors(u))
    if len(chosen) % 2 != 0:
        chosen.pop()
    return tuple(chosen)


# CPython's 64-bit hash constants: ints hash to their residue mod 2^61 - 1,
# and tuples mix their items' hashes with the xxHash primes
_HASH_MODULUS = (1 << 61) - 1
_MASK64 = (1 << 64) - 1
_XXPRIME_1 = 11400714785074694791
_XXPRIME_2 = 14029467366897019727
_XXPRIME_5 = 2870177450012600261


def _tuple_hash(items: tuple[int, ...]) -> int:
    """``hash(items)`` of a tuple of ints as a 64-bit CPython (3.8 or later)
    computes it, whatever the width of the running build.

    An int hashes to its absolute value mod 2^61 - 1 with the int's sign,
    -1 becoming -2; the tuple folds those hashes, read as unsigned 64-bit
    lanes, into one xxHash-style accumulator.
    """
    acc = _XXPRIME_5
    for x in items:
        lane = abs(x) % _HASH_MODULUS
        if x < 0:
            lane = -2 if lane == 1 else -lane
        acc = (acc + (lane & _MASK64) * _XXPRIME_2) & _MASK64
        acc = ((acc << 31) | (acc >> 33)) & _MASK64  # rotate left by 31
        acc = acc * _XXPRIME_1 & _MASK64
    acc = (acc + (len(items) ^ _XXPRIME_5 ^ 3527539)) & _MASK64
    if acc == _MASK64:  # -1 is reserved for errors
        return 1546275796
    return acc - (1 << 64) if acc >> 63 else acc


def random_valid_instance(r: int, size: int, seed: int) -> FamilyInstance:
    """Seed-deterministic K_{1,r}-free r-edge-connected r-regular instance
    with a terminal set satisfying the one-neighbor condition.

    Candidates are circulants with interval offsets (plus an antipodal
    rung for odd r) and, for r = 4, line graphs of random cubic graphs.
    Every candidate is re-verified; failures are rejected and regenerated.
    """
    if r not in (4, 5, 6):
        raise ValueError("random instances support r in {4, 5, 6}")
    if size < 8:
        raise ValueError("size must be >= 8")
    _check_size(max(size + 3, 13), r)  # the most vertices a candidate has
    rng = random.Random(_tuple_hash((r, size, seed)))
    for _attempt in range(60):
        style = rng.choice(("circulant", "line")) if r == 4 else "circulant"
        if style == "line":
            h = max(6, 2 * round(size / 3))
            base = _random_cubic(rng, h)
            if base is None:
                continue
            g = _line_graph(base)
        else:
            nv = size + rng.randrange(-2, 3)
            if r == 4:
                nv = max(nv, 8)
                offsets = (1, 2)
            elif r == 6:
                nv = max(nv, 13)
                offsets = (1, 2, 3)
            else:  # r == 5: antipodal offset needs even order
                nv = max(nv, 10)
                nv += nv % 2
                offsets = (1, 2, nv // 2)
            g = Graph(nv, _circulant_block(nv, offsets))
        hyp = GraphHypotheses.compute(g, r)
        if not (hyp.regular and hyp.star_free and hyp.edge_connected):
            continue
        return FamilyInstance(
            name="random",
            graph=g,
            w=_greedy_terminals(g, cap=max(2, g.n // 8 * 2)),
            witness=None,
            name_map={},
            r=r,
            edge_connectivity_value=r,
            edge_connectivity_exact=False,
            star_free=True,
            terminal_mode="nbhd1",
        )
    raise RuntimeError(f"no valid instance found for r={r}, size={size}, seed={seed}")


# -- claim re-verification and file output ------------------------------------


def verify_claims(inst: FamilyInstance) -> list[PropertyReport]:
    """Re-check every claimed property through the verify module."""
    g = inst.graph
    reports = [check_regular(g, inst.r)]

    star = find_induced_star(g, inst.r)
    star_ok = (star is None) == inst.star_free
    reports.append(
        PropertyReport(
            "star-freeness-claim", star_ok, witness=star,
            detail=f"claimed {'K_{1,%d}-free' % inst.r if inst.star_free else 'a star exists'}",
        )
    )

    lam, cut = edge_connectivity(g)
    if inst.edge_connectivity_exact:
        lam_ok = lam == inst.edge_connectivity_value
    else:
        lam_ok = lam >= inst.edge_connectivity_value
    reports.append(
        PropertyReport(
            "edge-connectivity", lam_ok, witness=(lam, cut),
            detail=f"computed {lam}, claimed "
            f"{'=' if inst.edge_connectivity_exact else '>='} {inst.edge_connectivity_value}",
        )
    )

    reports.append(inst._terminal_report())
    if inst.witness is not None:
        reports.append(inst._witness_report())
    return reports


def write_instance(inst: FamilyInstance, prefix: str | Path) -> list[Path]:
    """Emit <prefix>.graph/.terminals/.names and, when present, .witness.

    Each suffix is appended to the prefix's name, so a dotted prefix keeps
    its dots and no sibling file is touched.
    """
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    names = [f"c {label} {idx}" for label, idx in sorted(
        inst.name_map.items(), key=lambda kv: kv[1]
    )]
    texts = {
        ".graph": serialize_graph(inst.graph, comments=(f"family {inst.name}",) + inst.claims),
        ".terminals": serialize_terminals(inst.w),
        ".names": "\n".join(names) + "\n" if names else "",
        ".witness": None if inst.witness is None
        else format_certificate(inst._witness_certificate()),
    }
    written = []
    for suffix, text in texts.items():
        path = prefix.parent / (prefix.name + suffix)
        # fresh files: no stale witness survives, and no truncating rewrite
        path.unlink(missing_ok=True)
        if text is not None:
            path.write_text(text)
            written.append(path)
    return written
