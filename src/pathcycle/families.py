"""Parameterized instance families with known infeasibility witnesses.

Each generator returns a :class:`FamilyInstance`: the graph, the terminal
set W, an optional witness pair (S, T) whose deficiency certifies that no
spanning path-cycle system with respect to W exists, a name map from
construction labels to vertex indices, and the structural claims the
instance is supposed to satisfy.  Claims are re-checkable through
:mod:`pathcycle.verify`; generators assert the cheap ones (regularity,
witness deficiency, terminal degree bounds) at construction time and
leave the expensive ones (edge connectivity, star-freeness) to callers.

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
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

from .factor import degree_spec_from_terminals
from .graphs import (
    Graph,
    distance,
    serialize_graph,
    serialize_terminals,
)
from .tutte import evaluate_pair, format_certificate
from .verify import (
    PropertyReport,
    check_regular,
    check_terminal_set,
    edge_connectivity,
    essential_edge_connectivity_at_least,
    find_induced_star,
)

Witness = tuple[tuple[int, ...], tuple[int, ...], int]


@dataclass(frozen=True)
class FamilyInstance:
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


def _circulant_block(base: int, nv: int, offsets: Iterable[int]) -> set[tuple[int, int]]:
    """Edges of a circulant on vertices base..base+nv-1."""
    edges: set[tuple[int, int]] = set()
    for off in offsets:
        if not 0 < off <= nv // 2:
            raise ValueError(f"offset {off} invalid for {nv} vertices")
        for i in range(nv):
            j = (i + off) % nv
            u, v = base + i, base + j
            edges.add((min(u, v), max(u, v)))
    return edges


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _assert_generated(inst: FamilyInstance) -> FamilyInstance:
    """Construction-time sanity: regularity, terminal bound, witness value."""
    g = inst.graph
    rep = check_regular(g, inst.r)
    if rep.holds is not True:
        raise AssertionError(f"{inst.name}: {rep.detail}")
    if len(inst.w) % 2 != 0:
        raise AssertionError(f"{inst.name}: terminal set has odd size")
    if inst.witness is not None:
        s, t, expected = inst.witness
        f = degree_spec_from_terminals(g, inst.w)
        cert = evaluate_pair(g, f, s, t)
        if cert.delta != expected:
            raise AssertionError(
                f"{inst.name}: witness deficiency {cert.delta} != expected {expected}"
            )
    if inst.terminal_mode == "nbhd2":
        wset = set(inst.w)
        counts = [sum(1 for x in g.neighbors(v) if x in wset) for v in range(g.n)]
        if max(counts, default=0) > 2:
            raise AssertionError(f"{inst.name}: some vertex has >2 terminals nearby")
    return inst


# -- family 1: odd r, edge connectivity r-1 ---------------------------------


@lru_cache(maxsize=None)
def gen_prop1_odd(r: int, k: int) -> FamilyInstance:
    """Odd r >= 5, even k >= r+1.

    2r hub vertices plus 2r+2 blocks: 2r+1 copies of a near-(r-regular)
    circulant-with-chords block H on r+k-1 vertices and one enlarged block
    H* on r+k+1 vertices.  Hubs form W together with one deep vertex per
    block; removing the hubs leaves 2r+2 odd blocks, so the pair
    (S, T) = (hubs, empty) has deficiency 2r - (2r+2) = -2.
    """
    if r < 5 or r % 2 == 0:
        raise ValueError("r must be odd and >= 5")
    if k < r + 1 or k % 2 != 0:
        raise ValueError("k must be even and >= r+1")
    half = (r - 1) // 2
    kk = k // 2
    nh = r + k - 1       # block H
    ns = r + k + 1       # block H*
    hub_count = 2 * r
    names: dict[str, int] = {f"x_{i + 1}": i for i in range(hub_count)}
    edges: set[tuple[int, int]] = set()
    starts: list[int] = []
    pos = hub_count
    for j in range(1, 2 * r + 2):  # copies H_1..H_{2r+1}
        starts.append(pos)
        for tt in range(nh):
            names[f"H_{j}:v_{tt}"] = pos + tt
        edges |= _circulant_block(pos, nh, range(1, half + 1))
        for s_idx in range(r - 1, r + kk - 1):
            edges.add(_norm(pos + s_idx, pos + (s_idx + kk) % nh))
        pos += nh
    star_start = pos
    starts.append(star_start)
    for tt in range(ns):
        names[f"H_{2 * r + 2}:v_{tt}"] = star_start + tt
    edges |= _circulant_block(star_start, ns, range(1, half + 1))
    for s_idx in range(r + 1, r + kk + 1):
        edges.add(_norm(star_start + s_idx, star_start + (s_idx + kk) % ns))
    pos += ns

    def hub(i: int) -> int:  # x_i label, 1-based, wrapping modulo 2r
        return (i - 1) % hub_count

    for j in range(1, 2 * r + 1):  # attachments of H_1..H_{2r}
        base = starts[j - 1]
        edges.add(_norm(base + 0, hub(j)))
        edges.add(_norm(base + 1, hub(j)))
        for tt in range(2, r - 1):
            edges.add(_norm(base + tt, hub(j + tt - 1)))
    # deficient vertices of H_{2r+1} and H* take the remaining hub slots
    base = starts[2 * r]
    for tt in range(r - 1):
        edges.add(_norm(base + tt, tt))               # x_1..x_{r-1}
    for tt in range(r + 1):
        edges.add(_norm(star_start + tt, r - 1 + tt))  # x_r..x_{2r}

    g = Graph(pos, edges)
    w = list(range(hub_count))
    w += [starts[j] + (r + kk - 2) for j in range(2 * r + 1)]
    w.append(star_start + (r + kk))
    witness: Witness = (tuple(range(hub_count)), (), -2)
    return _assert_generated(
        FamilyInstance(
            name="prop1-odd",
            graph=g,
            w=tuple(sorted(w)),
            witness=witness,
            name_map=names,
            r=r,
            edge_connectivity_value=r - 1,
            edge_connectivity_exact=True,
            star_free=True,
            terminal_mode="distance3",
        )
    )


# -- family 2: even r, edge connectivity r-2 ---------------------------------


@lru_cache(maxsize=None)
def gen_prop1_even(r: int, k: int) -> FamilyInstance:
    """Even r, k >= r (even k required when r % 4 == 0).

    r-2 hubs plus r copies of a circulant block with a short list of
    deleted chords; the r-2 degree-deficient vertices of each copy attach
    to hubs.  For r % 4 == 2 the block has r+k+1 vertices, deleting
    (0,2),(1,3),(4,6),(5,7),...; for r % 4 == 0 it has r+k vertices with
    the extra deletion (r-4, r-2), and the deficient vertices are taken in
    an order that keeps consecutive ones adjacent.  The witness is again
    (hubs, empty): f(S) = r-2 against r odd blocks gives deficiency -2.
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

    hub_count = r - 2
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

    names: dict[str, int] = {f"x_{i + 1}": i for i in range(hub_count)}
    edges: set[tuple[int, int]] = set()
    starts: list[int] = []
    pos = hub_count
    for j in range(1, r + 1):
        starts.append(pos)
        for tt in range(nv):
            names[f"H_{j}:v_{tt}"] = pos + tt
        block = _circulant_block(pos, nv, range(1, r // 2 + 1))
        for a, b in deleted:
            block.discard(_norm(pos + a, pos + b))
        edges |= block
        pos += nv

    def hub(i: int) -> int:
        return (i - 1) % hub_count

    for j in range(1, hub_count + 1):  # shifted attachments, copies 1..r-2
        base = starts[j - 1]
        edges.add(_norm(base + deficient[0], hub(j)))
        edges.add(_norm(base + deficient[1], hub(j)))
        for tt in range(2, r - 2):
            edges.add(_norm(base + deficient[tt], hub(j + tt - 1)))
    for j in (r - 1, r):               # diagonal attachments, last two copies
        base = starts[j - 1]
        for tt in range(r - 2):
            edges.add(_norm(base + deficient[tt], tt))

    g = Graph(pos, edges)
    w = list(range(hub_count)) + [starts[j] + w_idx for j in range(r)]
    witness: Witness = (tuple(range(hub_count)), (), -2)
    return _assert_generated(
        FamilyInstance(
            name="prop1-even",
            graph=g,
            w=tuple(sorted(w)),
            witness=witness,
            name_map=names,
            r=r,
            edge_connectivity_value=r - 2,
            edge_connectivity_exact=True,
            star_free=True,
            terminal_mode="distance3",
        )
    )


# -- family 3: bipartite, parity obstruction ---------------------------------


@lru_cache(maxsize=None)
def gen_prop1_bipartite(r: int, n: int) -> FamilyInstance:
    """r-regular r-edge-connected bipartite circulant with both terminals
    in the same side at distance 4; equal side sizes make any system with
    two path-ends on one side impossible, with no (S, T) witness needed."""
    if r < 4:
        raise ValueError("r must be >= 4")
    if n < 3 * r:
        raise ValueError(f"side size {n} too small for a distance-4 pair")
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
    return _assert_generated(
        FamilyInstance(
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
    )


# -- family 4: r = 4, terminals with two neighbors allowed -------------------


@lru_cache(maxsize=None)
def gen_prop2_r4(n: int) -> FamilyInstance:
    """4-regular 4-edge-connected K_{1,4}-free instance on 10n vertices.

    A cycle x_1 y_1 x_2 y_2 ... x_{3n} y_{3n}; apex pairs a_{2i-1}, a_{2i}
    over A_i = {x_i, x_{i+n}, x_{i+2n}} and b_{2i-1}, b_{2i} over
    B_i = {y_{3i-2}, y_{3i-1}, y_{3i}}.  W = {x_{n+1}..x_{3n}, b_1, b_3};
    S = all x and b, T = all y and a has deficiency -2.
    """
    if n < 6:
        raise ValueError("n must be >= 6")
    m3 = 3 * n

    def x(i: int) -> int:  # 1-based, wraps
        return 2 * ((i - 1) % m3)

    def y(i: int) -> int:
        return 2 * ((i - 1) % m3) + 1

    a_start, b_start = 6 * n, 8 * n

    def a(j: int) -> int:
        return a_start + j - 1

    def b(j: int) -> int:
        return b_start + j - 1

    edges: set[tuple[int, int]] = set()
    for i in range(1, m3 + 1):
        edges.add(_norm(x(i), y(i)))
        edges.add(_norm(y(i), x(i + 1)))
    for i in range(1, n + 1):
        edges.add(_norm(a(2 * i - 1), a(2 * i)))
        edges.add(_norm(b(2 * i - 1), b(2 * i)))
        for xi in (x(i), x(i + n), x(i + 2 * n)):
            edges.add(_norm(a(2 * i - 1), xi))
            edges.add(_norm(a(2 * i), xi))
        for yi in (y(3 * i - 2), y(3 * i - 1), y(3 * i)):
            edges.add(_norm(b(2 * i - 1), yi))
            edges.add(_norm(b(2 * i), yi))
    g = Graph(10 * n, edges)
    w = tuple(sorted([x(i) for i in range(n + 1, m3 + 1)] + [b(1), b(3)]))
    s = tuple(sorted([x(i) for i in range(1, m3 + 1)] + [b(j) for j in range(1, 2 * n + 1)]))
    t = tuple(sorted([y(i) for i in range(1, m3 + 1)] + [a(j) for j in range(1, 2 * n + 1)]))
    names = {f"x_{i}": x(i) for i in range(1, m3 + 1)}
    names.update({f"y_{i}": y(i) for i in range(1, m3 + 1)})
    names.update({f"a_{j}": a(j) for j in range(1, 2 * n + 1)})
    names.update({f"b_{j}": b(j) for j in range(1, 2 * n + 1)})
    return _assert_generated(
        FamilyInstance(
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
    )


# -- families 5 and 6: r >= 6 and r = 5 via glued biregular blocks ------------


def _subdivided_circulant(nv: int, offsets: Sequence[int]) -> list[tuple[int, int]]:
    """Base edges of a circulant on nv vertices, in subdivision order:
    subdivision vertex i sits on base edge i, incident to its endpoints."""
    return sorted(_circulant_block(0, nv, offsets))


def _verify_block(
    block: Graph,
    name: str,
    degrees: dict[int, int],
    essential_k: int | None,
    min_lambda: int | None,
) -> list[str]:
    """Post-verify a building block; raise on definite failure.

    Returns warnings for checks that were undecided at this scale.
    """
    warnings: list[str] = []
    for v in range(block.n):
        want = degrees[v]
        if block.degree(v) != want:
            raise AssertionError(
                f"{name}: vertex {v} has degree {block.degree(v)}, wanted {want}"
            )
    if min_lambda is not None:
        lam, _ = edge_connectivity(block)
        if lam < min_lambda:
            raise AssertionError(f"{name}: edge connectivity {lam} < {min_lambda}")
    if essential_k is not None:
        rep = essential_edge_connectivity_at_least(block, essential_k)
        if rep.holds is False:
            raise AssertionError(f"{name}: not essentially {essential_k}-edge-connected")
        if rep.holds is None:
            warnings.append(f"{name}: essential connectivity undecided ({rep.detail})")
    return warnings


def _glued_family(
    r: int,
    m: int,
    m1_offsets: Sequence[int],
    h2_edges_labels: list[tuple[int, int]],
    h2_x_count: int,
    y_count: int,
    y_perm: list[int],
    b_sets: list[list[int]],
    w_b_labels: tuple[int, int],
    family_name: str,
) -> FamilyInstance:
    """Shared assembly for the r >= 6 and r = 5 constructions.

    ``h2_edges_labels`` lists (x2_index, y_label) incidences of the second
    block; ``y_perm[label]`` maps a Y label to the subdivision vertex of
    the first block glued onto it; ``b_sets`` partition the Y labels.
    """
    n_apex = (r - 2) * m // (r - 1)
    x1_count = 2 * m
    base_edges = _subdivided_circulant(x1_count, m1_offsets)
    if len(base_edges) != y_count:
        raise AssertionError("block sizes disagree with the glue count")

    x2_start = x1_count
    y_start = x2_start + h2_x_count
    a_start = y_start + y_count
    b_start = a_start + 2 * n_apex
    total = b_start + 2 * n_apex

    inv = [0] * y_count  # subdivision vertex -> label
    for label, sub in enumerate(y_perm):
        inv[sub] = label

    edges: set[tuple[int, int]] = set()
    for sub, (u, v) in enumerate(base_edges):  # first block, through the glue
        yv = y_start + inv[sub]
        edges.add(_norm(u, yv))
        edges.add(_norm(v, yv))
    for x2, ylabel in h2_edges_labels:    # second block
        edges.add(_norm(x2_start + x2, y_start + ylabel))

    x1_prime = list(range(2 * n_apex))
    pool = list(range(2 * n_apex, x1_count)) + list(
        range(x2_start, x2_start + h2_x_count)
    )
    if len(pool) != n_apex * (r - 3):
        raise AssertionError("apex pool does not split into r - 3 vertices per apex")
    a_sets = []
    for i in range(n_apex):
        a_sets.append(
            [x1_prime[2 * i], x1_prime[2 * i + 1]]
            + pool[i * (r - 3):(i + 1) * (r - 3)]
        )
    for i in range(n_apex):
        a1, a2 = a_start + 2 * i, a_start + 2 * i + 1
        edges.add(_norm(a1, a2))
        for v in a_sets[i]:
            edges.add(_norm(a1, v))
            edges.add(_norm(a2, v))
    if len(b_sets) != n_apex:
        raise AssertionError("one b-set per apex is required")
    if sorted(v for bs in b_sets for v in bs) != list(range(y_count)):
        raise AssertionError("b-sets must partition the y labels")
    for i in range(n_apex):
        b1, b2 = b_start + 2 * i, b_start + 2 * i + 1
        edges.add(_norm(b1, b2))
        for label in b_sets[i]:
            edges.add(_norm(b1, y_start + label))
            edges.add(_norm(b2, y_start + label))

    g = Graph(total, edges)
    w = tuple(sorted(x1_prime + [b_start + w_b_labels[0], b_start + w_b_labels[1]]))
    s = tuple(
        sorted(
            list(range(x1_count))
            + list(range(x2_start, x2_start + h2_x_count))
            + list(range(b_start, b_start + 2 * n_apex))
        )
    )
    t = tuple(
        sorted(
            list(range(y_start, y_start + y_count))
            + list(range(a_start, a_start + 2 * n_apex))
        )
    )
    names = {f"X1_{i}": i for i in range(x1_count)}
    names.update({f"X2_{i}": x2_start + i for i in range(h2_x_count)})
    names.update({f"Y0_{i}": y_start + i for i in range(y_count)})
    names.update({f"a_{j + 1}": a_start + j for j in range(2 * n_apex)})
    names.update({f"b_{j + 1}": b_start + j for j in range(2 * n_apex)})
    return _assert_generated(
        FamilyInstance(
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
    )


@lru_cache(maxsize=None)
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
    if r % 2 == 0:
        m1_offsets = tuple(range(1, (r - 2) // 2 + 1))
    else:
        m1_offsets = tuple(range(1, (r - 3) // 2 + 1)) + (m,)
    base_edges = _subdivided_circulant(2 * m, m1_offsets)

    # second block: x = (i, s) joined to y = (i + (s+1)t mod m, t)
    h2_x_count = (r - 4) * m
    h2_edges_labels = []
    for s_layer in range(r - 4):
        for i in range(m):
            for t_layer in range(r - 2):
                j = (i + (s_layer + 1) * t_layer) % m
                h2_edges_labels.append((s_layer * m + i, t_layer * m + j))

    # block verification on standalone graphs
    h1_edges = []
    for sub, (u, v) in enumerate(base_edges):
        h1_edges += [(u, 2 * m + sub), (v, 2 * m + sub)]
    h1 = Graph(2 * m + y_count, h1_edges)
    warn = _verify_block(
        h1, "H1",
        {v: (r - 2 if v < 2 * m else 2) for v in range(h1.n)},
        essential_k=3, min_lambda=None,
    )
    h2 = Graph(
        h2_x_count + y_count,
        [(x, h2_x_count + y) for x, y in h2_edges_labels],
    )
    warn += _verify_block(
        h2, "H2",
        {v: (r - 2 if v < h2_x_count else r - 4) for v in range(h2.n)},
        essential_k=r - 3, min_lambda=r - 4,
    )

    # eligible glue labels: subdivision vertices with an endpoint outside X_1'
    x1_prime_bound = 2 * n_apex
    eligible = [
        sub for sub, (u, v) in enumerate(base_edges)
        if u >= x1_prime_bound or v >= x1_prime_bound
    ]
    if len(eligible) < 2 * (r - 1):
        raise AssertionError("not enough eligible glue vertices for B_1, B_2")
    # glue identity: label i <-> subdivision i, except B_1, B_2 labels take
    # eligible subdivision vertices
    special_labels = list(range(2 * (r - 1)))
    y_perm = _permute_labels(y_count, special_labels, eligible[: 2 * (r - 1)])
    b_sets = [special_labels[: r - 1], special_labels[r - 1:]]
    rest = [l for l in range(y_count) if l not in set(special_labels)]
    for i in range(2, n_apex):
        b_sets.append(rest[(i - 2) * (r - 1):(i - 1) * (r - 1)])
    return _glued_family(
        r, m, m1_offsets, h2_edges_labels, h2_x_count, y_count,
        y_perm, b_sets, (0, 2), "prop2-general",
    )


def _permute_labels(
    y_count: int, labels: list[int], subdivisions: list[int]
) -> list[int]:
    """Bijection label -> subdivision vertex sending ``labels[i]`` to
    ``subdivisions[i]`` and everything else in ascending order."""
    if len(set(labels)) != len(labels) or len(set(subdivisions)) != len(subdivisions):
        raise AssertionError("labels and subdivisions must be duplicate-free")
    perm = [-1] * y_count
    taken = set(subdivisions)
    for lab, sub in zip(labels, subdivisions):
        perm[lab] = sub
    free = iter(s for s in range(y_count) if s not in taken)
    for lab in range(y_count):
        if perm[lab] < 0:
            perm[lab] = next(free)
    return perm


@lru_cache(maxsize=None)
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
    n_apex = 3 * m // 4
    y_count = 3 * m
    m1_offsets = (1, m)  # Moebius ladder: cycle plus antipodal rungs
    base_edges = _subdivided_circulant(2 * m, m1_offsets)

    h2_x_count = m
    h2_edges_labels = []
    for j in range(m):            # star centers
        for h in range(3):
            h2_edges_labels.append((j, 3 * j + h))

    h1_edges = []
    for sub, (u, v) in enumerate(base_edges):
        h1_edges += [(u, 2 * m + sub), (v, 2 * m + sub)]
    h1 = Graph(2 * m + y_count, h1_edges)
    _verify_block(
        h1, "H1",
        {v: (3 if v < 2 * m else 2) for v in range(h1.n)},
        essential_k=3, min_lambda=None,
    )

    def label(j: int, h: int) -> int:  # 1-based star j, leaf h
        return 3 * ((j - 1) % m) + (h - 1)

    b_sets: list[list[int]] = []
    for i in range(1, n_apex + 1):
        h = (i - 1) % 3 + 1
        p = (i - h) // 3
        b_sets.append([label(4 * p + h + d, h) for d in range(4)])

    x1_prime_bound = 2 * n_apex
    eligible = [
        sub for sub, (u, v) in enumerate(base_edges)
        if u >= x1_prime_bound or v >= x1_prime_bound
    ]
    # B_1, B_4 (distinct stars by the label scheme) and B_2 (apexed by the
    # terminal b_4) all glue onto eligible subdivision vertices
    special_labels = b_sets[0] + b_sets[3] + b_sets[1]
    if len(eligible) < len(special_labels):
        raise AssertionError("not enough eligible glue vertices")
    y_perm = _permute_labels(y_count, special_labels, eligible[: len(special_labels)])
    return _glued_family(
        r, m, m1_offsets, h2_edges_labels, h2_x_count, y_count,
        y_perm, b_sets, (0, 3), "prop2-r5",
    )


# -- random valid instances ---------------------------------------------------


def _random_cubic(rng: random.Random, h: int) -> Graph | None:
    """Connected cubic graph on h vertices: random cycle plus matching."""
    order = list(range(h))
    rng.shuffle(order)
    cycle = {_norm(order[i], order[(i + 1) % h]) for i in range(h)}
    for _ in range(50):
        pair = list(range(h))
        rng.shuffle(pair)
        matching = {
            _norm(pair[2 * i], pair[2 * i + 1]) for i in range(h // 2)
        }
        if matching & cycle:
            continue
        return Graph(h, cycle | matching)
    return None


def _line_graph(g: Graph) -> Graph:
    idx = {e: i for i, e in enumerate(g.edges)}
    edges = set()
    for v in range(g.n):
        inc = [idx[_norm(v, u)] for u in g.neighbors(v)]
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                edges.add(_norm(inc[i], inc[j]))
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
    rng = random.Random((r, size, seed).__hash__())
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
            g = Graph(nv, _circulant_block(0, nv, offsets))
        if check_regular(g, r).holds is not True:
            continue
        if find_induced_star(g, r) is not None:
            continue
        lam, _ = edge_connectivity(g)
        if lam < r:
            continue
        w = _greedy_terminals(g, cap=max(2, g.n // 8 * 2))
        if check_terminal_set(g, w, "nbhd1").holds is not True:
            continue
        return FamilyInstance(
            name="random",
            graph=g,
            w=w,
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

    if inst.terminal_mode in ("distance3", "nbhd1"):
        reports.append(check_terminal_set(g, inst.w, inst.terminal_mode))
    else:  # nbhd2: at most two terminal neighbors, met with equality somewhere
        wset = set(inst.w)
        counts = [sum(1 for x in g.neighbors(v) if x in wset) for v in range(g.n)]
        top = max(counts, default=0)
        reports.append(
            PropertyReport(
                "terminals-nbhd2", top == 2,
                witness=(counts.index(top), top) if counts else None,
                detail=f"max |N(v) n W| = {top}, claimed exactly 2 at the maximum",
            )
        )

    if inst.witness is not None:
        s, t, expected = inst.witness
        f = degree_spec_from_terminals(g, inst.w)
        cert = evaluate_pair(g, f, s, t)
        reports.append(
            PropertyReport(
                "witness-deficiency", cert.delta == expected,
                witness=cert.delta, detail=f"expected {expected}",
            )
        )
    return reports


def write_instance(inst: FamilyInstance, prefix: str | Path) -> list[Path]:
    """Emit <prefix>.graph/.terminals/.names and, when present, .witness."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    written = []
    gpath = prefix.with_suffix(".graph")
    gpath.write_text(
        serialize_graph(inst.graph, comments=(f"family {inst.name}",) + inst.claims)
    )
    written.append(gpath)
    tpath = prefix.with_suffix(".terminals")
    tpath.write_text(serialize_terminals(inst.w))
    written.append(tpath)
    npath = prefix.with_suffix(".names")
    lines = [f"c {label} {idx}" for label, idx in sorted(
        inst.name_map.items(), key=lambda kv: kv[1]
    )]
    npath.write_text("\n".join(lines) + "\n" if lines else "")
    written.append(npath)
    if inst.witness is not None:
        s, t, expected = inst.witness
        f = degree_spec_from_terminals(inst.graph, inst.w)
        cert = evaluate_pair(inst.graph, f, s, t)
        if cert.delta != expected:
            raise AssertionError("witness deficiency changed between build and write")
        wpath = prefix.with_suffix(".witness")
        wpath.write_text(format_certificate(cert))
        written.append(wpath)
    return written
