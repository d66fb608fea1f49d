import hashlib
import itertools
import random
import time
import tracemalloc

import pytest

from pathcycle import families, verify
from pathcycle.graphs import Graph
from pathcycle.verify import (
    check_regular,
    check_terminal_set,
    edge_connectivity,
    find_induced_star,
)

from .conftest import (
    COUNTEREXAMPLE_LADDER,
    complete_graph,
    components,
    cycle_graph,
    naive_distance3_violation,
    naive_nbhd1_violation,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_graph,
    reference_edge_connectivity,
    star_graph,
)


# -- regularity ----------------------------------------------------------------


def test_regular_cycle():
    assert check_regular(cycle_graph(5), 2).holds


def test_regular_path_fails_at_endpoint():
    rep = check_regular(path_graph(3), 2)
    assert rep.holds is False
    vertex, deg = rep.witness
    assert deg == 1 and path_graph(3).degree(vertex) == 1


# -- edge connectivity -----------------------------------------------------------


def test_edge_connectivity_examples():
    assert edge_connectivity(cycle_graph(6))[0] == 2
    assert edge_connectivity(complete_graph(4))[0] == 3


def test_edge_connectivity_disconnected_is_zero():
    g = Graph(4, [(0, 1), (2, 3)])
    assert edge_connectivity(g)[0] == 0


def test_edge_connectivity_cut_witness_disconnects():
    rng = random.Random(3)
    for _ in range(15):
        g = random_connected_graph(rng, 8, 0.3)
        lam, cut = edge_connectivity(g)
        assert lam <= min(g.degree(v) for v in range(g.n))
        assert len(cut) == lam
        kept = [e for e in g.edges if e not in set(cut)]
        assert len(components(Graph(g.n, kept))) >= 2


def _assert_minimum_cut(g, lam, cut):
    assert len(cut) == lam and set(cut) <= set(g.edges)
    if g.n >= 2:
        kept = [e for e in g.edges if e not in set(cut)]
        assert len(components(Graph(g.n, kept))) >= 2


def test_edge_connectivity_equals_the_reference_on_family_instances():
    points = [(getattr(families, gen), params) for gen, params in COUNTEREXAMPLE_LADDER] + [
        (families.gen_prop1_odd, (7, 8)),
        (families.gen_prop1_even, (6, 7)),
        (families.gen_prop1_bipartite, (4, 12)),
        (families.gen_prop1_bipartite, (5, 16)),
        (families.gen_prop2_r4, (9,)),
        (families.random_valid_instance, (4, 60, 1)),
        (families.random_valid_instance, (6, 40, 2)),
    ]
    for gen, params in points:
        g = gen(*params).graph
        lam, cut = edge_connectivity(g)
        assert lam == reference_edge_connectivity(g)[0], (gen.__name__, params)
        _assert_minimum_cut(g, lam, cut)


def test_edge_connectivity_equals_the_reference_on_random_graphs():
    rng = random.Random(17)
    for i in range(300):
        g = random_graph(rng, rng.randrange(0, 25), rng.choice((0.08, 0.15, 0.3, 0.6, 0.9)))
        if i % 3 == 0:  # isolated vertices, at either end of the index order
            shift = rng.randrange(3)
            extra = shift + rng.randrange(3)
            g = Graph(g.n + extra, [(u + shift, v + shift) for u, v in g.edges])
        lam, cut = edge_connectivity(g)
        assert lam == reference_edge_connectivity(g)[0], (g.n, g.edges)
        _assert_minimum_cut(g, lam, cut)


def test_edge_connectivity_witness_may_be_a_vertex_star():
    # K4 plus a pendant path: delta = 1 is attained by vertex 5's star
    g = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    assert edge_connectivity(g) == (1, ((4, 5),))
    assert edge_connectivity(complete_graph(5)) == (4, ((0, 1), (0, 2), (0, 3), (0, 4)))


def test_edge_connectivity_cut_is_the_least_shore_of_the_first_separated_d():
    # two K6 joined through w = 6; the 3-cuts at w's two sides are nested
    # around d_1 = 7, and the flow from 7 into {0} keeps 7's least shore
    k6 = lambda a: list(itertools.combinations(range(a, a + 6), 2))
    g = Graph(13, k6(0) + k6(7) + [(0, 6), (1, 6), (2, 6), (6, 7), (6, 8), (6, 9)])
    lam, cut = edge_connectivity(g)
    assert (lam, cut) == (3, ((6, 7), (6, 8), (6, 9)))
    _assert_minimum_cut(g, lam, cut)


#: SHA-256 of lambda and its minimum cut on the counterexample ladder and
#: 300 random graphs: every cut witness must stay the same
CONNECTIVITY_WITNESSES_SHA256 = "6227a5c31a7866f8c7b2b5661f376abde7ef901356c74ac97f3d700c93cbf4e8"


def test_connectivity_witnesses_are_pinned():
    digest = hashlib.sha256()
    for gen, params in COUNTEREXAMPLE_LADDER:
        digest.update(repr(edge_connectivity(getattr(families, gen)(*params).graph)).encode())
    rng = random.Random(12)
    for i in range(300):
        g = random_graph(rng, rng.randrange(0, 25), rng.choice((0.08, 0.15, 0.25, 0.4)))
        if i % 3 == 0:  # isolated vertices, at either end of the index order
            shift = rng.randrange(3)
            extra = shift + rng.randrange(3)
            g = Graph(g.n + extra, [(u + shift, v + shift) for u, v in g.edges])
        digest.update(repr(edge_connectivity(g)).encode())
    assert digest.hexdigest() == CONNECTIVITY_WITNESSES_SHA256


@pytest.mark.parametrize(
    "gen, params, bound",
    # the n - 1 loop ran 237 and 139 flows on these
    [("gen_prop1_even", (10, 12), 40), ("gen_prop2_r4", (14,), 60)],
)
def test_edge_connectivity_flow_count_stays_bounded(monkeypatch, gen, params, bound):
    calls = 0
    real = verify._max_flow_unit

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    g = getattr(families, gen)(*params).graph
    monkeypatch.setattr(verify, "_max_flow_unit", counting)
    edge_connectivity(g)
    assert 0 < calls <= bound


def test_edge_connectivity_stays_local_at_scale():
    # each flow from d_i meets an earlier dominating vertex a few hops away;
    # pairwise flows from d_0 took seconds at n = 6000
    n = 20_000
    ring = Graph(n, {tuple(sorted((v, (v + k) % n))) for v in range(n) for k in (1, 2, 3)})
    assert edge_connectivity(ring) == (6, ((0, 1), (0, 2), (0, 3), (0, n - 3), (0, n - 2), (0, n - 1)))
    rng = random.Random(41)
    base = None
    while base is None:
        base = families._random_cubic(rng, 4000)
    g = families._line_graph(base)
    assert g.n == 6000
    lam, cut = edge_connectivity(g)
    assert lam == 4
    _assert_minimum_cut(g, lam, cut)


def _cut_size(g, side):
    return sum(1 for u, v in g.edges if (u in side) != (v in side))


def _assert_flow_is_a_minimum_cut(g, sources, sinks, limit):
    """The capped flow's value is min(limit, min |delta(X)| over A <= X <=
    V - B), by brute force; below the limit its side is the intersection of
    all such X with exactly that many cut edges, so it does not depend on
    the augmenting order.  Returns whether it stopped below."""
    free = [v for v in range(g.n) if v not in sources and v not in sinks]
    shores = [
        set(sources) | set(extra)
        for r in range(len(free) + 1)
        for extra in itertools.combinations(free, r)
    ]
    least = min(_cut_size(g, x) for x in shores)
    parent = [-1] * g.n
    value, side = verify._max_flow_unit(g, sources, sinks, limit, parent)
    case = (g.n, g.edges, sources, sinks, limit)
    assert parent == [-1] * g.n, case  # every search, the last one too, resets its parents
    assert value == min(limit, least), case
    if value == limit:
        assert side is None, case
        return False
    assert side == set.intersection(*(x for x in shores if _cut_size(g, x) == least)), case
    assert _cut_size(g, side) == value, case
    return True


def test_max_flow_unit_equals_a_brute_force_minimum_cut():
    # the third augmenting path cancels the unit the second sent over 4 - 3,
    # and the cut's source side is found only by crossing 3 -> 4 again:
    # random graphs this small almost never reuse a cancelled edge
    g = Graph(8, [(0, 1), (0, 3), (0, 6), (1, 4), (1, 5), (1, 7), (2, 3), (2, 7),
                  (3, 4), (3, 5), (4, 6), (5, 7)])
    assert _assert_flow_is_a_minimum_cut(g, (1,), (0,), 5)
    rng = random.Random(29)
    below = 0
    for _ in range(400):
        n = rng.randrange(2, 9)
        g = random_graph(rng, n, rng.choice((0.2, 0.4, 0.7)))
        a = rng.randrange(1, min(2, n - 1) + 1)
        b = rng.randrange(1, min(2, n - a) + 1)
        picked = rng.sample(range(n), a + b)
        limit = rng.randrange(1, 6)
        below += _assert_flow_is_a_minimum_cut(g, tuple(picked[:a]), tuple(picked[a:]), limit)
    assert 100 < below < 300


def test_max_flow_unit_takes_any_sink_container():
    # edge_connectivity grows a set of sinks; the tests pass tuples
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randrange(2, 12)
        g = random_graph(rng, n, rng.choice((0.2, 0.4, 0.7)))
        source, *sinks = rng.sample(range(n), rng.randrange(2, n + 1))
        limit = rng.randrange(1, 7)
        parent = [-1] * n
        want = verify._max_flow_unit(g, (source,), tuple(sinks), limit, parent)
        assert verify._max_flow_unit(g, (source,), set(sinks), limit, parent) == want


# -- induced stars ----------------------------------------------------------------


def test_star_k4_has_no_two_independent_neighbors():
    assert find_induced_star(complete_graph(4), 2) is None


def test_star_detects_claw_center():
    center, leaves = find_induced_star(star_graph(3), 3)
    assert center == 0 and leaves == (1, 2, 3)


def test_petersen_has_claw():
    g = petersen_graph()
    found = find_induced_star(g, 3)
    assert found is not None
    center, leaves = found
    for leaf in leaves:
        assert g.has_edge(center, leaf)
    for a, b in itertools.combinations(leaves, 2):
        assert not g.has_edge(a, b)


def test_star_witness_is_independent_on_random_graphs():
    rng = random.Random(23)
    for _ in range(20):
        g = random_connected_graph(rng, 8, 0.4)
        for m in (2, 3, 4):
            found = find_induced_star(g, m)
            if found is None:
                continue
            center, leaves = found
            assert len(leaves) == m
            assert all(g.has_edge(center, x) for x in leaves)
            assert all(
                not g.has_edge(a, b) for a, b in itertools.combinations(leaves, 2)
            )


def test_star_is_the_first_independent_combination():
    # oracle: the first centre with an independent m-subset of its
    # neighbours, and its first such subset in combinations order
    rng = random.Random(61)
    outcomes = set()
    for _ in range(300):
        g = random_graph(rng, rng.randrange(0, 11), rng.uniform(0.1, 0.7))
        m = rng.randrange(1, 5)
        want = next(
            (
                (c, leaves)
                for c in range(g.n)
                for leaves in itertools.combinations(g.neighbors(c), m)
                if not any(g.has_edge(a, b) for a, b in itertools.combinations(leaves, 2))
            ),
            None,
        )
        assert find_induced_star(g, m) == want, (g.edges, m)
        outcomes.add(want is None)
    assert outcomes == {True, False}


def test_star_search_is_not_bounded_by_recursion_depth():
    leaves = 3000
    assert find_induced_star(star_graph(leaves), leaves) == (0, tuple(range(1, leaves + 1)))


#: computed with the search over whole-graph adjacency bitmasks, before it
#: kept only sets within the centre's neighbourhood: every witness must stay
#: the same
STAR_WITNESSES_SHA256 = "9ed96d5bc01d1835592da5e67be7a3da9e7f682f5e10ac3263e5993dd55f601b"


def test_star_witnesses_are_pinned():
    digest = hashlib.sha256()
    for gen, params in COUNTEREXAMPLE_LADDER + [("gen_prop1_bipartite", (4, 12))]:
        inst = getattr(families, gen)(*params)
        digest.update(repr(find_induced_star(inst.graph, inst.r)).encode())
    rng = random.Random(29)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(0, 15), rng.uniform(0.1, 0.7))
        digest.update(repr(find_induced_star(g, rng.randrange(1, 7))).encode())
    assert digest.hexdigest() == STAR_WITNESSES_SHA256


def test_star_search_takes_linear_memory():
    n = 40_000  # whole-graph bitmasks peaked at 103 MB here
    g = Graph(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])
    started = time.perf_counter()
    tracemalloc.start()
    try:
        found = find_induced_star(g, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found is None
    assert peak < 2 * 2**20, peak
    assert time.perf_counter() - started < 1.0


# -- terminal sets -----------------------------------------------------------------


def test_terminals_distance3_holds_on_c7():
    assert check_terminal_set(cycle_graph(7), [0, 3], "distance3").holds


def test_terminals_distance2_fails_both_modes():
    g = cycle_graph(7)
    rep = check_terminal_set(g, [0, 2], "distance3")
    assert rep.holds is False
    a, b, d = rep.witness
    assert d == 2
    rep2 = check_terminal_set(g, [0, 2], "nbhd1")
    assert rep2.holds is False
    assert rep2.witness[0] == 1  # the middle vertex sees both terminals


def test_terminals_empty_holds_both_modes():
    g = cycle_graph(5)
    assert check_terminal_set(g, [], "distance3").holds
    assert check_terminal_set(g, [], "nbhd1").holds


def test_terminals_odd_size_fails():
    assert check_terminal_set(cycle_graph(7), [0], "distance3").holds is False


def test_terminals_outside_graph():
    with pytest.raises(ValueError):
        check_terminal_set(cycle_graph(4), [9], "nbhd1")


def test_distance3_implies_nbhd1():
    rng = random.Random(31)
    hits = 0
    while hits < 25:
        g = random_connected_graph(rng, 9, 0.25)
        size = rng.choice([2, 4])
        w = tuple(sorted(rng.sample(range(g.n), size)))
        if check_terminal_set(g, w, "distance3").holds:
            hits += 1
            assert check_terminal_set(g, w, "nbhd1").holds


def test_nbhd1_witness_matches_full_scan():
    # the scan walks only N(W); it must still name the least violating vertex
    rng = random.Random(53)
    outcomes = set()
    for i in range(300):
        n = rng.randrange(0, 16)
        g = random_graph(rng, n, rng.uniform(0.1, 0.6))
        w = tuple(rng.sample(range(n), 2 * rng.randrange(n // 2 + 1)))
        want = naive_nbhd1_violation(g, w)
        rep = check_terminal_set(g, w, "nbhd1")
        assert rep.holds is (want is None), (g.edges, w)
        assert rep.witness == want, (g.edges, w)
        outcomes.add(want is None)
    assert outcomes == {True, False}


def test_terminal_modes_match_naive_scans():
    # distance3 against all-pairs distances; nbhd1 against a scan of every
    # vertex with a neighbour limit of one
    rng = random.Random(67)
    outcomes = {mode: set() for mode in ("distance3", "nbhd1")}
    for _ in range(400):
        n = rng.randrange(0, 16)
        g = random_graph(rng, n, rng.uniform(0.05, 0.5))
        k = rng.randrange(n + 1)
        w = rng.sample(range(n), k if rng.random() < 0.1 else k - k % 2)
        for mode, limit in (("nbhd1", 1), ("distance3", None)):
            rep = check_terminal_set(g, w, mode)
            if len(w) % 2:
                want, detail = len(w), "terminal set has odd size"
            elif limit is None:
                want = naive_distance3_violation(g, w)
                detail = (
                    "implies nbhd1: confirmed" if want is None
                    else f"terminals {want[0]} and {want[1]} are at distance {want[2]}"
                )
            else:
                want = naive_nbhd1_violation(g, w, limit)
                detail = "" if want is None else f"vertex {want[0]} has neighbors {list(want[1])} in W"
            holds = want is None and len(w) % 2 == 0
            assert (rep.holds, rep.witness, rep.detail) == (holds, want, detail), (g.edges, w, mode)
            outcomes[mode].add(holds)
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


def test_terminal_load_matches_naive_scan():
    # the Prop. 2 claim: the largest |N(v) n W| is exactly 2, witnessed by
    # the least v at the maximum with its count
    rng = random.Random(71)
    outcomes = set()
    for _ in range(400):
        n = rng.randrange(0, 16)
        g = random_graph(rng, n, rng.uniform(0.05, 0.5))
        w = rng.sample(range(n), rng.randrange(n + 1))
        wset = set(w)
        loads = [sum(u in wset for u in g.neighbors(v)) for v in range(n)]
        top = max(loads, default=0)
        rep = verify._terminal_load(g, w)
        assert rep.holds is (top == 2), (g.edges, w)
        assert rep.witness == ((loads.index(top), top) if n else None), (g.edges, w)
        assert rep.detail == f"max |N(v) n W| = {top}, claimed exactly 2 at the maximum"
        outcomes.add(min(top, 3))
    assert outcomes == {0, 1, 2, 3}, outcomes
