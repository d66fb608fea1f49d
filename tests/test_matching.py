import itertools
import random

from pathcycle.graphs import Graph
from pathcycle.matching import maximum_matching_mates

from .conftest import (
    brute_max_matching_size,
    complete_graph,
    counterexample_gadgets,
    cycle_graph,
    petersen_graph,
    random_graph,
    reference_matching_mates,
)


def _matching(g: Graph) -> list[tuple[int, int]]:
    """The matcher's pairs on g, each as (u, v) with u < v, after checking
    that its mate array is symmetric and matches along edges of g."""
    mate = maximum_matching_mates(g.n, g._adj)
    assert len(mate) == g.n
    assert all(v < 0 or mate[v] == u for u, v in enumerate(mate))
    pairs = [(u, v) for u, v in enumerate(mate) if u < v]
    assert all(g.has_edge(u, v) for u, v in pairs), pairs
    return pairs


def test_even_cycle_is_perfectly_matched():
    assert len(_matching(cycle_graph(4))) == 2  # perfect on 4 vertices


def test_odd_cycle_misses_one():
    assert len(_matching(cycle_graph(5))) == 2


def test_petersen_has_perfect_matching():
    g = petersen_graph()
    assert len(_matching(g)) == 5 == brute_max_matching_size(g)


def test_empty_and_tiny_graphs():
    assert len(_matching(Graph(0))) == 0
    assert len(_matching(Graph(1))) == 0
    assert len(_matching(Graph(2, [(0, 1)]))) == 1


def test_matching_edges_are_disjoint_graph_edges():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randrange(3, 12)
        edges = [
            e for e in itertools.combinations(range(n), 2) if rng.random() < 0.35
        ]
        g = Graph(n, edges)
        seen = set()
        for u, v in _matching(g):
            assert g.has_edge(u, v)
            assert u not in seen and v not in seen
            seen.update((u, v))


def test_matches_brute_force_up_to_12_vertices():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(2, 13)
        edges = [
            e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3
        ]
        g = Graph(n, edges)
        assert len(_matching(g)) == brute_max_matching_size(g)


def test_blossom_heavy_graphs():
    # odd cycles glued at a vertex force repeated contractions
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
    g = Graph(6, edges)
    assert len(_matching(g)) == brute_max_matching_size(g)
    g2 = complete_graph(7)
    assert len(_matching(g2)) == 3


def test_deterministic():
    g = petersen_graph()
    assert maximum_matching_mates(g.n, g._adj) == maximum_matching_mates(g.n, g._adj)


def test_mates_equal_the_reference_on_random_graphs():
    # sparse graphs leave many exposed roots, so many searches fail and
    # their dead trees are skipped by every later search
    rng = random.Random(41)
    for _ in range(3000):
        g = random_graph(rng, rng.randrange(0, 41), rng.choice((0.03, 0.06, 0.1, 0.2, 0.4)))
        assert maximum_matching_mates(g.n, g._adj) == reference_matching_mates(g.n, g._adj), (
            g.n, g.edges,
        )


def test_mates_equal_the_reference_on_counterexample_gadgets():
    for label, n, adj in counterexample_gadgets():
        mates = maximum_matching_mates(n, adj)
        assert mates == reference_matching_mates(n, adj), label
        assert mates.count(-1) == 2, label  # each leaves two vertices exposed
