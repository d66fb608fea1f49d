import itertools
import random

from pathcycle.graphs import Graph
from pathcycle.matching import _maximum_matching_mates, maximum_matching

from .conftest import (
    brute_max_matching_size,
    complete_graph,
    counterexample_gadgets,
    cycle_graph,
    petersen_graph,
    random_graph,
    reference_matching_mates,
)


def test_even_cycle_is_perfectly_matched():
    m = maximum_matching(cycle_graph(4))
    assert m.size == 2 and m.is_perfect(cycle_graph(4))


def test_odd_cycle_misses_one():
    assert maximum_matching(cycle_graph(5)).size == 2


def test_petersen_has_perfect_matching():
    g = petersen_graph()
    m = maximum_matching(g)
    assert m.size == 5 == brute_max_matching_size(g)


def test_empty_and_tiny_graphs():
    assert maximum_matching(Graph(0)).size == 0
    assert maximum_matching(Graph(1)).size == 0
    assert maximum_matching(Graph(2, [(0, 1)])).size == 1


def test_matching_edges_are_disjoint_graph_edges():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randrange(3, 12)
        edges = [
            e for e in itertools.combinations(range(n), 2) if rng.random() < 0.35
        ]
        g = Graph(n, edges)
        m = maximum_matching(g)
        seen = set()
        for u, v in m.pairs:
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
        assert maximum_matching(g).size == brute_max_matching_size(g)


def test_blossom_heavy_graphs():
    # odd cycles glued at a vertex force repeated contractions
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
    g = Graph(6, edges)
    assert maximum_matching(g).size == brute_max_matching_size(g)
    g2 = complete_graph(7)
    assert maximum_matching(g2).size == 3


def test_deterministic():
    g = petersen_graph()
    assert maximum_matching(g).pairs == maximum_matching(g).pairs


def test_mates_equal_the_reference_on_random_graphs():
    # sparse graphs leave many exposed roots, so many searches fail and
    # their dead trees are skipped by every later search
    rng = random.Random(41)
    for _ in range(3000):
        g = random_graph(rng, rng.randrange(0, 41), rng.choice((0.03, 0.06, 0.1, 0.2, 0.4)))
        assert _maximum_matching_mates(g.n, g._adj) == reference_matching_mates(g.n, g._adj), (
            g.n, g.edges,
        )


def test_mates_equal_the_reference_on_counterexample_gadgets():
    for label, gadget in counterexample_gadgets():
        mates = _maximum_matching_mates(gadget.n, gadget._adj)
        assert mates == reference_matching_mates(gadget.n, gadget._adj), label
        assert mates.count(-1) == 2, label  # each leaves two vertices exposed
