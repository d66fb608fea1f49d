import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcycle.cli import _parse_list
from pathcycle.errors import GraphFormatError
from pathcycle.graphs import (
    INFINITY,
    MAX_PARSE_EDGES,
    MAX_PARSE_VERTICES,
    Graph,
    distance,
    parse_graph,
    parse_terminals,
    serialize_graph,
    serialize_terminals,
)
from pathcycle.tutte import parse_certificate

from .conftest import cycle_graph, random_connected_graph

import random
import tracemalloc


# -- construction invariants --------------------------------------------------


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(1, 1)])


def test_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0)])


def test_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        Graph(2, [(0, 2)])


def test_degree_sum_is_twice_edge_count():
    g = cycle_graph(7)
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count


def test_adjacency_symmetry():
    rng = random.Random(4)
    graphs = [Graph(4, [(0, 1), (1, 2), (0, 3)])]
    for _ in range(50):
        n = rng.randrange(1, 12)
        edges = [(u, v) if rng.random() < 0.5 else (v, u)
                 for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        rng.shuffle(edges)
        graphs.append(Graph(n, edges))
    for g in graphs:
        for u in range(g.n):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)
            # neighbour lists are sorted, whatever order the edges came in
            assert list(g.neighbors(u)) == sorted(a + b - u for a, b in g.edges if u in (a, b))


# -- parsing -------------------------------------------------------------------


def test_parse_single_vertex():
    g = parse_graph("p 1 0\n")
    assert g.n == 1 and g.edge_count == 0


def test_parse_triangle():
    g = parse_graph("p 3 3\ne 0 1\ne 1 2\ne 0 2\n")
    assert g == Graph(3, [(0, 1), (1, 2), (0, 2)])


def test_parse_edges_out_of_order():
    # the parser keeps the edges in file order; the graph must not
    edges = [(3, 4), (0, 4), (1, 2), (0, 1), (2, 4), (0, 3)]
    g = parse_graph("p 5 6\n" + "".join(f"e {u} {v}\n" for u, v in edges))
    checked = Graph(5, edges)
    assert g == checked and g.edges == tuple(sorted(edges))
    assert all(g.neighbors(v) == checked.neighbors(v) for v in range(5))


def test_parse_duplicate_edge_names_line():
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_graph("p 3 2\ne 0 1\ne 0 1\n")


def test_parse_rejects_self_loop():
    with pytest.raises(GraphFormatError, match="self-loop"):
        parse_graph("p 3 1\ne 2 2\n")


def test_parse_rejects_big_index():
    with pytest.raises(GraphFormatError, match="out of range"):
        parse_graph("p 3 1\ne 0 3\n")


def test_parse_requires_sorted_endpoints():
    with pytest.raises(GraphFormatError, match="u < v"):
        parse_graph("p 3 1\ne 2 0\n")


def test_parse_edge_count_mismatch():
    with pytest.raises(GraphFormatError, match="promises"):
        parse_graph("p 3 2\ne 0 1\n")
    # an edge beyond the count fails at its own line, before it is stored
    with pytest.raises(GraphFormatError, match=r"^line 4: header promises 2 edges, found more$"):
        parse_graph("p 3 2\ne 0 1\ne 1 2\ne 0 2\ne 5 6\n")


def test_parse_missing_header():
    with pytest.raises(GraphFormatError, match="header"):
        parse_graph("e 0 1\n")


def test_parse_rejects_vertex_count_above_cap():
    with pytest.raises(GraphFormatError, match="exceeds the limit"):
        parse_graph(f"p {MAX_PARSE_VERTICES + 1} 0\n")
    with pytest.raises(GraphFormatError, match="exceeds the limit"):
        parse_graph("p 1000000000 0\n")


def test_parse_refuses_a_header_over_the_limit_before_splitting_lines():
    # 12 MB of edges under a header over the edge limit: splitting them into
    # lines first peaked at 131 MB
    data = f"p 10 {MAX_PARSE_EDGES + 1}\n".encode() + b"e 0 1\n" * 2_000_000
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError, match=r"^line 1: \d+ edges exceeds the limit"):
            parse_graph(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(data), peak


def test_parse_names_the_header_line_as_splitlines_numbers_it():
    # the header is found before the text is split, with its line counted
    # across every break that str.splitlines knows
    rng = random.Random(7)
    for _ in range(200):
        lead = "".join(rng.choice(["\n", "\r", "\r\n", "\x0c", "\x0b", "\x1c", "c x\n", " \t\n"])
                       for _ in range(rng.randrange(6)))
        text = lead + "p 3\ne 0 1\n"
        lineno = next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith("p"))
        with pytest.raises(GraphFormatError, match=rf"^line {lineno}: header must be"):
            parse_graph(text)


def test_parse_rejects_non_ascii_bytes():
    # as str too: int() would read the fullwidth digit as 2
    for parse in (parse_graph, parse_terminals, parse_certificate):
        with pytest.raises(GraphFormatError, match="byte 0xff at offset 0 is not ASCII"):
            parse(b"\xff")
        with pytest.raises(GraphFormatError, match="U\\+FF12 at offset 16 is not ASCII"):
            parse("p 3 2\ne 0 1\ne 1 \uff12\n")


def test_parse_skips_comments():
    g = parse_graph("c a comment\np 2 1\nc another\ne 0 1\n")
    assert g.edge_count == 1


def test_comment_rule_is_the_same_in_every_parser():
    # a line whose first whitespace-separated field is c is a comment
    for comment in ("c", "c\tnote", "  c  note", "c  "):
        assert parse_graph(f"{comment}\np 2 1\n{comment}\ne 0 1\n") == Graph(2, [(0, 1)])
        cert = parse_certificate(f"{comment}\nS:\nT: 1 3\n{comment}\ndelta: -2\nodd: 0\n")
        assert (cert.s, cert.t, cert.delta) == ((), (1, 3), -2)
    for line, match in (("cc 1", "unknown line type 'cc'"), ("c:1", "unknown line type 'c:1'")):
        with pytest.raises(GraphFormatError, match=match):
            parse_graph(f"{line}\np 1 0\n")


def test_parsers_take_plain_decimal_digits_only():
    # int() also reads "+1" and "1_0", so two files would parse to one graph
    for text in ("p 1_1 1\ne +0 1_0\n", "p +2 1\ne 0 1\n", "p 2 1\ne 0 +1\n", "p 2 1\ne 0_0 1\n"):
        with pytest.raises(GraphFormatError, match="non-integer"):
            parse_graph(text)
    for text in (" +1 0_2 ", "1_0", "+3"):
        with pytest.raises(GraphFormatError, match="non-integer terminal index"):
            parse_terminals(text)
    # a negative value keeps its own message
    with pytest.raises(GraphFormatError, match="negative count in header"):
        parse_graph("p -1 0\n")
    with pytest.raises(GraphFormatError, match="out of range"):
        parse_graph("p 3 1\ne -1 2\n")
    with pytest.raises(GraphFormatError, match="outside"):
        parse_terminals("-1 2", cycle_graph(4))


def test_parsers_take_canonical_integers_only():
    # int() also reads "05" and "-0", so two files would parse to one graph
    for text in ("p 05 5\n", "p 2 01\ne 0 1\n", "p 2 1\ne 00 1\n", "p 2 1\ne -0 1\n",
                 "p -05 0\n"):
        with pytest.raises(GraphFormatError, match="non-integer"):
            parse_graph(text)
    for text in ("00", "01 3", "-0", "-05"):
        with pytest.raises(GraphFormatError, match="non-integer terminal index"):
            parse_terminals(text)
    for text in ("S: 05\nT:\ndelta: 0\nodd: 0\n", "S:\nT: 1 03\ndelta: 0\nodd: 0\n",
                 "S:\nT:\ndelta: -0\nodd: 0\n", "S:\nT:\ndelta: 0\nodd: 00\n"):
        with pytest.raises(GraphFormatError, match="malformed witness line"):
            parse_certificate(text)
    for text in ("05", "1,00", "-0", "2, -05"):
        with pytest.raises(ValueError, match="--s"):
            _parse_list("--s", text)
    # zero itself, and numbers that merely contain or end in zeros, still read
    assert parse_graph("p 11 1\ne 0 10\n") == Graph(11, [(0, 10)])
    assert parse_graph("p 0 0\n") == Graph(0)
    assert parse_terminals("0 10 100") == (0, 10, 100)
    assert parse_certificate("S: 0\nT: 10\ndelta: -10\nodd: 0\n").delta == -10
    assert _parse_list("--t", "0, 20") == (0, 20)


def test_serialize_canonical_order():
    g = Graph(3, [(1, 2), (0, 2), (0, 1)])
    assert serialize_graph(g) == "p 3 3\ne 0 1\ne 0 2\ne 1 2\n"


def test_serialize_single_vertex():
    assert serialize_graph(Graph(1)) == "p 1 0\n"


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True) if possible else st.just([]))
    return Graph(n, edges)


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_roundtrip_identity(g):
    assert parse_graph(serialize_graph(g)) == g


# -- terminal files ------------------------------------------------------------


def test_terminals_roundtrip():
    g = cycle_graph(6)
    w = (0, 3)
    assert parse_terminals(serialize_terminals(w), g) == w


def test_terminals_empty():
    assert parse_terminals("\n") == ()
    assert parse_terminals("") == ()


def test_terminals_duplicate():
    with pytest.raises(GraphFormatError, match="duplicate"):
        parse_terminals("1 1")


def test_terminals_out_of_range():
    with pytest.raises(GraphFormatError, match="outside"):
        parse_terminals("7", cycle_graph(6))


# -- distance -------------------------------------------------------------------


def test_distance_basic():
    g = cycle_graph(4)
    assert distance(g, 0, 2) == 2
    assert distance(g, 1, 1) == 0


def test_distance_infinity_between_components():
    g = Graph(4, [(0, 1), (2, 3)])
    assert distance(g, 0, 3) == INFINITY


def test_distance_invalid_vertex():
    with pytest.raises(ValueError):
        distance(cycle_graph(3), 0, 5)


def test_distance_triangle_inequality():
    rng = random.Random(11)
    for _ in range(15):
        g = random_connected_graph(rng, 7, 0.35)
        for a in range(g.n):
            for b in range(g.n):
                for c in range(g.n):
                    assert distance(g, a, c) <= distance(g, a, b) + distance(g, b, c)

