import dataclasses
import random

import pytest

from pathcycle import _certkernel
from pathcycle._certkernel import least_violation
from pathcycle.errors import GraphFormatError, UndecidedAtScaleError
from pathcycle.factor import DegreeSpec, brute_force_f_factor, degree_spec_from_terminals
from pathcycle.graphs import Graph, is_connected
from pathcycle.tutte import (
    TutteCertificate,
    delta,
    evaluate_pair,
    format_certificate,
    odd_components,
    parse_certificate,
    search_certificate,
)

from .conftest import (
    complete_graph,
    cycle_graph,
    naive_least_violation,
    naive_pair_evaluation,
    random_connected_graph,
    random_graph,
    random_pair,
    sample_even_terminal_sets,
)


# -- deficiency basics ------------------------------------------------------------


def test_empty_pair_has_zero_deficiency_when_connected():
    for g in (cycle_graph(6), complete_graph(5)):
        f = degree_spec_from_terminals(g, [])
        assert delta(g, f, [], []) == 0


def test_c5_example_values():
    g = cycle_graph(5)
    f = degree_spec_from_terminals(g, [0, 2])
    assert delta(g, f, [], [1, 3]) == -2
    q, comps = odd_components(g, f, [], [1, 3])
    assert q == 2 and comps == [(0, 4), (2,)]


def test_overlapping_sets_rejected():
    g = cycle_graph(4)
    f = degree_spec_from_terminals(g, [])
    with pytest.raises(ValueError, match="overlap"):
        delta(g, f, [0], [0, 1])


def test_deficiency_parity_matches_total():
    rng = random.Random(19)
    for _ in range(40):
        g = random_connected_graph(rng, 8, 0.35)
        w = tuple(sorted(rng.sample(range(8), rng.choice([0, 2, 4]))))
        f = degree_spec_from_terminals(g, w)
        s = tuple(v for v in range(8) if rng.random() < 0.25)
        t = tuple(v for v in range(8) if v not in set(s) and rng.random() < 0.25)
        assert (delta(g, f, s, t) - f.total) % 2 == 0


def test_pair_evaluator_matches_naive_reference():
    rng = random.Random(43)
    seen = set()
    for i in range(400):
        n = rng.randrange(0, 16)
        g = random_graph(rng, n, rng.uniform(0.05, 0.6))
        if i % 2:
            f = DegreeSpec(tuple(rng.randrange(g.degree(v) + 3) for v in range(n)))
        else:
            w = rng.sample(range(n), 2 * rng.randrange(n // 2 + 1))
            f = degree_spec_from_terminals(g, w)
        s, t = random_pair(rng, n)
        want = naive_pair_evaluation(g, f, s, t)
        key = (g.edges, f.targets, s, t)
        assert odd_components(g, f, s, t) == (len(want["odd"]), want["odd"]), key
        assert delta(g, f, s, t) == want["delta"], key
        cert = evaluate_pair(g, f, s, t)
        assert cert == TutteCertificate(
            tuple(sorted(s)), tuple(sorted(t)), want["delta"], tuple(want["odd"])
        ), key
        cert.validate(g, f)
        with pytest.raises(AssertionError, match="deficiency"):
            dataclasses.replace(cert, delta=cert.delta + 2).validate(g, f)
        if cert.odd_components:
            with pytest.raises(AssertionError, match="components"):
                dataclasses.replace(cert, odd_components=cert.odd_components[1:]).validate(g, f)
        seen.add("general f" if i % 2 else "terminal f")
        seen.add("disconnected" if n and not is_connected(g) else "connected")
        seen.add("S empty" if not s else "S")
        seen.add("T empty" if not t else "T")
        if any(g.has_edge(a, b) for a in t for b in t):
            seen.add("T adjacent")
        if len(want["odd"]) >= 2:
            seen.add("several odd")
    assert seen == {
        "general f", "terminal f", "disconnected", "connected", "S empty", "S",
        "T empty", "T", "T adjacent", "several odd",
    }


# -- certificate search ------------------------------------------------------------


def test_search_finds_least_c5_certificate():
    g = cycle_graph(5)
    f = degree_spec_from_terminals(g, [0, 2])
    cert = search_certificate(g, f)
    assert cert is not None
    assert cert.s == () and cert.t == (1, 3) and cert.delta == -2
    assert cert.q == 2
    cert.validate(g, f)


def test_search_none_on_two_factorable_cycle():
    g = cycle_graph(6)
    assert search_certificate(g, degree_spec_from_terminals(g, [])) is None


def test_search_none_on_k4_with_terminals():
    g = complete_graph(4)
    assert search_certificate(g, degree_spec_from_terminals(g, [0, 1])) is None


def test_search_bound():
    g = cycle_graph(15)
    with pytest.raises(UndecidedAtScaleError):
        search_certificate(g, degree_spec_from_terminals(g, []))


def test_search_returns_enumeration_least_pair(atlas_connected):
    rng = random.Random(29)
    small = [g for g in atlas_connected if 2 <= g.n <= 5]
    checked = 0
    for g in small:
        for w in sample_even_terminal_sets(rng, g.n, 4)[:4]:
            f = degree_spec_from_terminals(g, w)
            expected = naive_least_violation(g, f)
            got = search_certificate(g, f)
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert (got.s, got.t) == expected
                checked += 1
    assert checked > 20


def test_search_agrees_with_oracle(atlas_connected):
    rng = random.Random(37)
    for g in [g for g in atlas_connected if g.n == 6][:40]:
        for w in sample_even_terminal_sets(rng, g.n, 4)[:4]:
            f = degree_spec_from_terminals(g, w)
            cert = search_certificate(g, f)
            factor = brute_force_f_factor(g, f, max_edges=32)
            assert (cert is None) == (factor is not None)


@pytest.mark.parametrize("chunk", [_certkernel._CHUNK, 4], ids=["default-chunk", "chunk-4"])
def test_scan_matches_naive_least_violation(monkeypatch, chunk):
    # a small chunk splits layers, so the scan must finish the least one
    monkeypatch.setattr(_certkernel, "_CHUNK", chunk)
    rng = random.Random(41)
    outcomes = set()  # (n, whether a violation exists)
    for i in range(80):
        n = i % 8
        g = random_connected_graph(rng, n, rng.uniform(0.3, 0.9)) if n else Graph(0)
        if i // 8 % 2:
            # general specs, now and then far beyond the degree
            f = DegreeSpec(tuple(
                rng.randrange(g.degree(v) + 3) if rng.random() < 0.9 else rng.randrange(10**9)
                for v in range(n)
            ))
        else:
            w = tuple(sorted(rng.sample(range(n), rng.choice([0, 2]) if n >= 2 else 0)))
            f = degree_spec_from_terminals(g, w)
        least = naive_least_violation(g, f)
        assert least_violation(g, f) == least, (g.edges, f.targets)
        outcomes.add((n, least is not None))
    assert {(n, True) for n in range(1, 8)} <= outcomes
    assert {(n, False) for n in range(0, 8)} <= outcomes


def test_general_degree_specs_supported():
    g = complete_graph(5)
    f = DegreeSpec((4, 4, 2, 2, 2))  # a valid spec beyond the {1,2} shape
    assert (
        brute_force_f_factor(g, f, max_edges=12) is not None
    ) == (search_certificate(g, f) is None)


# -- witness files -----------------------------------------------------------------


def test_witness_roundtrip():
    g = cycle_graph(5)
    f = degree_spec_from_terminals(g, [0, 2])
    cert = search_certificate(g, f)
    text = format_certificate(cert)
    assert parse_certificate(text) == cert
    assert format_certificate(parse_certificate(text)) == text


def test_witness_format_layout():
    cert = TutteCertificate((), (1, 3), -2, ((0, 4), (2,)))
    assert format_certificate(cert) == "S:\nT: 1 3\ndelta: -2\nodd: 2\ncomp: 0 4\ncomp: 2\n"


def test_witness_parse_errors():
    with pytest.raises(GraphFormatError, match="delta"):
        parse_certificate("S: 1\nT: 2\n")
    with pytest.raises(GraphFormatError, match="odd"):
        parse_certificate("S:\nT:\ndelta: 0\nodd: 2\ncomp: 1\n")
    with pytest.raises(GraphFormatError, match="unknown"):
        parse_certificate("S:\nT:\ndelta: 0\nX: 1\n")
    with pytest.raises(GraphFormatError, match="line 3: repeated T"):
        parse_certificate("S:\nT: 1 3\nT: 1\ndelta: -2\nodd: 0\n")
    with pytest.raises(GraphFormatError, match="line 2: repeated S"):
        parse_certificate("S:\nS: 1\nT:\ndelta: 0\nodd: 0\n")
    with pytest.raises(GraphFormatError, match="line 4: repeated delta"):
        parse_certificate("S:\nT:\ndelta: 0\ndelta: 0\nodd: 0\n")
    with pytest.raises(GraphFormatError, match="line 5: repeated odd"):
        parse_certificate("S:\nT:\ndelta: 0\nodd: 0\nodd: 0\n")
    with pytest.raises(GraphFormatError, match="line 3: the delta line"):
        parse_certificate("S:\nT: 1 3\ndelta: -2 7\nodd: 0\n")
    with pytest.raises(GraphFormatError, match="line 4: the odd line"):
        parse_certificate("S:\nT:\ndelta: 0\nodd: 0 1\n")
    with pytest.raises(GraphFormatError, match="no odd line"):
        parse_certificate("S:\nT: 1 3\ndelta: -2\ncomp: 0 4\ncomp: 2\n")


def test_evaluate_pair_packages_components():
    g = cycle_graph(5)
    f = degree_spec_from_terminals(g, [0, 2])
    cert = evaluate_pair(g, f, [], [1, 3])
    assert cert.delta == -2 and cert.odd_components == ((0, 4), (2,))
