import dataclasses
import hashlib
import random

import pytest

from pathcycle import _certkernel
from pathcycle._certkernel import least_violation
from pathcycle.errors import GraphFormatError, UndecidedAtScaleError
from pathcycle.factor import (
    DegreeSpec,
    brute_force_f_factor,
    build_gadget,
    degree_spec_from_terminals,
    find_f_factor,
)
from pathcycle.graphs import Graph
from pathcycle.tutte import (
    TutteCertificate,
    evaluate_pair,
    format_certificate,
    parse_certificate,
    search_certificate,
)

from .conftest import (
    complete_graph,
    components,
    cycle_graph,
    is_connected,
    naive_least_violation,
    naive_pair_evaluation,
    path_graph,
    random_connected_graph,
    random_graph,
    random_pair,
    sample_even_terminal_sets,
)


# -- deficiency basics ------------------------------------------------------------


def test_empty_pair_has_zero_deficiency_when_connected():
    for g in (cycle_graph(6), complete_graph(5)):
        f = degree_spec_from_terminals(g, [])
        assert evaluate_pair(g, f, [], []).delta == 0


def test_c5_example_values():
    g = cycle_graph(5)
    f = degree_spec_from_terminals(g, [0, 2])
    cert = evaluate_pair(g, f, [], [1, 3])
    assert cert.delta == -2
    assert cert.q == 2 and cert.odd_components == ((0, 4), (2,))


def test_overlapping_sets_rejected():
    g = cycle_graph(4)
    f = degree_spec_from_terminals(g, [])
    with pytest.raises(ValueError, match="overlap"):
        evaluate_pair(g, f, [0], [0, 1])


def test_deficiency_parity_matches_total():
    rng = random.Random(19)
    for _ in range(40):
        g = random_connected_graph(rng, 8, 0.35)
        w = tuple(sorted(rng.sample(range(8), rng.choice([0, 2, 4]))))
        f = degree_spec_from_terminals(g, w)
        s = tuple(v for v in range(8) if rng.random() < 0.25)
        t = tuple(v for v in range(8) if v not in set(s) and rng.random() < 0.25)
        assert (evaluate_pair(g, f, s, t).delta - f.total) % 2 == 0


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
        cert = evaluate_pair(g, f, s, t)
        assert cert == TutteCertificate(
            tuple(sorted(s)), tuple(sorted(t)), want["delta"], tuple(want["odd"])
        ), key
        cert.validate(g, f)
        with pytest.raises(ValueError, match="deficiency"):
            dataclasses.replace(cert, delta=cert.delta + 2).validate(g, f)
        if cert.odd_components:
            with pytest.raises(ValueError, match="components"):
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


ENTRY_POINTS = {
    "evaluate_pair": lambda g, f: evaluate_pair(g, f, (), ()),
    "validate": lambda g, f: TutteCertificate((), (), 0, ()).validate(g, f),
    "find_f_factor": find_f_factor,
    "build_gadget": build_gadget,
    "brute_force_f_factor": brute_force_f_factor,
    "search_certificate": search_certificate,
}


@pytest.mark.parametrize("targets", [(1, 2, 1, 2), (1,)], ids=["long", "short"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_rejects_a_spec_of_the_wrong_length(entry, targets):
    # a long spec once evaluated to delta 0, a short one raised IndexError,
    # and find_f_factor answered "no factor" to a short one
    with pytest.raises(ValueError, match="degree spec length does not match vertex count"):
        ENTRY_POINTS[entry](path_graph(3), DegreeSpec(targets))


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


@pytest.mark.parametrize("chunk", [_certkernel._CHUNK, 4], ids=["default-chunk", "chunk-4"])
def test_scan_matches_naive_on_disconnected_graphs(monkeypatch, chunk):
    # G - R has several components, some of them isolated vertices, already
    # at R = {}; the scan's masks x0 and par are read off their labels
    monkeypatch.setattr(_certkernel, "_CHUNK", chunk)
    rng = random.Random(53)
    seen = set()
    for i in range(60):
        n = 2 + i % 6
        order = list(range(n))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(3, n - 1))))
        edges = []
        for part in (order[a:b] for a, b in zip([0] + cuts, cuts + [n])):
            edges += [(u, v) for u in part for v in part if u < v and rng.random() < 0.6]
        g = Graph(n, edges)
        if i // 6 % 3 == 0:
            w = rng.sample(range(n), 2 * rng.randrange(n // 2 + 1))
            f = degree_spec_from_terminals(g, w)
        elif i // 6 % 3 == 1:
            f = DegreeSpec(tuple(rng.randrange(g.degree(v) + 3) for v in range(n)))
        else:  # the degrees of a random spanning subgraph, so mostly feasible
            kept = [e for e in g.edges if rng.random() < 0.5]
            f = DegreeSpec(tuple(sum(v in e for e in kept) for v in range(n)))
        least = naive_least_violation(g, f)
        assert least_violation(g, f) == least, (g.edges, f.targets)
        seen.add("violation" if least else "none")
        if any(g.degree(v) == 0 for v in range(n)):
            seen.add("isolated")
        if len(components(g)) >= 3:
            seen.add("three or more components")
    assert seen == {"violation", "none", "isolated", "three or more components"}


@pytest.mark.parametrize("n", [12, 14])
def test_scan_chunks_bound_their_working_set(n):
    rng = random.Random(n)
    g = random_connected_graph(rng, n, 0.3)
    scan = _certkernel._Scan(g, degree_spec_from_terminals(g, []))
    last, covered = 0, []
    for k, rs, pos in scan.chunks():
        assert k >= last
        last = k
        assert len(rs) << k <= max(_certkernel._CHUNK, 1 << k)
        # also says that every R-set of the chunk has size k
        assert pos.tolist() == [[v for v in range(n) if r >> v & 1] for r in rs.tolist()]
        covered += rs.tolist()
    assert sorted(covered) == list(range(1 << n))


def _planted_feasible(rng, n):
    """A graph around a spanning path-cycle system; W is its path ends."""
    order = list(range(n))
    rng.shuffle(order)
    parts = []
    while order:
        size = rng.randint(3, 6)
        size = len(order) if len(order) - size < 3 else size
        parts.append(order[:size])
        order = order[size:]
    edges, w = set(), []
    for part in parts:
        edges |= {tuple(sorted(e)) for e in zip(part, part[1:])}
        if rng.random() < 0.5:
            w += [part[0], part[-1]]
        else:
            edges.add(tuple(sorted((part[0], part[-1]))))
    for a, b in zip(parts, parts[1:]):
        edges.add(tuple(sorted((rng.choice(a), rng.choice(b)))))
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.12}
    g = Graph(n, sorted(edges))
    return g, degree_spec_from_terminals(g, w)


def _planted_infeasible(rng, n):
    """k vertices split the rest into 2k + 2 parts, each holding one terminal."""
    k = rng.choice((1, 2))
    labels = list(range(n))
    rng.shuffle(labels)
    s, rest = labels[:k], labels[k:]
    parts = [[v] for v in rest[:2 * k + 2]]
    for v in rest[2 * k + 2:]:
        rng.choice(parts).append(v)
    edges = set()
    for part in parts:
        edges |= {tuple(sorted((v, rng.choice(part[:i])))) for i, v in enumerate(part) if i}
        edges |= {(u, v) for u in part for v in part if u < v and rng.random() < 0.3}
        edges |= {tuple(sorted((x, rng.choice(part)))) for x in s}
    g = Graph(n, sorted(edges))
    return g, degree_spec_from_terminals(g, [part[0] for part in parts])


def _pinned_scan_inputs():
    """150 seeded (g, f) with n = 8..13, in four kinds: the two planted
    shapes above, and G(n, p) under the degrees of a random spanning
    subgraph (feasible), or those degrees with one entry moved (mostly not).

    The planted shapes follow perfbench's duality-small inputs but are built
    here, so that the pinned digest does not move with the benchmark.
    """
    rng = random.Random(131)
    for i in range(150):
        n, kind = 8 + i % 6, i // 6 % 4
        if kind == 0:
            yield _planted_feasible(rng, n)
        elif kind == 1:
            yield _planted_infeasible(rng, n)
        else:
            g = random_graph(rng, n, rng.uniform(0.25, 0.6))
            degs = [0] * n
            for u, v in g.edges:
                if rng.random() < 0.6:
                    degs[u] += 1
                    degs[v] += 1
            if kind == 3:
                v = rng.randrange(n)
                degs[v] += rng.choice((-1, 1, 2)) if degs[v] else 1
            yield g, DegreeSpec(tuple(degs))


# Computed with the scan as it stood before it read q from per-set parity
# tables (one XOR-reduce over rep per R-set); the tables must not move it.
SCAN_ANSWERS_SHA256 = "78d6618ad6fd6af40171103c49c4c924b7d83c257bb0370a757a8f956807a256"


def test_scan_answers_are_pinned():
    # at n >= 8 the middle layers span several chunks at the default _CHUNK
    digest = hashlib.sha256()
    outcomes = set()
    for g, f in _pinned_scan_inputs():
        least = least_violation(g, f)
        digest.update(repr(least).encode())
        outcomes.add(least is None)
    assert outcomes == {True, False}
    assert digest.hexdigest() == SCAN_ANSWERS_SHA256


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
    # int() reads "+0" as 0 and "0_3" as 3: every number is plain decimal digits
    for bad in (
        "S:\nT: 1 0_3\ndelta: -2\nodd: 0\n",
        "S:\nT: +1 3\ndelta: -2\nodd: 0\n",
        "S:\nT: 1 3\ndelta: +0\nodd: 0\n",
        "S:\nT: 1 3\ndelta: -2\nodd: 1_0\n",
    ):
        with pytest.raises(GraphFormatError, match="malformed witness line"):
            parse_certificate(bad)


def test_evaluate_pair_packages_components():
    g = cycle_graph(5)
    f = degree_spec_from_terminals(g, [0, 2])
    cert = evaluate_pair(g, f, [], [1, 3])
    assert cert.delta == -2 and cert.odd_components == ((0, 4), (2,))
