import dataclasses
import hashlib
import random
import tracemalloc

import numpy as np
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
    MAX_SCAN_VERTICES,
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


def _members(n, mask):
    return tuple(v for v in range(n) if mask >> v & 1)


def _roles(g, f):
    """The vertices that may be in the least violating pair, and those that
    may be in S or in T, for a spec with f(v) <= deg(v) + 2 everywhere."""
    s_ok = {v for v in range(g.n) if g.degree(v) >= f[v] + 2}
    t_ok = {v for v in range(g.n) if f[v] >= 2}
    return s_ok | t_ok, s_ok & t_ok


def _relabel(scan, mask):
    """A set of role vertices in g's labels as a set in the scan's labels."""
    return sum(1 << i for i, v in enumerate(scan.order[:scan.m]) if mask >> v & 1)


def _unlabel(scan, mask):
    """A set in the scan's labels as a set in g's labels."""
    return sum(1 << v for i, v in enumerate(scan.order) if mask >> i & 1)


@pytest.mark.parametrize("n", [12, 14])
def test_scan_chunks_bound_their_working_set(monkeypatch, n):
    # the chunks hold exactly the R-sets that the lower bound on delta keeps
    # and whose vertices all have a role, and no split of a skipped one that
    # the roles allow violates.  A budget of 2^8 pairs splits most groups
    # into several chunks, and holds a single R-set with k > 8 free vertices;
    # test_scan_working_set_at_the_largest_scan fills the real budget
    monkeypatch.setattr(_certkernel, "_CHUNK", 1 << 8)
    rng = random.Random(n)
    g = random_connected_graph(rng, n, 0.3)
    # f = 2 puts the vertices of degree below 4 in T alone, and f = 1 on
    # those of degree at most 2 leaves them no role
    f = DegreeSpec(tuple(1 if g.degree(v) <= 2 else 2 for v in range(n)))
    scan = _certkernel._Scan(g, f)
    m = scan.m
    # some vertex has no role, so the scan's labels differ from g's
    assert scan.free and scan.t_only and len(scan.order) > m
    roles, free = _roles(g, f)
    assert scan.order[:m] == sorted(roles)
    label = {v: i for i, v in enumerate(scan.order)}
    last, covered, groups = (0, 0), [], {}
    for k, rs, pos in scan.chunks():
        sizes = scan.pc[rs].tolist()
        # groups in ascending k, each in ascending |R|
        assert (k, sizes[0]) >= last and sizes == sorted(sizes)
        last = (k, sizes[-1])
        assert len(rs) << k <= max(_certkernel._CHUNK, 1 << k)
        # in g's labels, row i of pos lists the free vertices of R-set i in
        # ascending order, so every R-set of the chunk has k free vertices
        r_sets = [_members(n, _unlabel(scan, r)) for r in rs.tolist()]
        assert [[scan.order[v] for v in row] for row in pos.tolist()] == [
            [v for v in r if v in free] for r in r_sets
        ]
        covered += [_unlabel(scan, r) for r in rs.tolist()]
        groups.setdefault(k, []).append(len(rs))
    # every chunk but the last of its group is full: the budget, not a finer
    # split, sets how many chunks a group takes
    for k, counts in groups.items():
        assert all(c == max(1, _certkernel._CHUNK >> k) for c in counts[:-1]), (k, counts)
    assert any(len(counts) > 1 for counts in groups.values())
    keep = scan.keep.tolist()
    allowed = [r for r in range(1 << n) if set(_members(n, r)) <= roles]
    assert sorted(covered) == [r for r in allowed if keep[_relabel(scan, r)]]
    skipped = [r for r in allowed if not keep[_relabel(scan, r)]]
    assert skipped and covered
    for k in range(n + 1):
        group = [r for r in skipped if len(free.intersection(_members(n, r))) == k]
        rows = max(1, _certkernel._CHUNK >> k)
        for lo in range(0, len(group), rows):
            part = group[lo:lo + rows]
            rs = scan.ids[[_relabel(scan, r) for r in part]]
            pos = np.array(
                [[label[v] for v in _members(n, r) if v in free] for r in part], np.intp
            ).reshape(len(part), k)
            assert not list(scan.violations(rs, pos, k))


@pytest.mark.parametrize(
    "edges, targets, parities",
    [
        # roles only at 3 and 6; G - {3, 6} has the components {0, 1} and
        # {4} with even f(D) and {2}, {5} and {7} with odd f(D)
        (
            [(3, 6), (0, 3), (0, 1), (1, 6), (2, 3), (3, 4), (5, 6), (6, 7), (2, 6)],
            (1, 1, 1, 3, 0, 1, 2, 1),
            {0, 1},
        ),
        # no vertex has a role, so only ({}, {}) is read; f(D) is odd on
        # {0, 1, 2} and even on {3, 4}
        ([(0, 1), (1, 2), (3, 4)], (1, 1, 1, 1, 1), {0, 1}),
        # the subdivided star under W = {1, 2, 3, 4}: only its centre has a
        # role, and ({0}, {}) leaves four odd components
        ([(0, 1), (0, 2), (0, 3), (0, 4)], (2, 1, 1, 1, 1), {1}),
    ],
    ids=["odd-and-even-components", "no-role", "one-role"],
)
def test_scan_tables_span_the_role_vertices(edges, targets, parities):
    # the tables hold only the 2^m sets of role vertices; the components
    # of G - roles, which every R-set leaves, seed the component masks
    n = len(targets)
    g, f = Graph(n, edges), DegreeSpec(targets)
    scan = _certkernel._Scan(g, f)
    roles, _ = _roles(g, f)
    m = scan.m
    assert m == len(roles) and scan.order[:m] == sorted(roles) and sorted(scan.order) == list(range(n))
    for table in (scan.ids, scan.pc, scan.base, scan.by_t, scan.inner, scan.keep, scan.xt):
        assert table.shape == (1 << m,)
    assert scan.par.shape == (m, 1 << m)
    rest = components(g, roles)
    assert len(rest) > 1 and {sum(f[v] for v in c) % 2 for c in rest} == parities
    least = naive_least_violation(g, f)
    assert least is not None
    assert least_violation(g, f) == least


def test_scan_working_set_at_the_largest_scan():
    # MAX_SCAN_VERTICES states a peak under 2 MB there: the larger of the
    # table build and the kept tables plus one full chunk of _CHUNK pairs.
    # With f = 2 and minimum degree 4, every vertex is free, so no role
    # shrinks the chunks
    n = MAX_SCAN_VERTICES
    g = random_connected_graph(random.Random(1), n, 0.5)
    f = DegreeSpec((2,) * n)
    scan = _certkernel._Scan(g, f)
    assert scan.free == (1 << n) - 1
    assert max(len(rs) << k for k, rs, _ in scan.chunks()) == _certkernel._CHUNK
    tracemalloc.start()
    try:
        least = least_violation(g, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert least is None  # so the scan ran every chunk
    assert peak < 2 * 2**20, peak


def test_least_violation_meets_the_role_conditions():
    # the least violating pair cannot shrink: moving v out of S or T changes
    # delta by an even amount, by at most e(v, T) - f(v) + a(v) or
    # f(v) - deg_{G-S}(v) + a(v), where a(v) counts the components of
    # G - (S u T) next to v.  So those are at least 2, which the scan's roles
    # deg v >= f(v) + 2 and f(v) >= 2 weaken
    rng = random.Random(71)
    roles = set()
    for i in range(150):
        n = 1 + i % 8
        shape = i // 8 % 3
        if shape == 0:
            g = random_connected_graph(rng, n, rng.uniform(0.3, 0.9))
        elif shape == 1:
            g = random_graph(rng, n, rng.uniform(0.1, 0.5))
        else:
            g = random_graph(rng, n, rng.uniform(0.4, 0.9))
        if i // 24 % 2:  # general specs, now and then beyond the degree
            f = DegreeSpec(tuple(rng.randrange(g.degree(v) + 4) for v in range(n)))
        else:
            f = degree_spec_from_terminals(g, rng.sample(range(n), 2 * rng.randrange(n // 2 + 1)))
        least = naive_least_violation(g, f)
        if least is None:
            continue
        s, t = map(set, least)
        comps = [set(c) for c in components(g, s | t)]
        for v in s | t:
            e_t = sum(u in t for u in g.neighbors(v))
            e_out = sum(u not in s and u not in t for u in g.neighbors(v))
            a = sum(any(u in c for u in g.neighbors(v)) for c in comps)
            if v in s:
                assert e_t + a >= f[v] + 2, (g.edges, f.targets, least, v)
                roles.add("S" if g.degree(v) > f[v] + 2 else "S, deg v = f(v) + 2")
            else:
                assert e_t + e_out - a <= f[v] - 2, (g.edges, f.targets, least, v)
                roles.add("T" if f[v] > 2 else "T, f(v) = 2")
            if f[v] > g.degree(v):
                roles.add("f > deg")
        if not is_connected(g):
            roles.add("disconnected")
    # both roles are met with equality, so neither can be narrowed
    assert roles == {"S", "S, deg v = f(v) + 2", "T", "T, f(v) = 2", "f > deg", "disconnected"}


def test_scan_reads_no_larger_set_after_a_violation(monkeypatch):
    # f(V) odd on a connected graph: ({}, {}) violates, and every later chunk
    # is cut to its R-sets of size 0, which leaves none
    n = MAX_SCAN_VERTICES
    g = random_connected_graph(random.Random(3), n, 0.8)
    f = DegreeSpec((3,) + (2,) * (n - 1))
    seen = []
    violations = _certkernel._Scan.violations

    def recorded(self, rs, pos, k):
        found = list(violations(self, rs, pos, k))
        seen.append((int(self.pc[rs].max()), bool(found)))
        return found

    monkeypatch.setattr(_certkernel._Scan, "violations", recorded)
    assert least_violation(g, f) == ((), ())
    assert len(list(_certkernel._Scan(g, f).chunks())) > 1
    assert seen == [(0, True)]


def _splits(n, r):
    """Every (S, T) with S u T = R, as sorted tuples."""
    s = r
    while True:
        yield _members(n, s), _members(n, r ^ s)
        if not s:
            return
        s = (s - 1) & r


def _small_scan_inputs(rng, count, top):
    """``count`` (g, f) with n <= top: connected, G(n, p) and split into parts,
    under terminal specs or general ones with f(v) <= deg(v) + 2, which the
    scan does not clip, so its bound is a bound on this f's deficiency."""
    for i in range(count):
        n = 1 + i % top
        shape = i // top % 3
        if shape == 0:
            g = random_connected_graph(rng, n, rng.uniform(0.3, 0.9))
        elif shape == 1:
            g = random_graph(rng, n, rng.uniform(0.1, 0.6))
        else:
            cut = rng.randrange(n)
            g = Graph(n, [
                (u, v) for u in range(n) for v in range(u + 1, n)
                if (u < cut) == (v < cut) and rng.random() < 0.6
            ])
        if i // (3 * top) % 2:
            f = DegreeSpec(tuple(rng.randrange(g.degree(v) + 3) for v in range(n)))
        else:
            f = degree_spec_from_terminals(g, rng.sample(range(n), 2 * rng.randrange(n // 2 + 1)))
        yield g, f


def test_scan_bound_is_sound():
    # every split of a skipped R-set of role vertices has delta >= 0, by the
    # pair evaluator; an R-set that holds a role-less vertex has no table
    # entry, and no split of it is the least violating pair
    rng = random.Random(59)
    seen = set()
    for g, f in _small_scan_inputs(rng, 420, 7):
        scan = _certkernel._Scan(g, f)
        roles, _ = _roles(g, f)
        assert scan.order[:scan.m] == sorted(roles)
        keep = scan.keep.tolist()
        least = naive_least_violation(g, f)
        for r in range(1 << g.n):
            if not set(_members(g.n, r)) <= roles:
                seen.add("role-less")
                for s, t in _splits(g.n, r):
                    assert (
                        evaluate_pair(g, f, s, t).delta >= 0
                        or (len(s) + len(t), s, t) > (len(least[0]) + len(least[1]), *least)
                    ), (g.edges, f.targets, s, t)
                continue
            if keep[_relabel(scan, r)]:
                seen.add("kept")
                continue
            seen.add("skipped")
            for s, t in _splits(g.n, r):
                assert evaluate_pair(g, f, s, t).delta >= 0, (g.edges, f.targets, s, t)
        seen.add("f(V) odd" if f.total % 2 else "f(V) even")
        if g.n and not is_connected(g):
            seen.add("disconnected")
    assert seen == {"kept", "skipped", "role-less", "f(V) odd", "f(V) even", "disconnected"}


def test_scan_keeps_exactly_the_sets_its_bound_does_not_clear():
    # the skip rule, recomputed naively: R is kept iff
    # sum_{v in R} min(deg v, 2 f(v)) - f(R) - e(R) - c(R) < f(V) % 2 - 1,
    # with a table entry for each R-set of role vertices and no other
    rng = random.Random(67)
    for g, f in _small_scan_inputs(rng, 420, 7):
        scan = _certkernel._Scan(g, f)
        roles, _ = _roles(g, f)
        assert scan.order[:scan.m] == sorted(roles)
        keep = scan.keep.tolist()
        assert len(keep) == 1 << scan.m
        for r in range(1 << g.n):
            members = _members(g.n, r)
            if not set(members) <= roles:
                continue
            bound = sum(min(g.degree(v), 2 * f[v]) - f[v] for v in members)
            bound -= sum(u in members and v in members for u, v in g.edges)
            bound -= len(components(g, members))
            assert keep[_relabel(scan, r)] == (bound < f.total % 2 - 1), (g.edges, f.targets, members)


def test_deficiency_parity():
    # delta(S, T) = f(V) (mod 2) on every pair, which lets the scan skip an
    # R-set whose bound is -1 when f(V) is even
    rng = random.Random(61)
    totals = set()
    for g, f in _small_scan_inputs(rng, 120, 6):
        totals.add(f.total % 2)
        for r in range(1 << g.n):
            for s, t in _splits(g.n, r):
                assert (evaluate_pair(g, f, s, t).delta - f.total) % 2 == 0
    assert totals == {0, 1}


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
    # at n >= 12 the middle layers span several chunks at the default _CHUNK
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
