import hashlib
import random

import pytest

from pathcycle import families
from pathcycle.errors import UndecidedAtScaleError
from pathcycle.factor import (
    MAX_ORACLE_EDGES,
    DegreeSpec,
    FFactor,
    brute_force_f_factor,
    build_gadget,
    decompose_system,
    degree_spec_from_terminals,
    extract_f_factor,
    find_f_factor,
    solve,
)
from pathcycle.families import random_valid_instance
from pathcycle.graphs import Graph, serialize_graph, serialize_terminals
from pathcycle.matching import maximum_matching

from .conftest import (
    COUNTEREXAMPLE_LADDER,
    complete_graph,
    cycle_graph,
    random_connected_graph,
    random_graph,
    sample_even_terminal_sets,
    star_graph,
)


# -- degree specs ---------------------------------------------------------------


def test_spec_from_terminals_c4():
    f = degree_spec_from_terminals(cycle_graph(4), [0, 1])
    assert f.targets == (1, 1, 2, 2)
    assert f.total == 2 * 4 - 2


def test_spec_empty_terminals_is_two_factor():
    assert degree_spec_from_terminals(cycle_graph(4), []).targets == (2, 2, 2, 2)


def test_spec_all_terminals_is_perfect_matching():
    assert degree_spec_from_terminals(complete_graph(4), range(4)).targets == (1,) * 4


def test_spec_rejects_odd_terminals():
    with pytest.raises(ValueError, match="odd"):
        degree_spec_from_terminals(cycle_graph(4), [0])


def test_spec_rejects_foreign_vertex():
    with pytest.raises(ValueError):
        degree_spec_from_terminals(cycle_graph(4), [0, 9])


# -- gadget ------------------------------------------------------------------------


def test_gadget_port_core_counts():
    g = star_graph(3)  # center has degree 3
    f = DegreeSpec((2, 1, 1, 0))
    gg = build_gadget(g, f)
    assert gg.ports_of(0) == range(0, 3) and gg.cores_of(0) == range(3, 4)
    assert gg.ports_of(3) == range(6, 7) and gg.cores_of(3) == range(7, 8)
    assert gg.graph.n == sum(g.degree(v) for v in range(g.n)) + sum(
        g.degree(v) - f[v] for v in range(g.n)
    )


def test_gadget_no_cores_when_f_equals_degree():
    g = cycle_graph(4)
    gg = build_gadget(g, DegreeSpec((2, 2, 2, 2)))
    assert all(len(gg.cores_of(v)) == 0 and len(gg.ports_of(v)) == 2 for v in range(4))
    graph = gg.graph
    assert graph.n == 8
    assert graph.edge_count == 4  # only the port-port edges survive
    m = maximum_matching(graph)
    assert m.is_perfect(graph)
    assert extract_f_factor(gg, m.mate_array(graph.n)).edges == cycle_graph(4).edges


def test_gadget_structure_on_random_specs():
    rng = random.Random(23)
    for _ in range(150):
        g = random_graph(rng, rng.randrange(0, 11), rng.uniform(0.1, 0.9))
        f = DegreeSpec(tuple(rng.randrange(g.degree(v) + 1) for v in range(g.n)))
        gg = build_gadget(g, f)
        graph = gg.graph
        blocks = []
        for v in range(g.n):
            ports, cores = gg.ports_of(v), gg.cores_of(v)
            assert len(ports) == g.degree(v) and len(cores) == g.degree(v) - f[v]
            assert ports.stop == cores.start
            blocks.extend(ports)
            blocks.extend(cores)
        assert blocks == list(range(graph.n))  # the blocks partition the gadget
        owner = {x: v for v in range(g.n) for x in range(gg.start[v], gg.start[v + 1])}
        across = {}
        for e, (pu, pv) in zip(g.edges, gg.port_pairs):
            assert (owner[pu], owner[pv]) == e
            across[pu], across[pv] = pv, pu
        for v in range(g.n):
            cores = set(gg.cores_of(v))
            for p in gg.ports_of(v):
                foreign = [x for x in graph.neighbors(p) if x not in cores]
                assert cores <= set(graph.neighbors(p))
                assert foreign == [across[p]] and owner[across[p]] != v
            for c in cores:
                assert set(graph.neighbors(c)) == set(gg.ports_of(v))
        assert graph.n == sum(2 * g.degree(v) - f[v] for v in range(g.n))
        assert graph.edge_count == g.edge_count + sum(
            g.degree(v) * (g.degree(v) - f[v]) for v in range(g.n)
        )


def _gadget_edges(gg) -> list[tuple[int, int]]:
    """The gadget's edges by its definition: every port of a vertex joined
    to every core of that vertex, and the two ports of each host edge."""
    edges = [(p, c) for v in range(gg.host.n) for p in gg.ports_of(v) for c in gg.cores_of(v)]
    return edges + list(gg.port_pairs)


def test_gadget_graph_equals_the_checked_constructor():
    gadgets = []
    for gen, params in COUNTEREXAMPLE_LADDER:
        inst = getattr(families, gen)(*params)
        gadgets.append(build_gadget(inst.graph, degree_spec_from_terminals(inst.graph, inst.w)))
    rng = random.Random(31)
    for _ in range(150):
        g = random_graph(rng, rng.randrange(0, 13), rng.uniform(0.1, 0.9))
        gadgets.append(
            build_gadget(g, DegreeSpec(tuple(rng.randrange(g.degree(v) + 1) for v in range(g.n))))
        )
    for gg in gadgets:
        checked = Graph(gg.start[-1], _gadget_edges(gg))
        assert tuple(gg.adj) == checked._adj
        graph = gg.graph
        assert graph == checked and graph._adj == checked._adj


def test_gadget_rejects_oversized_f():
    with pytest.raises(ValueError, match="exceeds degree"):
        build_gadget(cycle_graph(4), DegreeSpec((3, 2, 2, 2)))


def test_extract_requires_perfect_matching():
    gg = build_gadget(cycle_graph(4), DegreeSpec((1, 1, 2, 2)))
    path = FFactor(4, ((0, 3), (1, 2), (2, 3)))  # 0-3-2-1
    perfect = _mates_from_factor(gg, path)
    assert extract_f_factor(gg, perfect) == path
    for mate in (perfect[:2], perfect[:-2] + [-1, -1]):
        with pytest.raises(ValueError, match="not perfect"):
            extract_f_factor(gg, mate)


def test_a_matched_pair_off_the_gadget_raises(monkeypatch):
    # C4 with f = 2 everywhere: ports only, joined across the host edges.
    # Matching each vertex's two ports to each other is perfect, but no
    # pair is a gadget edge
    g, f = cycle_graph(4), DegreeSpec((2, 2, 2, 2))
    monkeypatch.setattr(
        "pathcycle.factor._maximum_matching_mates", lambda n, adj: [1, 0, 3, 2, 5, 4, 7, 6]
    )
    with pytest.raises(AssertionError, match="not a gadget edge"):
        find_f_factor(g, f)


def test_a_perfect_matching_that_breaks_f_raises(monkeypatch):
    # the same mates read as a factor choose no host edge, so every vertex
    # gets degree 0 where f asks for 2.  A perfect matching of gadget edges
    # always meets f, so find_f_factor's pair check fires before the degree
    # check; extract_f_factor keeps the degree check for its own callers
    g, f = cycle_graph(4), DegreeSpec((2, 2, 2, 2))
    mate = [1, 0, 3, 2, 5, 4, 7, 6]
    monkeypatch.setattr("pathcycle.factor._maximum_matching_mates", lambda n, adj: list(mate))
    with pytest.raises(AssertionError):
        find_f_factor(g, f)
    with pytest.raises(AssertionError, match="degree-violating"):
        extract_f_factor(build_gadget(g, f), mate)


def _mates_from_factor(gg, factor: FFactor) -> list[int]:
    """The perfect gadget matching of an f-factor, as a mate array: ports of
    factor edges are matched across, and each vertex's other ports to its
    cores in index order."""
    chosen = set(factor.edges)
    mate = [-1] * len(gg.adj)
    for e, (pu, pv) in zip(gg.host.edges, gg.port_pairs):
        if e in chosen:
            mate[pu], mate[pv] = pv, pu
    for v in range(gg.host.n):
        free_ports = [p for p in gg.ports_of(v) if mate[p] < 0]
        cores = gg.cores_of(v)
        assert len(free_ports) == len(cores), v
        for p, c in zip(free_ports, cores):
            mate[p], mate[c] = c, p
    return mate


def test_gadget_soundness_both_ways():
    """A factor found by the oracle converts into a perfect gadget matching
    and back into the same factor."""
    rng = random.Random(9)
    done = 0
    while done < 25:
        g = random_connected_graph(rng, rng.randrange(4, 8), 0.45)
        w = tuple(sorted(rng.sample(range(g.n), 2)))
        f = degree_spec_from_terminals(g, w)
        if any(f[v] > g.degree(v) for v in range(g.n)):
            continue
        factor = brute_force_f_factor(g, f, max_edges=40)
        if factor is None:
            continue
        gg = build_gadget(g, f)
        mate = _mates_from_factor(gg, factor)
        graph = gg.graph
        assert all(graph.has_edge(u, v) and mate[v] == u for u, v in enumerate(mate))
        assert extract_f_factor(gg, mate).edges == tuple(sorted(factor.edges))
        done += 1


# -- decomposition -------------------------------------------------------------------


def test_decompose_single_cycle():
    g = cycle_graph(6)
    system = decompose_system(FFactor(6, g.edges), [])
    assert system.paths == () and system.cycles == ((0, 1, 2, 3, 4, 5),)


def test_decompose_path_in_k4():
    system = decompose_system(FFactor(4, ((0, 2), (2, 3), (1, 3))), [0, 1])
    assert system.paths == ((0, 2, 3, 1),) and system.cycles == ()


def test_decompose_mixed_components():
    # a 4-cycle on 0..3 plus the single-edge path 4-5
    edges = ((0, 1), (1, 2), (2, 3), (0, 3), (4, 5))
    system = decompose_system(FFactor(6, edges), [4, 5])
    assert system.paths == ((4, 5),)
    assert system.cycles == ((0, 1, 2, 3),)


def test_decompose_rejects_degree_mismatch():
    with pytest.raises(ValueError, match="degrees"):
        decompose_system(FFactor(3, ((0, 1),)), [])


def test_canonical_cycle_starts_at_minimum_toward_smaller_neighbor():
    g = cycle_graph(5)
    system = decompose_system(FFactor(5, g.edges), [])
    assert system.cycles == ((0, 1, 2, 3, 4),)


# -- solver -----------------------------------------------------------------------


def test_solve_cycle_cover():
    system = solve(cycle_graph(6), [])
    assert system.format() == "cycle: 0 1 2 3 4 5\n"


def test_solve_k4_path():
    system = solve(complete_graph(4), [0, 1])
    assert system is not None
    system.validate(complete_graph(4), [0, 1])
    assert system.endpoints() == (0, 1)


def test_solve_c5_with_close_terminals_is_infeasible():
    assert solve(cycle_graph(5), [0, 2]) is None


def test_solve_odd_terminals_is_an_error():
    with pytest.raises(ValueError, match="odd"):
        solve(cycle_graph(5), [0])


def test_solve_isolated_vertex_infeasible():
    assert solve(Graph(1), []) is None  # f(0) = 2 > deg 0


def test_find_f_factor_prescreens_parity():
    g = cycle_graph(4)
    assert find_f_factor(g, DegreeSpec((1, 2, 2, 2))) is None


def test_zero_spec_forces_empty_factor():
    g = cycle_graph(4)
    factor = find_f_factor(g, DegreeSpec((0, 0, 0, 0)))
    assert factor is not None and factor.edges == ()


# -- brute force oracle ---------------------------------------------------------------


def test_brute_force_two_factor_of_c4_is_unique():
    g = cycle_graph(4)
    factor = brute_force_f_factor(g, DegreeSpec((2, 2, 2, 2)))
    assert factor is not None and set(factor.edges) == set(g.edges)


def test_brute_force_infeasible_c5():
    f = degree_spec_from_terminals(cycle_graph(5), [0, 2])
    assert brute_force_f_factor(cycle_graph(5), f) is None


def test_brute_force_perfect_matching_of_k4():
    factor = brute_force_f_factor(complete_graph(4), DegreeSpec((1, 1, 1, 1)))
    assert factor is not None
    assert sorted(factor.degrees()) == [1, 1, 1, 1]


def test_brute_force_bound():
    g = complete_graph(8)  # 28 edges
    with pytest.raises(UndecidedAtScaleError):
        brute_force_f_factor(g, DegreeSpec((2,) * 8))


def test_brute_force_edge_bound_is_capped():
    g = cycle_graph(4)
    f = DegreeSpec((2, 2, 2, 2))
    assert brute_force_f_factor(g, f, max_edges=MAX_ORACLE_EDGES) is not None
    with pytest.raises(ValueError, match="exceeds the oracle's limit"):
        brute_force_f_factor(g, f, max_edges=MAX_ORACLE_EDGES + 1)


# -- solver vs oracle on a small corpus -------------------------------------------------


def test_solver_oracle_agreement_small(atlas_connected):
    rng = random.Random(13)
    small = [g for g in atlas_connected if g.n <= 6]
    for g in small:
        for w in sample_even_terminal_sets(rng, g.n, 6)[:6]:
            f = degree_spec_from_terminals(g, w)
            got = solve(g, w)
            expect = brute_force_f_factor(g, f, max_edges=64)
            assert (got is None) == (expect is None), (g.edges, w)
            if got is not None:
                got.validate(g, w)


# -- pinned outputs -----------------------------------------------------------------

#: SHA-256 over every graph, terminal set and solve output of
#: :func:`_solve_corpus`.  The output is a pure function of the gadget and
#: its numbering, so a change to either shows here.
SOLVE_CORPUS_SHA256 = "b2f4138fc7dd7f8c49bf2de9f61c04373aca380db9281786d92066ec2b6f0e00"


def _solve_corpus():
    for r in (4, 5, 6):
        for size in (14, 23, 31, 40):
            inst = random_valid_instance(r, size, size)
            yield inst.graph, inst.w
    rng = random.Random(4057)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randrange(3, 13), rng.uniform(0.25, 0.75))
        yield g, tuple(sorted(rng.sample(range(g.n), rng.randrange(0, g.n + 1, 2))))


def test_solve_outputs_are_pinned():
    digest = hashlib.sha256()
    outcomes = set()
    for g, w in _solve_corpus():
        system = solve(g, w)
        outcomes.add(system is None)
        digest.update(serialize_graph(g).encode())
        digest.update(serialize_terminals(w).encode())
        digest.update(b"INFEASIBLE\n" if system is None else system.format().encode())
    assert outcomes == {False, True}
    assert digest.hexdigest() == SOLVE_CORPUS_SHA256
