import dataclasses
import hashlib
import time

import pytest

from pathcycle import families
from pathcycle.factor import degree_spec_from_terminals, solve
from pathcycle.families import (
    gen_prop1_bipartite,
    gen_prop1_even,
    gen_prop1_odd,
    gen_prop2_general,
    gen_prop2_r4,
    gen_prop2_r5,
    random_valid_instance,
    verify_claims,
    write_instance,
)
from pathcycle.graphs import (
    distance,
    parse_graph,
    parse_terminals,
    serialize_graph,
    serialize_terminals,
)
from pathcycle.tutte import evaluate_pair, parse_certificate, search_certificate
from pathcycle.verify import check_terminal_set, find_induced_star

from .conftest import components

def _witness_cert(inst):
    f = degree_spec_from_terminals(inst.graph, inst.w)
    s, t, expected = inst.witness
    cert = evaluate_pair(inst.graph, f, s, t)
    assert cert.delta == expected
    return cert, f


# -- odd-degree family ---------------------------------------------------------


def test_prop1_odd_sizes_and_witness():
    inst = gen_prop1_odd(5, 6)
    g = inst.graph
    assert g.n == 2 * 5 + (2 * 5 + 1) * (5 + 6 - 1) + (5 + 6 + 1) == 132
    assert len(inst.w) == 4 * 5 + 2 and len(inst.w) % 2 == 0
    cert, f = _witness_cert(inst)
    assert f.subset_sum(cert.s) == 10  # f(S) = 2r
    assert cert.q == 12               # 2r + 2 odd blocks
    assert cert.delta == -2


def test_prop1_odd_block_structure():
    inst = gen_prop1_odd(5, 6)
    hubs = inst.witness[0]
    blocks = components(inst.graph, hubs)
    assert len(blocks) == 12
    # each of the first 2r copies ties to the hubs with exactly r-1 edges
    for j in range(1, 11):
        copy = [inst.name_map[f"H_{j}:v_{t}"] for t in range(10)]
        assert sum(v in hubs for u in copy for v in inst.graph.neighbors(u)) == 4


def test_prop1_odd_terminals_far_apart():
    inst = gen_prop1_odd(5, 6)
    assert check_terminal_set(inst.graph, inst.w, "distance3").holds


def test_prop1_odd_parameter_validation():
    with pytest.raises(ValueError):
        gen_prop1_odd(4, 6)
    with pytest.raises(ValueError):
        gen_prop1_odd(5, 5)
    with pytest.raises(ValueError):
        gen_prop1_odd(5, 4)


# -- even-degree family ----------------------------------------------------------


def test_prop1_even_10_12_matches_figure():
    inst = gen_prop1_even(10, 12)
    g = inst.graph
    assert g.n == 8 + 10 * 23 == 238
    names = inst.name_map
    v = lambda t: names[f"H_1:v_{t}"]
    assert not g.has_edge(v(0), v(2))
    assert not g.has_edge(v(1), v(3))
    assert not g.has_edge(v(4), v(6))
    assert not g.has_edge(v(5), v(7))
    assert g.has_edge(v(7), v(12))
    assert g.has_edge(v(0), v(18))  # wrap edge on the 23-vertex block
    assert v(13) in inst.w          # w = v_{(3r-4)/2}
    cert, f = _witness_cert(inst)
    assert f.subset_sum(cert.s) == 8 and cert.q == 10 and cert.delta == -2


def test_prop1_even_0_mod_4_branch():
    inst = gen_prop1_even(12, 12)
    g = inst.graph
    names = inst.name_map
    v = lambda t: names[f"H_1:v_{t}"]
    assert not g.has_edge(v(8), v(10))
    assert g.has_edge(v(10), v(16))
    assert v(17) in inst.w          # w = v_{(3r-2)/2}
    cert, _ = _witness_cert(inst)
    assert cert.delta == -2


def test_prop1_even_smallest_both_branches():
    for r, k in ((6, 6), (8, 8)):
        inst = gen_prop1_even(r, k)
        cert, f = _witness_cert(inst)
        assert cert.delta == -2
        assert f.subset_sum(cert.s) == r - 2 and cert.q == r
        assert check_terminal_set(inst.graph, inst.w, "distance3").holds


def test_prop1_even_parameter_validation():
    with pytest.raises(ValueError):
        gen_prop1_even(5, 6)
    with pytest.raises(ValueError):
        gen_prop1_even(4, 4)   # the extra-deletion branch needs r >= 8
    with pytest.raises(ValueError):
        gen_prop1_even(6, 5)
    with pytest.raises(ValueError):
        gen_prop1_even(8, 9)   # odd k invalid on the r % 4 == 0 branch


# -- bipartite family -------------------------------------------------------------


def test_prop1_bipartite_distance_and_star():
    inst = gen_prop1_bipartite(4, 12)
    assert distance(inst.graph, inst.w[0], inst.w[1]) == 4
    assert find_induced_star(inst.graph, 4) is not None
    assert inst.witness is None


def test_prop1_bipartite_infeasible_by_parity():
    inst = gen_prop1_bipartite(4, 12)
    assert solve(inst.graph, inst.w) is None


def test_prop1_bipartite_certificate_on_trimmed_size():
    """On a 14-vertex bipartite variant the exhaustive search itself finds a
    negative pair, confirming the parity obstruction at certificate level."""
    from pathcycle.graphs import Graph

    n = 7
    edges = [(i, n + (i + d) % n) for i in range(n) for d in range(4)]
    g = Graph(2 * n, edges)
    w = (0, 2)  # two same-side vertices
    cert = search_certificate(g, degree_spec_from_terminals(g, w))
    assert cert is not None and cert.delta < 0


def test_prop1_bipartite_too_small():
    with pytest.raises(ValueError):
        gen_prop1_bipartite(4, 8)


# -- r=4 sharp-terminal family ------------------------------------------------------


def test_prop2_r4_counts():
    inst = gen_prop2_r4(6)
    assert inst.graph.n == 60 and len(inst.w) == 14
    cert, _ = _witness_cert(inst)
    assert cert.delta == -2 and cert.q == 0


def test_prop2_r4_terminal_bound_tight():
    inst = gen_prop2_r4(6)
    wset = set(inst.w)
    counts = [
        sum(1 for x in inst.graph.neighbors(v) if x in wset)
        for v in range(inst.graph.n)
    ]
    assert max(counts) == 2
    # W is independent
    for a in inst.w:
        for b in inst.w:
            if a < b:
                assert not inst.graph.has_edge(a, b)


def test_prop2_r4_validation():
    with pytest.raises(ValueError):
        gen_prop2_r4(5)


# -- glued families -------------------------------------------------------------------


def test_prop2_general_counts():
    inst = gen_prop2_general(6, 50)
    names = inst.name_map
    assert inst.graph.n == 2 * 4 * 50 + 4 * 40 == 560
    assert sum(1 for k in names if k.startswith("X1_")) == 100
    assert sum(1 for k in names if k.startswith("X2_")) == 100
    assert sum(1 for k in names if k.startswith("Y0_")) == 200
    cert, _ = _witness_cert(inst)
    assert cert.delta == -2 and cert.q == 0
    assert len(inst.w) == 2 * 40 + 2


def test_prop2_general_validation():
    with pytest.raises(ValueError):
        gen_prop2_general(5, 50)
    with pytest.raises(ValueError):
        gen_prop2_general(6, 49)  # not a multiple of r-1
    with pytest.raises(ValueError):
        gen_prop2_general(6, 45)  # multiple of 5 but below 2(r-1)^2


def test_prop2_r5_counts():
    inst = gen_prop2_r5(96)
    names = inst.name_map
    assert sum(1 for k in names if k.startswith("X1_")) == 2 * 96
    assert sum(1 for k in names if k.startswith("X2_")) == 96
    assert sum(1 for k in names if k.startswith("Y0_")) == 3 * 96
    cert, _ = _witness_cert(inst)
    assert cert.delta == -2
    assert len(inst.w) == 2 * 72 + 2


def test_prop2_r5_b_terminal_blocks_span_distinct_stars():
    inst = gen_prop2_r5(96)
    names = inst.name_map
    y0 = names["Y0_0"]
    g = inst.graph
    b1, b4 = names["b_1"], names["b_4"]
    assert b1 in inst.w and b4 in inst.w
    for apex in (b1, b4):
        stars = set()
        for y in g.neighbors(apex):
            if y0 <= y < y0 + 3 * 96:
                stars.add((y - y0) // 3)  # labels of one star are contiguous
        assert len(stars) == 4


def test_prop2_r5_validation():
    with pytest.raises(ValueError):
        gen_prop2_r5(94)
    with pytest.raises(ValueError):
        gen_prop2_r5(92)


# -- random instances -------------------------------------------------------------------


def test_random_instance_deterministic_and_valid():
    a = random_valid_instance(4, 24, seed=5)
    b = random_valid_instance(4, 24, seed=5)
    assert a.graph == b.graph and a.w == b.w
    assert all(rep.holds for rep in verify_claims(a))


@pytest.mark.parametrize("r", [4, 5, 6])
def test_random_instances_are_solvable(r):
    for seed in range(4):
        inst = random_valid_instance(r, 18, seed=seed)
        system = solve(inst.graph, inst.w)
        assert system is not None
        system.validate(inst.graph, inst.w)


def test_random_instance_rejects_unsupported_degree():
    with pytest.raises(ValueError):
        random_valid_instance(7, 20, seed=0)


# -- claim verification and files ----------------------------------------------------------


def test_verify_claims_on_cheap_families():
    for inst in (gen_prop1_odd(5, 6), gen_prop2_r4(6), gen_prop1_bipartite(4, 12)):
        reports = verify_claims(inst)
        assert all(rep.holds for rep in reports), [
            rep.format_line() for rep in reports if not rep.holds
        ]


@pytest.mark.parametrize(
    "claim, broken",
    [
        ("witness-deficiency", lambda inst: {"witness": inst.witness[:2] + (-4,)}),
        ("regular", lambda inst: {"r": 5}),
        ("terminals-distance3", lambda inst: {"terminal_mode": "distance3"}),
        # two terminals at distance >= 3: the largest load is 1, not 2
        ("terminals-nbhd2", lambda inst: {"w": families._greedy_terminals(inst.graph, cap=2)}),
    ],
)
def test_an_instance_refuses_a_broken_cheap_claim(claim, broken):
    inst = gen_prop2_r4(6)
    with pytest.raises(AssertionError, match=f"^prop2-r4: {claim}: FAIL"):
        dataclasses.replace(inst, **broken(inst))


def test_write_instance_roundtrip(tmp_path):
    inst = gen_prop2_r4(6)
    files = write_instance(inst, tmp_path / "inst")
    gfile = tmp_path / "inst.graph"
    assert gfile in files
    g = parse_graph(gfile.read_text())
    assert g == inst.graph
    w = parse_terminals((tmp_path / "inst.terminals").read_text(), g)
    assert w == inst.w
    cert = parse_certificate((tmp_path / "inst.witness").read_text())
    assert cert.delta == -2
    recomputed = evaluate_pair(
        g, degree_spec_from_terminals(g, w), cert.s, cert.t
    )
    assert recomputed == cert
    names = (tmp_path / "inst.names").read_text()
    assert names.startswith("c ")


def test_serialization_roundtrip_on_family_graphs():
    from pathcycle.graphs import serialize_graph

    instances = [
        gen_prop1_odd(5, 6),
        gen_prop1_even(6, 6),
        gen_prop1_bipartite(4, 12),
        gen_prop2_r4(6),
        random_valid_instance(5, 18, seed=1),
    ]
    for inst in instances:
        assert parse_graph(serialize_graph(inst.graph)) == inst.graph


def test_write_instance_without_witness(tmp_path):
    inst = gen_prop1_bipartite(4, 12)
    files = write_instance(inst, tmp_path / "bip")
    assert not (tmp_path / "bip.witness").exists()
    assert (tmp_path / "bip.graph").exists()


def test_write_instance_replaces_every_file_of_the_prefix(tmp_path):
    write_instance(gen_prop2_r4(6), tmp_path / "x")
    inst = random_valid_instance(4, 20, 1)
    assert inst.witness is None
    files = write_instance(inst, tmp_path / "x")
    assert not (tmp_path / "x.witness").exists()  # no witness of the old graph
    assert sorted(tmp_path.iterdir()) == sorted(files)
    fresh = write_instance(inst, tmp_path / "fresh" / "x")
    assert [p.read_bytes() for p in files] == [p.read_bytes() for p in fresh]


def test_write_instance_appends_its_suffixes_to_a_dotted_prefix(tmp_path):
    sibling = tmp_path / "inst.witness"
    sibling.write_text("not this instance's\n")
    files = write_instance(gen_prop2_r4(6), tmp_path / "inst.v1")
    assert [p.name for p in files] == [
        "inst.v1.graph", "inst.v1.terminals", "inst.v1.names", "inst.v1.witness",
    ]
    assert sibling.read_text() == "not this instance's\n"
    assert sorted(tmp_path.iterdir()) == sorted(files + [sibling])


# -- pinned outputs ---------------------------------------------------------------------

#: Every family at two or more parameter sets, among them the two largest
#: glued ones, (7, 72) and r5(100).  The Prop. 1 sets cover k > r + 1,
#: odd k, and r % 4 == 0 with k > r.
PINNED_FAMILIES = [
    (gen_prop1_odd, (5, 6)), (gen_prop1_odd, (7, 8)), (gen_prop1_odd, (5, 8)),
    (gen_prop1_even, (6, 6)), (gen_prop1_even, (6, 7)), (gen_prop1_even, (8, 8)),
    (gen_prop1_even, (8, 10)), (gen_prop1_even, (10, 12)), (gen_prop1_even, (12, 12)),
    (gen_prop1_bipartite, (4, 12)), (gen_prop1_bipartite, (5, 16)),
    (gen_prop2_r4, (6,)), (gen_prop2_r4, (9,)),
    (gen_prop2_general, (6, 50)), (gen_prop2_general, (7, 72)),
    (gen_prop2_r5, (96,)), (gen_prop2_r5, (100,)),
]

#: SHA-256 over each instance of ``PINNED_FAMILIES`` in order: its graph,
#: terminal set, witness, name map and claims, then the files
#: ``write_instance`` writes for it.
PINNED_FAMILIES_SHA256 = "7c9aae5dcf94c138e0d6ac69cc4d6cd4d465f9e22ac2833817ac7da1f504d5aa"


def test_family_outputs_are_pinned(tmp_path):
    digest = hashlib.sha256()
    for i, (gen, args) in enumerate(PINNED_FAMILIES):
        inst = gen(*args)
        digest.update(serialize_graph(inst.graph).encode())
        digest.update(serialize_terminals(inst.w).encode())
        digest.update(repr((inst.witness, sorted(inst.name_map.items()), inst.claims)).encode())
        for path in write_instance(inst, tmp_path / f"inst{i}"):
            digest.update(path.suffix.encode() + path.read_bytes())
    assert digest.hexdigest() == PINNED_FAMILIES_SHA256


def test_every_glued_block_is_decided_and_holds(monkeypatch):
    reports = []
    real = families.essential_edge_connectivity_at_least

    def recording(*args):
        reports.append(real(*args))
        return reports[-1]

    monkeypatch.setattr(families, "essential_edge_connectivity_at_least", recording)
    for gen, args in PINNED_FAMILIES:
        if gen in (gen_prop2_general, gen_prop2_r5):
            gen(*args)
    # H1 and H2 of each prop2-general, H1 of each prop2-r5
    assert len(reports) == 6
    assert all(rep.holds is True for rep in reports), reports


@pytest.mark.parametrize(
    "gen, args",
    [
        (gen_prop1_odd, (201, 202)),
        (gen_prop1_even, (202, 1000)),
        (gen_prop1_bipartite, (3000, 9000)),
        (gen_prop2_r4, (50001,)),
        (gen_prop2_general, (6, 30000)),
        (gen_prop2_r5, (44448,)),
        (random_valid_instance, (6, 333334, 0)),
    ],
)
def test_generators_refuse_instances_above_the_edge_limit(gen, args):
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"above the limit of {families.MAX_EDGES}"):
        gen(*args)
    assert time.perf_counter() - started < 1.0
