"""Acceptance suite: one test per criterion, printing a PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction

import pytest

from pathcycle.discharge import GraphHypotheses, discharge, rule_constants
from pathcycle.factor import brute_force_f_factor, degree_spec_from_terminals, solve
from pathcycle.families import (
    FamilyInstance,
    gen_prop1_bipartite,
    gen_prop1_even,
    gen_prop1_odd,
    gen_prop2_general,
    gen_prop2_r4,
    gen_prop2_r5,
    random_valid_instance,
)
from pathcycle.graphs import Graph, serialize_graph, serialize_terminals
from pathcycle.tutte import evaluate_pair, search_certificate
from pathcycle.verify import (
    check_regular,
    check_terminal_set,
    edge_connectivity,
    find_induced_star,
)

from .conftest import is_connected, random_connected_graph, sample_even_terminal_sets

SEED = 0x5EED


def _agree(g: Graph, w: tuple[int, ...]) -> bool:
    """solve feasible <=> oracle finds a factor <=> no deficiency certificate."""
    f = degree_spec_from_terminals(g, w)
    via_solve = solve(g, w) is not None
    via_oracle = brute_force_f_factor(g, f, max_edges=64) is not None
    via_certificate = search_certificate(g, f) is None
    assert via_solve == via_oracle == via_certificate, (g.edges, w)
    return via_solve


@pytest.fixture(scope="session")
def random_instances() -> list[tuple[int, int, FamilyInstance]]:
    out = []
    for r in (4, 5, 6):
        for seed in range(200):
            size = 14 + (seed % 7) * 2
            out.append((r, seed, random_valid_instance(r, size, seed)))
    return out


def test_criterion_1_duality_oracle_suite(atlas_connected):
    started = time.time()
    rng = random.Random(SEED)
    cases = 0
    feasible = 0
    for g in atlas_connected:
        for w in sample_even_terminal_sets(rng, g.n, 20):
            feasible += _agree(g, w)
            cases += 1
    for i in range(500):
        n = 8 + i % 3
        g = random_connected_graph(rng, n, rng.uniform(0.25, 0.45))
        for w in sample_even_terminal_sets(rng, n, 20):
            feasible += _agree(g, w)
            cases += 1
    elapsed = time.time() - started
    assert elapsed < 300, f"criterion 1 exceeded its 5 minute budget: {elapsed:.0f}s"
    print(
        f"ACCEPTANCE 1 (duality oracle suite): PASS - {cases} cases "
        f"({feasible} feasible), 0 disagreements, {elapsed:.1f}s"
    )


def test_criterion_2_paper_numbers_exact():
    started = time.time()
    inst = gen_prop1_odd(5, 6)
    f = degree_spec_from_terminals(inst.graph, inst.w)
    s, t, _ = inst.witness
    cert = evaluate_pair(inst.graph, f, s, t)
    assert cert.delta == -2 and f.subset_sum(s) == 10 and cert.q == 12

    inst = gen_prop1_even(10, 12)
    f = degree_spec_from_terminals(inst.graph, inst.w)
    s, t, _ = inst.witness
    cert = evaluate_pair(inst.graph, f, s, t)
    assert cert.delta == -2 and f.subset_sum(s) == 8 and cert.q == 10

    inst = gen_prop2_r4(6)
    f = degree_spec_from_terminals(inst.graph, inst.w)
    s, t, _ = inst.witness
    assert evaluate_pair(inst.graph, f, s, t).delta == -2

    connected_instances = [
        gen_prop1_odd(5, 6),
        gen_prop1_even(6, 6),
        gen_prop1_even(8, 8),
        gen_prop1_even(10, 12),
        gen_prop1_bipartite(4, 12),
        gen_prop2_r4(6),
        gen_prop2_general(6, 50),
        gen_prop2_r5(96),
    ] + [random_valid_instance(r, 16, seed=0) for r in (4, 5, 6)]
    for inst in connected_instances:
        assert is_connected(inst.graph), inst.name
        f = degree_spec_from_terminals(inst.graph, inst.w)
        assert evaluate_pair(inst.graph, f, (), ()).delta == 0, inst.name

    elapsed = time.time() - started
    assert elapsed < 30, f"criterion 2 exceeded its 30s budget: {elapsed:.0f}s"
    print(
        "ACCEPTANCE 2 (paper numbers exact): PASS - "
        f"delta=-2 with f(S)/q reproduced, delta(0,0)=0 on "
        f"{len(connected_instances)} instances, {elapsed:.1f}s"
    )


def test_criterion_3_family_validity():
    started = time.time()
    plan = [
        (gen_prop1_odd(5, 6), "==", 4, True, "distance3"),
        (gen_prop1_even(6, 6), "==", 4, True, "distance3"),
        (gen_prop1_even(8, 8), "==", 6, True, "distance3"),
        (gen_prop1_even(10, 12), "==", 8, True, "distance3"),
        (gen_prop1_bipartite(4, 12), "==", 4, False, "distance3"),
        (gen_prop2_r4(6), "==", 4, True, "nbhd2"),
        (gen_prop2_general(6, 50), "==", 6, True, "nbhd2"),
        (gen_prop2_r5(96), "==", 5, True, "nbhd2"),
    ]
    for inst, rel, lam_expected, star_free, mode in plan:
        g = inst.graph
        assert check_regular(g, inst.r).holds, inst.name
        star = find_induced_star(g, inst.r)
        assert (star is None) == star_free, (inst.name, star)
        lam, cut = edge_connectivity(g)
        assert lam == lam_expected, (inst.name, lam)
        if mode == "distance3":
            assert check_terminal_set(g, inst.w, "distance3").holds, inst.name
        else:
            wset = set(inst.w)
            counts = [
                sum(1 for x in g.neighbors(v) if x in wset) for v in range(g.n)
            ]
            assert max(counts) == 2, inst.name
    elapsed = time.time() - started
    assert elapsed < 600, f"criterion 3 exceeded its 10 minute budget: {elapsed:.0f}s"
    print(
        f"ACCEPTANCE 3 (family validity): PASS - {len(plan)} instances "
        f"(largest {max(p[0].graph.n for p in plan)} vertices), {elapsed:.1f}s"
    )


#: SHA-256 over the serialized graph and terminal set of every instance in
#: ``random_instances``, in order.  ``random_valid_instance`` seeds from a
#: tuple hash; this pins the acceptance data of criteria 4 and 5 bit for bit.
RANDOM_INSTANCES_SHA256 = "4a564e71eacbf1aaebc19894172ef11b9ef9060a06a95dd167c133afdf13a7c1"


def test_criterion_4_5_instances_are_pinned(random_instances):
    digest = hashlib.sha256()
    for _r, _seed, inst in random_instances:
        digest.update(serialize_graph(inst.graph).encode())
        digest.update(serialize_terminals(inst.w).encode())
    assert digest.hexdigest() == RANDOM_INSTANCES_SHA256


def test_criterion_4_theorem_end_to_end(random_instances):
    started = time.time()
    infeasible = []
    for r, seed, inst in random_instances:
        system = solve(inst.graph, inst.w)
        if system is None:
            infeasible.append((r, seed))
            continue
        system.validate(inst.graph, inst.w)
    assert not infeasible, f"counterexamples to the existence theorem: {infeasible}"
    elapsed = time.time() - started
    print(
        f"ACCEPTANCE 4 (existence end-to-end): PASS - "
        f"{len(random_instances)} instances (200 seeds x r in 4,5,6), "
        f"100% feasible, {elapsed:.1f}s"
    )


def test_criterion_5_discharging_verifier(random_instances):
    started = time.time()
    rng = random.Random(SEED ^ 5)
    pairs_total = 0
    for r, seed, inst in random_instances:
        g = inst.graph
        hyp = GraphHypotheses.compute(g, r)
        assert hyp.regular and hyp.star_free and hyp.edge_connected, (r, seed)
        per_instance = 1000
        for _ in range(per_instance):
            perm = list(range(g.n))
            rng.shuffle(perm)
            s: list[int] = []
            t: list[int] = []
            want_t = rng.randrange(0, 5)
            want_s = rng.randrange(0, 6)
            for v in perm:
                if len(t) < want_t and all(not g.has_edge(v, u) for u in t):
                    t.append(v)
                elif len(s) < want_s:
                    s.append(v)
            rep = discharge(g, inst.w, s, t, r, hypotheses=hyp)
            assert rep.conservation_ok
            assert rep.identity_ok
            assert rep.all_bounds_hold, rep.format()
            assert rep.derived_delta >= 0
            assert rep.delta_consistent
            pairs_total += 1
    elapsed = time.time() - started
    print(
        f"ACCEPTANCE 5 (discharging verifier): PASS - {pairs_total} sampled "
        f"pairs across {len(random_instances)} instances, exact arithmetic, "
        f"{elapsed:.1f}s"
    )


def test_criterion_6_counterexample_infeasibility():
    rows = [
        (gen_prop1_odd(5, 6), 132),
        (gen_prop1_even(10, 12), 238),
        (gen_prop2_r4(6), 60),
    ]
    solve_times = []
    for inst, expected_n in rows:
        assert inst.graph.n == expected_n
        t0 = time.time()
        assert solve(inst.graph, inst.w) is None, inst.name
        solve_elapsed = time.time() - t0
        assert solve_elapsed < 60, (inst.name, solve_elapsed)
        t0 = time.time()
        f = degree_spec_from_terminals(inst.graph, inst.w)
        s, t, _ = inst.witness
        assert evaluate_pair(inst.graph, f, s, t).delta == -2
        replay_elapsed = time.time() - t0
        assert replay_elapsed < 1, (inst.name, replay_elapsed)
        solve_times.append(solve_elapsed)
    print(
        "ACCEPTANCE 6 (counterexample infeasibility): PASS - solve times "
        + ", ".join(f"{t:.2f}s" for t in solve_times)
        + "; witness replays < 1s"
    )


def test_criterion_7_rule_constant_inequalities():
    for r in range(4, 65):
        rc = rule_constants(r)
        assert rc.s1_to_neighbor == Fraction(1, r)
        assert rc.s2_to_terminal == Fraction(2 * r - 1, r * (r - 1))
        assert rc.component_to_terminal == Fraction(r - 1, r)
        assert rc.s1_to_neighbor <= rc.s2_to_terminal <= rc.component_to_terminal
        assert rc.claim4_single_neighbor == Fraction(
            3 * r * r - 5 * r + 1, r * (r - 1)
        )
        assert rc.claim4_single_neighbor >= 2
    assert rule_constants(4).claim4_single_neighbor == Fraction(29, 12)
    print(
        "ACCEPTANCE 7 (rule constants): PASS - exact inequalities for r in 4..64"
    )
