import random
from fractions import Fraction

import pytest

from pathcycle.discharge import (
    GraphHypotheses,
    discharge,
    rule_constants,
)
from pathcycle.factor import degree_spec_from_terminals
from pathcycle.families import random_valid_instance
from pathcycle.tutte import evaluate_pair

from .conftest import (
    cycle_graph,
    naive_nbhd1_violation,
    naive_pair_evaluation,
    path_graph,
    random_connected_graph,
    random_graph,
    random_pair,
    star_graph,
)


# -- rule constants -----------------------------------------------------------


def test_rule_constants_r4():
    rc = rule_constants(4)
    assert rc.s1_to_neighbor == Fraction(1, 4)
    assert rc.s2_to_terminal == Fraction(7, 12)
    assert rc.component_to_terminal == Fraction(3, 4)
    assert rc.claim4_single_neighbor == Fraction(29, 12)
    assert rc.inequalities_hold


def test_rule_inequalities_hold_from_four_up():
    for r in range(4, 65):
        rc = rule_constants(r)
        assert rc.inequalities_hold
        assert rc.claim4_single_neighbor >= 2


def test_rule_inequalities_fail_below_four():
    assert not rule_constants(3).inequalities_hold


# -- unconditional checks -------------------------------------------------------


def _random_disjoint_pair(rng, g, t_independent=True):
    perm = list(range(g.n))
    rng.shuffle(perm)
    s, t = [], []
    for v in perm:
        if len(t) < 3 and (
            not t_independent or all(not g.has_edge(v, u) for u in t)
        ):
            t.append(v)
        elif len(s) < 4:
            s.append(v)
    return tuple(sorted(s)), tuple(sorted(t))


def test_conservation_and_identity_hold_without_hypotheses():
    """Charge conservation and the initial-charge identity are algebraic:
    they hold on graphs violating every structural hypothesis."""
    rng = random.Random(3)
    hyp = GraphHypotheses(r=4, regular=False, star_free=False, edge_connected=False)
    for g in (path_graph(7), star_graph(6), cycle_graph(9)):
        for _ in range(30):
            s, t = _random_disjoint_pair(rng, g, t_independent=False)
            w = tuple(v for v in range(0, g.n, 3))[:2]
            rep = discharge(g, w, s, t, 4, hypotheses=hyp)
            assert rep.conservation_ok
            assert rep.identity_ok
            assert rep.state.total_initial == rep.state.total_final
            assert rep.delta_consistent


def test_derived_delta_matches_direct_evaluation():
    rng = random.Random(5)
    for _ in range(40):
        g = random_connected_graph(rng, 9, 0.4)
        w = tuple(sorted(rng.sample(range(9), 2)))
        s, t = _random_disjoint_pair(rng, g, t_independent=False)
        hyp = GraphHypotheses(r=5, regular=False, star_free=False, edge_connected=False)
        rep = discharge(g, w, s, t, 5, hypotheses=hyp)
        f = degree_spec_from_terminals(g, w)
        assert rep.derived_delta == evaluate_pair(g, f, s, t).delta


def _naive_final_charges(g, w, s, t, r, odd):
    """Final charges from one pass over every edge in both directions."""
    rc = rule_constants(r)
    comp_of = {v: j for j, comp in enumerate(odd) for v in comp}
    final = {v: Fraction(1 if v in w else 2) for v in s}
    for y in t:
        final[y] = Fraction(sum(1 for x in g.neighbors(y) if x not in s and x not in comp_of))
    final_c = [Fraction(0)] * len(odd)
    for x, y in g.edges:
        for a, b in ((x, y), (y, x)):
            if a in s and b in t:
                amt = rc.s1_to_neighbor if a in w else rc.s2_to_terminal
                final[a] -= amt
                final[b] += amt
            elif a in s and b in comp_of:
                final[a] -= rc.s1_to_neighbor
                final_c[comp_of[b]] += rc.s1_to_neighbor
            elif a in comp_of and b in t:
                final_c[comp_of[a]] -= rc.component_to_terminal
                final[b] += rc.component_to_terminal
    return final, tuple(final_c)


def test_discharge_matches_naive_pair_evaluation():
    rng = random.Random(47)
    seen = set()
    for i in range(300):
        n = rng.randrange(0, 16)
        g = random_graph(rng, n, rng.uniform(0.05, 0.6))
        w = rng.sample(range(n), 2 * rng.randrange(n // 2 + 1))
        s, t = random_pair(rng, n)
        r = 4 + i % 3
        hyp = GraphHypotheses(r=r, regular=False, star_free=False, edge_connected=False)
        rep = discharge(g, w, s, t, r, hypotheses=hyp)
        f = degree_spec_from_terminals(g, w)
        want = naive_pair_evaluation(g, f, s, t)
        key = (g.edges, w, s, t)
        assert rep.state.components == tuple(want["odd"]), key
        assert rep.state.u == want["u"], key
        assert rep.derived_delta == rep.direct_delta == want["delta"], key
        assert rep.identity_rhs == f.subset_sum(s) + want["deg_gs_t"] - sum(want["e_t"]), key
        final, final_c = _naive_final_charges(g, set(w), set(s), set(t), r, want["odd"])
        assert rep.state.final_vertex == final, key
        assert rep.state.final_component == final_c, key
        bound = all(c >= 1 - e for c, e in zip(final_c, want["e_t"]))
        assert rep.claim_component_bound.holds == bound, key
        assert rep.terminal_nbhd1 == (naive_nbhd1_violation(g, w) is None), key
        adjacent_t = any(g.has_edge(a, b) for a in t for b in t)
        assert rep.t_independent == (not adjacent_t), key
        assert rep.conservation_ok and rep.identity_ok, key
        seen.update({
            "adjacent T" if adjacent_t else "independent T",
            "nbhd1" if rep.terminal_nbhd1 else "not nbhd1",
            "component bound fails" if not bound else "component bound holds",
            "S empty" if not s else "S",
            "T empty" if not t else "T",
        })
    assert len(seen) == 10, seen


def test_charge_denominators_divide_r_times_r_minus_1():
    g = cycle_graph(8)
    hyp = GraphHypotheses(r=4, regular=False, star_free=False, edge_connected=False)
    rep = discharge(g, (0, 4), (1,), (3, 6), 4, hypotheses=hyp)
    for val in list(rep.state.final_vertex.values()) + list(rep.state.final_component):
        assert isinstance(val, Fraction)
        assert (4 * 3) % val.denominator == 0


# -- claim bounds on valid instances ----------------------------------------------


@pytest.mark.parametrize("r", [4, 5, 6])
def test_claim_bounds_hold_on_valid_instances(r):
    inst = random_valid_instance(r, 20, seed=11)
    g = inst.graph
    hyp = GraphHypotheses.compute(g, r)
    assert hyp.regular and hyp.star_free and hyp.edge_connected
    rng = random.Random(13)
    for _ in range(150):
        s, t = _random_disjoint_pair(rng, g)
        rep = discharge(g, inst.w, s, t, r, hypotheses=hyp)
        assert rep.t_independent and rep.terminal_nbhd1
        assert rep.claim_s_nonnegative.guaranteed
        assert rep.claim_t_at_least_two.guaranteed
        assert rep.claim_component_bound.guaranteed
        assert rep.all_bounds_hold, rep.format()
        assert rep.derived_delta >= 0
        assert rep.delta_consistent


def test_guaranteed_flags_drop_when_preconditions_fail():
    g = star_graph(5)  # not 4-regular, not K_{1,4}-free
    hyp = GraphHypotheses.compute(g, 4)
    assert not hyp.regular and not hyp.star_free
    rep = discharge(g, (), (0,), (1, 2), 4, hypotheses=hyp)
    assert not rep.claim_s_nonnegative.guaranteed
    assert "r-regular" in rep.claim_s_nonnegative.missing_preconditions
    # adjacent T vertices are reported against the independence precondition
    g2 = cycle_graph(6)
    hyp2 = GraphHypotheses(r=4, regular=False, star_free=True, edge_connected=False)
    rep2 = discharge(g2, (), (0,), (2, 3), 4, hypotheses=hyp2)
    assert not rep2.t_independent
    assert "T independent" in rep2.claim_s_nonnegative.missing_preconditions


def test_rejects_small_r_and_overlap():
    g = cycle_graph(6)
    with pytest.raises(ValueError, match="r >= 4"):
        discharge(g, (), (), (), 3)
    with pytest.raises(ValueError, match="overlap"):
        discharge(g, (), (0,), (0,), 4)


def test_rejects_hypotheses_computed_for_another_degree():
    inst = random_valid_instance(5, 22, 42)
    hyp = GraphHypotheses.compute(inst.graph, 4)
    with pytest.raises(ValueError, match="computed for r = 4, not r = 5"):
        discharge(inst.graph, inst.w, (), (), 5, hypotheses=hyp)


def test_report_format_mentions_all_sections():
    inst = random_valid_instance(4, 16, seed=2)
    hyp = GraphHypotheses.compute(inst.graph, 4)
    rep = discharge(inst.graph, inst.w, (0,), (2,), 4, hypotheses=hyp)
    text = rep.format()
    for token in ("conservation", "charge-identity", "claim", "delta:"):
        assert token in text
