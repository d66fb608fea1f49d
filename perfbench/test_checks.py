"""Hand-computed cases for the benchmark's independent checks.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

import checks
import workloads

C5 = (5, [(i, (i + 1) % 5) for i in range(5)])
K4 = (4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
P3 = (3, [(0, 1), (1, 2)])
PETERSEN = (10, [(i, (i + 1) % 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
            + [(i, 5 + i) for i in range(5)])


def test_deficiency_by_hand():
    n, edges = C5
    f = checks.terminal_spec(n, [])
    assert checks.deficiency(n, edges, f, [], []) == 0
    # G - {0} is a path with f-sum 8: q = 0, delta = f(S) = 2
    assert checks.deficiency(n, edges, f, [0], []) == 2
    # P3 with f = 2 everywhere: T = {0} leaves {1, 2} with f + e(D, T) = 5,
    # so delta = deg(0) - f(0) - 1 = -2
    n, edges = P3
    assert checks.deficiency(n, edges, checks.terminal_spec(n, []), [], [0]) == -2
    with pytest.raises(ValueError):
        checks.deficiency(n, edges, [2, 2, 2], [0], [0])


@pytest.fixture(scope="module")
def pathcycle_families():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from pathcycle import families

    return families


@pytest.mark.parametrize("gen, params, n", [
    ("gen_prop1_odd", (5, 6), 132), ("gen_prop1_even", (10, 12), 238), ("gen_prop2_r4", (6,), 60),
])
def test_paper_witnesses_have_deficiency_minus_two(pathcycle_families, gen, params, n):
    inst = getattr(pathcycle_families, gen)(*params)
    g = inst.graph
    s, t, _ = inst.witness
    assert g.n == n
    assert checks.deficiency(g.n, g.edges, checks.terminal_spec(g.n, inst.w), s, t) == -2


def test_structural_properties():
    assert checks.edge_connectivity(*PETERSEN) == 3
    assert checks.edge_connectivity(*P3) == 1
    assert checks.is_regular(*PETERSEN, 3)
    assert not checks.is_regular(*P3, 2)
    # the Petersen graph has no triangles, so every neighbourhood is independent
    assert not checks.star_free(*PETERSEN, 3)
    assert checks.star_free(*K4, 3)


def test_terminal_conditions():
    n, edges = 6, [(i, (i + 1) % 6) for i in range(6)]
    assert checks.terminals_distance3(n, edges, [0, 3])
    assert not checks.terminals_distance3(n, edges, [0, 2])
    assert not checks.terminals_nbhd1(n, edges, [0, 2])  # vertex 1 sees both
    assert checks.terminals_nbhd1(n, edges, [0, 1])
    assert not checks.terminals_nbhd1(n, edges, [0])  # odd size


def test_system_validator():
    n, edges = C5
    assert checks.system_errors(n, edges, [], [], [(0, 1, 2, 3, 4)]) == []
    assert checks.system_errors(n, edges, [0, 4], [(0, 1, 2, 3, 4)], []) == []
    assert checks.system_errors(n, edges, [0, 3], [(0, 1, 2, 3, 4)], [])  # ends differ
    assert checks.system_errors(n, edges, [0, 3], [(0, 1, 2, 3)], [])  # 4 uncovered
    assert checks.system_errors(n, edges, [], [], [(0, 2, 4, 1, 3)])  # not edges
    assert checks.system_errors(n, edges, [0, 1], [(0, 1)], [(2, 3, 4)])  # 4-2 missing
    n, edges = K4
    assert checks.system_errors(n, edges, [0, 1], [(0, 1)], [(2, 3)])  # 2-cycle
    # terminals 0 and 2 end a path, 1 sits inside one
    assert checks.system_errors(n, edges, [0, 1, 2, 3], [(0, 1, 2), (3,)], [])
    assert checks.read_system("path: 0 1 2\ncycle: 3 4 5\n") == ([(0, 1, 2)], [(3, 4, 5)])
    with pytest.raises(ValueError):
        checks.read_system("INFEASIBLE\n")


def test_factor_validator():
    n, edges = K4
    assert checks.factor_errors(n, edges, [1] * 4, [(0, 1), (2, 3)]) == []
    assert checks.factor_errors(n, edges, [1] * 4, [(0, 1)])
    assert checks.factor_errors(*P3, [1, 1, 0], [(0, 2)])


@pytest.mark.parametrize("n", range(8, 13))
def test_planted_instances_carry_their_proof(n):
    rng = random.Random(n)
    for _ in range(20):
        edges, w, (s, t) = workloads.planted_infeasible(rng, n)
        assert checks.edge_connectivity(n, edges) >= 1
        assert checks.deficiency(n, edges, checks.terminal_spec(n, w), s, t) == -2
        edges, w, (paths, cycles) = workloads.planted_feasible(rng, n)
        assert checks.edge_connectivity(n, edges) >= 1
        assert checks.system_errors(n, edges, w, paths, cycles) == []
