"""Runtime verifier for the charge-redistribution argument.

Given disjoint (S, T) and terminals W on an r-regular instance, assigns
initial charges

    phi(D) = 0 for each f-odd component D,
    phi(x) = 1 on S_1 = S n W,   2 on S_2 = S - W,
    phi(y) = deg_{G-S-U}(y) on T,

then moves charge along edges: S_1 sends 1/r to adjacent T vertices and
odd components, S_2 sends (2r-1)/(r(r-1)) to adjacent T vertices and 1/r
to odd components, and each odd component sends (r-1)/r to each adjacent
T vertex.  All arithmetic is exact: charges are integer multiples of
1/(r(r-1)) throughout, exposed as fractions.

The report checks, unconditionally, conservation of the total charge, the
identity  sum_{S u T} phi = f(S) + deg_{G-S}(T) - e(T, U),  and the exact
reconstruction of delta(S, T) from final charges; and, flagged with their
preconditions, the local lower bounds phi*(x) >= 0 on S, phi*(y) >= 2 on
T, and phi*(D) >= 1 - e(T, D), whose conjunction forces delta >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .factor import degree_spec_from_terminals
from .graphs import Graph, as_vertex_set
from .tutte import _pair_profile
from .verify import GraphHypotheses, check_terminal_set


@dataclass(frozen=True)
class RuleConstants:
    """The three transfer amounts for a given degree r, as exact fractions."""

    r: int
    s1_to_neighbor: Fraction        # rule for S_1 vertices, and S to components
    s2_to_terminal: Fraction        # rule for S_2 vertices toward T
    component_to_terminal: Fraction
    claim4_single_neighbor: Fraction  # bound value when deg_{G-S-U}(y) = 1

    @property
    def inequalities_hold(self) -> bool:
        return (
            self.s1_to_neighbor
            <= self.s2_to_terminal
            <= self.component_to_terminal
        )


def _rule_numerators(r: int) -> tuple[int, int, int]:
    """The three transfer amounts as numerators over r(r-1): 1/r,
    (2r-1)/(r(r-1)) and (r-1)/r."""
    return r - 1, 2 * r - 1, (r - 1) ** 2


def rule_constants(r: int) -> RuleConstants:
    if r < 2:
        raise ValueError("degree must be at least 2")
    rr = r * (r - 1)
    s1, s2_t, comp_t = _rule_numerators(r)
    return RuleConstants(
        r=r,
        s1_to_neighbor=Fraction(s1, rr),
        s2_to_terminal=Fraction(s2_t, rr),
        component_to_terminal=Fraction(comp_t, rr),
        claim4_single_neighbor=Fraction(3 * r * r - 5 * r + 1, rr),
    )


@dataclass(frozen=True)
class ChargeState:
    """Initial and final charges of one discharge run.

    Charges are stored as integer numerators over ``scale`` = r(r-1).  The
    ``final_*`` properties give the final charges as exact fractions, and
    ``total_initial`` and ``total_final`` the two totals.  Every odd
    component starts at charge 0.
    """

    s1: tuple[int, ...]
    s2: tuple[int, ...]
    t: tuple[int, ...]
    u: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    scale: int
    initial_vertex_num: dict[int, int]
    final_vertex_num: dict[int, int]
    final_component_num: tuple[int, ...]

    @property
    def final_vertex(self) -> dict[int, Fraction]:
        return {v: Fraction(c, self.scale) for v, c in self.final_vertex_num.items()}

    @property
    def final_component(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.scale) for c in self.final_component_num)

    @property
    def total_initial(self) -> Fraction:
        return Fraction(sum(self.initial_vertex_num.values()), self.scale)

    @property
    def total_final(self) -> Fraction:
        return Fraction(
            sum(self.final_vertex_num.values()) + sum(self.final_component_num),
            self.scale,
        )


@dataclass(frozen=True)
class ClaimCheck:
    name: str
    holds: bool
    guaranteed: bool
    missing_preconditions: tuple[str, ...]
    first_violation: object = None

    def format_line(self) -> str:
        status = "PASS" if self.holds else f"FAIL {self.first_violation!r}"
        if self.guaranteed:
            note = "guaranteed by preconditions"
        else:
            note = "not guaranteed: missing " + ", ".join(self.missing_preconditions)
        return f"{self.name}: {status} ({note})"


@dataclass(frozen=True)
class DischargeReport:
    r: int
    state: ChargeState
    conservation_ok: bool
    identity_lhs: Fraction
    identity_rhs: int
    t_independent: bool
    terminal_nbhd1: bool
    hypotheses: GraphHypotheses
    claim_s_nonnegative: ClaimCheck
    claim_t_at_least_two: ClaimCheck
    claim_component_bound: ClaimCheck
    derived_delta: int
    direct_delta: int

    @property
    def identity_ok(self) -> bool:
        return self.identity_lhs == self.identity_rhs

    @property
    def delta_consistent(self) -> bool:
        return self.derived_delta == self.direct_delta

    @property
    def all_bounds_hold(self) -> bool:
        return (
            self.claim_s_nonnegative.holds
            and self.claim_t_at_least_two.holds
            and self.claim_component_bound.holds
        )

    def format(self) -> str:
        lines = [
            f"conservation: {'PASS' if self.conservation_ok else 'FAIL'}"
            f" (total = {self.state.total_initial})",
            f"charge-identity: {'PASS' if self.identity_ok else 'FAIL'}"
            f" ({self.identity_lhs} vs {self.identity_rhs})",
            self.claim_s_nonnegative.format_line(),
            self.claim_t_at_least_two.format_line(),
            self.claim_component_bound.format_line(),
            f"delta: {self.derived_delta}"
            f" (direct evaluation {'agrees' if self.delta_consistent else 'DISAGREES'})",
        ]
        if self.all_bounds_hold:
            lines.append("conclusion: all bounds hold, delta >= 0 forced")
        return "\n".join(lines) + "\n"


def discharge(
    g: Graph,
    w: Iterable[int],
    s: Iterable[int],
    t: Iterable[int],
    r: int,
    *,
    hypotheses: GraphHypotheses | None = None,
) -> DischargeReport:
    """Run the discharge procedure and check every claimed bound.

    ``r`` must be at least 4: the rule-amount ordering that the bounds rely
    on fails below that.  ``hypotheses`` may carry precomputed instance
    checks (the edge-connectivity check is the expensive one), computed
    for this ``r``; when absent they are computed here.
    """
    if r < 4:
        raise ValueError("discharge rules require r >= 4")
    if hypotheses is not None and hypotheses.r != r:
        raise ValueError(f"hypotheses were computed for r = {hypotheses.r}, not r = {r}")
    ws = as_vertex_set(g, w, "terminal set")
    f = degree_spec_from_terminals(g, ws)
    prof = _pair_profile(g, f, s, t)  # validates S and T
    if hypotheses is None:
        hypotheses = GraphHypotheses.compute(g, r)

    ss, ts = prof.s, prof.t
    comps, comp_id, side = prof.odd, prof.comp_id, prof.side
    q = len(comps)
    targets = f.targets  # 1 on W, 2 elsewhere
    s1 = tuple(v for v in ss if targets[v] == 1)
    s2 = tuple(v for v in ss if targets[v] != 1)

    scale = r * (r - 1)
    amt_s1, amt_s2_t, amt_comp_t = _rule_numerators(r)
    amt_s_comp = amt_s1  # S sends 1/r to each adjacent odd component

    # Every transfer has an endpoint in S or T, so walking N(T) and then
    # N(S) moves all of them.
    init_v: dict[int, int] = {}
    for v in s1:
        init_v[v] = scale
    for v in s2:
        init_v[v] = 2 * scale
    final_v = dict(init_v)
    final_c = [0] * q
    t_independent = True
    for y in ts:
        outside = 0
        gain = 0
        for x in g.neighbors(y):
            mark = side[x]
            if mark == 1:
                continue
            j = comp_id.get(x)
            if j is None:
                outside += 1
                if mark == 2:
                    t_independent = False
            else:
                final_c[j] -= amt_comp_t
                gain += amt_comp_t
        init_v[y] = outside * scale
        final_v[y] = outside * scale + gain
    for a in ss:
        to_t = amt_s1 if targets[a] == 1 else amt_s2_t
        for b in g.neighbors(a):
            if side[b] == 2:
                final_v[a] -= to_t
                final_v[b] += to_t
            else:
                j = comp_id.get(b)
                if j is not None:
                    final_v[a] -= amt_s_comp
                    final_c[j] += amt_s_comp

    e_t_u = sum(prof.e_t)
    init_total = sum(init_v.values())
    conservation = init_total == sum(final_v.values()) + sum(final_c)
    identity_lhs = Fraction(init_total, scale)
    identity_rhs = f.subset_sum(ss) + prof.deg_gs_t - e_t_u

    nbhd1 = check_terminal_set(g, ws, "nbhd1").holds is True

    def claim(name, holds, first, needed: dict[str, bool]) -> ClaimCheck:
        missing = tuple(k for k, ok in needed.items() if not ok)
        return ClaimCheck(name, holds, not missing, missing, first)

    viol3 = next((v for v in ss if final_v[v] < 0), None)
    claim3 = claim(
        "claim-s-nonnegative",
        viol3 is None,
        None if viol3 is None else (viol3, Fraction(final_v[viol3], scale)),
        {
            "r-regular": hypotheses.regular,
            "star-free": hypotheses.star_free,
            "T independent": t_independent,
        },
    )
    viol4 = next((y for y in ts if final_v[y] < 2 * scale), None)
    claim4 = claim(
        "claim-t-at-least-two",
        viol4 is None,
        None if viol4 is None else (viol4, Fraction(final_v[viol4], scale)),
        {
            "r-regular": hypotheses.regular,
            "terminal nbhd1": nbhd1,
        },
    )
    e_t_comp = prof.e_t
    viol5 = next(
        (j for j in range(q) if final_c[j] < scale * (1 - e_t_comp[j])),
        None,
    )
    claim5 = claim(
        "claim-component-bound",
        viol5 is None,
        None if viol5 is None else (comps[viol5], Fraction(final_c[viol5], scale)),
        {"r-edge-connected": hypotheses.edge_connected},
    )

    # delta reconstructed from final charges: exact division by the scale
    total_final = sum(final_v.values()) + sum(final_c)
    numerator = total_final + scale * (e_t_u - f.subset_sum(ts) - q)
    if numerator % scale != 0:
        raise AssertionError("reconstructed deficiency is not an integer")
    derived = numerator // scale

    state = ChargeState(
        s1=s1,
        s2=s2,
        t=ts,
        u=tuple(sorted(comp_id)),
        components=tuple(comps),
        scale=scale,
        initial_vertex_num=init_v,
        final_vertex_num=final_v,
        final_component_num=tuple(final_c),
    )

    return DischargeReport(
        r=r,
        state=state,
        conservation_ok=conservation,
        identity_lhs=identity_lhs,
        identity_rhs=identity_rhs,
        t_independent=t_independent,
        terminal_nbhd1=nbhd1,
        hypotheses=hypotheses,
        claim_s_nonnegative=claim3,
        claim_t_at_least_two=claim4,
        claim_component_bound=claim5,
        derived_delta=derived,
        direct_delta=prof.delta,
    )
