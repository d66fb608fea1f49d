"""Deficiency certificates for f-factor infeasibility.

For disjoint vertex sets S, T the deficiency is

    delta(S, T) = f(S) + deg_{G-S}(T) - f(T) - q(S, T),

where q counts the components D of G - (S u T) with f(V(D)) + e(D, T) odd.
An f-factor exists iff delta(S, T) >= 0 for every disjoint pair, and
delta always has the parity of f(V(G)).  A pair with delta < 0 is an
infeasibility certificate that can be replayed in linear time.

A pair is evaluated by :func:`evaluate_pair` and a stored certificate is
replayed by :meth:`TutteCertificate.validate`; both, and the discharge
verifier, read one traversal of G - (S u T) made by :func:`_pair_profile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import GraphFormatError, UndecidedAtScaleError
from .factor import DegreeSpec, _check_spec_length
from .graphs import Graph, as_vertex_set, decode_ascii, parse_int


def _disjoint_sets(
    g: Graph, s: Iterable[int], t: Iterable[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    ss = as_vertex_set(g, s, "S")
    ts = as_vertex_set(g, t, "T")
    overlap = set(ss) & set(ts)
    if overlap:
        raise ValueError(f"S and T overlap at vertex {min(overlap)}")
    return ss, ts


class _PairProfile(NamedTuple):
    """What the pair-level checks read about G - (S u T), from one BFS.

    ``odd`` lists the f-odd components as sorted tuples by ascending least
    vertex, ``e_t`` holds e(D, T) for each of them, ``comp_id`` maps every
    odd-component vertex to its index in ``odd``, and ``side`` marks each
    vertex as in S (1), in T (2) or elsewhere (3).
    """

    s: tuple[int, ...]
    t: tuple[int, ...]
    side: bytearray
    odd: list[tuple[int, ...]]
    e_t: list[int]
    comp_id: dict[int, int]
    deg_gs_t: int
    delta: int


def _pair_profile(
    g: Graph, f: DegreeSpec, s: Iterable[int], t: Iterable[int]
) -> _PairProfile:
    """One traversal of G - (S u T): odd components, e(D, T), deg_{G-S}(T), delta."""
    _check_spec_length(g, f)
    ss, ts = _disjoint_sets(g, s, t)
    adj = g._adj
    targets = f.targets
    side = bytearray(g.n)
    for v in ss:
        side[v] = 1
    for v in ts:
        side[v] = 2
    odd: list[tuple[int, ...]] = []
    e_t: list[int] = []
    comp_id: dict[int, int] = {}
    start = side.find(0)
    while start >= 0:
        side[start] = 3
        comp = [start]
        fsum = 0
        et = 0
        for u in comp:  # grows while it is walked
            fsum += targets[u]
            for v in adj[u]:
                mark = side[v]
                if not mark:
                    side[v] = 3
                    comp.append(v)
                elif mark == 2:
                    et += 1
        if (fsum + et) & 1:
            comp_id.update(dict.fromkeys(comp, len(odd)))
            comp.sort()
            odd.append(tuple(comp))
            e_t.append(et)
        start = side.find(0, start + 1)
    deg_gs_t = 0
    for y in ts:
        for x in adj[y]:
            if side[x] != 1:
                deg_gs_t += 1
    value = sum(targets[v] for v in ss) + deg_gs_t - sum(targets[v] for v in ts) - len(odd)
    if (value - f.total) % 2 != 0:
        raise AssertionError("deficiency parity disagrees with f(V(G))")
    return _PairProfile(ss, ts, side, odd, e_t, comp_id, deg_gs_t, value)


@dataclass(frozen=True)
class TutteCertificate:
    """A disjoint pair (S, T) with its deficiency and f-odd components."""

    s: tuple[int, ...]
    t: tuple[int, ...]
    delta: int
    odd_components: tuple[tuple[int, ...], ...]

    @property
    def q(self) -> int:
        return len(self.odd_components)

    def validate(self, g: Graph, f: DegreeSpec) -> TutteCertificate:
        """Replay the stored pair on (g, f): the recomputed certificate, with
        S and T sorted, or ``ValueError`` naming what the stored one gets wrong."""
        cert = evaluate_pair(g, f, self.s, self.t)
        if cert.delta != self.delta:
            raise ValueError(
                f"certificate claims deficiency {self.delta}, the pair recomputes to {cert.delta}"
            )
        if cert.odd_components != self.odd_components:
            raise ValueError("certificate's odd components differ from the recomputed ones")
        return cert


def evaluate_pair(
    g: Graph, f: DegreeSpec, s: Iterable[int], t: Iterable[int]
) -> TutteCertificate:
    """Deficiency and odd components of a given pair, packaged for replay."""
    prof = _pair_profile(g, f, s, t)
    return TutteCertificate(prof.s, prof.t, prof.delta, tuple(prof.odd))


# -- exhaustive search ------------------------------------------------------

#: Largest vertex count :func:`search_certificate` scans.  The scan's time
#: grows as 3^n and its tables as 2^m sets of about 2m + 12 bytes, m <= n
#: being the vertices with a role, with about 2.4n more while they are
#: built, and a chunk of pairs adds at most about 0.9 MB: a scan peaks under
#: 2 MB at 14 vertices (1.53 MB at most measured, with m = 14 and a full
#: chunk), and its tables alone take over 70 GB at m = 30.
MAX_SCAN_VERTICES = 14


def search_certificate(g: Graph, f: DegreeSpec) -> TutteCertificate | None:
    """Exhaustive certificate search over all disjoint (S, T) pairs.

    Returns the violating pair that is least under (|S| + |T|, S, T) with
    subsets compared lexicographically as sorted tuples, or ``None`` when
    every pair has nonnegative deficiency (equivalently, an f-factor
    exists).  Raises :class:`UndecidedAtScaleError` above
    :data:`MAX_SCAN_VERTICES`.
    """
    if g.n > MAX_SCAN_VERTICES:
        raise UndecidedAtScaleError(
            f"{g.n} vertices exceeds the certificate search bound {MAX_SCAN_VERTICES}"
        )
    _check_spec_length(g, f)
    from ._certkernel import least_violation  # numpy loads only for a scan

    least = least_violation(g, f)
    if least is None:
        return None
    cert = evaluate_pair(g, f, *least)
    if cert.delta >= 0:
        raise AssertionError("scan reported a pair that does not replay as a violation")
    return cert


# -- witness files -----------------------------------------------------------


def format_certificate(cert: TutteCertificate) -> str:
    def row(label: str, vs: tuple[int, ...]) -> str:
        return f"{label}:" + ("" if not vs else " " + " ".join(map(str, vs)))

    lines = [
        row("S", cert.s),
        row("T", cert.t),
        f"delta: {cert.delta}",
        f"odd: {cert.q}",
    ]
    lines.extend(row("comp", comp) for comp in cert.odd_components)
    return "\n".join(lines) + "\n"


def parse_certificate(text: str | bytes) -> TutteCertificate:
    """One each of the ``S``, ``T``, ``delta`` and ``odd`` lines, then a
    ``comp`` line per odd component, as :func:`format_certificate` writes.
    No vertex repeats within the ``S`` or ``T`` line."""
    text = decode_ascii(text)
    lines: dict[str, tuple[int, ...]] = {}
    comps: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        label, _, rest = raw.strip().partition(":")
        if label not in ("S", "T", "delta", "odd", "comp"):
            raise GraphFormatError(f"unknown witness line {label!r}", lineno)
        if label in lines:
            raise GraphFormatError(f"repeated {label} line", lineno)
        try:
            values = tuple(map(parse_int, rest.split()))
        except ValueError:
            raise GraphFormatError("malformed witness line", lineno) from None
        if label in ("delta", "odd") and len(values) != 1:
            raise GraphFormatError(f"the {label} line holds exactly one integer", lineno)
        if label in ("S", "T") and len(set(values)) != len(values):
            raise GraphFormatError(f"duplicate vertex index in the {label} line", lineno)
        if label == "comp":
            comps.append(values)
        else:
            lines[label] = values
    missing = [label for label in ("S", "T", "delta", "odd") if label not in lines]
    if missing:
        raise GraphFormatError(f"witness file has no {' or '.join(missing)} line")
    (odd,) = lines["odd"]
    if odd != len(comps):
        raise GraphFormatError(f"witness declares {odd} odd components, lists {len(comps)}")
    return TutteCertificate(lines["S"], lines["T"], lines["delta"][0], tuple(comps))
