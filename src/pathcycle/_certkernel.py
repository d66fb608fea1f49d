"""Exhaustive deficiency scan over all disjoint (S, T) pairs.

For every removal set R = S u T and every split of R into (S, T), evaluates

    delta(S, T) = f(S) + deg_{G-S}(T) - f(T) - q(S, T)

and finds the violations delta < 0: :func:`least_violation` gives the
least violating pair under (|S| + |T|, S, T), or ``None`` when none exists.

The 3^n pairs are evaluated with numpy.  Tables over all 2^n vertex sets X
are built once per call: the number e(X) of edges inside X, f(X) - e(X),
by_t(X) = deg(X) - 2 f(X) + e(X) and the skip bound's low(X) below.  As
e(T, S) = e(R) - e(T) - e(S),

    delta(S, T) + q(S, T) = f(R) - e(R) + by_t(T) + e(S).

For q, ``rep[u, R]`` names the component of u in G - R by its lowest vertex,
for every R at once.  Over bitmasks of these names, ``x0[R]`` holds the
components with odd f(D) and ``par[y, R]`` those joined to y by an odd
number of edges, and q(S, T) is the popcount of x0[R] XOR par[y, R] over y
in T.

Most R-sets cannot hold a violation, and the scan skips them.  With
by_t(T) = sum_{v in T} (deg v - 2 f(v)) + e(T), the identity above gives

    delta(S, T) + q(S, T) = f(R) - e(R) + sum_{v in T} (deg v - 2 f(v)) + e(T) + e(S).

Dropping e(T), e(S) >= 0, letting T take exactly the v in R with
deg v - 2 f(v) < 0, and using q(S, T) <= c(R), the number of components of
G - R (L. Lovász, "Subgraphs with prescribed valencies", J. Combin. Theory
8, 1970), bounds delta over all splits of R from below by low(R) - c(R), where

    low(X) = sum_{v in X} (min(deg v, 2 f(v)) - f(v)) - e(X).

Since delta(S, T) = f(V) (mod 2) (W. T. Tutte, "The factors of graphs",
Canad. J. Math. 4, 1952), an R-set whose bound is at least 0, or at least
-1 when f(V) is even, holds no violation.  The tables kept for the scan take
about 2n + 12 bytes per vertex set and about 2.4n more while they are built:
0.63 MB, and 1.14 MB at the peak, at n = 14.  A chunk of pairs adds about
0.9 MB, with the vertex positions of its R-sets built per chunk, so a whole
scan at n = 14 peaks at 1.51 to 1.61 MB (tracemalloc, 40 random feasible
inputs), and at 1.66 MB with no R-set skipped.

The R-sets left are scanned layer by layer in ascending |R|, all splits of
a chunk of them at once, and the scan stops at the first layer that holds a
violation.  The scan reads only the graph and the degree spec and shares no
code with :func:`pathcycle.tutte.evaluate_pair` or the solver, so it stays an
independent route to the answer.
"""

from __future__ import annotations

import numpy as np

#: Pairs evaluated per vectorised step, about 14 bytes each, 0.9 MB in all:
#: a chunk of R-sets of size k holds max(1, _CHUNK >> k) of them.  A chunk
#: also costs 25-30 us whatever it holds.  Over budgets of 2^14 to 2^18
#: pairs, the feasible scans at n = 12 ran fastest at 2^16, and a larger
#: budget raises the peak at n = 14 above 2 MB.
_CHUNK = 1 << 16


def _set_tables(g, f, n: int, ids):
    """``(base, by_t, inner, low)``: f(X) - e(X), by_t(X), e(X) and the
    module docstring's low(X) for every set X < 2^n.

    Each doubling step adds vertex v to the sets below 2^v.  With f(v) at
    most deg(v) + 2, every entry is O(n^2) and int16 holds it.
    """
    base, by_t, inner, low = (np.zeros(1 << n, np.int16) for _ in range(4))
    for v in range(n):
        h = 1 << v
        below = sum(1 << u for u in g.neighbors(v) if u < v)
        e_v = np.bitwise_count(ids[:h] & below)  # edges from v into X < 2^v
        np.subtract(base[:h], e_v, out=base[h:2 * h])
        base[h:2 * h] += f[v]
        np.add(inner[:h], e_v, out=inner[h:2 * h])
        np.add(by_t[:h], e_v, out=by_t[h:2 * h])
        by_t[h:2 * h] += g.degree(v) - 2 * f[v]
        np.subtract(low[:h], e_v, out=low[h:2 * h])
        low[h:2 * h] += min(g.degree(v), 2 * f[v]) - f[v]
    return base, by_t, inner, low


def _component_labels(g, n: int):
    """``rep[u, R]``: the lowest vertex of u's component in G - R.

    Entries of u in R hold n.  Columns are filled for the removal sets whose
    lowest vertex outside R is v, for v from n-1 down; viewing the columns
    as blocks of 2^(v+1), these sit at offset 2^v - 1 of each block, and
    R + v sits at the block's last offset and is already done.  Putting v
    back into G - (R + v) merges v with the components of its neighbours.
    """
    rep = np.full((n, 1 << n), n, np.uint8)
    one = np.min_scalar_type(1 << n).type(1)
    full = (1 << n) - 1
    for v in reversed(range(n)):
        blocks = rep.reshape(n, -1, 2 << v)
        base, done = blocks[:, :, -1], blocks[:, :, (1 << v) - 1]
        # the components next to v, as a mask of their labels, merge into
        # one labelled by its lowest vertex
        labels = base[list(g.neighbors(v))]
        merged = np.bitwise_or.reduce(one << labels, axis=0) & full
        least = np.minimum.reduce(labels, axis=0, initial=v)
        hit = ((merged >> base) & 1).astype(bool)
        np.copyto(done, base)
        np.copyto(done, least, where=hit)
        done[v] = least
    return rep


class _Scan:
    """The tables of one scan of ``g`` under ``f``, shared by its chunks."""

    def __init__(self, g, f):
        n = self.n = g.n
        # If f(v) > deg(v), then ({}, {v}) violates and the answer is 0 or
        # 1; the size-0 pair sees only the parities of f.  So clipping f(v)
        # to deg(v) + 1 or + 2, keeping its parity, keeps the answer.
        f = [min(f[v], g.degree(v) + 2 - (f[v] - g.degree(v)) % 2) for v in range(n)]
        self.ids = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
        self.pc = np.bitwise_count(self.ids)
        self.base, self.by_t, self.inner, low = _set_tables(g, f, n, self.ids)
        # bits[u, R]: u's label as a mask, 0 for u in R (label n)
        one = np.min_scalar_type(1 << n).type(1)
        bits = (one << _component_labels(g, n)) & ((1 << n) - 1)
        # x0[R] holds the components of G - R with odd f(D) and par[y, R]
        # those joined to y by an odd number of edges
        self.x0 = np.zeros(1 << n, one.dtype)
        self.par = np.zeros((n, 1 << n), one.dtype)
        for y in range(n):
            if f[y] % 2:
                self.x0 ^= bits[y]
            for u in g.neighbors(y):  # one edge at a time
                self.par[y] ^= bits[u]
        # c(R), the number of components of G - R
        comps = np.bitwise_count(np.bitwise_or.reduce(bits, axis=0, initial=0))
        # keep[R]: whether R may hold a violation, as delta = f(V) (mod 2)
        self.keep = low - comps < sum(f) % 2 - 1

    def chunks(self):
        """Yield ``(k, R-sets of size k, pos)`` in ascending k, a chunk at a
        time; row i of ``pos`` lists the vertices of R-set i in ascending order."""
        shifts = np.arange(self.n, dtype=self.ids.dtype)
        for k in range(self.n + 1):
            layer = self.ids[(self.pc == k) & self.keep]
            rows = max(1, _CHUNK >> k)
            for lo in range(0, len(layer), rows):
                rs = layer[lo:lo + rows]
                # per chunk: nonzero's columns are views of its whole index buffer
                pos = np.nonzero((rs[:, None] >> shifts) & 1)[1].reshape(len(rs), k)
                yield k, rs, pos

    def violations(self, rs, pos, k: int):
        """``(S, T)`` masks of the violating splits of the R-sets ``rs`` of size k."""
        par = self.par[pos, rs[:, None]]
        # row i of t and x: the splits whose T takes the positions set in i
        t = np.zeros((1 << k, len(rs)), np.intp)
        x = np.empty_like(t, self.x0.dtype)
        x[0] = self.x0[rs]
        for j in range(k):
            h = 1 << j
            np.bitwise_or(t[:h], 1 << pos[:, j], out=t[h:2 * h])
            np.bitwise_xor(x[:h], par[:, j], out=x[h:2 * h])
        d = self.by_t[t]
        d += self.inner[np.bitwise_xor(t, rs, out=t)]  # t now holds S
        d += self.base[rs]
        d -= np.bitwise_count(x)
        if d.min() >= 0:  # no violation, as in every chunk of a feasible scan
            return []
        split, col = np.nonzero(d < 0)
        s = t[split, col]
        return zip(s.tolist(), (s ^ rs[col]).tolist())


def least_violation(g, f) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The violating pair (S, T) least under (|S| + |T|, S, T), or ``None``.

    S and T are sorted tuples and compare lexicographically.  The scan
    stops after the first layer that holds a violation.
    """
    scan = _Scan(g, f)
    least = None
    for k, rs, pos in scan.chunks():
        if least is not None and k > len(least[0]) + len(least[1]):
            break
        for pair in scan.violations(rs, pos, k):
            members = tuple(tuple(v for v in range(g.n) if m >> v & 1) for m in pair)
            if least is None or members < least:
                least = members
    return least
