"""Exhaustive deficiency scan over all disjoint (S, T) pairs.

For every removal set R = S u T and every split of R into (S, T), evaluates

    delta(S, T) = f(S) + deg_{G-S}(T) - f(T) - q(S, T)

and finds the violations delta < 0: :func:`least_violation` gives the
least violating pair under (|S| + |T|, S, T), or ``None`` when none exists.

The 3^n pairs are evaluated with numpy.  Tables over the 2^m vertex sets X
of the m role vertices (below) are built once per call: the number e(X) of
edges inside X, f(X) - e(X), by_t(X) = deg(X) - 2 f(X) + e(X) and the skip
bound's low(X) below.  As e(T, S) = e(R) - e(T) - e(S),

    delta(S, T) + q(S, T) = f(R) - e(R) + by_t(T) + e(S).

For q, ``bits[u, R]`` names the component of u in G - R by the bit of its
lowest vertex, for every R at once.  ``x0[R]`` ORs in the bits of the
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
-1 when f(V) is even, holds no violation.

Most splits cannot be the least violating pair (S, T) either, as it has no
violating proper sub-pair.  Let R = S u T, let a(v) count the components of
G - R next to v, and take v out of R.  Only those a(v) components merge with
v, so q falls by at most a(v), and delta changes by at most

    e(v, T) - f(v) + a(v)                 for v in S,
    f(v) - e(v, T) - e(v, V - R) + a(v)   for v in T,

where e(v, X) counts the edges from v into X.  The smaller pair does not
violate and delta = f(V) (mod 2) on both, so the change is at least 2: every
v in S has e(v, T) + a(v) >= f(v) + 2, so deg v >= f(v) + 2, and every v in T
has e(v, T) + e(v, V - R) - a(v) <= f(v) - 2, so f(v) >= 2, as a(v) is at
most e(v, V - R).  The clipped f below has the same least pair, so this holds
for it too.  A vertex may thus be in S only if deg v >= f(v) + 2 and in T
only if f(v) >= 2; a vertex with both roles is free, and a vertex with
neither is role-less.  The vertices are relabelled, the m role vertices
first in ascending order, and the scan reads only the R-sets of role
vertices, the 2^m sets X < 2^m, and of each only the 2^k splits of its k
free vertices, with its T-only vertices in T.  No R-set removes a role-less
vertex, so the components of G - roles, found by one search, give the
component labels of R = all roles, and the other R-sets follow from it by
putting the role vertices back one at a time.  ``xt[R]`` holds x0[R] XOR
par[y, R] over the T-only y in R, so a split XORs in only its free vertices
of T.

The R-sets left are grouped by k in ascending k, each group in ascending
|R|, and a chunk of a group is scanned at once, all its splits together.  As
a chunk's |R| varies and groups do not come in ascending |R|, the least pair
is kept across chunks; once one is found, each later chunk is cut to its
R-sets no larger than it, and a group whose k exceeds its size is not read,
as its R-sets have |R| >= k.

The tables kept for the scan take about 2m + 12 bytes per set of role
vertices and about 2.4n more while they are built: 0.63 MB, and 1.15 MB at
the peak, at n = m = 14.  A chunk of pairs adds at most about 0.9 MB, with
the free positions of its R-sets built per chunk, so a whole scan at n = 14
peaks at 0.09 to 1.53 MB (tracemalloc, 40 random feasible inputs with m from
10 to 14), and at 1.52 MB with every vertex free and a chunk of _CHUNK pairs.

The scan reads only the graph and the degree spec and shares no code with
:func:`pathcycle.tutte.evaluate_pair` or the solver, so it stays an
independent route to the answer.
"""

from __future__ import annotations

import numpy as np

#: Pairs evaluated per vectorised step, about 14 bytes each, 0.9 MB in all:
#: a chunk of R-sets with k free vertices holds max(1, _CHUNK >> k) of them.
#: A chunk also costs 25-30 us whatever it holds.  Budgets of 2^14 to 2^18
#: pairs scanned duality-small's inputs within noise of each other, and a
#: larger budget raises the peak at n = 14, 1.52 MB with this one, above 2 MB.
_CHUNK = 1 << 16


def _set_tables(nbrs, deg, f, m: int, ids):
    """``(base, by_t, inner, low)``: f(X) - e(X), by_t(X), e(X) and the
    module docstring's low(X) for every set X < 2^m of role vertices.

    Each doubling step adds vertex v to the sets below 2^v.  With f(v) at
    most deg(v) + 2, every entry is O(n^2) and int16 holds it.
    """
    base, by_t, inner, low = (np.zeros(1 << m, np.int16) for _ in range(4))
    for v in range(m):
        h = 1 << v
        below = sum(1 << u for u in nbrs[v] if u < v)
        e_v = np.bitwise_count(ids[:h] & below)  # edges from v into X < 2^v
        np.subtract(base[:h], e_v, out=base[h:2 * h])
        base[h:2 * h] += f[v]
        np.add(inner[:h], e_v, out=inner[h:2 * h])
        np.add(by_t[:h], e_v, out=by_t[h:2 * h])
        by_t[h:2 * h] += deg[v] - 2 * f[v]
        np.subtract(low[:h], e_v, out=low[h:2 * h])
        low[h:2 * h] += min(deg[v], 2 * f[v]) - f[v]
    return base, by_t, inner, low


def _component_bits(nbrs, m: int):
    """``bits[u, R]``: the component of u in G - R as a one-bit mask, the
    bit of its lowest vertex, for every set R < 2^m of role vertices; 0 for
    u in R.

    The column of R = all roles is read off one search over the role-less
    vertices, which no R removes.  The other columns are filled for the
    R-sets whose lowest role vertex outside R is v, for v from m-1 down;
    viewing the columns as blocks of 2^(v+1), these sit at offset 2^v - 1 of
    each block, and R + v sits at the block's last offset and is already
    done.  Putting v back into G - (R + v) merges v with the components of
    its neighbours.
    """
    n = len(nbrs)
    seed = [0] * n
    for u in range(m, n):
        if not seed[u]:
            seed[u], stack = 1 << u, [u]
            while stack:
                for w in nbrs[stack.pop()]:
                    if w >= m and not seed[w]:
                        seed[w] = 1 << u
                        stack.append(w)
    bits = np.zeros((n, 1 << m), np.min_scalar_type((1 << n) - 1))
    bits[:, -1] = seed
    for v in reversed(range(m)):
        blocks = bits.reshape(n, -1, 2 << v)
        base, done = blocks[:, :, -1], blocks[:, :, (1 << v) - 1]
        # v and the components next to it merge into one, whose bit is the
        # least of theirs
        merged = np.bitwise_or.reduce(base[nbrs[v]], axis=0, initial=1 << v)
        least = merged & -merged
        np.copyto(done, np.where(base & merged, least, base))
        done[v] = least
    return bits


class _Scan:
    """The tables of one scan of ``g`` under ``f``, shared by its chunks.

    Vertices are relabelled: the m role vertices come first, in ascending
    order, and ``order[v]`` is the vertex of label v.  Every table is over
    the 2^m sets of role vertices, as the scan reads no other.
    """

    def __init__(self, g, f):
        n = g.n
        # If f(v) > deg(v), then ({}, {v}) violates and the answer is 0 or
        # 1; the size-0 pair sees only the parities of f.  So clipping f(v)
        # to deg(v) + 1 or + 2, keeping its parity, keeps the answer.
        deg = [g.degree(v) for v in range(n)]
        f = [min(f[v], deg[v] + 2 - (f[v] - deg[v]) % 2) for v in range(n)]
        # the roles a vertex may take in the least violating pair
        s_ok = [deg[v] >= f[v] + 2 for v in range(n)]
        t_ok = [f[v] >= 2 for v in range(n)]
        roles = [v for v in range(n) if s_ok[v] or t_ok[v]]
        self.order = roles + [v for v in range(n) if not (s_ok[v] or t_ok[v])]
        m = self.m = len(roles)
        label = {v: i for i, v in enumerate(self.order)}
        nbrs = [[label[u] for u in g.neighbors(v)] for v in self.order]
        deg, f = [deg[v] for v in self.order], [f[v] for v in self.order]
        self.free = sum(1 << i for i, v in enumerate(roles) if s_ok[v] and t_ok[v])
        self.t_only = sum(1 << i for i, v in enumerate(roles) if t_ok[v] and not s_ok[v])
        self.ids = np.arange(1 << m, dtype=np.min_scalar_type((1 << m) - 1))
        self.pc = np.bitwise_count(self.ids)
        self.base, self.by_t, self.inner, low = _set_tables(nbrs, deg, f, m, self.ids)
        bits = _component_bits(nbrs, m)
        # x0[R] holds the components of G - R with odd f(D), and par[y, R]
        # those joined to y by an odd number of edges
        x0 = np.zeros(1 << m, bits.dtype)
        self.par = np.zeros((m, 1 << m), bits.dtype)
        for y in range(n):
            if f[y] % 2:
                x0 ^= bits[y]
        for y in range(m):
            for u in nbrs[y]:  # one edge at a time
                self.par[y] ^= bits[u]
        # c(R), the number of components of G - R
        comps = np.bitwise_count(np.bitwise_or.reduce(bits, axis=0, initial=0))
        # keep[R]: whether R may hold a violation, as delta = f(V) (mod 2)
        self.keep = low - comps < sum(f) % 2 - 1
        # xt[R]: x0[R] XOR par[y, R] over the T-only y in R, in place; the
        # sets holding y are the upper halves of the blocks of 2^(y+1)
        self.xt = x0
        for y in range(m):
            if self.t_only >> y & 1:
                x0.reshape(-1, 2, 1 << y)[:, 1] ^= self.par[y].reshape(-1, 2, 1 << y)[:, 1]

    def chunks(self):
        """Yield ``(k, R-sets, pos)`` for the kept R-sets, grouped by their
        number k of free vertices in ascending k, each group in ascending
        |R|, a chunk at a time; row i of ``pos`` lists the free vertices of
        R-set i in ascending order."""
        rs = self.ids[self.keep]
        rs = rs[np.argsort(self.pc[rs], kind="stable")]
        free_count = self.pc[rs & self.free]
        free = np.array([v for v in range(self.m) if self.free >> v & 1], self.ids.dtype)
        for k in range(len(free) + 1):
            group = rs[free_count == k]
            rows = max(1, _CHUNK >> k)
            for lo in range(0, len(group), rows):
                chunk = group[lo:lo + rows]
                # per chunk: nonzero's columns are views of its whole index buffer
                pos = free[np.nonzero((chunk[:, None] >> free) & 1)[1]].reshape(len(chunk), k)
                yield k, chunk, pos

    def violations(self, rs, pos, k: int):
        """``(S, T)`` masks of the violating splits of the R-sets ``rs`` with
        k free vertices each, at the least |R| that holds one."""
        par = self.par[pos, rs[:, None]]
        # row i of t and x: the splits whose T takes the free positions set in i
        t = np.empty((1 << k, len(rs)), np.intp)
        t[0] = rs & self.t_only
        x = np.empty_like(t, self.xt.dtype)
        x[0] = self.xt[rs]
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
        size = self.pc[rs[col]]
        least = size == size.min()
        s = t[split[least], col[least]]
        return zip(s.tolist(), (s ^ rs[col[least]]).tolist())


def least_violation(g, f) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The violating pair (S, T) least under (|S| + |T|, S, T), or ``None``.

    S and T are sorted tuples and compare lexicographically.  Once a
    violation is found, each later chunk is cut to its R-sets no larger.
    """
    scan = _Scan(g, f)
    least = None  # (|S| + |T|, S, T)
    for k, rs, pos in scan.chunks():
        if least is not None:
            if k > least[0]:  # every R-set from here on has |R| >= k
                break
            within = scan.pc[rs] <= least[0]
            if not within.any():
                continue
            rs, pos = rs[within], pos[within]
        for pair in scan.violations(rs, pos, k):
            # the role vertices keep their order, so these come out sorted
            s, t = (tuple(scan.order[v] for v in range(scan.m) if x >> v & 1) for x in pair)
            if least is None or (len(s) + len(t), s, t) < least:
                least = (len(s) + len(t), s, t)
    return None if least is None else least[1:]
