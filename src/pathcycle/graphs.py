"""Simple undirected graphs on dense integer vertices, plus text I/O.

Vertices are always 0..n-1.  A graph's fields are all set by its
constructor and nothing is cached on it later, so graphs are immutable and
safe to share between threads.  The text format is line oriented ASCII:

    c optional comment
    p <n> <m>
    e <u> <v>        (exactly m lines, 0 <= u < v < n)

A line whose first whitespace-separated field is ``c`` is a comment, here
and in witness files.  A terminal-set file is a single line of
whitespace-separated vertex indices (possibly empty).  Every number in these
formats is written in canonical decimal: no sign but a ``-``, no leading
zero, and no ``-0`` (see :func:`parse_int`).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .errors import GraphFormatError

#: Sentinel returned by :func:`distance` for vertices in different components.
INFINITY = float("inf")

#: Largest vertex count :func:`parse_graph` accepts.  A larger header is
#: rejected before anything is allocated for it; the largest family
#: instance has 864 vertices.
MAX_PARSE_VERTICES = 1_000_000

#: Largest edge count :func:`parse_graph` accepts, checked on the header
#: before any edge is stored.  ``solve`` on the 6-regular (1,2,3) circulant
#: at 10^6 vertices, this many edges, peaked at 2.92 GB (RSS, CPython 3.11).
MAX_PARSE_EDGES = 3_000_000


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph.

    ``Graph(n, edges)`` rejects self-loops, duplicate edges and vertex
    indices outside 0..n-1.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has a vertex outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = _normalize_edge(u, v)
            if e in seen:
                raise ValueError(f"duplicate edge ({e[0]},{e[1]})")
            seen.add(e)
        self._build(n, seen)

    @classmethod
    def _trusted(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph ``Graph(n, edges)``, for callers whose edges are distinct
        pairs u < v in 0..n-1 by construction; skips the checks."""
        g = cls.__new__(cls)
        g._build(n, edges)
        return g

    def _build(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        """Set the fields from distinct pairs u < v in 0..n-1; read in sorted
        order, the pairs fill every adjacency list in ascending order."""
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(edges))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))

    # -- basic queries ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        return v in self._adj[u]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def as_vertex_set(g: Graph, vertices: Iterable[int], name: str = "vertex set") -> tuple[int, ...]:
    """Normalize to a sorted duplicate-free tuple, validating against ``g``."""
    vs = sorted(set(vertices))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        bad = vs[0] if vs[0] < 0 else vs[-1]
        raise ValueError(f"{name}: vertex {bad} outside 0..{g.n - 1}")
    return tuple(vs)


# -- text I/O -------------------------------------------------------------


def decode_ascii(text: str | bytes) -> str:
    """The text of an input file given as str or bytes; either must be ASCII,
    or ``int`` would read digits from other scripts."""
    if isinstance(text, bytes):
        try:
            return text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise GraphFormatError(
                f"byte {text[exc.start]:#04x} at offset {exc.start} is not ASCII"
            ) from None
    if not text.isascii():
        i = next(i for i, c in enumerate(text) if not c.isascii())
        raise GraphFormatError(f"character U+{ord(text[i]):04X} at offset {i} is not ASCII")
    return text


def parse_int(field: str) -> int:
    """The integer an ASCII ``field`` spells in canonical decimal: digits
    with no leading zero, except ``0`` itself, and an optional leading ``-``
    on a nonzero value; ``ValueError`` otherwise.  ``int`` alone also reads
    ``+1``, ``1_0``, ``05`` and ``-0``, so two spellings of one file would
    parse alike."""
    if field.isdigit() and (field[0] != "0" or field == "0"):
        return int(field)
    if field[:1] == "-" and field[1:2] != "0" and field[1:].isdigit():
        return int(field)
    raise ValueError(f"{field!r} is not a decimal integer")


def _header(fields: list[str], lineno: int) -> tuple[int, int]:
    """``(n, m)`` of a ``p`` line's fields, checked against the limits."""
    if len(fields) != 3:
        raise GraphFormatError("header must be 'p <n> <m>'", lineno)
    try:
        n, m = parse_int(fields[1]), parse_int(fields[2])
    except ValueError:
        raise GraphFormatError("non-integer header field", lineno) from None
    if n < 0 or m < 0:
        raise GraphFormatError("negative count in header", lineno)
    if n > MAX_PARSE_VERTICES:
        raise GraphFormatError(f"{n} vertices exceeds the limit of {MAX_PARSE_VERTICES}", lineno)
    if m > MAX_PARSE_EDGES:
        raise GraphFormatError(f"{m} edges exceeds the limit of {MAX_PARSE_EDGES}", lineno)
    return n, m


def _first_line(text: str) -> tuple[list[str], int] | None:
    """The fields and line number of the first line that is neither blank
    nor a comment, read without splitting the rest of ``text``."""
    lineno = pos = 0
    while pos <= len(text):
        end = text.find("\n", pos)
        if end < 0:
            end = len(text)
        # numbered as text.splitlines() numbers them, which also breaks at
        # \r, \f and others: the piece keeps its \n, so that a break before
        # it still ends a line of its own
        for line in text[pos:end + 1].splitlines():
            lineno += 1
            fields = line.split()
            if fields and fields[0] != "c":
                return fields, lineno
        pos = end + 1
    return None


def parse_graph(text: str | bytes) -> Graph:
    """Parse the ``p``/``e`` line format; errors name the offending line."""
    text = decode_ascii(text)
    # a header over the limits fails before the text is split into lines, so
    # that the parser's memory stays within a small multiple of the input's
    first = _first_line(text)
    if first is not None and first[0][0] == "p":
        _header(*first)
    n = None
    m = None
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []  # file order: sorted in a canonical file
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            if n is not None:
                raise GraphFormatError("second 'p' header", lineno)
            n, m = _header(fields, lineno)
        elif fields[0] == "e":
            if n is None:
                raise GraphFormatError("edge line before 'p' header", lineno)
            if len(edges) == m:
                raise GraphFormatError(f"header promises {m} edges, found more", lineno)
            if len(fields) != 3:
                raise GraphFormatError("edge line must be 'e <u> <v>'", lineno)
            try:
                u, v = parse_int(fields[1]), parse_int(fields[2])
            except ValueError:
                raise GraphFormatError("non-integer vertex index", lineno) from None
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"vertex index out of range in edge ({u},{v})", lineno)
            if u > v:
                raise GraphFormatError(f"edge ({u},{v}) must be written with u < v", lineno)
            e = (u, v)
            if e in seen:
                raise GraphFormatError(f"duplicate edge ({u},{v})", lineno)
            seen.add(e)
            edges.append(e)
        else:
            raise GraphFormatError(f"unknown line type {fields[0]!r}", lineno)
    if n is None:
        raise GraphFormatError("missing 'p' header")
    if m != len(edges):
        raise GraphFormatError(f"header promises {m} edges, found {len(edges)}")
    return Graph._trusted(n, edges)


def serialize_graph(g: Graph, comments: Sequence[str] = ()) -> str:
    """Canonical serialization: sorted edges, ``u < v``, LF line endings."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p {g.n} {g.edge_count}")
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_terminals(text: str | bytes, g: Graph | None = None) -> tuple[int, ...]:
    """Parse a terminal-set file: whitespace-separated indices, maybe empty."""
    text = decode_ascii(text)
    fields = text.split()
    try:
        vs = [parse_int(f) for f in fields]
    except ValueError:
        raise GraphFormatError("non-integer terminal index") from None
    if len(set(vs)) != len(vs):
        raise GraphFormatError("duplicate terminal index")
    w = tuple(sorted(vs))
    if g is not None and w and not (0 <= w[0] and w[-1] < g.n):
        raise GraphFormatError("terminal index outside 0..n-1")
    return w


def serialize_terminals(w: Iterable[int]) -> str:
    return " ".join(str(v) for v in sorted(w)) + "\n"


# -- traversal primitives -------------------------------------------------


def distance(g: Graph, u: int, v: int) -> int | float:
    """Shortest-path length; :data:`INFINITY` when u and v are disconnected."""
    for x in (u, v):
        if not (0 <= x < g.n):
            raise ValueError(f"vertex {x} outside 0..{g.n - 1}")
    if u == v:
        return 0
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        d = dist[x] + 1
        for y in g.neighbors(x):
            if y not in dist:
                if y == v:
                    return d
                dist[y] = d
                queue.append(y)
    return INFINITY

