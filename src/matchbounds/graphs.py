"""Immutable simple graphs, degree statistics, and graph6 serialization.

Vertices are dense integer indices 0..n-1.  Operations that drop vertices
return a new graph together with an index map instead of mutating.
"""

from __future__ import annotations

import re
from typing import BinaryIO, Iterable, Iterator, NamedTuple


class NotSubcubicError(ValueError):
    """A vertex of degree > 3 was found where a subcubic graph is required."""


class MalformedGraph6Error(ValueError):
    """Invalid graph6 input; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        # Both arguments go to ``args``, from which pickle rebuilds the error.
        super().__init__(message, offset)
        self.offset = offset

    def __str__(self) -> str:
        return f"{self.args[0]} (byte offset {self.offset})"


class Graph:
    """Undirected simple graph: no loops, no parallel edges.

    The one stored form is the adjacency tuple ``_adj``: per vertex, its
    neighbours as a sorted tuple.  ``edges`` and everything else is read
    off it.  ``Graph(n, edges)`` validates and normalises its input in one
    pass over ``edges``: each edge is checked and appended to both
    endpoints' lists, and each list is then sorted, with its repeats
    dropped, so reversed and repeated pairs collapse.  The trusted
    ``_from_adjacency`` takes an adjacency tuple as it is, for the
    decoders and for ``induced``, which produce one already sorted.
    Instances are immutable after construction, so concurrent shared use
    is safe.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].append(v)
            adj[v].append(u)
        # Sorting in place and counting with sets is cheaper than
        # sorted(set(nb)) on every list, so lists are rebuilt without
        # repeats only when some list has one.
        for nb in adj:
            nb.sort()
        rows = tuple(map(tuple, adj))
        if sum(map(len, map(set, rows))) < sum(map(len, rows)):
            rows = tuple(tuple(sorted(set(nb))) for nb in rows)
        self.n = n
        self._adj = rows

    @classmethod
    def _from_adjacency(cls, adj: tuple[tuple[int, ...], ...]) -> "Graph":
        """The graph with adjacency tuple ``adj``, taken without checks.

        Precondition: each ``adj[v]`` is a sorted tuple of distinct
        vertices in ``range(len(adj))`` other than v, and u is in
        ``adj[v]`` exactly when v is in ``adj[u]``."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(adj))
        object.__setattr__(g, "_adj", adj)
        return g

    # -- basic queries -------------------------------------------------

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as pairs (u, v) with u < v."""
        return frozenset((u, v) for u, nb in enumerate(self._adj) for v in nb if u < v)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    # -- derived graphs ------------------------------------------------

    def induced(self, keep: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on ``keep``; returns (graph, new-to-old index map).

        Renumbering by rank keeps each neighbour tuple sorted, so the
        subgraph is built through ``_from_adjacency``."""
        old = sorted(set(keep))
        if old:
            self._check_vertex(old[0])
            self._check_vertex(old[-1])
        pos = {o: i for i, o in enumerate(old)}
        adj = self._adj
        sub = tuple(tuple(pos[w] for w in adj[u] if w in pos) for u in old)
        return Graph._from_adjacency(sub), tuple(old)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    # -- value semantics -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={sum(map(len, self._adj)) // 2})"

    def __setattr__(self, name, value):
        if hasattr(self, "_adj"):
            raise AttributeError("Graph is immutable")
        object.__setattr__(self, name, value)

    def __reduce__(self):
        return (Graph._from_adjacency, (self._adj,))


class DegreeProfile(NamedTuple):
    """Counts of vertices by degree plus the number of connected components."""

    n0: int
    n1: int
    n2: int
    n3: int
    c: int

    @property
    def order(self) -> int:
        return self.n0 + self.n1 + self.n2 + self.n3


def degree_profile(g: Graph) -> DegreeProfile:
    """Exact degree counts and component count; rejects non-subcubic
    input, naming its least vertex of degree > 3.  ``bytes.count`` counts
    the degrees."""
    adj = g._adj
    try:
        degrees = bytes(map(len, adj))
    except ValueError:  # a degree above 255
        raise _degree_error(adj) from None
    n0, n1, n2, n3 = map(degrees.count, b"\0\1\2\3")
    if n0 + n1 + n2 + n3 < g.n:
        raise _degree_error(adj)
    return DegreeProfile(n0, n1, n2, n3, len(_components(adj)))


def _degree_error(adj: tuple[tuple[int, ...], ...]) -> NotSubcubicError:
    v = next(v for v, nb in enumerate(adj) if len(nb) > 3)
    return NotSubcubicError(f"vertex {v} has degree {len(adj[v])} > 3")


def _components(
    adj: tuple[tuple[int, ...], ...], keep: Iterable[int] | None = None
) -> list[list[int]]:
    """The components of the graph with adjacency tuple ``adj``, or of its
    subgraph induced on ``keep`` (vertices of ``adj``), as vertex lists in
    ``adj``'s labels.  The lists come in order of their least vertex, and
    each starts with it; the rest is in search order."""
    if keep is None:
        seen = [False] * len(adj)
        left = len(adj)
    else:
        seen = [True] * len(adj)
        for v in keep:
            seen[v] = False
        left = seen.count(False)
    out = []
    start = 0
    while left:
        start = seen.index(False, start)
        seen[start] = True
        component = [start]
        for u in component:  # grows while it is read
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    component.append(w)
        out.append(component)
        left -= len(component)
    return out


# -- graph6 ---------------------------------------------------------------
#
# Standard bit-packed format: size prefix N(n), then the upper triangle of
# the adjacency matrix in column order, 6 bits per printable byte (+63).
# Bit b of the triangle is the pair (u, v), u < v, with b = v(v-1)/2 + u.

_G6_HEADER = b">>graph6<<"

# Largest order read or emitted: its line is n(n-1)/12 bytes, about 33 MB here.
MAX_GRAPH6_ORDER = 20_000

_G6_INVALID = re.compile(rb"[^?-~]")
_G6_NONZERO = re.compile(rb"[@-~]")
_ADD_63 = bytes((b + 63) & 255 for b in range(256))
# The bits set in a body byte, as offsets 0..5 from its top bit.
_SET_BITS = [[k for k in range(6) if x > 63 and (x - 63) & 32 >> k] for x in range(127)]


def _decode_size(data: bytes) -> tuple[int, int]:
    """Returns (n, number of prefix bytes consumed)."""
    if not data:
        raise MalformedGraph6Error("empty graph6 line", 0)
    if data[0] != 126:
        if not 63 <= data[0] <= 126:
            raise MalformedGraph6Error(f"invalid size byte {data[0]}", 0)
        return data[0] - 63, 1
    # "~" then 3 sextets, or "~~" then 6 sextets.
    start = 2 if data[1:2] == b"~" else 1
    end = 4 * start
    if len(data) < end:
        raise MalformedGraph6Error(f"truncated {end}-byte size prefix", len(data))
    _check_bytes(data, start, end)
    n = 0
    for b in data[start:end]:
        n = (n << 6) | (b - 63)
    return n, end


def _check_bytes(data: bytes, start: int, end: int) -> None:
    bad = _G6_INVALID.search(data, start, end)
    if bad:
        raise MalformedGraph6Error(f"invalid graph6 byte {data[bad.start()]}", bad.start())


def check_graph6_order(n: int) -> None:
    """Refuse an order above ``MAX_GRAPH6_ORDER`` with ``ValueError``."""
    if n > MAX_GRAPH6_ORDER:
        raise ValueError(f"graph too large for graph6: n={n} (at most {MAX_GRAPH6_ORDER})")


def _size_prefix(n: int) -> bytes:
    """The shortest size prefix N(n): one byte up to n = 62, else "~" and
    3 sextets; the one ``emit_graph6`` writes.  Refuses n above
    ``MAX_GRAPH6_ORDER`` (``check_graph6_order``)."""
    check_graph6_order(n)
    return bytes([n] if n <= 62 else [63, n >> 12, n >> 6 & 63, n & 63]).translate(_ADD_63)


def _body_length(n: int) -> int:
    """Bytes of adjacency data after the size prefix, padding included."""
    return (n * (n - 1) // 2 + 5) // 6


def emit_graph6(g: Graph) -> bytes:
    """Encode adjacency as a graph6 line (no trailing newline).

    Refuses graphs over ``MAX_GRAPH6_ORDER`` vertices with ``ValueError``."""
    n = g.n
    prefix = _size_prefix(n)
    body = bytearray(_body_length(n))
    for v, nb in enumerate(g._adj):
        col = v * (v - 1) // 2
        for u in nb:
            if u >= v:
                break
            b = col + u
            body[b // 6] |= 32 >> b % 6
    return prefix + body.translate(_ADD_63)


def parse_graph6(line: bytes | str) -> Graph:
    """Decode one graph6 line; a ``>>graph6<<`` header prefix is tolerated.

    One line end ("\\n", "\\r\\n" or "\\r") is removed.  A line whose size
    prefix is over ``MAX_GRAPH6_ORDER`` is refused with
    ``check_graph6_order``'s ``ValueError`` before its body is read, so
    graph6 is read up to the order it is written."""
    data = line.encode("ascii") if isinstance(line, str) else line
    data = data.removesuffix(b"\n").removesuffix(b"\r")
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    n, at = _decode_size(data)
    check_graph6_order(n)
    nbits = n * (n - 1) // 2
    end = at + _body_length(n)
    if len(data) < end:
        raise MalformedGraph6Error(
            f"need {end - at} adjacency bytes for n={n}, got {len(data) - at}",
            len(data),
        )
    if len(data) > end:
        raise MalformedGraph6Error("trailing bytes after adjacency data", end)
    _check_bytes(data, at, end)
    pad = 6 * (end - at) - nbits  # low bits of the last byte, zero per the format
    if pad and (data[end - 1] - 63) & ((1 << pad) - 1):
        raise MalformedGraph6Error("nonzero padding bits", end - 1)
    adj: list[list[int]] = [[] for _ in range(n)]
    # Bits come in column order, v ascending and u ascending within v, so
    # each list gets its u < v in order and then its w > v in order, and
    # the column of each set bit is found by moving v forward.
    v = top = 0  # column v is bits top - v .. top - 1
    for match in _G6_NONZERO.finditer(data, at):
        i = match.start()
        base = 6 * (i - at)
        for k in _SET_BITS[data[i]]:
            b = base + k
            while b >= top:
                v += 1
                top += v
            u = b - top + v
            adj[u].append(v)
            adj[v].append(u)
    return Graph._from_adjacency(tuple(map(tuple, adj)))


def read_graph6_line(line: bytes) -> tuple[Graph, bytes]:
    """Decode a stripped graph6 line into its graph and the text
    ``emit_graph6`` writes for that graph: the shortest size prefix and
    the line's body.  ``parse_graph6`` rejects trailing bytes and nonzero
    padding bits, so the body is the only encoding of the graph, whatever
    the line's prefix or header.  A line over ``MAX_GRAPH6_ORDER``
    vertices is refused by ``parse_graph6``."""
    g = parse_graph6(line)
    n = g.n
    # Not line[-k:], which for an empty body (n <= 1) is the whole line.
    return g, _size_prefix(n) + line[len(line) - _body_length(n):]


def iter_graph6_lines(fh: BinaryIO) -> Iterator[bytes]:
    """The graph6 lines of the binary stream ``fh``, stripped, without
    blank and header lines; ``read_graph6_line`` decodes each, a glued
    header included.  A line is read up to the longest one
    ``MAX_GRAPH6_ORDER`` allows: a glued header, the 8-byte size prefix,
    the body and "\\r\\n".  A longer line is cut there and yielded as read,
    and nothing after it is read: ``read_graph6_line`` refuses the cut at
    its first byte or size prefix, or for the bytes after its adjacency
    data, which it always has."""
    limit = len(_G6_HEADER) + 8 + _body_length(MAX_GRAPH6_ORDER) + 2
    while raw := fh.readline(limit):
        if len(raw) == limit and raw[-1] != 10:  # no "\n": the line goes on
            yield raw
            return
        data = raw.strip()
        if data and data != _G6_HEADER:
            yield data
