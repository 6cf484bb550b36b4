"""Immutable simple graphs, degree statistics, and graph6 serialization.

Vertices are dense integer indices 0..n-1.  Operations that drop vertices
return a new graph together with an index map instead of mutating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class NotSubcubicError(ValueError):
    """A vertex of degree > 3 was found where a subcubic graph is required."""


class MalformedGraph6Error(ValueError):
    """Invalid graph6 input; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph:
    """Undirected simple graph: no loops, no parallel edges.

    Instances are immutable after construction; all derived data (adjacency
    lists, degrees) is precomputed, so concurrent shared use is safe.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        norm = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            norm.add((u, v) if u < v else (v, u))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.edges = frozenset(norm)
        self._adj = tuple(tuple(sorted(nb)) for nb in adj)

    # -- basic queries -------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nb) for nb in self._adj)

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self.edges

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighborhoods as bitmasks (bit j set iff j adjacent)."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    # -- derived graphs ------------------------------------------------

    def induced(self, keep: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on ``keep``; returns (graph, new-to-old index map)."""
        old = sorted(set(keep))
        pos = {o: i for i, o in enumerate(old)}
        edges = [
            (pos[u], pos[v]) for u, v in self.edges if u in pos and v in pos
        ]
        return Graph(len(old), edges), tuple(old)

    def without_vertex(self, v: int) -> tuple["Graph", tuple[int, ...]]:
        return self.induced(u for u in range(self.n) if u != v)

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """Image under the vertex permutation ``perm`` (old index -> new)."""
        p = list(perm)
        return Graph(self.n, ((p[u], p[v]) for u, v in self.edges))

    # -- value semantics -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"

    def __setattr__(self, name, value):
        if hasattr(self, "_adj"):
            raise AttributeError("Graph is immutable")
        object.__setattr__(self, name, value)

    def __reduce__(self):
        return (Graph, (self.n, tuple(self.edges)))


@dataclass(frozen=True)
class DegreeProfile:
    """Counts of vertices by degree plus the number of connected components."""

    n0: int
    n1: int
    n2: int
    n3: int
    c: int

    @property
    def order(self) -> int:
        return self.n0 + self.n1 + self.n2 + self.n3


def is_subcubic(g: Graph) -> bool:
    """True iff every vertex has degree at most 3."""
    return all(len(nb) <= 3 for nb in g._adj)


def degree_profile(g: Graph) -> DegreeProfile:
    """Exact degree counts and component count; rejects non-subcubic input."""
    counts = [0, 0, 0, 0]
    for v in range(g.n):
        d = g.degree(v)
        if d > 3:
            raise NotSubcubicError(f"vertex {v} has degree {d} > 3")
        counts[d] += 1
    return DegreeProfile(
        n0=counts[0], n1=counts[1], n2=counts[2], n3=counts[3],
        c=component_count(g),
    )


def _component_vertex_sets(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    out: list[list[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in g.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comp.sort()
        out.append(comp)
    return out


def component_count(g: Graph) -> int:
    return len(_component_vertex_sets(g))


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or component_count(g) == 1


def components(g: Graph) -> list[Graph]:
    """Connected components as reindexed graphs, ordered by smallest
    original vertex index."""
    return [g.induced(comp)[0] for comp in _component_vertex_sets(g)]


# -- graph6 ---------------------------------------------------------------
#
# Standard bit-packed format: size prefix N(n), then the upper triangle of
# the adjacency matrix in column order, 6 bits per printable byte (+63).

_G6_HEADER = b">>graph6<<"


def _encode_size(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    if n <= 68719476735:
        return bytes([126, 126] + [63 + ((n >> s) & 63) for s in (30, 24, 18, 12, 6, 0)])
    raise ValueError(f"graph too large for graph6: n={n}")


def _decode_size(data: bytes) -> tuple[int, int]:
    """Returns (n, number of prefix bytes consumed)."""
    if not data:
        raise MalformedGraph6Error("empty graph6 line", 0)
    if data[0] != 126:
        n = data[0] - 63
        if n < 0 or data[0] > 126:
            raise MalformedGraph6Error(f"invalid size byte {data[0]}", 0)
        return n, 1
    if len(data) >= 2 and data[1] == 126:
        if len(data) < 8:
            raise MalformedGraph6Error("truncated 8-byte size prefix", len(data))
        chunk = data[2:8]
        _check_bytes(chunk, 2)
        n = 0
        for b in chunk:
            n = (n << 6) | (b - 63)
        return n, 8
    if len(data) < 4:
        raise MalformedGraph6Error("truncated 4-byte size prefix", len(data))
    chunk = data[1:4]
    _check_bytes(chunk, 1)
    n = 0
    for b in chunk:
        n = (n << 6) | (b - 63)
    return n, 4


def _check_bytes(chunk: bytes, start_offset: int) -> None:
    for i, b in enumerate(chunk):
        if not (63 <= b <= 126):
            raise MalformedGraph6Error(f"invalid graph6 byte {b}", start_offset + i)


def emit_graph6(g: Graph) -> bytes:
    """Encode adjacency as a graph6 line (no trailing newline)."""
    n = g.n
    out = bytearray(_encode_size(n))
    bits = 0
    nbits = 0
    masks = g.adjacency_masks()
    for j in range(1, n):
        col = masks[j]
        for i in range(j):
            bits = (bits << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(bits + 63)
                bits = 0
                nbits = 0
    if nbits:
        out.append((bits << (6 - nbits)) + 63)
    return bytes(out)


def parse_graph6(line: bytes | str) -> Graph:
    """Decode one graph6 line; a ``>>graph6<<`` header prefix is tolerated."""
    data = line.encode("ascii") if isinstance(line, str) else line
    data = data.rstrip(b"\r\n")
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    n, at = _decode_size(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[at:]
    if len(body) < nbytes:
        raise MalformedGraph6Error(
            f"need {nbytes} adjacency bytes for n={n}, got {len(body)}",
            at + len(body),
        )
    if len(body) > nbytes:
        raise MalformedGraph6Error("trailing bytes after adjacency data", at + nbytes)
    _check_bytes(body, at)
    edges = []
    bit = 0
    for j in range(1, n):
        for i in range(j):
            byte = body[bit // 6] - 63
            if (byte >> (5 - bit % 6)) & 1:
                edges.append((i, j))
            bit += 1
    # Padding bits must be zero per the format.
    if nbits % 6:
        last = body[-1] - 63
        if last & ((1 << (6 - nbits % 6)) - 1):
            raise MalformedGraph6Error("nonzero padding bits", at + nbytes - 1)
    return Graph(n, edges)


def iter_graph6_lines(lines: Iterable[bytes | str]) -> Iterator[Graph]:
    """Parse a stream of graph6 lines, skipping headers and blanks."""
    for raw in lines:
        data = raw.encode("ascii") if isinstance(raw, str) else raw
        data = data.strip()
        if not data or data == _G6_HEADER:
            continue
        yield parse_graph6(data)
