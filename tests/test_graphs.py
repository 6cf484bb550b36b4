"""Graph core: construction, degree statistics, components, graph6."""

from __future__ import annotations

import hashlib
import io
import pickle
import random
import tracemalloc
from itertools import chain, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchbounds import enumeration, graphs
from matchbounds.enumeration import random_subcubic
from matchbounds.families import FamilySpec, generate
from matchbounds.graphs import (
    MAX_GRAPH6_ORDER,
    DegreeProfile,
    Graph,
    MalformedGraph6Error,
    NotSubcubicError,
    _components,
    degree_profile,
    emit_graph6,
    iter_graph6_lines,
    parse_graph6,
    read_graph6_line,
)

from .conftest import connected_upto, relabel

K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
K5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])

# Expected encodings frozen from networkx.to_graph6_bytes (independent
# reference implementation), one per hand-built graph.
_GRAPH6_FIXTURES = [
    ("K1", 1, [], b"@"),
    ("K2", 2, [(0, 1)], b"A_"),
    ("P3", 3, [(0, 1), (1, 2)], b"Bg"),
    ("C3", 3, [(0, 1), (1, 2), (0, 2)], b"Bw"),
    ("K13", 4, [(0, 1), (0, 2), (0, 3)], b"Cs"),
    ("P4", 4, [(0, 1), (1, 2), (2, 3)], b"Ch"),
    ("C4", 4, [(0, 1), (1, 2), (2, 3), (0, 3)], b"Cl"),
    ("K4", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], b"C~"),
    ("C5", 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], b"Dhc"),
    ("bull", 5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)], b"DyG"),
    ("C6", 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)], b"EhEG"),
    ("K33", 6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)], b"EFz_"),
    ("prism", 6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)], b"E{Sw"),
    ("twin_triangles", 6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], b"EwCW"),
    ("subdivided_k4", 5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)], b"D^o"),
    ("cube", 8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7), (0, 4), (1, 5), (2, 6), (3, 7)], b"Gl`HGs"),
    ("star_path", 7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)], b"FsCGG"),
    ("two_isolated", 2, [], b"A?"),
    ("petersen", 10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)], b"IheA@GUAo"),
    ("pendant_cycle8", 12, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7), (0, 8), (2, 9), (4, 10), (6, 11)], b"KhCGKE?G?O?O"),
]


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match=r"^edge \(0,3\) out of range for n=3$"):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError, match=r"^edge \(-1,2\) out of range for n=3$"):
        Graph(3, [(-1, 2)])
    with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
        Graph(3, [(1, 1)])
    # An out-of-range loop is reported as out of range.
    with pytest.raises(ValueError, match=r"^edge \(5,5\) out of range for n=3$"):
        Graph(3, [(5, 5)])
    with pytest.raises(ValueError, match=r"^vertex count must be nonnegative, got -1$"):
        Graph(-1)


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (2, 2), (0, 7)], "self-loop at vertex 2"),
    ([(0, 1), (0, 7), (2, 2)], "edge (0,7) out of range for n=3"),
    ([(1, 0), (1, 0), (9, 1), (0, 0)], "edge (9,1) out of range for n=3"),
])
def test_graph_reports_the_first_bad_edge(edges, message):
    for source in (edges, iter(edges)):
        with pytest.raises(ValueError) as info:
            Graph(3, source)
        assert str(info.value) == message


def test_graph_deduplicates_edges():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert len(g.edges) == 1
    g = Graph(4, [(2, 1), (0, 1), (1, 2), (3, 1), (1, 0), (1, 3), (2, 1)])
    assert g._adj == ((1,), (0, 2, 3), (1,), (1,))
    assert g == Graph(4, [(0, 1), (1, 2), (1, 3)])


def test_graph_reads_its_edges_once():
    class Once:
        def __init__(self, edges):
            self.edges, self.reads = edges, 0

        def __iter__(self):
            self.reads += 1
            return iter(self.edges)

    source = Once([(0, 1), (1, 2), (2, 0)])
    assert Graph(3, source) == Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert source.reads == 1
    generated = Graph(4, ((v, (v + 1) % 4) for v in range(4)))
    assert generated._adj == ((1, 3), (0, 2), (1, 3), (0, 2))


def test_graph_of_order_zero():
    g = Graph(0)
    assert (g.n, g._adj, g.edges) == (0, (), frozenset())
    assert g == Graph(0, []) == Graph(0, iter(()))


def test_graph_normalises_like_a_reference():
    # Seeded random edge lists, most with repeats in either orientation:
    # the graph holds the normalised pairs and sorted neighbour tuples.
    rng = random.Random(11)
    repeated = 0
    for _ in range(300):
        n = rng.randint(2, 40)
        edges = []
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v))
            if rng.random() < 0.2:
                edges.append(rng.choice([(u, v), (v, u)]))
        rng.shuffle(edges)
        pairs = {(min(e), max(e)) for e in edges}
        repeated += len(pairs) < len(edges)
        g = Graph(n, edges)
        assert g.edges == pairs
        assert g._adj == tuple(
            tuple(sorted({w for e in pairs if u in e for w in e if w != u})) for u in range(n)
        )
    assert repeated > 200


def test_graph_is_immutable():
    g = Graph(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 5


def test_degree_profile_examples():
    assert degree_profile(generate(FamilySpec("G3", 2))) == DegreeProfile(
        n0=0, n1=2, n2=2, n3=2, c=1
    )
    assert degree_profile(generate(FamilySpec("G2", 1))) == DegreeProfile(
        n0=0, n1=0, n2=0, n3=34, c=1
    )
    assert degree_profile(C5) == DegreeProfile(n0=0, n1=0, n2=5, n3=0, c=1)
    assert degree_profile(K4) == DegreeProfile(n0=0, n1=0, n2=0, n3=4, c=1)
    assert degree_profile(Graph(0)) == DegreeProfile(n0=0, n1=0, n2=0, n3=0, c=0)


def test_degree_profile_rejects_high_degree():
    with pytest.raises(NotSubcubicError):
        degree_profile(K5)


def test_profile_counts_sum_to_order(corpus_by_n):
    for g in connected_upto(corpus_by_n, 8):
        prof = degree_profile(g)
        assert prof.order == g.n
        assert prof.c == 1


def test_components():
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert _components(two_triangles._adj) == [[0, 1, 2], [3, 4, 5]]
    assert _components(C5._adj) == [[0, 1, 4, 2, 3]]
    assert _components(Graph(0)._adj) == []
    assert _components(C5._adj, [4, 1, 3]) == [[1], [3, 4]]
    assert _components(C5._adj, ()) == []


def test_components_ordered_by_smallest_original_index():
    # Triangle on {0,1,2} comes before the edge on {4,5}; vertex 3 isolated.
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (4, 5)])
    assert _components(g._adj) == [[0, 1, 2], [3], [4, 5]]
    assert _components(g._adj, {5, 4, 2, 1}) == [[1, 2], [4, 5]]


def _components_by_union_find(g: Graph, keep) -> list[list[int]]:
    """Components of the subgraph induced on ``keep``, sorted lists ordered
    by least vertex: union-find over the edge set, no search."""
    parent = {v: v for v in keep}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edges:
        if u in parent and v in parent:
            parent[root(u)] = root(v)
    groups: dict[int, list[int]] = {}
    for v in sorted(parent):
        groups.setdefault(root(v), []).append(v)
    return list(groups.values())


def test_components_against_union_find(corpus_by_n):
    # On every class with n <= 9 and on seeded random subcubic graphs,
    # whole and induced on seeded random vertex subsets (often
    # disconnected): the same vertex sets, in order of least vertex, each
    # list led by its least vertex.
    rnd = random.Random(3)
    graphs = [*connected_upto(corpus_by_n, 9), *(random_subcubic(10 + s, s) for s in range(200))]
    checked = 0
    for g in graphs:
        subsets = [range(g.n)] + [rnd.sample(range(g.n), rnd.randrange(g.n + 1)) for _ in range(3)]
        for keep in subsets:
            comps = _components(g._adj, keep)
            assert [sorted(c) for c in comps] == _components_by_union_find(g, keep), (g, keep)
            assert all(c[0] == min(c) for c in comps)
            checked += len(comps) > 1
        assert _components(g._adj) == _components(g._adj, range(g.n))
    assert checked > 1000


def test_induced_rejects_vertices_out_of_range():
    for keep, bad in (([-1, 0], -1), ([4, -1], -1), ([0, 5], 5), ([5], 5)):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range for n=5"):
            C5.induced(keep)
    # A repeated vertex is kept once.
    assert C5.induced([3, 0, 3, 4, 0]) == (Graph(3, [(0, 2), (1, 2)]), (0, 3, 4))


def test_spanning_tree_degree_surplus(corpus_by_n):
    # In every connected subcubic graph the degree-3 count is at least
    # the degree-1 count minus 2 (spanning-tree leaf accounting).
    for g in connected_upto(corpus_by_n, 10):
        prof = degree_profile(g)
        assert prof.n3 >= prof.n1 - 2, g


@pytest.mark.parametrize("name,n,edges,expected", _GRAPH6_FIXTURES)
def test_graph6_against_reference(name, n, edges, expected):
    g = Graph(n, edges)
    assert emit_graph6(g) == expected
    assert parse_graph6(expected) == g


def test_graph6_roundtrip_corpus(corpus_by_n):
    for g in connected_upto(corpus_by_n, 10):
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_header_tolerated():
    assert parse_graph6(b">>graph6<<Bw") == Graph(3, [(0, 1), (1, 2), (0, 2)])


def test_graph6_one_line_end_removed():
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    for end in (b"\n", b"\r\n", b"\r"):
        assert parse_graph6(b"Bw" + end) == triangle
    for end in (b"\n\n", b"\r\r\n", b"\r\r"):
        with pytest.raises(MalformedGraph6Error, match="trailing bytes"):
            parse_graph6(b"Bw" + end)


def test_graph6_five_vertex_star():
    star = parse_graph6(b"D?{")
    assert star == Graph(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    assert emit_graph6(star) == b"D?{"


def test_graph6_malformed():
    with pytest.raises(MalformedGraph6Error):
        parse_graph6(b"")
    with pytest.raises(MalformedGraph6Error) as exc:
        parse_graph6(b"D")  # truncated: needs adjacency bytes for n=5
    assert exc.value.offset == 1
    with pytest.raises(MalformedGraph6Error):
        parse_graph6(b"Bw~~~")  # trailing garbage
    with pytest.raises(MalformedGraph6Error):
        parse_graph6(bytes([66, 30]))  # byte below printable range
    for line, message, offset in [
        (b"D?\x7f", "invalid graph6 byte 127", 2),
        (b"~?@>Bw", "invalid graph6 byte 62", 3),  # inside a 4-byte size prefix
        (b"~?A", "truncated 4-byte size prefix", 3),
        (b"~~??", "truncated 8-byte size prefix", 4),
        (b"By", "nonzero padding bits", 1),
    ]:
        with pytest.raises(MalformedGraph6Error) as exc:
            parse_graph6(line)
        assert str(exc.value) == f"{message} (byte offset {offset})"
        assert exc.value.offset == offset


def test_graph6_encoding_is_pinned():
    g = random_subcubic(2000, 0)
    g6 = emit_graph6(g)
    assert hashlib.sha256(g6).hexdigest() == (
        "84409b61967f4a6ba3a3a33a5a7219043f4c2784c0057035363a2cdde4c7725e"
    )
    assert parse_graph6(g6) == g


def test_graph6_order_is_capped():
    n = MAX_GRAPH6_ORDER
    assert len(emit_graph6(Graph(n))) == 4 + (n * (n - 1) // 2 + 5) // 6
    with pytest.raises(ValueError, match="graph too large for graph6"):
        emit_graph6(Graph(n + 1))
    # It is read up to the same order: a larger size prefix is refused
    # before the body, here missing, is read.
    prefix = b"~" + bytes(63 + ((n + 1) >> shift & 63) for shift in (12, 6, 0))
    with pytest.raises(ValueError, match="graph too large for graph6"):
        parse_graph6(prefix)


def test_iter_graph6_lines_skips_headers_and_blanks():
    stream = io.BytesIO(b">>graph6<<\n\nBw\n >>graph6<< \r\nCs\n>>graph6<<Bw")
    read = list(iter_graph6_lines(stream))
    # A glued header is left to parse_graph6, which removes it once.
    assert read == [b"Bw", b"Cs", b">>graph6<<Bw"]
    assert list(map(parse_graph6, read)) == [
        Graph(3, [(0, 1), (1, 2), (0, 2)]),
        Graph(4, [(0, 1), (0, 2), (0, 3)]),
        Graph(3, [(0, 1), (1, 2), (0, 2)]),
    ]


def _decoded(text: bytes) -> list:
    """The graph of each line of ``text`` by ``read_graph6_line``, as the
    CLI reads ``--file``, then the error that stops the reading, if any."""
    out = []
    try:
        for line in iter_graph6_lines(io.BytesIO(text)):
            out.append(read_graph6_line(line)[0])
    except ValueError as exc:
        out.append(str(exc))
    return out


def test_iter_graph6_lines_reads_up_to_the_longest_line_the_cap_allows(monkeypatch):
    # At a cap of n = 100: the longest line, a glued header, the 8-byte
    # prefix, the body and "\r\n", is read whole.  One byte more and the
    # line is cut, refused as its first bytes decide, and nothing after it
    # is read: whitespace that makes a line that long is part of it.
    monkeypatch.setattr(graphs, "MAX_GRAPH6_ORDER", 100)
    path = Graph(100, [(i, i + 1) for i in range(99)])
    content = b">>graph6<<~~???" + emit_graph6(path)[1:]
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert _decoded(content + b"\r\nBw\n") == [path, triangle]
    trailing = f"trailing bytes after adjacency data (byte offset {len(content) - 10})"
    for tail in (b"?\r\n", b"  \n", b"\r\r\n"):
        assert _decoded(content + tail + b"Bw\n") == [trailing]
    over = b"~" + bytes(63 + (101 >> s & 63) for s in (12, 6, 0))
    assert _decoded(over + b"?" * 2000 + b"\nBw\n") == [
        "graph too large for graph6: n=101 (at most 100)"]
    for line in (b"  " + content, b" " * 2000 + b"Bw"):
        assert _decoded(line + b"\nBw\n") == ["invalid size byte 32 (byte offset 0)"]


class _ChunkStream(io.RawIOBase):
    """A raw binary stream of ``chunks``, copied out as they are read."""

    def __init__(self, chunks):
        self._chunks = iter(chunks)
        self._left = memoryview(b"")
        self.consumed = 0

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        while not self._left:
            chunk = next(self._chunks, None)
            if chunk is None:
                return 0
            self._left = memoryview(chunk)
        k = min(len(buf), len(self._left))
        buf[:k] = self._left[:k]
        self._left = self._left[k:]
        self.consumed += k
        return k


def test_over_long_line_is_read_in_bounded_memory(monkeypatch):
    # A line 100 times the longest the cap allows, made as it is read, is
    # refused holding a few copies of that longest line at most.
    monkeypatch.setattr(graphs, "MAX_GRAPH6_ORDER", 2000)
    longest = 10 + 8 + (2000 * 1999 // 2 + 5) // 6 + 2
    block = b"?" * (1 << 16)
    raw = _ChunkStream(chain([b"~??"], repeat(block, 100 * longest // len(block)), [b"\nBw\n"]))
    tracemalloc.start()
    try:
        lines = iter_graph6_lines(io.BufferedReader(raw))
        with pytest.raises(MalformedGraph6Error, match="trailing bytes"):
            read_graph6_line(next(lines))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * longest
    assert raw.consumed < 2 * longest


def test_read_graph6_line_returns_the_emitted_text():
    # Orders on both sides of n = 62, where the emitted prefix grows from
    # 1 byte to 4; n <= 1 has an empty body.
    for g in [Graph(0), *(random_subcubic(n, n) for n in (1, 2, 13, 62, 63, 300))]:
        line = emit_graph6(g)
        assert read_graph6_line(line) == (g, line)
        assert read_graph6_line(b">>graph6<<" + line) == (g, line)
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    for line in (b">>graph6<<Bw", b"~??Bw", b"~~?????Bw"):
        assert read_graph6_line(line) == (triangle, b"Bw")
    for line, n in ((b"~???", 0), (b"~~??????", 0), (b">>graph6<<~??@", 1)):
        assert read_graph6_line(line) == (Graph(n), emit_graph6(Graph(n)))
    path = Graph(100, [(i, i + 1) for i in range(99)])
    long_form = b"~~???" + emit_graph6(path)[1:]  # the 8-byte prefix for n = 100
    assert read_graph6_line(long_form) == (path, emit_graph6(path))
    # Above MAX_GRAPH6_ORDER there is no emitted text: the line is refused.
    n = MAX_GRAPH6_ORDER + 1
    line = b"~~???" + bytes([63 + (n >> 12), 63 + (n >> 6 & 63), 63 + (n & 63)])
    with pytest.raises(ValueError, match="graph too large for graph6"):
        read_graph6_line(line + b"?" * ((n * (n - 1) // 2 + 5) // 6))


def test_graph6_large_order_prefix():
    g = Graph(100, [(i, i + 1) for i in range(99)])
    data = emit_graph6(g)
    assert data[0] == 126  # long-form size prefix
    assert parse_graph6(data) == g
    # The format also allows a small order in the 4- and 8-byte forms.
    assert parse_graph6(b"~??Bw") == parse_graph6(b"~~?????Bw") == parse_graph6(b"Bw")


def _assert_same_graph(h, ref):
    assert h.n == ref.n and h.edges == ref.edges
    assert all(h.neighbors(v) == ref.neighbors(v) for v in range(ref.n))
    assert h == ref and hash(h) == hash(ref)


def test_trusted_constructions_equal_validated_ones(corpus_by_n):
    # parse_graph6, unpickling, the enumerator's levels, which take
    # _relabelled's output as it is, and induced skip the checks of
    # Graph(n, edges); each must build exactly the graph they would.
    graphs = list(connected_upto(corpus_by_n, 10))
    graphs += [random_subcubic(1 + seed * 799 // 299, seed) for seed in range(300)]
    rnd = random.Random(0)
    for g in graphs:
        ref = Graph(g.n, sorted(g.edges))
        for h in (parse_graph6(emit_graph6(g)), pickle.loads(pickle.dumps(g))):
            _assert_same_graph(h, ref)
        order = list(range(g.n))
        rnd.shuffle(order)
        position = [0] * g.n
        for i, v in enumerate(order):
            position[v] = i
        h = Graph._from_adjacency(enumeration._relabelled(g._adj, tuple(order)))
        _assert_same_graph(h, relabel(g, position))
        keep = order[:rnd.randrange(g.n + 1)] * 2
        h, new_to_old = g.induced(keep)
        assert new_to_old == tuple(sorted(set(keep)))
        new = {old: i for i, old in enumerate(new_to_old)}
        _assert_same_graph(h, Graph(len(new), [
            (new[u], new[v]) for u, v in g.edges if u in new and v in new
        ]))
    path = Graph(100, [(i, i + 1) for i in range(99)])
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    long_prefix = ((emit_graph6(path), path), (b"~??Bw", triangle), (b"~~?????Bw", triangle))
    for line, ref in long_prefix:
        _assert_same_graph(parse_graph6(line), ref)


def test_graph6_decoding_at_every_order_near_the_prefix_change():
    # Orders 55..70 take both sides of n = 62, where the size prefix goes
    # from 1 byte to 4, with graphs of every density; 300 and 2000 take
    # long bodies.
    rnd = random.Random(6)
    graphs = [random_subcubic(n, n) for n in [*range(55, 71), 300, 2000]]
    for n in [*range(55, 71), 300, 2000]:
        m = rnd.randint(0, n * (n - 1) // 2) if n <= 70 else 2 * n
        pairs = ((rnd.randrange(n), rnd.randrange(n)) for _ in range(m))
        graphs.append(Graph(n, [(u, v) for u, v in pairs if u != v]))
    for g in graphs:
        _assert_same_graph(parse_graph6(emit_graph6(g)), Graph(g.n, sorted(g.edges)))


@pytest.mark.parametrize("n", [62, 63])
def test_graph6_nonzero_padding_keeps_its_message_and_offset(n):
    # n = 62 has 1891 bits and 5 padding bits; n = 63, 1953 bits and 3.
    line = bytearray(emit_graph6(Graph(n, [(0, n - 1)])))
    line[-1] += 1  # the lowest bit of the last byte is padding
    with pytest.raises(MalformedGraph6Error) as exc:
        parse_graph6(bytes(line))
    offset = len(line) - 1
    assert str(exc.value) == f"nonzero padding bits (byte offset {offset})"
    assert exc.value.offset == offset


def test_degree_profile_names_a_degree_above_255():
    star = Graph(302, [(1, v) for v in range(2, 302)] + [(0, 1)])
    with pytest.raises(NotSubcubicError, match=r"^vertex 1 has degree 301 > 3$"):
        degree_profile(star)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=14))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), max_size=len(all_pairs))) if all_pairs else []
    return Graph(n, edges)


@settings(max_examples=150, deadline=None)
@given(random_graphs())
def test_graph6_roundtrip_random(g):
    assert parse_graph6(emit_graph6(g)) == g


@settings(max_examples=60, deadline=None)
@given(random_graphs(), st.randoms())
def test_profile_invariant_under_relabeling(g, rnd):
    try:
        prof = degree_profile(g)
    except NotSubcubicError:
        return
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert degree_profile(relabel(g, perm)) == prof
