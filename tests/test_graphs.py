"""Graph core: construction, degree statistics, components, graph6."""

from __future__ import annotations

import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchbounds import enumeration
from matchbounds.enumeration import random_subcubic
from matchbounds.families import FamilySpec, generate
from matchbounds.graphs import (
    MAX_GRAPH6_ORDER,
    DegreeProfile,
    Graph,
    MalformedGraph6Error,
    NotSubcubicError,
    _component_vertex_sets,
    degree_profile,
    emit_graph6,
    is_connected,
    is_subcubic,
    parse_graph6,
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
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_graph_deduplicates_edges():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert len(g.edges) == 1


def test_graph_is_immutable():
    g = Graph(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 5


def test_is_subcubic():
    assert is_subcubic(K4)
    assert not is_subcubic(K5)
    assert is_subcubic(Graph(0))


def test_degree_profile_examples():
    assert degree_profile(generate(FamilySpec("G3", 2))) == DegreeProfile(
        n0=0, n1=2, n2=2, n3=2, c=1
    )
    assert degree_profile(generate(FamilySpec("G2", 1))) == DegreeProfile(
        n0=0, n1=0, n2=0, n3=34, c=1
    )
    assert degree_profile(C5) == DegreeProfile(n0=0, n1=0, n2=5, n3=0, c=1)


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
    assert _component_vertex_sets(two_triangles) == [[0, 1, 2], [3, 4, 5]]
    assert _component_vertex_sets(C5) == [[0, 1, 2, 3, 4]]
    assert _component_vertex_sets(Graph(0)) == []
    assert is_connected(C5) and is_connected(Graph(1)) and is_connected(Graph(0))
    assert not is_connected(two_triangles)


def test_components_ordered_by_smallest_original_index():
    # Triangle on {0,1,2} comes before the edge on {4,5}; vertex 3 isolated.
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (4, 5)])
    assert _component_vertex_sets(g) == [[0, 1, 2], [3], [4, 5]]


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


def test_iter_graph6_lines_skips_headers_and_blanks():
    from matchbounds.graphs import iter_graph6_lines

    lines = [b">>graph6<<", b"", b"Bw", b"Cs\n"]
    parsed = list(iter_graph6_lines(lines))
    assert parsed == [
        Graph(3, [(0, 1), (1, 2), (0, 2)]),
        Graph(4, [(0, 1), (0, 2), (0, 3)]),
    ]


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
    # parse_graph6, unpickling and the enumerator's levels, which take
    # _relabelled's output as it is, skip the checks of Graph(n, edges);
    # each must build exactly the graph they would.
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
    path = Graph(100, [(i, i + 1) for i in range(99)])
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    long_prefix = ((emit_graph6(path), path), (b"~??Bw", triangle), (b"~~?????Bw", triangle))
    for line, ref in long_prefix:
        _assert_same_graph(parse_graph6(line), ref)


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
    if not is_subcubic(g):
        return
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert degree_profile(relabel(g, perm)) == degree_profile(g)
