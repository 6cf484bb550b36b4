"""Decomposition structure: definitional partition and its three
guaranteed properties."""

from __future__ import annotations

import pytest

import matchbounds.matching
import matchbounds.structure
from matchbounds.enumeration import random_subcubic
from matchbounds.families import FamilySpec, closed_nu, generate
from matchbounds.graphs import Graph, _component_vertex_sets
from matchbounds.matching import _even_vertices, max_matching
from matchbounds.structure import (
    DecompositionMismatchError,
    GEDecomposition,
    gallai_edmonds,
    verify_ge_properties,
)

from .conftest import connected_upto

C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K13 = Graph(4, [(0, 1), (0, 2), (0, 3)])


def test_perfect_matching_graph_has_empty_a():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    d = gallai_edmonds(c4)
    assert d.A == frozenset() and d.B == frozenset()
    assert d.C == frozenset(range(4))


def test_hypomatchable_graph_is_all_a():
    d = gallai_edmonds(C5)
    assert d.A == frozenset(range(5))
    assert d.B == d.C == frozenset()
    assert verify_ge_properties(C5, d).all_true()


def test_star_decomposition():
    # Computed from the definition: deleting the center drops nu.
    d = gallai_edmonds(K13)
    assert d.A == frozenset({1, 2, 3})
    assert d.B == frozenset({0})
    assert d.C == frozenset()
    rep = verify_ge_properties(K13, d)
    assert rep.all_true()


def test_disconnected_input():
    two_c4 = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    d = gallai_edmonds(two_c4)
    assert d.A == frozenset()
    assert verify_ge_properties(two_c4, d).all_true()


def test_mismatch_detection():
    d = gallai_edmonds(K13)
    bogus = GEDecomposition(A=d.B, B=d.A, C=d.C)
    with pytest.raises(DecompositionMismatchError):
        verify_ge_properties(K13, bogus)


def test_properties_hold_exhaustively(corpus_by_n):
    # verify_ge_properties also checks the forest's partition against the
    # n+1-matching definition.
    sampled = (random_subcubic(11 + seed % 50, seed) for seed in range(300))
    for g in (*connected_upto(corpus_by_n, 10), *sampled):
        d = gallai_edmonds(g)
        assert verify_ge_properties(g, d).all_true(), g


@pytest.mark.parametrize("make, closed", [
    (lambda: generate(FamilySpec("G3", 2000)), closed_nu(FamilySpec("G3", 2000))),
    (lambda: generate(FamilySpec("G4", 800)), closed_nu(FamilySpec("G4", 800))),
    (lambda: random_subcubic(20000, 0), None),
], ids=["G3(2000)", "G4(800)", "random_subcubic(20000,0)"])
def test_nu_certified_by_tutte_berge(make, closed):
    # Any vertex set U bounds 2*nu <= n + |U| - odd(G - U); equality at
    # U = B certifies the matching as maximum, whatever found B.
    g = make()
    size = len(max_matching(g))
    B = gallai_edmonds(g).B
    rest, _ = g.induced(set(range(g.n)) - B)
    odd = sum(len(comp) % 2 for comp in _component_vertex_sets(rest))
    assert 2 * size == g.n + len(B) - odd
    if closed is not None:
        assert size == closed


def test_gallai_edmonds_matches_once(monkeypatch):
    g = generate(FamilySpec("G3", 5))
    expected = matchbounds.structure._gallai_edmonds_by_definition(g)
    searches = []
    search = matchbounds.structure._matching_array

    def counted(g):
        searches.append(g)
        return search(g)

    def forbidden(g):
        raise AssertionError("gallai_edmonds called nu")

    monkeypatch.setattr(matchbounds.structure, "_matching_array", counted)
    monkeypatch.setattr(matchbounds.structure, "nu", forbidden)
    monkeypatch.setattr(matchbounds.matching, "nu", forbidden)
    assert gallai_edmonds(g) == expected
    assert len(searches) == 1


def test_forest_rejects_non_maximum_matching():
    # P4 with only its middle edge matched: the trees of 0 and 3 meet.
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(RuntimeError, match="matching is not maximum"):
        _even_vertices(p4, [-1, 2, 1, -1])


def test_b_vertices_have_degree_at_least_two(corpus_by_n):
    for g in connected_upto(corpus_by_n, 10):
        d = gallai_edmonds(g)
        for b in d.B:
            assert g.degree(b) >= 2, (g, b)


def test_each_b_vertex_sees_two_a_components(corpus_by_n):
    for g in connected_upto(corpus_by_n, 10):
        d = gallai_edmonds(g)
        if not d.B:
            continue
        comp_of = _component_index_by_original_label(g, d.A)
        for b in d.B:
            touched = {comp_of[w] for w in g.neighbors(b) if w in comp_of}
            assert len(touched) >= 2, (g, b)


def _component_index_by_original_label(g: Graph, A: frozenset[int]) -> dict[int, int]:
    sub, new_to_old = g.induced(A)
    seen: dict[int, int] = {}
    idx = 0
    visited = set()
    for start in range(sub.n):
        if start in visited:
            continue
        stack = [start]
        visited.add(start)
        while stack:
            u = stack.pop()
            seen[new_to_old[u]] = idx
            for w in sub.neighbors(u):
                if w not in visited:
                    visited.add(w)
                    stack.append(w)
        idx += 1
    return seen
