"""Decomposition structure: definitional partition and its three
guaranteed properties."""

from __future__ import annotations

import random
from collections import Counter

import pytest

import matchbounds.matching
import matchbounds.structure
from matchbounds.enumeration import random_subcubic
from matchbounds.families import FamilySpec, closed_nu, generate
from matchbounds.graphs import Graph, _components
from matchbounds.matching import _Forest, brute_force_nu, has_perfect_matching, is_hypomatchable
from matchbounds.structure import (
    DecompositionMismatchError,
    GEDecomposition,
    _ge_properties,
    _has_neighborhood_surplus,
    gallai_edmonds,
    verify_ge_properties,
)

from .conftest import certified_nu, connected_upto

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
    # verify_ge_properties also checks the matching run's partition against
    # the n+1-matching definition: on each graph and a vertex-deleted copy,
    # which is often disconnected and then leaves several Hungarian trees.
    sampled = (random_subcubic(11 + seed % 50, seed) for seed in range(300))
    for g in (*connected_upto(corpus_by_n, 10), *sampled):
        for h in (g, g.induced(range(1, g.n))[0]):
            d = gallai_edmonds(h)
            assert verify_ge_properties(h, d).all_true(), h


def _hypomatchable_by_definition(g: Graph) -> bool:
    """Factor-critical by definition: odd order, and deleting any one vertex
    leaves a perfect matching."""
    return g.n % 2 == 1 and all(
        has_perfect_matching(g.induced(u for u in range(g.n) if u != v)[0])
        for v in range(g.n)
    )


def _surplus_by_definition(g: Graph, B, a_comps) -> bool:
    """Hall's condition |N(X)| > |X| one b at a time: B plus a copy of b
    must match into the components, by one Kuhn pass per b."""
    comp_of = {v: idx for idx, comp in enumerate(a_comps) for v in comp}
    adj = [sorted({comp_of[w] for w in g.neighbors(b) if w in comp_of}) for b in sorted(B)]

    def saturates(left_adj):
        match_right = [-1] * len(a_comps)

        def try_augment(u, visited):
            for r in left_adj[u]:
                if not visited[r]:
                    visited[r] = True
                    if match_right[r] == -1 or try_augment(match_right[r], visited):
                        match_right[r] = u
                        return True
            return False

        return all(try_augment(u, [False] * len(a_comps)) for u in range(len(left_adj)))

    return all(saturates(adj + [adj[i]]) for i in range(len(adj)))


def test_ge_property_checks_match_their_definitions(corpus_by_n):
    # Gallai's-lemma hypomatchability and the one-search surplus test
    # against their definitions: on each graph and a vertex-deleted copy
    # (often disconnected), on the decomposition, and on seeded random
    # splits into an A side and a B set, where the surplus often fails.
    sampled = (random_subcubic(11 + seed % 50, seed) for seed in range(300))
    rng = random.Random(7)
    verdicts = Counter()
    for g in (*connected_upto(corpus_by_n, 10), *sampled):
        for h in (g, g.induced(range(1, g.n))[0]):
            hypo = is_hypomatchable(h)
            assert hypo == _hypomatchable_by_definition(h), h
            verdicts["hypomatchable", hypo] += 1
        d = gallai_edmonds(g)
        splits = [(d.A, d.B)]
        for _ in range(3):
            side = [rng.randrange(3) for _ in range(g.n)]
            splits.append(({v for v in range(g.n) if side[v] == 0},
                           frozenset(v for v in range(g.n) if side[v] == 1)))
        for A, B in splits:
            a_comps = _components(g._adj, A)
            surplus = _has_neighborhood_surplus(g, B, a_comps)
            assert surplus == _surplus_by_definition(g, B, a_comps), (g, A, B)
            verdicts["surplus", surplus] += 1
    assert min(verdicts.values()) > 100 and len(verdicts) == 4, verdicts


def test_one_run_verdicts_match_per_component_ones(corpus_by_n):
    # One matching run per side against one test per component and the
    # definitions: on each graph and a vertex-deleted copy, on the
    # decomposition, where both verdicts hold, and on a seeded random
    # split into A, B and C, where they often fail.
    rng = random.Random(21)
    verdicts = Counter()
    for g in connected_upto(corpus_by_n, 10):
        for h in (g, g.induced(range(1, g.n))[0]):
            d = gallai_edmonds(h)
            side = [rng.randrange(3) for _ in range(h.n)]
            split = [frozenset(v for v in range(h.n) if side[v] == s) for s in range(3)]
            for A, B, C in ((d.A, d.B, d.C), split):
                rep = _ge_properties(h, GEDecomposition(A=A, B=B, C=C))
                a_comps = [h.induced(comp)[0] for comp in _components(h._adj, A)]
                c_comps = [h.induced(comp)[0] for comp in _components(h._adj, C)]
                hypo = all(map(is_hypomatchable, a_comps))
                perfect = all(map(has_perfect_matching, c_comps))
                assert hypo == all(map(_hypomatchable_by_definition, a_comps)), (h, A)
                assert perfect == all(2 * brute_force_nu(c) == c.n for c in c_comps), (h, C)
                assert rep.a_components_hypomatchable == hypo, (h, A)
                assert rep.c_components_perfectly_matched == perfect, (h, C)
                verdicts["hypomatchable", hypo] += 1
                verdicts["perfect", perfect] += 1
    assert min(verdicts.values()) > 100 and len(verdicts) == 4, verdicts


def test_ge_properties_match_once_per_side(monkeypatch):
    # G2(3) has 31 A-components: one run for A, one for the empty C and
    # one for the incidence graph of B and the components.
    g = generate(FamilySpec("G2", 3))
    d = gallai_edmonds(g)
    assert len(_components(g._adj, d.A)) >= 10 and d.B
    runs = []
    search = matchbounds.matching._matching_array

    def counted(g, every_root=False):
        runs.append(g)
        return search(g, every_root)

    monkeypatch.setattr(matchbounds.structure, "_matching_array", counted)
    monkeypatch.setattr(matchbounds.matching, "_matching_array", counted)
    assert _ge_properties(g, d).all_true()
    assert len(runs) <= 3


@pytest.mark.parametrize("make, closed", [
    (lambda: generate(FamilySpec("G3", 2000)), closed_nu(FamilySpec("G3", 2000))),
    (lambda: generate(FamilySpec("G4", 800)), closed_nu(FamilySpec("G4", 800))),
    (lambda: random_subcubic(20000, 0), None),
], ids=["G3(2000)", "G4(800)", "random_subcubic(20000,0)"])
def test_nu_certified_by_tutte_berge(make, closed):
    # certified_nu checks its own Tutte-Berge equality; the closed forms
    # pin the value where one is known.
    size = certified_nu(make())
    if closed is not None:
        assert size == closed


def test_gallai_edmonds_matches_once(monkeypatch):
    # One matching run, growing one forest, per decomposition and per
    # hypomatchability test; the greedy seed leaves several exposed
    # vertices on G3(5) and on P4 plus an isolated vertex.
    g = generate(FamilySpec("G3", 5))
    expected = matchbounds.structure._gallai_edmonds_by_definition(g)
    searches = []
    forests = []
    search = matchbounds.structure._matching_array

    def counted(g, every_root=False):
        searches.append(g)
        return search(g, every_root)

    def counted_forest(*args):
        forests.append(args)
        return _Forest(*args)

    def forbidden(g):
        raise AssertionError("gallai_edmonds called nu")

    monkeypatch.setattr(matchbounds.structure, "_matching_array", counted)
    monkeypatch.setattr(matchbounds.matching, "_Forest", counted_forest)
    monkeypatch.setattr(matchbounds.structure, "nu", forbidden)
    monkeypatch.setattr(matchbounds.matching, "nu", forbidden)
    assert gallai_edmonds(g) == expected
    assert len(searches) == 1 and len(forests) == 1
    p4_plus_vertex = Graph(5, [(0, 1), (0, 2), (1, 3)])
    for h, hypo in ((C5, True), (p4_plus_vertex, False)):
        forests.clear()
        assert is_hypomatchable(h) == hypo
        assert len(forests) == 1, h


def test_search_rejects_a_dead_tree_it_meets():
    # P4 with only its middle edge matched, and the tree of 3 marked dead:
    # the search from 0 reaches its even vertex 1, so 0 and 3 end an
    # augmenting path.
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    forest = _Forest(p4._adj, [-1, 2, 1, -1])
    for v in (1, 2, 3):
        forest.dead[v] = True
    forest.even[1] = forest.even[3] = True
    with pytest.raises(RuntimeError, match="matching is not maximum"):
        forest.grow(0)


def test_b_vertices_have_degree_at_least_two(corpus_by_n):
    for g in connected_upto(corpus_by_n, 10):
        d = gallai_edmonds(g)
        for b in d.B:
            assert len(g.neighbors(b)) >= 2, (g, b)


def test_each_b_vertex_sees_two_a_components(corpus_by_n):
    for g in connected_upto(corpus_by_n, 10):
        d = gallai_edmonds(g)
        if not d.B:
            continue
        comp_of = {v: i for i, comp in enumerate(_components(g._adj, d.A)) for v in comp}
        for b in d.B:
            touched = {comp_of[w] for w in g.neighbors(b) if w in comp_of}
            assert len(touched) >= 2, (g, b)
