"""Matching engine: blossom vs brute force, perfect matchings,
hypomatchability."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchbounds.enumeration import random_subcubic
from matchbounds.families import FamilySpec, generate
from matchbounds.graphs import Graph
from matchbounds.matching import (
    TooLargeError,
    brute_force_nu,
    has_perfect_matching,
    is_hypomatchable,
    max_matching,
    nu,
)

from .conftest import connected_upto

C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
K13 = Graph(4, [(0, 1), (0, 2), (0, 3)])
PETERSEN = Graph(10, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
])


def test_matching_number_examples():
    assert nu(generate(FamilySpec("G1", 1))) == 3
    assert nu(C5) == 2
    # Frozen from the brute-force oracle.
    assert nu(PETERSEN) == 5
    assert brute_force_nu(PETERSEN) == 5


def test_brute_force_examples():
    assert brute_force_nu(K4) == 2
    assert brute_force_nu(K13) == 1
    assert brute_force_nu(generate(FamilySpec("G4", 2))) == 6


def test_brute_force_guard():
    big = Graph(30, [(i, (i + 1) % 30) for i in range(30)] + [(i, i + 15) for i in range(15)])
    assert len(big.edges) == 45
    with pytest.raises(TooLargeError):
        brute_force_nu(big)


def test_matching_is_valid_and_maximum():
    for g in (C4, C5, K4, K13, PETERSEN):
        m = max_matching(g)
        assert all(e in g.edges for e in m.edges)
        seen = [v for e in m.edges for v in e]
        assert len(seen) == len(set(seen))
        assert len(m) == brute_force_nu(g)


def test_matching_deterministic():
    a = max_matching(PETERSEN)
    b = max_matching(PETERSEN)
    assert a == b
    # Golden outputs pinned by the index-order tie-break.
    assert sorted(a.edges) == [(0, 1), (2, 3), (4, 9), (5, 7), (6, 8)]
    g1 = generate(FamilySpec("G1", 1))
    assert sorted(max_matching(g1).edges) == [(0, 1), (2, 6), (3, 8)]


def test_matching_certificate_raises(monkeypatch):
    import matchbounds.matching as matching

    # A mate array pairing vertices 0 and 2, which are not adjacent.
    monkeypatch.setattr(matching, "_matching_array", lambda g: [2, -1, 0, -1])
    with pytest.raises(RuntimeError, match="non-edges"):
        max_matching(Graph(4, [(0, 1), (2, 3)]))


def test_matching_rejects_overlapping_edges():
    from matchbounds.matching import Matching

    with pytest.raises(ValueError):
        Matching(frozenset({(0, 1), (1, 2)}))


def test_oracle_equivalence_small(corpus_by_n):
    for g in connected_upto(corpus_by_n, 8):
        assert len(max_matching(g)) == brute_force_nu(g), g


def test_deletion_monotonicity(corpus_by_n):
    for g in connected_upto(corpus_by_n, 8):
        base = nu(g)
        for v in range(g.n):
            rest, _ = g.without_vertex(v)
            assert base - 1 <= nu(rest) <= base, (g, v)


def test_has_perfect_matching():
    assert has_perfect_matching(C4)
    assert not has_perfect_matching(C5)
    k4_minus_edge = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert has_perfect_matching(k4_minus_edge)
    assert has_perfect_matching(Graph(0))


def test_is_hypomatchable():
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert is_hypomatchable(triangle)
    assert is_hypomatchable(C5)
    assert not is_hypomatchable(K13)
    assert not is_hypomatchable(C4)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=13), st.integers(min_value=0, max_value=10_000))
def test_oracle_equivalence_random(n, seed):
    g = random_subcubic(n, seed)
    assert len(max_matching(g)) == brute_force_nu(g)
