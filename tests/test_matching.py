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
    _matching_array,
    brute_force_nu,
    has_perfect_matching,
    is_hypomatchable,
    nu,
)

from .conftest import certified_nu, connected_upto

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


def _pairs(mate: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u, v in enumerate(mate) if u < v]


def test_matching_is_valid_and_maximum(corpus_by_n):
    # The mate array behind ``nu``: each matched vertex is paired with a
    # neighbour that is paired back with it, and the pairs are maximum.
    for g in connected_upto(corpus_by_n, 9):
        mate, _ = _matching_array(g)
        assert len(mate) == g.n
        for v, u in enumerate(mate):
            assert u == -1 or (u in g.neighbors(v) and mate[u] == v), (g, v)
        assert len(_pairs(mate)) == nu(g) == brute_force_nu(g), g


def test_matching_deterministic():
    a, _ = _matching_array(PETERSEN)
    assert _matching_array(PETERSEN)[0] == a
    # Golden outputs pinned by the index-order tie-break.
    assert _pairs(a) == [(0, 1), (2, 3), (4, 9), (5, 7), (6, 8)]
    g1 = generate(FamilySpec("G1", 1))
    assert _pairs(_matching_array(g1)[0]) == [(0, 1), (2, 6), (3, 8)]


def test_oracle_equivalence_small(corpus_by_n):
    for g in connected_upto(corpus_by_n, 8):
        assert nu(g) == brute_force_nu(g), g


def test_certified_nu_matches_brute_force(corpus_by_n):
    # The oracle of the Tutte-Berge checker that certifies every swept nu.
    for g in connected_upto(corpus_by_n, 9):
        assert certified_nu(g) == brute_force_nu(g), g


def test_deletion_monotonicity(corpus_by_n):
    for g in connected_upto(corpus_by_n, 8):
        base = nu(g)
        for v in range(g.n):
            rest, _ = g.induced(u for u in range(g.n) if u != v)
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
    # Odd order, but each deleted vertex leaves two triangles unmatched.
    triangles = Graph(9, [(c + i, c + (i + 1) % 3) for c in (0, 3, 6) for i in range(3)])
    assert not is_hypomatchable(triangles)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=13), st.integers(min_value=0, max_value=10_000))
def test_oracle_equivalence_random(n, seed):
    g = random_subcubic(n, seed)
    assert nu(g) == brute_force_nu(g)
