"""Extremal family generators: closed forms, structure, parameter gates."""

from __future__ import annotations

import hashlib
import tracemalloc
from collections import deque
from itertools import islice

import pytest

from matchbounds.families import (
    _FAMILIES,
    FAMILY_IDS,
    FamilySpec,
    InvalidParameterError,
    closed_nu,
    closed_profile,
    family_for_halfspace,
    generate,
)
from matchbounds.graphs import Graph, degree_profile, emit_graph6
from matchbounds.matching import nu

from .conftest import family_members


def _is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def test_g1_smallest_member():
    g = generate(FamilySpec("G1", 1))
    assert g.n == 10
    assert len(g.neighbors(0)) == 3
    assert degree_profile(g).n1 == 6  # six leaves under three children


def test_g6_smallest_is_triangle():
    assert generate(FamilySpec("G6", 3)) == Graph(3, [(0, 1), (1, 2), (2, 0)])


def test_g5_smallest_is_subdivided_diagonal_square():
    g = generate(FamilySpec("G5", 4))
    prof = degree_profile(g)
    assert g.n == 10 and prof.n3 == 4 and prof.n2 == 6


def test_closed_profile_examples():
    p = closed_profile(FamilySpec("G2", 1))
    assert (p.n3, p.n2, p.n1) == (34, 0, 0)
    p = closed_profile(FamilySpec("G4", 2))
    assert (p.n3, p.n2, p.n1) == (12, 2, 0)
    p = closed_profile(FamilySpec("G5", 6))
    assert (p.n3, p.n2, p.n1) == (6, 9, 0)


def test_closed_nu_examples():
    assert closed_nu(FamilySpec("G1", 3)) == 15
    assert closed_nu(FamilySpec("G2", 1)) == 15
    assert closed_nu(FamilySpec("G6", 5)) == 2


def test_closed_forms_match_generated_graphs():
    # ``generate`` builds on the closed-form order, so a wrong total gives
    # an edge out of range or an isolated vertex (n0 > 0), and a wrong
    # split of it a degree mismatch.
    for fid in FAMILY_IDS:
        for spec in family_members(fid):
            if closed_profile(spec).order > 400:
                break
            g = generate(spec)
            assert degree_profile(g) == closed_profile(spec), spec  # c = 1: connected
            if g.n <= 60:
                assert nu(g) == closed_nu(spec), spec


# SHA-256 of the graph6 lines, each ending in a newline, of every member
# of order at most 400, in ascending t: each family's vertex numbering is
# frozen, so every line stays the same.
_GRAPH6_UP_TO_400 = {
    "G1": "d08b6c271dd6dc8c879abcd4547c3cf5e2b15be90121d01b2a30db05be2b973b",
    "G2": "670b3b1b4cc8bdaa87b4e30b5fc953166bc77adf30c9e6f4f1605c28098875df",
    "G3": "52cf5c8f91925bc4e73448fd3426c499bbd82bb88974882ec804e169cacfa7b5",
    "G4": "4b7529f765cd5a59e866fb0f482a417a898ed57a46954b777e48ba10fe254c3e",
    "G5": "6a7aedbfac10be253df362fe6525660315316ac763b4f0bda83e2c68e16edf4c",
    "G6": "9d96e5e1693f4f093e5f7db8ce2e1ca5b33b166a6e776ace11f941900b2a6194",
}


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_member_numbering_is_frozen(fid):
    lines = []
    for spec in family_members(fid):
        if closed_profile(spec).order > 400:
            break
        lines.append(emit_graph6(generate(spec)) + b"\n")
    assert hashlib.sha256(b"".join(lines)).hexdigest() == _GRAPH6_UP_TO_400[fid]


def test_internally_cubic_tree_families_are_bipartite():
    for fid, t in (("G1", 1), ("G1", 3), ("G3", 2), ("G3", 7), ("G5", 4), ("G5", 8)):
        assert _is_bipartite(generate(FamilySpec(fid, t))), (fid, t)


def test_parameter_gates():
    for (fid, bad_t), message in {
        ("G1", 2): "G1 requires odd t >= 1, got 2",
        ("G1", 0): "G1 requires odd t >= 1, got 0",
        ("G2", 4): "G2 requires odd t >= 1, got 4",
        ("G3", 1): "G3 requires t >= 2, got 1",
        ("G4", 0): "G4 requires t >= 2, got 0",
        ("G5", 3): "G5 requires even t >= 4, got 3",
        ("G5", 2): "G5 requires even t >= 4, got 2",
        ("G6", 4): "G6 requires odd t >= 3, got 4",
        ("G6", 1): "G6 requires odd t >= 3, got 1",
        ("G7", 1): "unknown family 'G7'",
        ("G3", 3.0): "G3 requires integer t, got 3.0",
        ("G6", "5"): "G6 requires integer t, got '5'",
        ("G1", True): "G1 requires integer t, got True",
    }.items():
        with pytest.raises(InvalidParameterError) as excinfo:
            FamilySpec(fid, bad_t)
        assert str(excinfo.value) == message
    # The gate and the table's admissible sequence agree.
    for fid in FAMILY_IDS:
        admissible = set(range(_FAMILIES[fid].start, 21, _FAMILIES[fid].step))
        for t in range(21):
            try:
                FamilySpec(fid, t)
            except InvalidParameterError:
                assert t not in admissible, (fid, t)
            else:
                assert t in admissible, (fid, t)


def test_constraint_to_family_mapping():
    assert family_for_halfspace(1) == "G2"   # x3 <= 4/9
    assert family_for_halfspace(2) == "G6"   # x2 <= 1/2
    assert family_for_halfspace(3) == "G1"   # x3 + x1 <= 2/3
    assert family_for_halfspace(4) == "G5"   # x3 + 3x2/2 <= 1
    assert family_for_halfspace(5) == "G3"   # x3 + x2 + x1 <= 1
    assert family_for_halfspace(6) == "G4"   # x3 + x2/6 <= 1/2


def test_admissible_t_sequences():
    def first(fid, k):
        return [spec.t for spec in islice(family_members(fid), k)]

    assert first("G1", 3) == [1, 3, 5]
    assert first("G2", 3) == [1, 3, 5]
    assert first("G3", 3) == [2, 3, 4]
    assert first("G4", 3) == [2, 3, 4]
    assert first("G5", 3) == [4, 6, 8]
    assert first("G6", 3) == [3, 5, 7]


def test_closed_forms_are_lazy():
    # Each closed form evaluates only its own family's expression, so a
    # large t of a linear family costs no 2**t of the exponential ones.
    for spec in (FamilySpec("G6", 10**6 + 1), FamilySpec("G3", 10**6)):
        for closed_form in (closed_nu, closed_profile):
            tracemalloc.start()
            try:
                closed_form(spec)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, (spec, closed_form.__name__, peak)
