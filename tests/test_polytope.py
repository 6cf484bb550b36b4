"""Exact polyhedron geometry: membership, vertex enumeration, closure
and shift transforms."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchbounds.bounds import sharp_bounds
from matchbounds.polytope import (
    CoefficientTriple,
    HalfSpace,
    NegativeLambdaError,
    NotInPError,
    Polyhedron,
    UnboundedInputError,
    _solve3,
    contains,
    parse_fraction,
    polyhedron_P,
    polyhedron_P_plus,
    project_to_Pplus,
    shift_transform,
    triple,
    vertices,
)

F = Fraction

EXTREME_POINTS = {
    triple("0", "1/2", "1/2"),
    triple("0", "1/3", "2/3"),
    triple("1/4", "1/2", "1/4"),
    triple("7/16", "3/8", "3/16"),
    triple("4/9", "1/3", "2/9"),
    triple("1/4", "1/2", "0"),
    triple("7/16", "3/8", "0"),
    triple("0", "1/2", "0"),
    triple("4/9", "0", "0"),
    triple("0", "0", "0"),
    triple("4/9", "1/3", "0"),
    triple("0", "0", "2/3"),
    triple("4/9", "0", "2/9"),
}


def test_polyhedron_has_six_constraints():
    p = polyhedron_P()
    assert len(p.halfspaces) == 6
    coeffs = [(h.a3, h.a2, h.a1, h.b) for h in p.halfspaces]
    assert coeffs == [
        (1, 0, 0, F(4, 9)),
        (0, 1, 0, F(1, 2)),
        (1, 0, 1, F(2, 3)),
        (1, F(3, 2), 0, 1),
        (1, 1, 1, 1),
        (1, F(1, 6), 0, F(1, 2)),
    ]
    # Every stored number is exact, the int-valued ones included.
    assert all(type(x) is Fraction for row in coeffs for x in row)


def test_membership_examples():
    p = polyhedron_P()
    assert contains(p, triple(0, 0, 0)).inside
    assert contains(p, triple(1, 0, 0)).violated == (0, 2, 5)
    assert contains(p, triple("4/9", "1/3", "2/9")).inside
    assert contains(p, triple("0", "1/2", "1/2")).inside
    verdict = contains(p, triple("1/3", "4/9", "1/3"))
    assert not verdict.inside
    assert verdict.violated == (4,)
    assert p.halfspaces[4].label == "x3+x2+x1<=1"


def test_vertex_enumeration_recovers_all_extreme_points():
    assert vertices(polyhedron_P_plus()) == frozenset(EXTREME_POINTS)


def test_every_vertex_has_three_tight_constraints():
    pp = polyhedron_P_plus()
    for v in vertices(pp):
        tight = [h for h in pp.halfspaces if h.value(v) == h.b]
        assert len(tight) >= 3, v


def _gauss_solve(rows):
    """The unique solution of sum_j a[i][j] x_j = b_i by Gauss-Jordan
    elimination over the rationals, or None when the matrix is singular."""
    m = [list(row) for row in rows]
    for col in range(3):
        pivot = next((r for r in range(col, 3) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(3):
            if r != col:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * c for a, c in zip(m[r], m[col])]
    return tuple(m[i][3] / m[i][i] for i in range(3))


def test_solve3_equals_gaussian_elimination():
    # Seeded rational systems; in about one in five the third row is a
    # combination of the first two, so the matrix is singular.
    rng = random.Random(17)
    singular = 0
    for _ in range(2000):
        rows = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)] for _ in range(2)]
        if rng.random() < 0.2:
            f = F(rng.randint(-3, 3), rng.randint(1, 2))
            rows.append([a + f * c for a, c in zip(*rows)])
        else:
            rows.append([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)])
        if any(not any(row[:3]) for row in rows):
            continue
        expected = _gauss_solve(rows)
        x = _solve3([HalfSpace(*row) for row in rows])
        singular += expected is None
        assert x == expected, rows
    assert singular > 300


def test_unit_cube_has_eight_corners():
    z = F(0)
    one = F(1)
    cube = Polyhedron(tuple([
        HalfSpace(one, z, z, one), HalfSpace(-one, z, z, z),
        HalfSpace(z, one, z, one), HalfSpace(z, -one, z, z),
        HalfSpace(z, z, one, one), HalfSpace(z, z, -one, z),
    ]))
    assert len(vertices(cube)) == 8


def test_int_built_unit_cube_has_fraction_corners():
    # Int data is stored as Fractions, so the corners stay exact: no
    # float such as -0.0 reaches a coordinate.
    rows = []
    for axis in range(3):
        unit = [int(i == axis) for i in range(3)]
        rows += [HalfSpace(*unit, 1), HalfSpace(*(-a for a in unit), 0)]
    cube = Polyhedron(tuple(rows))
    corners = vertices(cube)
    assert corners == set(product((0, 1), repeat=3))
    for x in corners:
        assert all(type(c) is Fraction for c in x), x


def test_unbounded_polyhedron_is_rejected():
    with pytest.raises(UnboundedInputError):
        vertices(polyhedron_P())


def test_maximal_vertices():
    # The extreme points that no other one dominates coordinatewise are
    # exactly the coefficients of the five sharp bounds b1..b5.
    points = vertices(polyhedron_P_plus())

    def dominated(v):
        return any(u != v and all(a >= b for a, b in zip(u, v))
                   for u in points)

    assert {v for v in points if not dominated(v)} == {s.triple for s in sharp_bounds()}


def test_projection_into_nonnegative_part():
    x = triple("4/9", "1/3", "2/9")
    assert project_to_Pplus(x) == x
    assert project_to_Pplus(triple(-1, 0, "5/3")) == triple(0, 0, "2/3")
    # Derived: zero the negative middle coordinate, then membership holds.
    y = project_to_Pplus(triple(0, "-1/4", "1/2"))
    assert y == triple(0, 0, "1/2")
    assert contains(polyhedron_P_plus(), y).inside
    with pytest.raises(NotInPError):
        project_to_Pplus(triple(1, 1, 1))


def test_projection_lands_in_nonnegative_part_for_shifted_vertices():
    pp = polyhedron_P_plus()
    for v in EXTREME_POINTS:
        for lam in (F(1, 2), F(1), F(3)):
            moved = shift_transform(v, lam)
            assert contains(polyhedron_P(), moved).inside
            back = project_to_Pplus(moved)
            assert contains(pp, back).inside


def test_shift_transform():
    assert shift_transform(triple(0, 0, "2/3"), F(0)) == triple(0, 0, "2/3")
    moved = shift_transform(triple(0, 0, "2/3"), F(1))
    assert moved == triple(-1, 0, "5/3")
    assert contains(polyhedron_P(), moved).inside
    # Derived: arithmetic check, then membership.
    shifted = shift_transform(triple("4/9", "1/3", "2/9"), F(4, 9))
    assert shifted == triple(0, "1/3", "2/3")
    assert contains(polyhedron_P(), shifted).inside
    with pytest.raises(NegativeLambdaError):
        shift_transform(triple(0, 0, 0), F(-1))


def test_shift_keeps_vertices_inside():
    p = polyhedron_P()
    for v in EXTREME_POINTS:
        for k in range(10):
            assert contains(p, shift_transform(v, F(k, 9))).inside


def test_downward_closure_within_orthant():
    pp = polyhedron_P_plus()
    for v in EXTREME_POINTS:
        for i in range(5):
            for j in range(5):
                for k in range(5):
                    below = CoefficientTriple(
                        v.x3 * F(i, 4), v.x2 * F(j, 4), v.x1 * F(k, 4)
                    )
                    assert contains(pp, below).inside, (v, below)


_vertex_list = sorted(EXTREME_POINTS)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_vertex_list),
    st.sampled_from(_vertex_list),
    st.fractions(min_value=0, max_value=1),
)
def test_convex_combinations_stay_inside(u, v, lam):
    point = CoefficientTriple(
        lam * u.x3 + (1 - lam) * v.x3,
        lam * u.x2 + (1 - lam) * v.x2,
        lam * u.x1 + (1 - lam) * v.x1,
    )
    assert contains(polyhedron_P_plus(), point).inside


def test_all_results_are_exact_fractions():
    for v in vertices(polyhedron_P_plus()):
        assert all(isinstance(c, Fraction) for c in v)


def test_fraction_parsing_rejects_decimals():
    assert parse_fraction("4/9") == F(4, 9)
    assert parse_fraction("-2") == F(-2)
    for bad in ("0.5", "1e-3", "4/0", "x", "1/ 2"):
        with pytest.raises(ValueError):
            parse_fraction(bad)


def test_halfspace_requires_nonzero_normal():
    with pytest.raises(ValueError):
        HalfSpace(F(0), F(0), F(0), F(1))
