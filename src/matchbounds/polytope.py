"""Exact rational half-space geometry for the coefficient polyhedron.

Everything here runs on ``fractions.Fraction``; no floating point enters
any computation.  The six-constraint polyhedron that characterizes valid
bound coefficients is provided as a fixture, together with vertex
enumeration for its bounded nonnegative part.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence


class UnboundedInputError(ValueError):
    """Vertex enumeration found a feasible recession ray."""


class NotInPError(ValueError):
    """Operation requires a triple inside the coefficient polyhedron."""


class NegativeLambdaError(ValueError):
    """Shift amount must be nonnegative."""


_FRACTION_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_fraction(text: str) -> Fraction:
    """Parse exact ``p/q`` or integer syntax; decimals are rejected."""
    text = text.strip()
    if not _FRACTION_RE.match(text):
        raise ValueError(f"not an exact fraction: {text!r} (use p/q syntax)")
    return Fraction(text)


@dataclass(frozen=True)
class CoefficientTriple:
    """Candidate bound coefficients (x3, x2, x1), one per vertex degree."""

    x3: Fraction
    x2: Fraction
    x1: Fraction

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x3, self.x2, self.x1)

    def __str__(self) -> str:
        return f"{self.x3},{self.x2},{self.x1}"


def triple(x3, x2, x1) -> CoefficientTriple:
    """Convenience constructor accepting ints, strings, or Fractions."""
    return CoefficientTriple(Fraction(x3), Fraction(x2), Fraction(x1))


@dataclass(frozen=True)
class HalfSpace:
    """Constraint a3*x3 + a2*x2 + a1*x1 <= b with rational data."""

    a3: Fraction
    a2: Fraction
    a1: Fraction
    b: Fraction
    label: str = ""

    def __post_init__(self):
        if self.a3 == 0 and self.a2 == 0 and self.a1 == 0:
            raise ValueError("half-space normal must be nonzero")

    def value(self, x: CoefficientTriple) -> Fraction:
        return self.a3 * x.x3 + self.a2 * x.x2 + self.a1 * x.x1

    def holds(self, x: CoefficientTriple) -> bool:
        return self.value(x) <= self.b

    def margin(self, x: CoefficientTriple) -> Fraction:
        """Positive iff violated; exact amount by which the bound is exceeded."""
        return self.value(x) - self.b

    def normal(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a3, self.a2, self.a1)


@dataclass(frozen=True)
class Polyhedron:
    """Ordered list of half-spaces; violation reports cite list indices."""

    halfspaces: tuple[HalfSpace, ...]


@dataclass(frozen=True)
class Membership:
    inside: bool
    violated: tuple[int, ...]


def _f(v) -> Fraction:
    return Fraction(v)


def polyhedron_P() -> Polyhedron:
    """The six half-spaces characterizing valid coefficient triples,
    in canonical order."""
    rows = [
        (1, 0, 0, _f("4/9"), "x3<=4/9"),
        (0, 1, 0, _f("1/2"), "x2<=1/2"),
        (1, 0, 1, _f("2/3"), "x3+x1<=2/3"),
        (1, _f("3/2"), 0, 1, "x3+3x2/2<=1"),
        (1, 1, 1, 1, "x3+x2+x1<=1"),
        (1, _f("1/6"), 0, _f("1/2"), "x3+x2/6<=1/2"),
    ]
    return Polyhedron(tuple(
        HalfSpace(_f(a3), _f(a2), _f(a1), b, label)
        for a3, a2, a1, b, label in rows
    ))


def polyhedron_P_plus() -> Polyhedron:
    """The coefficient polyhedron restricted to the nonnegative orthant."""
    nonneg = (
        HalfSpace(_f(-1), _f(0), _f(0), _f(0), "x3>=0"),
        HalfSpace(_f(0), _f(-1), _f(0), _f(0), "x2>=0"),
        HalfSpace(_f(0), _f(0), _f(-1), _f(0), "x1>=0"),
    )
    return Polyhedron(polyhedron_P().halfspaces + nonneg)


def contains(p: Polyhedron, x: CoefficientTriple) -> Membership:
    """Exact membership verdict listing every violated constraint index."""
    violated = tuple(
        i for i, h in enumerate(p.halfspaces) if not h.holds(x)
    )
    return Membership(inside=not violated, violated=violated)


def _solve3(rows: Sequence[HalfSpace]) -> CoefficientTriple | None:
    """Solve the 3x3 system with the three constraints tight, by Cramer's
    rule; None when singular."""
    (h1, h2, h3) = rows
    a = (
        (h1.a3, h1.a2, h1.a1),
        (h2.a3, h2.a2, h2.a1),
        (h3.a3, h3.a2, h3.a1),
    )
    b = (h1.b, h2.b, h3.b)

    def det3(m) -> Fraction:
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    d = det3(a)
    if d == 0:
        return None

    def replace(col: int):
        return tuple(
            tuple(b[r] if c == col else a[r][c] for c in range(3))
            for r in range(3)
        )

    return CoefficientTriple(
        x3=det3(replace(0)) / d,
        x2=det3(replace(1)) / d,
        x1=det3(replace(2)) / d,
    )


def _cross(u, v) -> tuple[Fraction, Fraction, Fraction]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _is_recession_direction(p: Polyhedron, d) -> bool:
    if all(c == 0 for c in d):
        return False
    return all(
        h.a3 * d[0] + h.a2 * d[1] + h.a1 * d[2] <= 0 for h in p.halfspaces
    )


def vertices(p: Polyhedron) -> frozenset[CoefficientTriple]:
    """All extreme points, by solving every 3-subset of tight constraints.

    Each feasible basic solution is kept; its tight constraint set has
    rank 3 by construction, which certifies extremality.  A feasible
    recession ray along any two tight constraints of a vertex raises
    UnboundedInputError (complete for polyhedra that have a vertex).
    """
    hs = p.halfspaces
    found: dict[tuple[Fraction, Fraction, Fraction], CoefficientTriple] = {}
    for rows in combinations(hs, 3):
        x = _solve3(rows)
        if x is None:
            continue
        if all(h.holds(x) for h in hs):
            found.setdefault(x.as_tuple(), x)
    for x in found.values():
        tight = [h for h in hs if h.value(x) == h.b]
        for h1, h2 in combinations(tight, 2):
            d = _cross(h1.normal(), h2.normal())
            if _is_recession_direction(p, d) or _is_recession_direction(
                p, tuple(-c for c in d)
            ):
                raise UnboundedInputError(
                    f"feasible ray at vertex {x} along {h1.label} & {h2.label}"
                )
    return frozenset(found.values())


def maximal_vertices(
    vs: Iterable[CoefficientTriple],
) -> frozenset[CoefficientTriple]:
    """The subset not coordinatewise dominated by another element."""
    pts = list(vs)

    def dominated(v: CoefficientTriple) -> bool:
        return any(
            u != v and u.x3 >= v.x3 and u.x2 >= v.x2 and u.x1 >= v.x1
            for u in pts
        )

    return frozenset(v for v in pts if not dominated(v))


def shift_transform(x: CoefficientTriple, lam: Fraction) -> CoefficientTriple:
    """Trade degree-3 weight for degree-1 weight: (x3-l, x2, x1+l)."""
    lam = Fraction(lam)
    if lam < 0:
        raise NegativeLambdaError(f"lambda must be >= 0, got {lam}")
    return CoefficientTriple(x.x3 - lam, x.x2, x.x1 + lam)


def project_to_Pplus(x: CoefficientTriple) -> CoefficientTriple:
    """Map a point of the polyhedron into its nonnegative part.

    Three steps, applied in this order: zero out a negative x2; if x3 is
    negative, shift (x3, x2, x1) to (0, x2, x1 + x3); finally zero out a
    negative x1.  Each step stays inside the polyhedron, so the result
    lands in the nonnegative part.
    """
    if not contains(polyhedron_P(), x).inside:
        raise NotInPError(f"{x} is not in the coefficient polyhedron")
    x3, x2, x1 = x.as_tuple()
    if x2 < 0:
        x2 = Fraction(0)
    if x3 < 0:
        x1 = x1 + x3
        x3 = Fraction(0)
    if x1 < 0:
        x1 = Fraction(0)
    return CoefficientTriple(x3, x2, x1)
