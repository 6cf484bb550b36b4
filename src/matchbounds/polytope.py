"""Exact rational half-space geometry for the coefficient polyhedron.

Everything here runs on ``fractions.Fraction``; no floating point enters
any computation.  The six-constraint polyhedron that characterizes valid
bound coefficients is provided as a fixture, together with vertex
enumeration for its bounded nonnegative part.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Sequence


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


class CoefficientTriple(NamedTuple):
    """Candidate bound coefficients (x3, x2, x1), one per vertex degree."""

    x3: Fraction
    x2: Fraction
    x1: Fraction

    def __str__(self) -> str:
        return f"{self.x3},{self.x2},{self.x1}"


def triple(x3, x2, x1) -> CoefficientTriple:
    """Convenience constructor accepting ints, strings, or Fractions."""
    return CoefficientTriple(Fraction(x3), Fraction(x2), Fraction(x1))


class _HalfSpace(NamedTuple):
    a3: Fraction
    a2: Fraction
    a1: Fraction
    b: Fraction
    label: str


class HalfSpace(_HalfSpace):
    """Constraint a3*x3 + a2*x2 + a1*x1 <= b with rational data; ints,
    strings and Fractions are accepted, as in ``triple``, and stored as
    Fractions.  Every way of building one, ``_make`` and ``_replace``
    included, goes through ``__new__``."""

    __slots__ = ()

    def __new__(cls, a3, a2, a1, b, label=""):
        a3, a2, a1, b = Fraction(a3), Fraction(a2), Fraction(a1), Fraction(b)
        if a3 == 0 and a2 == 0 and a1 == 0:
            raise ValueError("half-space normal must be nonzero")
        return super().__new__(cls, a3, a2, a1, b, label)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def value(self, x: CoefficientTriple) -> Fraction:
        return _dot(self.normal(), x)

    def holds(self, x: CoefficientTriple) -> bool:
        return self.value(x) <= self.b

    def margin(self, x: CoefficientTriple) -> Fraction:
        """Positive iff violated; exact amount by which the bound is exceeded."""
        return self.value(x) - self.b

    def normal(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a3, self.a2, self.a1)


class Polyhedron(NamedTuple):
    """Ordered list of half-spaces; violation reports cite list indices."""

    halfspaces: tuple[HalfSpace, ...]


class Membership(NamedTuple):
    inside: bool
    violated: tuple[int, ...]


def polyhedron_P() -> Polyhedron:
    """The six half-spaces characterizing valid coefficient triples,
    in canonical order."""
    rows = [
        (1, 0, 0, "4/9", "x3<=4/9"),
        (0, 1, 0, "1/2", "x2<=1/2"),
        (1, 0, 1, "2/3", "x3+x1<=2/3"),
        (1, "3/2", 0, 1, "x3+3x2/2<=1"),
        (1, 1, 1, 1, "x3+x2+x1<=1"),
        (1, "1/6", 0, "1/2", "x3+x2/6<=1/2"),
    ]
    return Polyhedron(tuple(HalfSpace(*row) for row in rows))


def polyhedron_P_plus() -> Polyhedron:
    """The coefficient polyhedron restricted to the nonnegative orthant."""
    nonneg = (
        HalfSpace(-1, 0, 0, 0, "x3>=0"),
        HalfSpace(0, -1, 0, 0, "x2>=0"),
        HalfSpace(0, 0, -1, 0, "x1>=0"),
    )
    return Polyhedron(polyhedron_P().halfspaces + nonneg)


def contains(p: Polyhedron, x: CoefficientTriple) -> Membership:
    """Exact membership verdict listing every violated constraint index."""
    violated = tuple(
        i for i, h in enumerate(p.halfspaces) if not h.holds(x)
    )
    return Membership(inside=not violated, violated=violated)


def _dot(u, v) -> Fraction:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v) -> tuple[Fraction, Fraction, Fraction]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _solve3(rows: Sequence[HalfSpace]) -> CoefficientTriple | None:
    """Solve the 3x3 system with the three constraints tight, by triple
    products: with normals r0, r1, r2, x = (b0 r1xr2 + b1 r2xr0 + b2 r0xr1)
    / (r0 . r1xr2).  None when singular, that is when the denominator is 0."""
    (h0, h1, h2) = rows
    r0, r1, r2 = h0.normal(), h1.normal(), h2.normal()
    products = (_cross(r1, r2), _cross(r2, r0), _cross(r0, r1))
    d = _dot(r0, products[0])
    if d == 0:
        return None
    b = (h0.b, h1.b, h2.b)
    return CoefficientTriple(*(_dot(b, column) / d for column in zip(*products)))


def _is_recession_direction(p: Polyhedron, d) -> bool:
    if all(c == 0 for c in d):
        return False
    return all(_dot(h.normal(), d) <= 0 for h in p.halfspaces)


def vertices(p: Polyhedron) -> frozenset[CoefficientTriple]:
    """All extreme points, by solving every 3-subset of tight constraints.

    Each feasible basic solution is kept; its tight constraint set has
    rank 3 by construction, which certifies extremality.  A feasible
    recession ray along any two tight constraints of a vertex raises
    UnboundedInputError (complete for polyhedra that have a vertex).
    """
    hs = p.halfspaces
    found = {x for x in map(_solve3, combinations(hs, 3))
             if x is not None and all(h.holds(x) for h in hs)}
    for x in found:
        tight = [h for h in hs if h.value(x) == h.b]
        for h1, h2 in combinations(tight, 2):
            d = _cross(h1.normal(), h2.normal())
            if _is_recession_direction(p, d) or _is_recession_direction(
                p, tuple(-c for c in d)
            ):
                raise UnboundedInputError(
                    f"feasible ray at vertex {x} along {h1.label} & {h2.label}"
                )
    return frozenset(found)


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
    x3, x2, x1 = x
    if x2 < 0:
        x2 = Fraction(0)
    if x3 < 0:
        x1 = x1 + x3
        x3 = Fraction(0)
    if x1 < 0:
        x1 = Fraction(0)
    return CoefficientTriple(x3, x2, x1)
