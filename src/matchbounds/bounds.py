"""Evaluation and verification of linear lower bounds on the matching
number, plus constructive counterexamples for coefficient triples outside
the characterizing polyhedron: the family witnessing the most violated
constraint gives its least member whose closed-form slack is negative, by
one floor (``families.least_member``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .families import (
    FamilySpec,
    closed_nu,
    closed_profile,
    family_for_halfspace,
    generate,
    least_member,
)
from .graphs import Graph, degree_profile
from .matching import nu
from .polytope import CoefficientTriple, NotInPError, contains, polyhedron_P


class TripleInPError(ValueError):
    """The triple satisfies every constraint, so no family member violates
    it; no graph does when K is at least ``valid_constant(triple)``."""


class NotConnectedError(ValueError):
    """Operation requires a connected graph."""


@dataclass(frozen=True)
class BoundSpec:
    """A candidate bound nu >= x3*n3 + x2*n2 + x1*n1 - K.

    With ``per_component`` the constant is charged once per connected
    component (K*c); otherwise it is a flat K.
    """

    triple: CoefficientTriple
    k_const: Fraction
    per_component: bool
    name: str = ""


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluated on one graph, in exact arithmetic."""

    lhs: int
    rhs: Fraction
    slack: Fraction
    tight: bool


def _spec(name: str, x3, x2, x1, k) -> BoundSpec:
    return BoundSpec(
        triple=CoefficientTriple(Fraction(x3), Fraction(x2), Fraction(x1)),
        k_const=Fraction(k),
        per_component=True,
        name=name,
    )


def sharp_bounds() -> list[BoundSpec]:
    """The five sharp per-component bounds, in canonical order b1..b5."""
    return [
        _spec("b1", 0, "1/2", "1/2", "1/2"),
        _spec("b2", 0, "1/3", "2/3", 1),
        _spec("b3", "1/4", "1/2", "1/4", "1/2"),
        _spec("b4", "7/16", "3/8", "3/16", "1/8"),
        _spec("b5", "4/9", "1/3", "2/9", "1/9"),
    ]


def bound_by_name(name: str) -> BoundSpec:
    for spec in sharp_bounds():
        if spec.name == name:
            return spec
    raise ValueError(f"unknown bound {name!r} (expected b1..b5)")


@dataclass(frozen=True)
class ScaledBounds:
    """Bound specs as integer forms over one common denominator.

    ``denominator`` is the LCM D of every coefficient's and constant's
    denominator (144 for b1..b5).  Each row ``(a3, a2, a1, aK,
    per_component)`` holds the spec's numbers times D, so a bound's rhs
    and slack are integers over D and no ``Fraction`` is needed until one
    is printed."""

    denominator: int
    rows: tuple[tuple[int, int, int, int, bool], ...]

    @property
    def flat(self) -> bool:
        """True iff some row charges a flat K, claimed only when connected."""
        return not all(row[4] for row in self.rows)

    def values(self, n1: int, n2: int, n3: int, c: int, lhs: int) -> list[tuple[int, int]]:
        """``(rhs_num, slack_num)`` per row for the degree counts, component
        count and matching number ``lhs``: rhs = rhs_num/D, slack =
        slack_num/D."""
        top = lhs * self.denominator
        out = []
        for a3, a2, a1, ak, per_component in self.rows:
            rhs = a3 * n3 + a2 * n2 + a1 * n1 - (ak * c if per_component else ak)
            out.append((rhs, top - rhs))
        return out


def scale_bounds(specs: Iterable[BoundSpec]) -> ScaledBounds:
    """Scale ``specs``, in order, to integers over their common denominator."""
    specs = list(specs)
    numbers = [(s.triple.x3, s.triple.x2, s.triple.x1, s.k_const) for s in specs]
    d = lcm(*(x.denominator for row in numbers for x in row))
    return ScaledBounds(d, tuple(
        (*(x.numerator * d // x.denominator for x in row), spec.per_component)
        for row, spec in zip(numbers, specs)
    ))


def evaluate_scaled(g: Graph, scaled: ScaledBounds) -> tuple[int, list[tuple[int, int]]]:
    """``nu(g)`` and ``scaled.values`` on ``g``, from one degree profile and
    one matching.  Negative slack is a violation; it is returned, never
    asserted.  A flat constant K is only claimed for connected graphs, so
    a flat row on a graph with several components raises
    ``NotConnectedError``."""
    prof = degree_profile(g)
    if prof.c > 1 and scaled.flat:
        raise NotConnectedError(
            f"a flat constant K requires a connected graph, got {prof.c} components"
        )
    lhs = nu(g)
    return lhs, scaled.values(prof.n1, prof.n2, prof.n3, prof.c, lhs)


def evaluate_bounds(g: Graph, specs: Iterable[BoundSpec]) -> list[BoundReport]:
    """Evaluate several bounds on one graph, one report per spec in order;
    see ``evaluate_scaled``."""
    scaled = scale_bounds(specs)
    lhs, values = evaluate_scaled(g, scaled)
    d = scaled.denominator
    return [
        BoundReport(lhs=lhs, rhs=Fraction(rhs, d), slack=Fraction(slack, d), tight=slack == 0)
        for rhs, slack in values
    ]


def evaluate_bound(g: Graph, spec: BoundSpec) -> BoundReport:
    """Evaluate one bound on one graph; see ``evaluate_bounds``."""
    return evaluate_bounds(g, [spec])[0]


def valid_constant(triple: CoefficientTriple) -> Fraction:
    """The additive constant valid for every connected subcubic graph with
    these coefficients: 1 when x3 >= 0, otherwise 2|x3| + 1."""
    if not contains(polyhedron_P(), triple).inside:
        raise NotInPError(f"{triple} is not in the coefficient polyhedron")
    if triple.x3 >= 0:
        return Fraction(1)
    return 2 * abs(triple.x3) + 1


def closed_form_slack(spec: FamilySpec, triple: CoefficientTriple, k: Fraction) -> Fraction:
    """nu - (x3*n3 + x2*n2 + x1*n1 - k) for a family member, by closed forms.
    For a triple violating the family's constraint it falls strictly with t."""
    prof = closed_profile(spec)
    rhs = triple.x3 * prof.n3 + triple.x2 * prof.n2 + triple.x1 * prof.n1 - k
    return closed_nu(spec) - rhs


def _violated_member(triple: CoefficientTriple, k: Fraction) -> FamilySpec:
    """The first member with negative closed-form slack of the family that
    witnesses the constraint ``triple`` violates most (ties broken by
    canonical constraint order)."""
    p = polyhedron_P()
    verdict = contains(p, triple)
    if verdict.inside:
        raise TripleInPError(f"{triple} satisfies all six constraints")
    best = max(verdict.violated, key=lambda i: (p.halfspaces[i].margin(triple), -i))
    return least_member(family_for_halfspace(best + 1),
                        lambda member: closed_form_slack(member, triple, k))


def _certified(spec: FamilySpec, triple: CoefficientTriple,
               k: Fraction) -> tuple[Graph, BoundReport]:
    """The member built, and the flat bound evaluated on it, which must give
    the closed-form nu and slack, and a negative slack."""
    g = generate(spec)
    rep = evaluate_bound(g, BoundSpec(triple, k, per_component=False))
    if rep.lhs != closed_nu(spec):
        raise RuntimeError("closed-form matching number disagrees with matcher")
    closed = closed_form_slack(spec, triple, k)
    if rep.slack != closed:
        raise RuntimeError(f"closed-form slack {closed} disagrees with {rep.slack} on {spec}")
    if rep.slack >= 0:
        raise RuntimeError(f"certificate {spec} has slack {rep.slack}, not negative")
    return g, rep


def counterexample(
    triple: CoefficientTriple, k: Fraction
) -> tuple[FamilySpec, Graph, BoundReport]:
    """A connected subcubic graph on which nu falls strictly below
    x3*n3 + x2*n2 + x1*n1 - k: a family member found by closed forms
    (``_violated_member``) and certified on the built graph (``_certified``).
    """
    k = Fraction(k)
    spec = _violated_member(triple, k)
    return (spec, *_certified(spec, triple, k))
