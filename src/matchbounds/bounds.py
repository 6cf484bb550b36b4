"""Evaluation and verification of linear lower bounds on the matching
number, plus constructive counterexamples for coefficient triples outside
the characterizing polyhedron.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .families import (
    FamilySpec,
    admissible_t,
    closed_nu,
    family_for_halfspace,
    family_order,
    generate,
    profile_dot,
)
from .graphs import Graph, degree_profile, is_connected
from .matching import nu
from .polytope import CoefficientTriple, NotInPError, contains, polyhedron_P


class TripleInPError(ValueError):
    """No counterexample exists: the triple satisfies every constraint."""


class NotConnectedError(ValueError):
    """Operation requires a connected graph."""


# Keep counterexample certificates materializable; the closed forms
# certify violation at any scale, but we refuse to build absurd graphs.
_MAX_GENERATED_ORDER = 2_000_000


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


def evaluate_bounds(g: Graph, specs: Iterable[BoundSpec]) -> list[BoundReport]:
    """Evaluate several bounds on one graph, one report per spec in order.

    The degree profile and the matching number are computed once for all
    of them.  Negative slack is a violation; the report states it and
    never asserts.  A flat constant K (``per_component=False``) is only
    claimed for connected graphs, so such a spec on a graph with several
    components raises ``NotConnectedError``."""
    specs = list(specs)
    prof = degree_profile(g)
    if prof.c > 1 and not all(spec.per_component for spec in specs):
        raise NotConnectedError(
            f"a flat constant K requires a connected graph, got {prof.c} components"
        )
    lhs = nu(g)
    reports = []
    for spec in specs:
        tr = spec.triple
        rhs = (
            tr.x3 * prof.n3
            + tr.x2 * prof.n2
            + tr.x1 * prof.n1
            - spec.k_const * (prof.c if spec.per_component else 1)
        )
        slack = lhs - rhs
        reports.append(BoundReport(lhs=lhs, rhs=rhs, slack=slack, tight=slack == 0))
    return reports


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
    """nu - (x3*n3 + x2*n2 + x1*n1 - k) for a family member, by closed forms."""
    return closed_nu(spec) - (profile_dot(spec, triple.x3, triple.x2, triple.x1) - k)


def counterexample_slacks(
    family_id: str, t0: int, count: int, triple: CoefficientTriple, k: Fraction
) -> list[tuple[int, Fraction]]:
    """Closed-form slacks at ``count`` consecutive admissible t >= t0."""
    out = []
    for t in admissible_t(family_id):
        if t < t0:
            continue
        out.append((t, closed_form_slack(FamilySpec(family_id, t), triple, k)))
        if len(out) == count:
            break
    return out


def _smallest_violating_t(family_id: str, triple: CoefficientTriple, k: Fraction) -> int:
    """Smallest admissible t with strictly negative closed-form slack.

    Slack is strictly decreasing in t for a triple violating the family's
    constraint, so exponential search plus bisection over the admissible
    arithmetic progression is exact.
    """
    start = next(iter(admissible_t(family_id)))
    step = 1 if family_id in ("G3", "G4") else 2

    def slack_at(j: int) -> Fraction:
        return closed_form_slack(FamilySpec(family_id, start + step * j), triple, k)

    # Exponential-profile families overshoot any constant within a few
    # hundred steps; the linear ones may genuinely need large t.
    t_cap = 400 if family_id in ("G1", "G2") else 1_000_000_000
    if slack_at(0) < 0:
        return start
    hi = 1
    while True:
        if start + step * hi > t_cap:
            raise ValueError(
                f"no admissible parameter up to {t_cap} makes {family_id} "
                f"violate the bound for {triple}; constant too large or wrong family"
            )
        if slack_at(hi) < 0:
            break
        hi *= 2
    lo = hi // 2  # slack(lo) >= 0 here
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if slack_at(mid) < 0:
            hi = mid
        else:
            lo = mid
    return start + step * hi


def counterexample(
    triple: CoefficientTriple, k: Fraction
) -> tuple[FamilySpec, Graph, BoundReport]:
    """A connected subcubic graph on which nu falls strictly below
    x3*n3 + x2*n2 + x1*n1 - k.

    Picks the violated constraint with the largest margin (ties broken by
    canonical constraint order), maps it to its witness family, and
    returns the smallest admissible t certified by the closed forms.
    """
    k = Fraction(k)
    p = polyhedron_P()
    verdict = contains(p, triple)
    if verdict.inside:
        raise TripleInPError(f"{triple} satisfies all six constraints")
    best = max(verdict.violated, key=lambda i: (p.halfspaces[i].margin(triple), -i))
    fid = family_for_halfspace(best + 1)
    t = _smallest_violating_t(fid, triple, k)
    spec = FamilySpec(fid, t)
    order = family_order(spec)
    if order > _MAX_GENERATED_ORDER:
        raise ValueError(
            f"certificate {spec} has {order} vertices; too large to materialize"
        )
    g = generate(spec)
    lhs = closed_nu(spec)
    if order <= 60 and nu(g) != lhs:
        raise RuntimeError("closed-form matching number disagrees with matcher")
    rhs = profile_dot(spec, triple.x3, triple.x2, triple.x1) - k
    slack = lhs - rhs
    if slack >= 0:
        raise RuntimeError(f"certificate {spec} has slack {slack}, not negative")
    return spec, g, BoundReport(lhs=lhs, rhs=rhs, slack=slack, tight=False)


@dataclass(frozen=True)
class OrderBoundsReport:
    """Order-only bounds: nu >= (n-1)/3 always, nu >= 4(n-1)/9 when cubic."""

    n: int
    nu: int
    general_rhs: Fraction
    general_ok: bool
    is_cubic: bool
    cubic_rhs: Fraction | None
    cubic_ok: bool | None


def order_bounds_check(g: Graph) -> OrderBoundsReport:
    prof = degree_profile(g)  # raises NotSubcubicError on bad degrees
    if not is_connected(g):
        raise NotConnectedError("bound requires a connected graph")
    value = nu(g)
    general_rhs = Fraction(g.n - 1, 3)
    cubic = prof.n3 == g.n and g.n > 0
    cubic_rhs = Fraction(4 * (g.n - 1), 9) if cubic else None
    return OrderBoundsReport(
        n=g.n,
        nu=value,
        general_rhs=general_rhs,
        general_ok=value >= general_rhs,
        is_cubic=cubic,
        cubic_rhs=cubic_rhs,
        cubic_ok=(value >= cubic_rhs) if cubic else None,
    )


def report_dict(graph_g6: str, bound: str, report: BoundReport) -> dict:
    """The stable JSON schema for one evaluated bound."""
    return {
        "graph": graph_g6,
        "bound": bound,
        "nu": report.lhs,
        "rhs": str(report.rhs),
        "slack": str(report.slack),
        "tight": report.tight,
    }
