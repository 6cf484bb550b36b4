"""Acceptance suite: one test per criterion, exact tolerances, one
printed pass/fail line each (see conftest terminal summary).

The exhaustive bound sweep covers n <= 12 by default (its setup, the
generation and the certified profile rows, takes 6 to 8 s); set
MATCHBOUNDS_SWEEP_MAX_N=10 for quicker iteration.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations, dropwhile, islice

import pytest

from matchbounds.bounds import (
    BoundSpec,
    closed_form_slack,
    valid_constant,
    counterexample,
    evaluate_bound,
    scale_bounds,
    sharp_bounds,
)
from matchbounds.cli import main as cli_main
from matchbounds.enumeration import random_subcubic
from matchbounds.families import (
    FAMILY_IDS,
    FamilySpec,
    closed_nu,
    closed_profile,
    family_for_halfspace,
    generate,
)
from matchbounds.graphs import Graph, degree_profile
from matchbounds.matching import brute_force_nu, nu
from matchbounds.polytope import (
    CoefficientTriple,
    HalfSpace,
    _cross,
    _dot,
    _solve3,
    contains,
    polyhedron_P,
    polyhedron_P_plus,
    triple,
    vertices,
)
from matchbounds.structure import gallai_edmonds, verify_ge_properties

from .conftest import connected_upto, family_members, record_criterion

F = Fraction

TRIANGLE = Graph(3, [(0, 1), (1, 2), (0, 2)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K13 = Graph(4, [(0, 1), (0, 2), (0, 3)])

THIRTEEN_EXTREME_POINTS = frozenset({
    triple("0", "1/2", "1/2"), triple("0", "1/3", "2/3"),
    triple("1/4", "1/2", "1/4"), triple("7/16", "3/8", "3/16"),
    triple("4/9", "1/3", "2/9"), triple("1/4", "1/2", "0"),
    triple("7/16", "3/8", "0"), triple("0", "1/2", "0"),
    triple("4/9", "0", "0"), triple("0", "0", "0"),
    triple("4/9", "1/3", "0"), triple("0", "0", "2/3"),
    triple("4/9", "0", "2/9"),
})


def test_criterion_01_extreme_point_recovery(capsys):
    started = time.time()
    got = vertices(polyhedron_P_plus())
    code = cli_main(["polytope", "vertices"])
    elapsed = time.time() - started
    lines = capsys.readouterr().out.strip().splitlines()
    printed = {tuple(F(p) for p in line.split(",")) for line in lines}
    expected = set(THIRTEEN_EXTREME_POINTS)
    ok = (
        got == THIRTEEN_EXTREME_POINTS
        and code == 0
        and len(lines) == 13
        and printed == expected
        and elapsed < 1.0
    )
    record_criterion(1, ok, f"13 extreme points recovered exactly in {elapsed:.3f}s")
    assert ok


def _least_slacks(profile_rows, specs) -> list[list[int]]:
    """Per spec, its scaled slack on each profile row at the row's least nu."""
    scaled = scale_bounds(specs)
    per_row = [scaled.values(*key, least) for key, (least, _) in profile_rows.items()]
    return [[values[i][1] for values in per_row] for i in range(len(specs))]


def test_criterion_02_bound_sweep(sweep_corpus_by_n, profile_rows):
    # A violation is counted once per degree profile and bound.
    max_n = max(sweep_corpus_by_n)
    graphs_checked = sum(count for _, count in profile_rows.values())
    violations = sum(s < 0 for slacks in _least_slacks(profile_rows, sharp_bounds())
                     for s in slacks)
    ok = violations == 0
    record_criterion(
        2, ok,
        f"all five bounds hold on {graphs_checked} connected subcubic "
        f"graphs (n<={max_n}), {violations} violations",
    )
    assert violations == 0


def test_criterion_03_sharpness_fixtures():
    by_name = {s.name: s for s in sharp_bounds()}
    fixed_graphs = [
        (TRIANGLE, "b4"), (C5, "b1"), (C5, "b3"),
        (K13, "b1"), (K13, "b2"), (K13, "b5"),
    ]
    family_pairs = [
        ("G1", "b2"), ("G1", "b5"), ("G2", "b5"), ("G6", "b1"), ("G6", "b3"),
    ]
    failures = []
    for g, name in fixed_graphs:
        if not evaluate_bound(g, by_name[name]).tight:
            failures.append((name, "fixed"))
    for fid, name in family_pairs:
        g = generate(next(family_members(fid)))
        if not evaluate_bound(g, by_name[name]).tight:
            failures.append((name, fid))
    ok = not failures
    record_criterion(3, ok, f"11 sharpness fixtures tight exactly ({failures or 'none failed'})")
    assert not failures


def test_criterion_04_family_closed_forms():
    checked = 0
    failures = []
    for fid in FAMILY_IDS:
        for spec in family_members(fid):
            if closed_profile(spec).order > 60:
                break
            g = generate(spec)
            if degree_profile(g) != closed_profile(spec):
                failures.append((spec, "profile"))
            if nu(g) != closed_nu(spec):
                failures.append((spec, "nu"))
            checked += 1
    record_criterion(
        4, not failures,
        f"closed forms certified on {checked} family members (<=60 vertices)"
        + (f"; failures: {failures}" if failures else ""),
    )
    assert not failures


def _facet_probe(index: int) -> CoefficientTriple:
    """A triple just outside facet ``index``: the centroid of the facet's
    nonnegative-part vertices, nudged 1/100 along the facet normal, then
    pulled back onto any other constraint it crosses."""
    p = polyhedron_P()
    h = p.halfspaces[index]
    on_facet = [v for v in THIRTEEN_EXTREME_POINTS if h.value(v) == h.b]
    k = len(on_facet)
    centroid = CoefficientTriple(
        sum(v.x3 for v in on_facet) / k,
        sum(v.x2 for v in on_facet) / k,
        sum(v.x1 for v in on_facet) / k,
    )
    step = F(1, 100)
    x = CoefficientTriple(
        centroid.x3 + step * h.a3,
        centroid.x2 + step * h.a2,
        centroid.x1 + step * h.a1,
    )
    for _ in range(6):
        moved = False
        for j, other in enumerate(p.halfspaces):
            if j == index:
                continue
            excess = other.value(x) - other.b
            if excess > 0:
                norm = other.a3 ** 2 + other.a2 ** 2 + other.a1 ** 2
                x = CoefficientTriple(
                    x.x3 - other.a3 * excess / norm,
                    x.x2 - other.a2 * excess / norm,
                    x.x1 - other.a1 * excess / norm,
                )
                moved = True
        if not moved:
            break
    return x


def test_criterion_05_counterexamples_for_every_constraint():
    p = polyhedron_P()
    lines = []
    ok = True
    for index in range(6):
        probe = _facet_probe(index)
        verdict = contains(p, probe)
        expected_family = family_for_halfspace(index + 1)
        if verdict.inside or index not in verdict.violated:
            ok = False
            continue
        spec, _, rep = counterexample(probe, F(0))
        later = dropwhile(lambda m: m.t < spec.t, family_members(spec.family_id))
        slacks = [closed_form_slack(member, probe, F(0)) for member in islice(later, 5)]
        decreasing = all(b < a for a, b in zip(slacks, slacks[1:]))
        negative = all(s < 0 for s in slacks)
        if not (spec.family_id == expected_family and rep.slack < 0
                and decreasing and negative):
            ok = False
        lines.append(f"{p.halfspaces[index].label}->{spec.family_id}(t={spec.t})")
    record_criterion(5, ok, "boundary+1/100 probes refuted: " + ", ".join(lines))
    assert ok


def test_criterion_06_rejected_sum_triple_refuted(capsys):
    probe = triple("1/3", "4/9", "1/3")
    verdict = contains(polyhedron_P(), probe)
    rejected = not verdict.inside and verdict.violated == (4,)  # x3+x2+x1 <= 1
    cli_code = cli_main(["counterexample", "--triple", "1/3", "4/9", "1/3",
                         "--k", "0/1"])
    cli_out = capsys.readouterr().out
    spec, g, rep = counterexample(probe, F(0))
    certified = (
        spec.family_id == "G3" and rep.lhs < rep.rhs
        and cli_code == 1 and "family=G3" in cli_out
    )
    slope_ok = True
    for t in range(2, 10):
        fam = FamilySpec("G3", t)
        observed = brute_force_nu(generate(fam))
        prof = closed_profile(fam)
        rhs = probe.x3 * prof.n3 + probe.x2 * prof.n2 + probe.x1 * prof.n1
        if observed - rhs != F(-t, 9):
            slope_ok = False
    ok = rejected and certified and slope_ok
    record_criterion(
        6, ok,
        f"(1/3,4/9,1/3) rejected; {spec.family_id}(t={spec.t}) certifies "
        f"slack {rep.slack}; slack equals -t/9 for t=2..9 (oracle-checked)",
    )
    assert ok


def test_criterion_07_decomposition_suite(corpus_by_n):
    started = time.time()
    checked = 0
    failures = 0
    for g in connected_upto(corpus_by_n, 9):
        d = gallai_edmonds(g)
        rep = verify_ge_properties(g, d)
        prof = degree_profile(g)
        if not rep.all_true() or prof.n3 < prof.n1 - 2:
            failures += 1
        checked += 1
    elapsed = time.time() - started
    ok = failures == 0 and elapsed < 300
    record_criterion(
        7, ok,
        f"decomposition properties and the degree-surplus inequality hold "
        f"on {checked} graphs (n<=9), {failures} failures, in {elapsed:.1f}s",
    )
    assert ok


def _extreme_point_specs(k) -> list[BoundSpec]:
    points = sorted(THIRTEEN_EXTREME_POINTS)
    return [BoundSpec(triple=pt, k_const=F(k), per_component=False) for pt in points]


def test_criterion_08_unit_constant_for_nonnegative_extremes(sweep_corpus_by_n, profile_rows):
    # A failure is counted once per degree profile and extreme point.
    max_n = max(sweep_corpus_by_n)
    checked = sum(count for _, count in profile_rows.values())
    failures = sum(s < 0 for slacks in _least_slacks(profile_rows, _extreme_point_specs(1))
                   for s in slacks)
    negative_pt = triple(-1, 0, "5/3")
    constant = valid_constant(negative_pt)
    rep = evaluate_bound(
        K13, BoundSpec(triple=negative_pt, k_const=constant, per_component=False)
    )
    ok = failures == 0 and constant == 3 and rep.slack == 0
    record_criterion(
        8, ok,
        f"nu >= coefficients - 1 for all 13 extreme points on {checked} "
        f"graphs (n<={max_n}); the negative-coefficient constant 3 is sharp on the claw",
    )
    assert ok


# The smallest K with nu >= x3*n3 + x2*n2 + x1*n1 - K on every class with
# n <= 12, the maximum over degree profiles of x.p - nu: b1..b5 with the
# number of profiles that attain it, and each of the 13 extreme points.
SHARP_CONSTANTS_N12 = [(F(1, 2), 20), (F(1), 4), (F(1, 2), 5), (F(1, 8), 2), (F(1, 9), 8)]
EXTREME_POINT_CONSTANTS_N12 = {
    triple("0", "1/2", "1/2"): F(1, 2), triple("0", "1/3", "2/3"): F(1),
    triple("1/4", "1/2", "1/4"): F(1, 2), triple("7/16", "3/8", "3/16"): F(1, 8),
    triple("4/9", "1/3", "2/9"): F(1, 9), triple("1/4", "1/2", "0"): F(1, 2),
    triple("7/16", "3/8", "0"): F(1, 8), triple("0", "1/2", "0"): F(1, 2),
    triple("4/9", "0", "0"): F(0), triple("0", "0", "0"): F(0),
    triple("4/9", "1/3", "0"): F(1, 9), triple("0", "0", "2/3"): F(1),
    triple("4/9", "0", "2/9"): F(1, 9),
}


def test_sharp_constants_on_the_sweep(sweep_corpus_by_n, profile_rows):
    if max(sweep_corpus_by_n) < 12:
        pytest.skip("the constants are pinned for the full n <= 12 sweep")
    assert len(profile_rows) == 168

    def least_constants(specs):
        d = scale_bounds(specs).denominator
        return [(F(-min(slacks), d), slacks.count(min(slacks)))
                for slacks in _least_slacks(profile_rows, specs)]

    sharp = [BoundSpec(triple=s.triple, k_const=F(0), per_component=True)
             for s in sharp_bounds()]
    assert least_constants(sharp) == SHARP_CONSTANTS_N12
    points = _extreme_point_specs(0)
    assert {spec.triple: k for spec, (k, _) in zip(points, least_constants(points))} \
        == EXTREME_POINT_CONSTANTS_N12


def _pieces_of_P() -> list[tuple[set[CoefficientTriple], set[tuple[Fraction, ...]]]]:
    """P cut at x3 = 0: for x3 >= 0, then for x3 <= 0, the piece's vertices
    and extreme rays, in exact arithmetic.  A vertex makes three
    constraints tight.  Each piece's recession cone {d : a.d <= 0 for every
    normal a} is pointed, so its extreme rays are the feasible directions
    along two independent normals; each is scaled to largest entry 1."""
    pieces = []
    for sign, label in ((-1, "x3>=0"), (1, "x3<=0")):
        hs = polyhedron_P().halfspaces + (HalfSpace(sign, 0, 0, 0, label),)
        points = set()
        for rows in combinations(hs, 3):
            x = _solve3(rows)
            if x is not None and all(h.holds(x) for h in hs):
                points.add(x)
        rays = set()
        for h1, h2 in combinations(hs, 2):
            d = _cross(h1.normal(), h2.normal())
            for r in (d, tuple(-c for c in d)):
                if any(r) and all(_dot(h.normal(), r) <= 0 for h in hs):
                    top = max(abs(c) for c in r)
                    rays.add(tuple(c / top for c in r))
        pieces.append((points, rays))
    return pieces


def _along(v: CoefficientTriple, r, t) -> CoefficientTriple:
    """The triple v + t*r."""
    return CoefficientTriple(*(a + t * c for a, c in zip(v, r)))


def test_valid_constant_holds_on_all_of_P(profile_rows):
    # On each piece, valid_constant is affine in x, and the K the sweep
    # needs, max over its profiles of x3*n3 + x2*n2 + x1*n1 - nu, is convex.
    # A piece is its vertices' hull plus its extreme rays' cone
    # (Minkowski-Weyl), so K suffices on every triple of it iff it does at
    # each vertex, and along each ray no profile's sum grows faster than K.
    rows = [((n3, n2, n1), least) for (n1, n2, n3, _), (least, _) in profile_rows.items()]
    (upper, upper_rays), (lower, lower_rays) = _pieces_of_P()
    assert (len(upper), len(upper_rays), len(lower), len(lower_rays)) == (5, 2, 2, 3)
    assert lower_rays == upper_rays | {(F(-1), F(0), F(1))}
    vertex_gaps, ray_gaps = [], []
    for points, rays in ((upper, upper_rays), (lower, lower_rays)):
        for v in points:
            k = valid_constant(v)
            vertex_gaps.append(max(_dot(v, p) - least for p, least in rows) - k)
            for r in rays:
                k1, k2 = (valid_constant(_along(v, r, t)) for t in (1, 2))
                assert k2 - k1 == k1 - k, (v, r)  # affine along the ray
                ray_gaps.append(max(_dot(r, p) for p, _ in rows) - (k1 - k))
    # Sharp at a vertex, (0, 1/3, 2/3) on the claw, and along the ray
    # (-1, 0, 1), where n1 - n3 <= 2 is what 2|x3| pays for.
    assert max(vertex_gaps) == 0 and max(ray_gaps) == 0


def test_criterion_09_matcher_oracle_agreement(corpus_by_n):
    mismatches = 0
    corpus_size = 0
    for g in connected_upto(corpus_by_n, 10):
        corpus_size += 1
        if nu(g) != brute_force_nu(g):
            mismatches += 1
    random_checked = 0
    for i in range(1000):
        n = 4 + (i % 13)  # orders 4..16
        g = random_subcubic(n, seed=i)
        random_checked += 1
        if nu(g) != brute_force_nu(g):
            mismatches += 1
    ok = mismatches == 0
    record_criterion(
        9, ok,
        f"blossom equals brute force on {corpus_size} exhaustive + "
        f"{random_checked} random graphs, {mismatches} discrepancies",
    )
    assert mismatches == 0
