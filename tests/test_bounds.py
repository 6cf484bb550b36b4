"""Bound evaluation, the additive-constant rule, and constructive
counterexamples."""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchbounds.bounds import (
    BoundReport,
    BoundSpec,
    NotConnectedError,
    TripleInPError,
    bound_by_name,
    closed_form_slack,
    valid_constant,
    counterexample,
    evaluate_bound,
    evaluate_bounds,
    evaluate_scaled,
    scale_bounds,
    sharp_bounds,
)
from matchbounds.cli import fraction_text, report_json
from matchbounds.families import (
    FAMILY_IDS,
    FamilySpec,
    closed_nu,
    closed_profile,
    family_for_halfspace,
    generate,
    least_member,
)
from matchbounds.graphs import Graph, NotSubcubicError, degree_profile, emit_graph6
from matchbounds.matching import brute_force_nu, nu
from matchbounds.polytope import (
    CoefficientTriple,
    NotInPError,
    contains,
    polyhedron_P,
    polyhedron_P_plus,
    project_to_Pplus,
    shift_transform,
    triple,
)

from .conftest import connected_upto

F = Fraction

TRIANGLE = Graph(3, [(0, 1), (1, 2), (0, 2)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K13 = Graph(4, [(0, 1), (0, 2), (0, 3)])
K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_sharp_bounds_are_frozen():
    specs = sharp_bounds()
    assert [s.name for s in specs] == ["b1", "b2", "b3", "b4", "b5"]
    table = {
        "b1": (F(0), F(1, 2), F(1, 2), F(1, 2)),
        "b2": (F(0), F(1, 3), F(2, 3), F(1)),
        "b3": (F(1, 4), F(1, 2), F(1, 4), F(1, 2)),
        "b4": (F(7, 16), F(3, 8), F(3, 16), F(1, 8)),
        "b5": (F(4, 9), F(1, 3), F(2, 9), F(1, 9)),
    }
    for s in specs:
        x3, x2, x1, k = table[s.name]
        assert s.triple.as_tuple() == (x3, x2, x1)
        assert s.k_const == k
        assert s.per_component


def test_sharp_instances():
    cases = [
        (TRIANGLE, "b4"),
        (C5, "b1"), (C5, "b3"),
        (K13, "b1"), (K13, "b2"), (K13, "b5"),
    ]
    for g, name in cases:
        rep = evaluate_bound(g, bound_by_name(name))
        assert rep.tight and rep.slack == 0, (name, rep)


def test_evaluate_rejects_high_degree():
    k5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    with pytest.raises(NotSubcubicError):
        evaluate_bound(k5, bound_by_name("b1"))


def test_evaluate_bounds_computes_nu_once(monkeypatch):
    import matchbounds.bounds as bounds

    specs = sharp_bounds()
    g = generate(FamilySpec("G1", 1))
    expected = [evaluate_bound(g, spec) for spec in specs]
    calls = []
    monkeypatch.setattr(bounds, "nu", lambda h: calls.append(h) or nu(h))
    assert evaluate_bounds(g, specs) == expected
    assert len(calls) == 1


def test_per_component_constant():
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    rep = evaluate_bound(two_triangles, bound_by_name("b4"))
    # Two components charge the constant twice: rhs = 6*3/8 - 2/8.
    assert rep.rhs == F(2)
    assert rep.lhs == 2 and rep.tight
    # A flat constant is only claimed for connected graphs.
    flat = BoundSpec(triple=triple(0, 0, "2/3"), k_const=F(1), per_component=False)
    with pytest.raises(NotConnectedError):
        evaluate_bounds(two_triangles, [bound_by_name("b4"), flat])
    assert evaluate_bounds(TRIANGLE, [flat])[0].slack == 2


def test_sharp_bounds_scale_to_denominator_144():
    scaled = scale_bounds(sharp_bounds())
    assert scaled.denominator == 144
    assert scaled.rows[3] == (63, 54, 27, 18, True)  # b4: 7/16, 3/8, 3/16, 1/8
    assert not scaled.flat


def test_scaled_evaluation_equals_fraction_arithmetic(corpus_by_n):
    # The integer core against the bound's definition in Fraction arithmetic,
    # with a negative coefficient and a flat K among the specs.
    specs = [*sharp_bounds(),
             BoundSpec(triple=triple(-1, "5/7", "2/3"), k_const=F(3, 11), per_component=False)]
    for g in connected_upto(corpus_by_n, 8):
        prof = degree_profile(g)
        value = nu(g)
        for spec, rep in zip(specs, evaluate_bounds(g, specs)):
            x = spec.triple
            rhs = x.x3 * prof.n3 + x.x2 * prof.n2 + x.x1 * prof.n1 - spec.k_const
            assert rep == BoundReport(lhs=value, rhs=rhs, slack=value - rhs,
                                      tight=value == rhs), (g, spec)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
@settings(max_examples=300, deadline=None)
def test_scaled_numbers_print_as_their_fraction(num, den):
    assert fraction_text(num, den) == str(F(num, den))
    # Int true division is correctly rounded: the decimal the CLI shows.
    assert num / den == float(F(num, den))


def test_bounds_hold_on_small_corpus(corpus_by_n):
    specs = sharp_bounds()
    for g in connected_upto(corpus_by_n, 8):
        for spec in specs:
            rep = evaluate_bound(g, spec)
            assert rep.slack >= 0, (g, spec.name, rep)


def test_valid_constants():
    assert valid_constant(triple("4/9", "1/3", "2/9")) == 1
    assert valid_constant(triple(-1, 0, "5/3")) == 3
    assert valid_constant(triple(0, "1/2", "1/2")) == 1
    with pytest.raises(NotInPError):
        valid_constant(triple(1, 1, 1))


def test_valid_constant_sharp_on_star():
    # nu(K13) = 1 = -1*n3 + (5/3)*n1 - 3 exactly.
    tr = triple(-1, 0, "5/3")
    rep = evaluate_bound(
        K13,
        BoundSpec(triple=tr, k_const=valid_constant(tr), per_component=False),
    )
    assert rep.slack == 0


def test_degree_one_for_degree_three_trade_identity():
    # The b2 coefficients are exactly the b5 coefficients traded by 4/9.
    b2 = bound_by_name("b2").triple
    assert shift_transform(bound_by_name("b5").triple, F(4, 9)) == b2


def test_counterexample_for_rejected_sum_triple():
    spec, g, rep = counterexample(triple("1/3", "4/9", "1/3"), F(0))
    assert spec == FamilySpec("G3", 2)
    assert g.n == 6
    assert rep.lhs == 2 and rep.rhs == F(20, 9) and rep.slack == F(-2, 9)
    # Slack at parameter t is exactly -t/9; certify with the oracle.
    for t in range(2, 10):
        fam = FamilySpec("G3", t)
        assert closed_form_slack(fam, triple("1/3", "4/9", "1/3"), F(0)) == F(-t, 9)
        assert brute_force_nu(generate(fam)) == t


def test_counterexample_minimal_heavy_triple():
    # Smallest odd t where the degree-3 coefficient 1/2 defeats constant 1.
    spec, g, rep = counterexample(triple("1/2", 0, 0), F(1))
    assert spec == FamilySpec("G2", 1)
    assert rep.lhs == 15 and rep.rhs == 16 and rep.slack == -1


def test_counterexample_scales_with_large_constant():
    # 2^t must exceed K = 100 before the violation appears: t = 7.
    spec, g, rep = counterexample(triple("1/2", 0, 0), F(100))
    assert spec == FamilySpec("G2", 7)
    assert g.n == 9 * 2 ** 8 - 2
    assert rep.slack < 0
    # One admissible step earlier, t = 5, is not yet violated.
    assert closed_form_slack(FamilySpec("G2", 5), triple("1/2", 0, 0), F(100)) >= 0


def test_counterexample_nu_certificate_raises(monkeypatch):
    # The matcher checks the closed-form nu of every member returned,
    # however large: G3(2) has 6 vertices, G2(7) 2 302.
    import matchbounds.bounds as bounds

    monkeypatch.setattr(bounds, "nu", lambda g: nu(g) + 1)
    for tr, k in ((triple("1/3", "4/9", "1/3"), F(0)), (triple("1/2", 0, 0), F(100))):
        with pytest.raises(RuntimeError, match="disagrees with matcher"):
            counterexample(tr, k)


def test_counterexample_profile_certificate_raises(monkeypatch):
    # The rhs and slack come from the built graph's degrees: a wrong
    # closed form for G3's degree counts (n1 = t + 1, n2 = t - 1) makes
    # the closed-form slack of G3(2) -1/9 where the graph gives -2/9.
    import matchbounds.families as families

    wrong = replace(families._FAMILIES["G3"], counts=lambda t: (t + 1, t - 1, t))
    monkeypatch.setitem(families._FAMILIES, "G3", wrong)
    with pytest.raises(RuntimeError, match="closed-form slack -1/9 disagrees with -2/9"):
        counterexample(triple("1/3", "4/9", "1/3"), F(0))


def test_counterexample_slack_certificate_raises(monkeypatch):
    import matchbounds.bounds as bounds

    # G2(t=1) is not yet violated under K = 100 (t = 7 is the first).
    monkeypatch.setattr(bounds, "least_member", lambda fid, slack: FamilySpec(fid, 1))
    with pytest.raises(RuntimeError, match="not negative"):
        counterexample(triple("1/2", 0, 0), F(100))


def test_smallest_violating_t_cap():
    # 1/3 < 4/9: G2's slack grows with t, so no member violates and the
    # solve refuses rather than return one.
    probe = triple("1/3", 0, 0)
    with pytest.raises(RuntimeError, match="does not fall with t"):
        least_member("G2", lambda member: closed_form_slack(member, probe, F(0)))


@settings(max_examples=80, deadline=None)
@given(
    st.fractions(min_value=-1, max_value=1, max_denominator=12),
    st.fractions(min_value=-1, max_value=1, max_denominator=12),
    st.fractions(min_value=-1, max_value=1, max_denominator=12),
    st.sampled_from([F(0), F(2)]),
)
def test_counterexample_certifies_any_outside_triple(x3, x2, x1, k):
    tr = CoefficientTriple(x3, x2, x1)
    p = polyhedron_P()
    verdict = contains(p, tr)
    if verdict.inside:
        with pytest.raises(TripleInPError):
            counterexample(tr, k)
        return
    spec, g, rep = counterexample(tr, k)
    assert rep.slack < 0
    assert rep.lhs == closed_nu(spec)
    assert g.n == closed_profile(spec).order
    expected = family_for_halfspace(
        1 + max(verdict.violated, key=lambda i: (p.halfspaces[i].margin(tr), -i))
    )
    assert spec.family_id == expected
    # The member is the least: the admissible one before it is not violated.
    start, step = _NECESSITY[spec.family_id][:2]
    if spec.t > start:
        assert closed_form_slack(FamilySpec(spec.family_id, spec.t - step), tr, k) >= 0


@settings(max_examples=80, deadline=None)
@given(
    st.fractions(min_value=-2, max_value=1, max_denominator=9),
    st.fractions(min_value=-2, max_value=1, max_denominator=9),
    st.fractions(min_value=-2, max_value=2, max_denominator=9),
)
def test_projection_follows_the_three_steps(x3, x2, x1):
    tr = CoefficientTriple(x3, x2, x1)
    p = polyhedron_P()
    if not contains(p, tr).inside:
        return
    projected = project_to_Pplus(tr)
    assert contains(polyhedron_P_plus(), projected).inside
    want_x2 = max(x2, F(0))
    want_x3 = max(x3, F(0))
    want_x1 = max(x1 + min(x3, F(0)), F(0))
    assert projected == CoefficientTriple(want_x3, want_x2, want_x1)


def test_counterexample_rejects_inside_triples():
    with pytest.raises(TripleInPError):
        counterexample(triple(0, 0, 0), F(0))
    with pytest.raises(TripleInPError):
        counterexample(triple("4/9", "1/3", "2/9"), F(5))


def test_counterexample_picks_most_violated_constraint():
    # (0, 9/10, 0): x2<=1/2 is violated by 2/5, x3+3x2/2<=1 only by 7/20.
    spec, _, _ = counterexample(triple(0, "9/10", 0), F(0))
    assert spec.family_id == "G6"
    # (1, 0, 0): the x3 cap loses by 5/9, more than any other constraint.
    spec, _, _ = counterexample(triple(1, 0, 0), F(0))
    assert spec.family_id == "G2"
    # Equal margins of 1/2 at (0, 1, 0): canonical order breaks the tie.
    spec, _, _ = counterexample(triple(0, 1, 0), F(0))
    assert spec.family_id == "G6"


# Per family: first admissible t, step, the 1-based position of the
# constraint it witnesses, c, f and s0 in the identity
#     closed_form_slack(member t, x, K) == s0(x) + K - c * margin(x) * f(t).
_NECESSITY = {
    "G1": (1, 2, 3, 3, lambda t: 2 ** t, lambda x: 2 * x.x3 - 1),
    "G2": (1, 2, 1, 18, lambda t: 2 ** t, lambda x: 2 * x.x3 - 1),
    "G3": (2, 1, 5, 1, lambda t: t, lambda x: 0),
    "G4": (2, 1, 6, 6, lambda t: t, lambda x: 0),
    "G5": (4, 2, 4, 1, lambda t: t, lambda x: 0),
    "G6": (3, 2, 2, 1, lambda t: t, lambda x: F(-1, 2)),
}


@pytest.mark.parametrize("family_id", FAMILY_IDS)
def test_necessity_is_one_slack_identity(family_id):
    # Both sides are affine in x, so (0,0,0), e1, e2 and e3 decide the
    # identity for every triple; (1/3, 4/9, 1/3) is one more. Outside P the
    # margin is positive, so the slack falls without bound: no K is valid.
    start, step, witnesses, c, f, s0 = _NECESSITY[family_id]
    assert family_for_halfspace(witnesses) == family_id
    halfspace = polyhedron_P().halfspaces[witnesses - 1]
    triples = [triple(0, 0, 0), triple(1, 0, 0), triple(0, 1, 0), triple(0, 0, 1),
               triple("1/3", "4/9", "1/3")]
    for t in range(start, start + 12 * step, step):
        for x in triples:
            for k in (F(0), F(7, 3)):
                assert (closed_form_slack(FamilySpec(family_id, t), x, k)
                        == s0(x) + k - c * halfspace.margin(x) * f(t)), (t, x, k)


def test_report_schema():
    scaled = scale_bounds([bound_by_name("b4")])
    lhs, [(rhs, slack)] = evaluate_scaled(TRIANGLE, scaled)
    line = report_json(json.dumps(emit_graph6(TRIANGLE).decode()), json.dumps("b4"), lhs, rhs,
                       slack, scaled.denominator)
    payload = {
        "graph": "Bw",
        "bound": "b4",
        "nu": 1,
        "rhs": "1",
        "slack": "0",
        "tight": True,
    }
    assert json.loads(line) == payload
    assert line == json.dumps(payload)


@settings(max_examples=200, deadline=None)
@given(
    st.text(st.characters(min_codepoint=63, max_codepoint=126), min_size=1, max_size=12)
    | st.just("Es\\o"),
    st.sampled_from(["b1", "b2", "b3", "b4", "b5", "custom"]),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=-500, max_value=500),
)
def test_report_json_is_json_dumps_of_the_schema(g6, bound, lhs, rhs, slack):
    # A graph6 line may hold a backslash (the n = 6 class Es\o does), which
    # JSON must escape.
    line = report_json(json.dumps(g6), json.dumps(bound), lhs, rhs, slack, 144)
    assert line == json.dumps({
        "graph": g6,
        "bound": bound,
        "nu": lhs,
        "rhs": str(Fraction(rhs, 144)),
        "slack": str(Fraction(slack, 144)),
        "tight": slack == 0,
    })
