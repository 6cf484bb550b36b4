"""Gallai-Edmonds decomposition, plus checks of the three structural
properties it guarantees.

``gallai_edmonds`` reads the decomposition off one Edmonds run: a maximum
matching whose every exposed vertex roots a failed search, and the even
vertices of those Hungarian trees.  The definition itself (A holds the
vertices whose deletion keeps the matching number) is computed only by
the n+1-matching oracle that ``verify_ge_properties`` checks a
decomposition against.

The properties of the A- and C-components take one matching run per
side, on the subgraph induced on all of A or all of C.  A maximum
matching of a disjoint union is a union of maximum matchings of its
components, and the vertices some maximum matching misses split the same
way.  So one run on G[A] tells whether every A-component is
factor-critical, and one run on G[C] whether every C-component has a
perfect matching; see ``_ge_properties``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _components
from .matching import _matching_array, has_perfect_matching, nu


class DecompositionMismatchError(ValueError):
    """The supplied decomposition is not the definitional one for the graph."""


@dataclass(frozen=True)
class GEDecomposition:
    """Partition (A, B, C) of the vertex set.

    A holds the vertices whose deletion keeps the matching number, B the
    outside neighbors of A, C everything else.
    """

    A: frozenset[int]
    B: frozenset[int]
    C: frozenset[int]


@dataclass(frozen=True)
class GEPropertyReport:
    a_components_hypomatchable: bool
    c_components_perfectly_matched: bool
    b_neighborhood_surplus: bool

    def all_true(self) -> bool:
        return (
            self.a_components_hypomatchable
            and self.c_components_perfectly_matched
            and self.b_neighborhood_surplus
        )


def gallai_edmonds(g: Graph) -> GEDecomposition:
    """The partition from one maximum-matching run.

    A is the set of even vertices, blossoms included, of the Hungarian
    trees grown from every exposed vertex: exactly the vertices some
    maximum matching misses (Edmonds 1965; Lovász & Plummer, *Matching
    Theory*, ch. 3).
    """
    return _partition(g, frozenset(_matching_array(g, every_root=True)[1]))


def _gallai_edmonds_by_definition(g: Graph) -> GEDecomposition:
    """The definitional partition, via n+1 maximum-matching calls; the
    oracle for ``verify_ge_properties``."""
    base = nu(g)
    return _partition(g, frozenset(
        v for v in range(g.n) if nu(g.without_vertex(v)[0]) == base
    ))


def _partition(g: Graph, A: frozenset[int]) -> GEDecomposition:
    """A, its outside neighbours B, and the rest C."""
    B = frozenset(
        u
        for v in A
        for u in g.neighbors(v)
        if u not in A
    )
    C = frozenset(range(g.n)) - A - B
    return GEDecomposition(A=A, B=B, C=C)


def _has_neighborhood_surplus(g: Graph, B: frozenset[int], a_comps: list[list[int]]) -> bool:
    """True iff every nonempty X within B touches more than |X| components
    of the A-side subgraph.

    By Hall's theorem that holds iff, for each b in B, B plus a second copy
    of b can be matched into the components.  Given one matching M of B
    into them, the copy of b has an augmenting path iff an M-alternating
    path from a component M leaves free reaches a component next to b, and
    then it reaches b as well.  So the answer is one maximum matching of
    the incidence graph and one breadth-first search back from the free
    components, entering B by non-matching edges and leaving it by
    matching edges: True iff M saturates B and the search reaches every
    b.  Exact, and with no subset enumeration.
    """
    if not B:
        return True
    comp_of = {v: idx for idx, comp in enumerate(a_comps) for v in comp}
    nb = len(B)
    # Node i is the i-th vertex of B, node nb + c the c-th component.
    incidence = Graph(nb + len(a_comps), [
        (i, nb + comp_of[w])
        for i, b in enumerate(sorted(B))
        for w in g.neighbors(b)
        if w in comp_of
    ])
    mate, _ = _matching_array(incidence)
    if -1 in mate[:nb]:
        return False
    reached = [False] * nb
    queue = [c for c in range(nb, incidence.n) if mate[c] == -1]
    for c in queue:
        # Only the matching edge of a matched c leads to a b already reached.
        for i in incidence.neighbors(c):
            if not reached[i]:
                reached[i] = True
                queue.append(mate[i])
    return all(reached)


def verify_ge_properties(g: Graph, d: GEDecomposition) -> GEPropertyReport:
    """Check the three structural guarantees against a decomposition.

    Raises DecompositionMismatchError when ``d`` is not the definitional
    decomposition of ``g``.
    """
    expected = _gallai_edmonds_by_definition(g)
    if d != expected:
        raise DecompositionMismatchError(
            f"expected A={sorted(expected.A)}, B={sorted(expected.B)}, "
            f"C={sorted(expected.C)}"
        )
    return _ge_properties(g, d)


def _ge_properties(g: Graph, d: GEDecomposition) -> GEPropertyReport:
    """The three structural guarantees, for a ``d`` already known to be
    the decomposition of ``g``; each check is exact for any split of the
    vertices into A, B and C.

    One matching run on G[A] tests every A-component.  Its maximum
    matching restricts to a maximum matching of each component, and,
    since the run searches from every exposed vertex, its even vertices
    are the vertices that some maximum matching of their own component
    misses.  A connected graph in which every vertex is missed by some
    maximum matching is factor-critical (Gallai's lemma), and a
    factor-critical graph is such a graph.  So every A-component is
    hypomatchable iff every vertex of A is even; a component that the
    run matches perfectly roots no tree and so has no even vertex.
    Likewise G[C] has a perfect matching iff each C-component has one.
    """
    a_comps = _components(g._adj, d.A)
    _, even = _matching_array(g.induced(d.A)[0], every_root=True)
    hypo = len(even) == len(d.A)
    perfect = has_perfect_matching(g.induced(d.C)[0])
    surplus = _has_neighborhood_surplus(g, d.B, a_comps)
    return GEPropertyReport(
        a_components_hypomatchable=hypo,
        c_components_perfectly_matched=perfect,
        b_neighborhood_surplus=surplus,
    )
