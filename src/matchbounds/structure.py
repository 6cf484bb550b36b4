"""Gallai-Edmonds decomposition computed from its definition, plus checks
of the three structural properties it guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _component_vertex_sets
from .matching import has_perfect_matching, is_hypomatchable, nu


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
    """The definitional partition, via n+1 maximum-matching calls."""
    base = nu(g)
    A = frozenset(
        v for v in range(g.n) if nu(g.without_vertex(v)[0]) == base
    )
    B = frozenset(
        u
        for v in A
        for u in g.neighbors(v)
        if u not in A
    )
    C = frozenset(range(g.n)) - A - B
    return GEDecomposition(A=A, B=B, C=C)


def _a_component_sets(g: Graph, A: frozenset[int]) -> list[list[int]]:
    """Vertex sets of the components of the subgraph induced on A,
    in original vertex labels."""
    sub, new_to_old = g.induced(A)
    return [
        [new_to_old[v] for v in comp] for comp in _component_vertex_sets(sub)
    ]


def _bipartite_saturates_left(left_adj: list[list[int]], right_size: int) -> bool:
    """Kuhn's augmenting-path matching; True iff every left node is matched."""
    match_right = [-1] * right_size

    def try_augment(u: int, visited: list[bool]) -> bool:
        for r in left_adj[u]:
            if not visited[r]:
                visited[r] = True
                if match_right[r] == -1 or try_augment(match_right[r], visited):
                    match_right[r] = u
                    return True
        return False

    for u in range(len(left_adj)):
        if not try_augment(u, [False] * right_size):
            return False
    return True


def _has_neighborhood_surplus(g: Graph, B: frozenset[int], a_comps: list[list[int]]) -> bool:
    """True iff every nonempty X within B touches more than |X| components
    of the A-side subgraph.

    Equivalent, by Hall's theorem, to: for each b in B the incidence graph
    between B plus a duplicate of b and the components admits a matching
    saturating the whole left side.  Exact and polynomial, no subset
    enumeration.
    """
    if not B:
        return True
    comp_of = {}
    for idx, comp in enumerate(a_comps):
        for v in comp:
            comp_of[v] = idx
    b_list = sorted(B)
    adj = [
        sorted({comp_of[w] for w in g.neighbors(b) if w in comp_of})
        for b in b_list
    ]
    k = len(a_comps)
    for i in range(len(b_list)):
        if not _bipartite_saturates_left(adj + [adj[i]], k):
            return False
    return True


def verify_ge_properties(g: Graph, d: GEDecomposition) -> GEPropertyReport:
    """Check the three structural guarantees against a decomposition.

    Raises DecompositionMismatchError when ``d`` is not the definitional
    decomposition of ``g``.
    """
    expected = gallai_edmonds(g)
    if d != expected:
        raise DecompositionMismatchError(
            f"expected A={sorted(expected.A)}, B={sorted(expected.B)}, "
            f"C={sorted(expected.C)}"
        )
    return _ge_properties(g, d)


def _ge_properties(g: Graph, d: GEDecomposition) -> GEPropertyReport:
    """The three structural guarantees, for a ``d`` already known to be
    the decomposition of ``g``."""
    a_comps = _a_component_sets(g, d.A)
    hypo = all(
        is_hypomatchable(g.induced(comp)[0]) for comp in a_comps
    )
    c_sub, _ = g.induced(d.C)
    perfect = all(
        has_perfect_matching(c_sub.induced(comp)[0])
        for comp in _component_vertex_sets(c_sub)
    )
    surplus = _has_neighborhood_surplus(g, d.B, a_comps)
    return GEPropertyReport(
        a_components_hypomatchable=hypo,
        c_components_perfectly_matched=perfect,
        b_neighborhood_surplus=surplus,
    )
