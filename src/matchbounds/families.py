"""The six extremal families G1(t)..G6(t).

One table, ``_FAMILIES``, states each family's admissible t, the
constraint it witnesses, its closed forms and its member's edges, from
which ``generate`` builds it; ``least_member`` finds a family's least
member with negative slack.  Vertex numbering is frozen per family
(root-first BFS for the trees, cycle-then-pendants for the cycle-based
ones, K4 blocks after their hooks, hub-then-subdivision for G5) so
serialized outputs are stable.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor
from typing import Callable, NamedTuple

from .graphs import DegreeProfile, Graph


class _Family(NamedTuple):
    """One family's facts: the admissible t = start, start + step, ...; the
    1-based position of the ``polyhedron_P`` constraint it witnesses; whether
    its closed forms are affine in 2**t (``doubling``) or in t; closed forms
    in t for its degree counts (n1, n2, n3) and matching number; and its
    member's edge list, on the vertices 0..n1+n2+n3-1."""

    start: int
    step: int
    witnesses: int
    doubling: bool
    counts: Callable[[int], tuple[int, int, int]]
    nu: Callable[[int], int]
    edges: Callable[[int], list[tuple[int, int]]]


def _cycle_edges(n: int) -> list[tuple[int, int]]:
    """The cycle 0..n-1."""
    return [(i, (i + 1) % n) for i in range(n)]


def _cubic_tree_edges(t: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Rooted tree, BFS numbering: root 0, then levels of 3*2^i vertices;
    every non-leaf vertex has degree 3.  Returns (edges, leaves), the
    leaves being the last vertices."""
    edges: list[tuple[int, int]] = []
    leaves = [0]
    for width in (3, *[2] * t):
        parents = [p for p in leaves for _ in range(width)]
        leaves = list(range(leaves[-1] + 1, leaves[-1] + 1 + len(parents)))
        edges += zip(parents, leaves)
    return edges, leaves


def _pendant_cycle_edges(t: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Cycle 0..2t-1 plus a pendant vertex 2t+i on every even cycle vertex
    2i.  Returns (edges, pendants); the pendants are the last vertices."""
    pendants = [2 * t + i for i in range(t)]
    return _cycle_edges(2 * t) + [(2 * i, p) for i, p in enumerate(pendants)], pendants


def _graft_subdivided_k4(edges: list[tuple[int, int]],
                         hooks: list[int]) -> list[tuple[int, int]]:
    """``edges`` plus, on each hook, a K4 with one edge subdivided, its
    degree-2 vertex identified with the hook.  The blocks take four vertices
    each, numbered on from the last hook, which is the last vertex built."""
    base = hooks[-1] + 1
    for i, hook in enumerate(hooks):
        a, b, c, d = range(base + 4 * i, base + 4 * i + 4)
        edges += [(hook, a), (hook, b), (a, c), (a, d), (b, c), (b, d), (c, d)]
    return edges


def _subdivided_hub_edges(t: int) -> list[tuple[int, int]]:
    """The cycle 0..t-1 and its t/2 long diagonals, every edge subdivided:
    the j-th edge (u, v), u < v, in sorted order by the vertex t + j."""
    hub = sorted(tuple(sorted(e))
                 for e in _cycle_edges(t) + [(i, i + t // 2) for i in range(t // 2)])
    return [e for j, (u, v) in enumerate(hub, t) for e in ((u, j), (j, v))]


_FAMILIES = {
    "G1": _Family(1, 2, 3, True,  # x3 + x1 <= 2/3
                  lambda t: (3 * 2 ** t, 0, 3 * 2 ** t - 2), lambda t: 2 ** (t + 1) - 1,
                  lambda t: _cubic_tree_edges(t)[0]),
    "G2": _Family(1, 2, 1, True,  # x3 <= 4/9
                  lambda t: (0, 0, 9 * 2 ** (t + 1) - 2), lambda t: 2 ** (t + 3) - 1,
                  lambda t: _graft_subdivided_k4(*_cubic_tree_edges(t))),
    "G3": _Family(2, 1, 5, False,  # x3 + x2 + x1 <= 1
                  lambda t: (t, t, t), lambda t: t, lambda t: _pendant_cycle_edges(t)[0]),
    "G4": _Family(2, 1, 6, False,  # x3 + x2/6 <= 1/2
                  lambda t: (0, t, 6 * t), lambda t: 3 * t,
                  lambda t: _graft_subdivided_k4(*_pendant_cycle_edges(t))),
    "G5": _Family(4, 2, 4, False,  # x3 + 3x2/2 <= 1
                  lambda t: (0, 3 * t // 2, t), lambda t: t, _subdivided_hub_edges),
    "G6": _Family(3, 2, 2, False,  # x2 <= 1/2
                  lambda t: (0, t, 0), lambda t: (t - 1) // 2, _cycle_edges),
}

FAMILY_IDS = tuple(_FAMILIES)

# The closed forms describe a member at any t, but ``generate`` refuses to
# build one with more than MAX_GENERATED_ORDER vertices.
MAX_GENERATED_ORDER = 2_000_000


class InvalidParameterError(ValueError):
    """Family parameter violates its parity or range constraint."""


class _FamilySpec(NamedTuple):
    family_id: str
    t: int


class FamilySpec(_FamilySpec):
    """A family member: which family, and the size parameter t.  Every way
    of building one, ``_make`` and ``_replace`` included, goes through
    ``__new__``, which checks t."""

    __slots__ = ()

    def __new__(cls, family_id, t):
        if family_id not in FAMILY_IDS:
            raise InvalidParameterError(f"unknown family {family_id!r}")
        if not isinstance(t, int) or isinstance(t, bool):
            raise InvalidParameterError(f"{family_id} requires integer t, got {t!r}")
        start, step = _FAMILIES[family_id].start, _FAMILIES[family_id].step
        if t < start or (t - start) % step:
            parity = "" if step == 1 else "odd " if start % 2 else "even "
            raise InvalidParameterError(f"{family_id} requires {parity}t >= {start}, got {t}")
        return super().__new__(cls, family_id, t)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def buildable_order(spec: FamilySpec) -> int:
    """The member's order by closed form; a member with more than
    ``MAX_GENERATED_ORDER`` vertices is refused."""
    # G2 passes the cap from t = 17 on, G1 from t = 19; deciding t > 64 by t alone
    # spares a huge t the evaluation of 2**t.
    if ((_FAMILIES[spec.family_id].doubling and spec.t > 64)
            or (order := closed_profile(spec).order) > MAX_GENERATED_ORDER):
        t = f"={spec.t}" if spec.t < 10 ** 4300 else " >= 10**4300"  # str() refuses more digits
        raise InvalidParameterError(f"{spec.family_id}(t{t}) has more than "
                                    f"{MAX_GENERATED_ORDER} vertices; too large to build")
    return order


def generate(spec: FamilySpec) -> Graph:
    """Build the family member from its ``_FAMILIES`` row on its closed-form
    order; one with more than ``MAX_GENERATED_ORDER`` vertices is refused
    before anything is built."""
    return Graph(buildable_order(spec), _FAMILIES[spec.family_id].edges(spec.t))


def closed_profile(spec: FamilySpec) -> DegreeProfile:
    """Degree profile by closed form; always one connected component."""
    n1, n2, n3 = _FAMILIES[spec.family_id].counts(spec.t)
    return DegreeProfile(n0=0, n1=n1, n2=n2, n3=n3, c=1)


def closed_nu(spec: FamilySpec) -> int:
    """Matching number by closed form."""
    return _FAMILIES[spec.family_id].nu(spec.t)


def family_for_halfspace(index: int) -> str:
    """Family id witnessing the necessity of constraint ``index``
    (1-based position in the canonical constraint order)."""
    for family_id, family in _FAMILIES.items():
        if family.witnesses == index:
            return family_id
    raise ValueError(f"half-space index must be 1..6, got {index}")


def least_member(family_id: str, slack: Callable[[FamilySpec], Fraction]) -> FamilySpec:
    """The least member of family ``family_id`` with negative ``slack``, for
    a ``slack`` affine in the size 2**t (a doubling family) or t: its rate,
    from the first two members, must be negative; one floor gives the rest."""
    family = _FAMILIES[family_id]
    size = (lambda t: 2 ** t) if family.doubling else (lambda t: t)
    t0, t1 = family.start, family.start + family.step
    s0 = slack(FamilySpec(family_id, t0))
    rate = (slack(FamilySpec(family_id, t1)) - s0) / (size(t1) - size(t0))
    if rate >= 0:
        raise RuntimeError(f"the slack of {family_id}(t) does not fall with t")
    m = max(0, floor(size(t0) - s0 / rate))  # the largest size with slack >= 0
    t = m.bit_length() if family.doubling else m + 1  # the least t with size(t) > m
    return FamilySpec(family_id, max(t0, t + (t0 - t) % family.step))
