"""The six extremal families G1(t)..G6(t).

One table, ``_FAMILIES``, states each family's admissible t, the
constraint it witnesses and its closed forms; ``first_member`` searches a
family's members.  Vertex numbering is frozen per family (root-first BFS
for the trees, cycle-then-pendants for the cycle-based ones,
hub-then-subdivision for G5) so serialized outputs are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .graphs import DegreeProfile, Graph


@dataclass(frozen=True)
class _Family:
    """One family's facts: the admissible t = start, start + step, ...; the
    1-based position of the ``polyhedron_P`` constraint it witnesses; and
    closed forms in t for its degree counts (n1, n2, n3) and matching number."""

    start: int
    step: int
    witnesses: int
    counts: Callable[[int], tuple[int, int, int]]
    nu: Callable[[int], int]


_FAMILIES = {
    "G1": _Family(1, 2, 3,  # x3 + x1 <= 2/3
                  lambda t: (3 * 2 ** t, 0, 3 * 2 ** t - 2), lambda t: 2 ** (t + 1) - 1),
    "G2": _Family(1, 2, 1,  # x3 <= 4/9
                  lambda t: (0, 0, 9 * 2 ** (t + 1) - 2), lambda t: 2 ** (t + 3) - 1),
    "G3": _Family(2, 1, 5,  # x3 + x2 + x1 <= 1
                  lambda t: (t, t, t), lambda t: t),
    "G4": _Family(2, 1, 6,  # x3 + x2/6 <= 1/2
                  lambda t: (0, t, 6 * t), lambda t: 3 * t),
    "G5": _Family(4, 2, 4,  # x3 + 3x2/2 <= 1
                  lambda t: (0, 3 * t // 2, t), lambda t: t),
    "G6": _Family(3, 2, 2,  # x2 <= 1/2
                  lambda t: (0, t, 0), lambda t: (t - 1) // 2),
}

FAMILY_IDS = tuple(_FAMILIES)

# The closed forms describe a member at any t, but ``generate`` refuses to
# build one with more than MAX_GENERATED_ORDER vertices.  Up to
# MAX_CERTIFIED_ORDER vertices, a member's nu is also computed by the
# matcher and checked against the closed form.
MAX_GENERATED_ORDER = 2_000_000
MAX_CERTIFIED_ORDER = 60


class InvalidParameterError(ValueError):
    """Family parameter violates its parity or range constraint."""


@dataclass(frozen=True)
class FamilySpec:
    """A family member: which family, and the size parameter t."""

    family_id: str
    t: int

    def __post_init__(self):
        fid, t = self.family_id, self.t
        if fid not in FAMILY_IDS:
            raise InvalidParameterError(f"unknown family {fid!r}")
        if not isinstance(t, int):
            raise InvalidParameterError(f"{fid} requires integer t, got {t!r}")
        start, step = _FAMILIES[fid].start, _FAMILIES[fid].step
        if t < start or (t - start) % step:
            parity = "" if step == 1 else "odd " if start % 2 else "even "
            raise InvalidParameterError(f"{fid} requires {parity}t >= {start}, got {t}")


def _cubic_tree_edges(t: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Rooted tree, BFS numbering: root 0, then levels of 3*2^i vertices.

    All non-leaf vertices have degree 3.  Returns (edges, leaves).
    """
    edges: list[tuple[int, int]] = []
    level = [0]
    next_id = 1
    for depth in range(t + 1):
        width = 3 if depth == 0 else 2
        new_level = []
        for parent in level:
            for _ in range(width):
                edges.append((parent, next_id))
                new_level.append(next_id)
                next_id += 1
        level = new_level
    return edges, level


def _graft_subdivided_k4(edges: list[tuple[int, int]], hook: int, base: int) -> int:
    """Attach a K4-with-one-subdivided-edge block, identifying its unique
    degree-2 vertex with ``hook``.  New vertices are base..base+3; returns
    the next free index."""
    a, b, c, d = base, base + 1, base + 2, base + 3
    edges.extend([
        (hook, a), (hook, b),
        (a, c), (a, d), (b, c), (b, d), (c, d),
    ])
    return base + 4


def _pendant_cycle_edges(t: int) -> list[tuple[int, int]]:
    """Cycle 0..2t-1 plus a pendant vertex 2t+i on every even cycle vertex."""
    edges = [(i, (i + 1) % (2 * t)) for i in range(2 * t)]
    edges.extend((2 * i, 2 * t + i) for i in range(t))
    return edges


def _check_buildable(spec: FamilySpec) -> None:
    """Refuse a member with more than ``MAX_GENERATED_ORDER`` vertices."""
    # G1 and G2 pass the cap from t = 17 on; deciding t > 64 by t alone
    # spares a huge t the evaluation of 2**t.
    if ((spec.family_id in ("G1", "G2") and spec.t > 64)
            or closed_profile(spec).order > MAX_GENERATED_ORDER):
        raise InvalidParameterError(f"{spec.family_id}(t={spec.t}) has more than "
                                    f"{MAX_GENERATED_ORDER} vertices; too large to build")


def generate(spec: FamilySpec) -> Graph:
    """Build the family member as a concrete graph; one with more than
    ``MAX_GENERATED_ORDER`` vertices is refused before anything is built."""
    _check_buildable(spec)
    t = spec.t
    fid = spec.family_id
    if fid == "G1":
        edges, _ = _cubic_tree_edges(t)
        return Graph(3 * 2 ** (t + 1) - 2, edges)
    if fid == "G2":
        edges, leaves = _cubic_tree_edges(t)
        base = 3 * 2 ** (t + 1) - 2
        for leaf in leaves:
            base = _graft_subdivided_k4(edges, leaf, base)
        return Graph(base, edges)
    if fid == "G3":
        return Graph(3 * t, _pendant_cycle_edges(t))
    if fid == "G4":
        edges = _pendant_cycle_edges(t)
        base = 3 * t
        for i in range(t):
            base = _graft_subdivided_k4(edges, 2 * t + i, base)
        return Graph(base, edges)
    if fid == "G5":
        hub_edges = [(i, (i + 1) % t) for i in range(t)]
        hub_edges.extend((i, i + t // 2) for i in range(t // 2))
        hub_edges = sorted(tuple(sorted(e)) for e in hub_edges)
        edges = []
        for j, (u, v) in enumerate(hub_edges):
            edges.append((u, t + j))
            edges.append((t + j, v))
        return Graph(t + 3 * t // 2, edges)
    # G6: plain odd cycle.
    return Graph(t, [(i, (i + 1) % t) for i in range(t)])


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


def first_member(family_id: str, holds: Callable[[FamilySpec], bool]) -> FamilySpec:
    """The smallest member of family ``family_id`` on which ``holds`` is
    true, for a ``holds`` that stays true on every larger member once it is.

    Doubling, then bisection, over the admissible t.  A probe on which
    ``holds`` is still false and that ``generate`` would refuse ends the
    search with ``generate``'s error: the order rises with t, so no member
    it can build serves.
    """
    family = _FAMILIES[family_id]

    def member(j: int) -> FamilySpec:
        return FamilySpec(family_id, family.start + family.step * j)

    hi = 0
    while not holds(member(hi)):
        _check_buildable(member(hi))
        hi = max(2 * hi, 1)
    lo = hi // 2  # the probe before hi, where holds was false; hi itself if hi is 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(member(mid)):
            hi = mid
        else:
            lo = mid
    return member(hi)
