"""The six extremal families G1(t)..G6(t).

One table, ``_FAMILIES``, states each family's admissible t, the
constraint it witnesses and its closed forms; ``least_member`` finds a
family's least member with negative slack.  Vertex numbering is frozen
per family (root-first BFS for the trees, cycle-then-pendants for the
cycle-based ones, hub-then-subdivision for G5) so serialized outputs are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Callable

from .graphs import DegreeProfile, Graph


@dataclass(frozen=True)
class _Family:
    """One family's facts: the admissible t = start, start + step, ...; the
    1-based position of the ``polyhedron_P`` constraint it witnesses; whether
    its closed forms are affine in 2**t (``doubling``) or in t; and closed
    forms in t for its degree counts (n1, n2, n3) and matching number."""

    start: int
    step: int
    witnesses: int
    doubling: bool
    counts: Callable[[int], tuple[int, int, int]]
    nu: Callable[[int], int]


_FAMILIES = {
    "G1": _Family(1, 2, 3, True,  # x3 + x1 <= 2/3
                  lambda t: (3 * 2 ** t, 0, 3 * 2 ** t - 2), lambda t: 2 ** (t + 1) - 1),
    "G2": _Family(1, 2, 1, True,  # x3 <= 4/9
                  lambda t: (0, 0, 9 * 2 ** (t + 1) - 2), lambda t: 2 ** (t + 3) - 1),
    "G3": _Family(2, 1, 5, False,  # x3 + x2 + x1 <= 1
                  lambda t: (t, t, t), lambda t: t),
    "G4": _Family(2, 1, 6, False,  # x3 + x2/6 <= 1/2
                  lambda t: (0, t, 6 * t), lambda t: 3 * t),
    "G5": _Family(4, 2, 4, False,  # x3 + 3x2/2 <= 1
                  lambda t: (0, 3 * t // 2, t), lambda t: t),
    "G6": _Family(3, 2, 2, False,  # x2 <= 1/2
                  lambda t: (0, t, 0), lambda t: (t - 1) // 2),
}

FAMILY_IDS = tuple(_FAMILIES)

# The closed forms describe a member at any t, but ``generate`` refuses to
# build one with more than MAX_GENERATED_ORDER vertices.
MAX_GENERATED_ORDER = 2_000_000


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
        if not isinstance(t, int) or isinstance(t, bool):
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
    """Build the family member as a concrete graph; one with more than
    ``MAX_GENERATED_ORDER`` vertices is refused before anything is built."""
    buildable_order(spec)
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
