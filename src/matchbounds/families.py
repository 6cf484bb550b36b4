"""Generators for the six extremal families G1(t)..G6(t).

Each family comes with closed forms for its degree profile and matching
number.  Vertex numbering is frozen per family (root-first BFS for the
trees, cycle-then-pendants for the cycle-based ones, hub-then-subdivision
for G5) so serialized outputs are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterator

from .graphs import DegreeProfile, Graph

# The admissible parameters of each family: t = start, start + step, ...
_T_START_STEP = {
    "G1": (1, 2),
    "G2": (1, 2),
    "G3": (2, 1),
    "G4": (2, 1),
    "G5": (4, 2),
    "G6": (3, 2),
}

FAMILY_IDS = tuple(_T_START_STEP)

# The closed forms describe a member at any t, but ``generate`` refuses to
# build one with more than MAX_GENERATED_ORDER vertices.  Up to
# MAX_CERTIFIED_ORDER vertices, a member's nu is also computed by the
# matcher and checked against the closed form.
MAX_GENERATED_ORDER = 2_000_000
MAX_CERTIFIED_ORDER = 60


class InvalidParameterError(ValueError):
    """Family parameter violates its parity or range constraint."""


def _start_step(family_id: str) -> tuple[int, int]:
    if family_id not in FAMILY_IDS:
        raise InvalidParameterError(f"unknown family {family_id!r}")
    return _T_START_STEP[family_id]


@dataclass(frozen=True)
class FamilySpec:
    """A family member: which family, and the size parameter t."""

    family_id: str
    t: int

    def __post_init__(self):
        start, step = _start_step(self.family_id)
        if self.t < start or (self.t - start) % step:
            parity = "" if step == 1 else "odd " if start % 2 else "even "
            raise InvalidParameterError(
                f"{self.family_id} requires {parity}t >= {start}, got {self.t}"
            )


def admissible_t(family_id: str) -> Iterator[int]:
    """The admissible parameter values of a family, ascending."""
    return count(*_start_step(family_id))


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
            or family_order(spec) > MAX_GENERATED_ORDER):
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
    t = spec.t
    fid = spec.family_id
    if fid == "G1":
        n1, n2, n3 = 3 * 2 ** t, 0, 3 * 2 ** t - 2
    elif fid == "G2":
        n1, n2, n3 = 0, 0, 9 * 2 ** (t + 1) - 2
    elif fid == "G3":
        n1, n2, n3 = t, t, t
    elif fid == "G4":
        n1, n2, n3 = 0, t, 6 * t
    elif fid == "G5":
        n1, n2, n3 = 0, 3 * t // 2, t
    else:
        n1, n2, n3 = 0, t, 0
    return DegreeProfile(n0=0, n1=n1, n2=n2, n3=n3, c=1)


def closed_nu(spec: FamilySpec) -> int:
    """Matching number by closed form."""
    t = spec.t
    return {
        "G1": 2 ** (t + 1) - 1,
        "G2": 2 ** (t + 3) - 1,
        "G3": t,
        "G4": 3 * t,
        "G5": t,
        "G6": (t - 1) // 2,
    }[spec.family_id]


def family_order(spec: FamilySpec) -> int:
    """Vertex count by closed form."""
    return closed_profile(spec).order


def profile_dot(spec: FamilySpec, x3: Fraction, x2: Fraction, x1: Fraction) -> Fraction:
    """x3*n3 + x2*n2 + x1*n1 for the closed-form profile."""
    prof = closed_profile(spec)
    return x3 * prof.n3 + x2 * prof.n2 + x1 * prof.n1


# Which family witnesses the necessity of each constraint, keyed by
# 1-based position in the canonical constraint order of the coefficient
# polyhedron.
_FAMILY_FOR_HALFSPACE = {
    1: "G2",  # x3 <= 4/9
    2: "G6",  # x2 <= 1/2
    3: "G1",  # x3 + x1 <= 2/3
    4: "G5",  # x3 + 3x2/2 <= 1
    5: "G3",  # x3 + x2 + x1 <= 1
    6: "G4",  # x3 + x2/6 <= 1/2
}


def family_for_halfspace(index: int) -> str:
    """Family id witnessing the necessity of constraint ``index``
    (1-based position in the canonical constraint order)."""
    if index not in _FAMILY_FOR_HALFSPACE:
        raise ValueError(f"half-space index must be 1..6, got {index}")
    return _FAMILY_FOR_HALFSPACE[index]

