"""Exhaustive generation of subcubic graphs up to isomorphism, and a
seeded random subcubic graph sampler for stress tests.

Canonical labels.  The canonical code of a graph is the lexicographically
greatest adjacency bitstring over all vertex orderings that list the
vertices class by class, densest class first, where a vertex's class is
its (degree, sorted neighbor degrees).  The classes are
isomorphism-invariant, so equal codes mean isomorphic graphs, and the
dense-first ordering keeps the search frontier tiny on sparse graphs.

Generation by canonical construction path (B. D. McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998).  Each class on n
vertices is made from the classes on n - 1 vertices by joining a new
vertex x to 1..3 vertices of degree < 3.  A vertex is removable when
deleting it leaves the graph connected; every connected graph has one.
Among the removable vertices, those with the latest class, then the
least sum of neighbor invariants, form an isomorphism-invariant set, and
the one of them that comes last in the canonical order names the
canonical orbit.  A child is kept only if x lies in that orbit.

* Every class is made: delete a vertex m of its canonical orbit; the
  rest is connected, so it is some parent, and joining x to the image of
  m's neighbors there gives the class back with x in the canonical orbit.
* Only one parent makes it: two kept children that are isomorphic are
  isomorphic by a map taking x to x, so their parents are isomorphic too.
  Parents are pairwise non-isomorphic, so they are the same parent, and
  the two children differ by one of its automorphisms.  A key dictionary
  per parent removes those; no dictionary spans a level.

Most children fail on the cheap tests (a removable vertex in a later
class, or with a smaller neighbor sum) before any search.  Survivors get
one search, which yields both the key and the relabelling; only when
other removable vertices tie with x is orbit membership tested, by
individualising x and the last tied vertex and comparing their codes.
Graphs are handled as adjacency-mask tuples; a ``Graph`` is built once
per kept class, when its level is yielded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import Iterator

from .graphs import Graph, is_connected

_HARD_MAX_N = 12


class LimitExceededError(ValueError):
    """Exhaustive enumeration is capped at 12 vertices in-library."""


@dataclass(frozen=True)
class EnumerationConfig:
    max_n: int

    def __post_init__(self):
        if self.max_n < 1:
            raise ValueError(f"max_n must be >= 1, got {self.max_n}")
        if self.max_n > _HARD_MAX_N:
            raise LimitExceededError(
                f"max_n={self.max_n} exceeds the in-library cap of {_HARD_MAX_N}; "
                "feed an external graph6 corpus for larger sweeps"
            )


def _bits(m: int) -> Iterator[int]:
    """The indices of the set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _invariants(masks) -> tuple[list[int], int]:
    """Per vertex, (degree, neighbor degrees sorted descending) packed into
    one int that orders like the tuple; plus the maximum degree D.

    With field width w > D (``_width``), bits w*(d-1).. count the neighbors
    of degree d and bits w*D.. hold the degree.  Tuples of equal degree
    have equal length, and sorted sequences of equal length compare like
    their counts taken from the largest entry down.
    """
    degs = [m.bit_count() for m in masks]
    top = max(degs, default=0)
    w = _width(top)
    of_degree = [0] * (top + 1)
    for v, d in enumerate(degs):
        of_degree[d] |= 1 << v
    inv = []
    for v, m in enumerate(masks):
        s = degs[v]
        for d in range(top, 0, -1):
            s = (s << w) | (m & of_degree[d]).bit_count()
        inv.append(s)
    return inv, top


def _width(top: int) -> int:
    return max(1, top.bit_length())


def _unpack(key: int, top: int) -> tuple[int, tuple[int, ...]]:
    """The (degree, sorted neighbor degrees) tuple packed in ``key``."""
    w = _width(top)
    nbrs: list[int] = []
    for d in range(top, 0, -1):
        nbrs += [d] * ((key >> (w * (d - 1))) & ((1 << w) - 1))
    return key >> (w * top), tuple(nbrs)


def _vertex_classes(inv: list[int]) -> list[int]:
    """Class index per vertex: rank of its invariant, densest class first."""
    index = {key: i for i, key in enumerate(sorted(set(inv), reverse=True))}
    return [index[key] for key in inv]


def _canonical_order(masks, cls: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One vertex ordering achieving the canonical code under the vertex
    classes ``cls``, plus the code.

    The code is the lexicographically greatest sequence of adjacency
    chunks (position i: the adjacency of the i-th vertex to the earlier
    ones, first vertex most significant) over all orderings that list the
    vertices class by class.  Level-wise search: at each position keep
    every partial ordering that attains the maximal next chunk; states in
    which every unplaced vertex sees the same prefix pattern are merged,
    since their futures are interchangeable.  Exact, not heuristic.

    A state carries, per vertex, its adjacency to the placed vertices with
    position p at bit n-1-p (-1 once the vertex is placed), so a chunk is
    read off in O(1) and placing a vertex touches only its neighbors.
    """
    n = len(masks)
    nbrs = [list(_bits(m)) for m in masks]
    members: dict[int, list[int]] = {}
    for v in range(n):
        members.setdefault(cls[v], []).append(v)

    frontier: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), (0,) * n)]
    code: list[int] = []
    for pos, want in enumerate(sorted(cls)):
        candidates = members[want]
        best = 0
        winners: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
        for placed, seen in frontier:
            for v in candidates:
                chunk = seen[v]
                if chunk < best:
                    continue
                if chunk > best:
                    best = chunk
                    winners = []
                winners.append((placed, seen, v))
        code.append(best >> (n - pos))
        bit = 1 << (n - 1 - pos)
        merged: dict[tuple[int, ...], tuple[int, ...]] = {}
        for placed, seen, v in winners:
            nxt = list(seen)
            nxt[v] = -1
            for u in nbrs[v]:
                if nxt[u] >= 0:
                    nxt[u] |= bit
            key = tuple(nxt)
            if key not in merged:
                merged[key] = placed + (v,)
        frontier = [(placed, seen) for seen, placed in merged.items()]
    return frontier[0][0], tuple(code)


def canonical_key(g: Graph):
    """Hashable complete isomorphism invariant."""
    masks = g.adjacency_masks()
    inv, top = _invariants(masks)
    _, code = _canonical_order(masks, _vertex_classes(inv))
    return _key(inv, top, code)


def canonical_form(g: Graph) -> Graph:
    """The canonically labeled representative of g's isomorphism class."""
    masks = g.adjacency_masks()
    order, _ = _canonical_order(masks, _vertex_classes(_invariants(masks)[0]))
    return _graph(_relabelled(masks, order))


def _key(inv: list[int], top: int, code: tuple[int, ...]):
    """(n, profile, code); the profile lists every vertex's (degree, sorted
    neighbor degrees), largest first."""
    unpacked = {key: _unpack(key, top) for key in set(inv)}
    return (len(inv), tuple(unpacked[key] for key in sorted(inv, reverse=True)), code)


def _relabelled(masks, order: tuple[int, ...]) -> tuple[int, ...]:
    """The adjacency masks with ``order[i]`` renamed to i."""
    position = [0] * len(order)
    for pos, v in enumerate(order):
        position[v] = pos
    out = [0] * len(order)
    for v, m in enumerate(masks):
        out[position[v]] = sum(1 << position[u] for u in _bits(m))
    return tuple(out)


def _graph(masks: tuple[int, ...]) -> Graph:
    n = len(masks)
    return Graph(n, ((u, v) for v in range(n) for u in range(v) if masks[v] >> u & 1))


def _removable(masks, v: int) -> bool:
    """Deleting v leaves the (connected) graph connected."""
    if masks[v] & (masks[v] - 1) == 0:
        return True  # a leaf
    rest = ((1 << len(masks)) - 1) & ~(1 << v)
    seen = reach = rest & -rest
    while reach:
        nxt = 0
        while reach:
            low = reach & -reach
            nxt |= masks[low.bit_length() - 1]
            reach ^= low
        reach = nxt & rest & ~seen
        seen |= reach
    return seen == rest


def _individualised_code(masks, cls: list[int], v: int) -> tuple[int, ...]:
    """Canonical code with v moved into a class of its own, placed first:
    equal for two vertices exactly when an automorphism maps one onto the
    other."""
    own = [c + 1 for c in cls]
    own[v] = 0
    return _canonical_order(masks, own)[1]


def _canonical_child(masks: list[int]):
    """(canonical key, canonical masks) of a child whose new vertex x is
    the last one, or None unless x lies in the canonical orbit.

    The canonical orbit holds, among the removable vertices with the
    smallest invariant (the latest class) and then the smallest sum of
    neighbor invariants, the one that comes last in the canonical order.
    A removable vertex below x on either count rejects the child before
    any search.
    """
    x = len(masks) - 1
    inv, top = _invariants(masks)
    ix = inv[x]
    for v in range(x):
        if inv[v] < ix and _removable(masks, v):
            return None
    tied = [v for v in range(x) if inv[v] == ix and _removable(masks, v)]
    if tied:
        near = {v: sum(inv[u] for u in _bits(masks[v])) for v in tied + [x]}
        if any(near[v] < near[x] for v in tied):
            return None
        tied = [v for v in tied if near[v] == near[x]]
    cls = _vertex_classes(inv)
    order, code = _canonical_order(masks, cls)
    if tied:
        last = max(tied + [x], key=order.index)
        if last != x and _individualised_code(masks, cls, x) != _individualised_code(
            masks, cls, last
        ):
            return None
    return _key(inv, top, code), _relabelled(masks, order)


def _children(parent: tuple[int, ...]) -> Iterator[list[int]]:
    """All ways to join one new vertex to 1..3 vertices of degree < 3."""
    x = len(parent)
    spots = [v for v, m in enumerate(parent) if m.bit_count() < 3]
    for size in (1, 2, 3):
        for joined in combinations(spots, size):
            masks = list(parent)
            for v in joined:
                masks[v] |= 1 << x
            masks.append(sum(1 << v for v in joined))
            yield masks


def _connected_levels(max_n: int) -> Iterator[list[Graph]]:
    """Connected subcubic graphs grouped by vertex count, canonical labels,
    each level sorted by canonical key."""
    yield [Graph(1)]
    parents: list[tuple[int, ...]] = [(0,)]
    for _ in range(2, max_n + 1):
        level = []
        for parent in parents:
            # Isomorphic kept children of one parent differ by one of its
            # automorphisms; no other parent can produce them.
            found: dict = {}
            for masks in _children(parent):
                kept = _canonical_child(masks)
                if kept is not None:
                    key, canonical = kept
                    found.setdefault(key, canonical)
            level.extend(found.items())
        level.sort(key=itemgetter(0))
        parents = [masks for _, masks in level]
        yield [_graph(masks) for masks in parents]


def enumerate_subcubic(cfg: EnumerationConfig) -> Iterator[Graph]:
    """Every connected subcubic graph on <= max_n vertices, exactly once up
    to isomorphism, smallest order first.

    Disconnected graphs are left out: the per-component bounds add up over
    components, so the connected classes decide them.
    """
    for level in _connected_levels(cfg.max_n):
        yield from level


def random_subcubic(n: int, seed: int) -> Graph:
    """A seeded pseudorandom connected subcubic graph on n vertices.

    Degree-capped random edge insertion, rejecting disconnected draws;
    falls back to a random degree-capped spanning tree plus extra edges
    if rejection keeps failing.  Deterministic per (n, seed); makes no
    uniformity claim.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = random.Random(seed)
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(200):
        pairs = all_pairs[:]
        rng.shuffle(pairs)
        target = rng.randint(max(1, n - 1), max(1, (3 * n) // 2))
        deg = [0] * n
        edges = []
        for u, v in pairs:
            if len(edges) >= target:
                break
            if deg[u] < 3 and deg[v] < 3:
                edges.append((u, v))
                deg[u] += 1
                deg[v] += 1
        g = Graph(n, edges)
        if is_connected(g):
            return g
    # Guaranteed-connected fallback: a tree always has a vertex of
    # degree < 3 to attach to.
    order = list(range(1, n))
    rng.shuffle(order)
    deg = [0] * n
    edges = []
    attached = [0]
    for v in order:
        u = rng.choice([w for w in attached if deg[w] < 3])
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
        attached.append(v)
    extras = [
        (u, v) for u, v in all_pairs if (u, v) not in set(map(tuple, map(sorted, edges)))
    ]
    rng.shuffle(extras)
    for u, v in extras[: n // 2]:
        if deg[u] < 3 and deg[v] < 3:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(n, edges)
