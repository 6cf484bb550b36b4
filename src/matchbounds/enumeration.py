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

Most children fail on cheap tests before any search.  Classes are ordered
by degree first, so a removable vertex of smaller degree than x puts x
outside the latest class and rejects the child.  Each test is an exact
consequence of the rule above, so the kept set and labels do not depend
on them.

* Degree rule, before a child is built.  Let x join k vertices.  A
  vertex removable in the parent stays removable in the child if x has
  another neighbor: deleting it leaves the connected rest of the parent
  with x attached.  So every removable parent vertex of degree < k must
  be joined, and reach degree k by it; other joins are never built.  For
  k = 2 every leaf of the parent is joined; for k = 3 the parent has no
  leaf and every removable vertex of degree 2 is joined.
* Then a removable vertex in a later class than x, or in x's class with
  a smaller neighbor sum, rejects the child.

Survivors get one search, which yields both the key and the relabelling;
only when other removable vertices tie with x is orbit membership
tested, by individualising x and the last tied vertex and comparing
their codes.

Per-parent state.  The enumerator holds every graph in one form, the
adjacency tuple that ``Graph._adj`` stores: per vertex, its neighbors as
a sorted tuple.  Levels hold (key, adjacency) pairs, a parent's neighbor
lists are its adjacency as it stands, and each kept class is yielded as
a ``Graph`` with no conversion.  A parent's packed invariants are
computed once.  A child differs from its parent only at x, at the k
vertices it joins and at their neighbors, so its lists and invariants
are copies of the parent's, patched there.  ``_invariants`` packs every
subcubic graph in one layout, D = 3 and w = 2: a vertex of degree d is
``(d << 6) + sum(W[deg u])`` over its neighbors u, with W = (0, 1, 4,
16).  Joining v of parent degree d adds ``(1 << 6) + W[k]`` to v and
``W[d + 1] - W[d]`` to each parent neighbor of v; x gets ``(k << 6) +
sum(W[d + 1])`` over the joined v.  Every generated graph has degree at
most 3, so each 2-bit field counts at most 3 neighbors and the degree
sits above the fields: the ints order like the (degree, sorted neighbor
degrees) tuples.  So the generation key, (invariants sorted descending,
code), sorts and splits a level exactly as ``canonical_key`` does, with
no unpacking; ``canonical_key`` keeps the tuples, since it accepts any
degree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import Iterator

from .graphs import Graph

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


def _invariants(nbrs) -> tuple[list[int], int]:
    """Per vertex of the graph with neighbor lists ``nbrs``, (degree,
    neighbor degrees sorted descending) packed into one int that orders
    like the tuple; plus D, the maximum degree or 3 if that is larger.

    With field width w > D (``_width``), bits w*(d-1).. count the neighbors
    of degree d and bits w*D.. hold the degree.  Tuples of equal degree
    have equal length, and sorted sequences of equal length compare like
    their counts taken from the largest entry down.  Every subcubic graph
    gets the one layout D = 3, w = 2 that generation patches (``_W``).
    """
    degs = [len(vs) for vs in nbrs]
    top = max([3, *degs])
    w = _width(top)
    weight = [0] + [1 << (w * (d - 1)) for d in range(1, top + 1)]
    inv = [
        (d << (w * top)) + sum(weight[degs[u]] for u in vs) for d, vs in zip(degs, nbrs)
    ]
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


def _canonical_order(nbrs, cls: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One vertex ordering achieving the canonical code under the vertex
    classes ``cls``, plus the code, for the graph with neighbor lists
    ``nbrs``.

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
    n = len(nbrs)
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
    """Hashable complete isomorphism invariant: (n, profile, code), where
    the profile lists every vertex's (degree, sorted neighbor degrees),
    largest first."""
    inv, top = _invariants(g._adj)
    _, code = _canonical_order(g._adj, _vertex_classes(inv))
    unpacked = {key: _unpack(key, top) for key in set(inv)}
    return (g.n, tuple(unpacked[key] for key in sorted(inv, reverse=True)), code)


def canonical_form(g: Graph) -> Graph:
    """The canonically labeled representative of g's isomorphism class."""
    cls = _vertex_classes(_invariants(g._adj)[0])
    order, _ = _canonical_order(g._adj, cls)
    return Graph._from_adjacency(_relabelled(g._adj, order))


def _relabelled(nbrs, order: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The adjacency tuple, with sorted neighbor tuples as ``Graph._adj``
    holds them, of the graph with neighbor lists ``nbrs`` and ``order[i]``
    renamed to i."""
    position = [0] * len(order)
    for pos, v in enumerate(order):
        position[v] = pos
    return tuple([tuple(sorted([position[u] for u in nbrs[v]])) for v in order])


def _removable(nbrs, v: int) -> bool:
    """Deleting v leaves the (connected) graph with neighbor lists
    ``nbrs`` connected."""
    if len(nbrs[v]) <= 1:
        return True  # a leaf, or the one vertex of a single-vertex graph
    start = nbrs[v][0]
    seen = [False] * len(nbrs)
    seen[v] = seen[start] = True
    left = len(nbrs) - 2
    stack = [start]
    while stack:
        for u in nbrs[stack.pop()]:
            if not seen[u]:
                seen[u] = True
                left -= 1
                stack.append(u)
    return left == 0


def _individualised_code(nbrs, cls: list[int], v: int) -> tuple[int, ...]:
    """Canonical code with v moved into a class of its own, placed first:
    equal for two vertices exactly when an automorphism maps one onto the
    other."""
    own = [c + 1 for c in cls]
    own[v] = 0
    return _canonical_order(nbrs, own)[1]


# What one neighbor of degree d adds to a packed invariant in the layout
# D = 3, w = 2 of ``_invariants``: bits 2*(d-1).. count degree-d neighbors.
_W = (0, 1, 4, 16)


def _child_state(parent, inv: list[int], joined: tuple[int, ...]):
    """Neighbor lists and packed invariants of the child that joins a new
    vertex x to ``joined``, patched from the parent's adjacency and
    invariants ``inv``: only x, the joined vertices and their neighbors
    change.  x's list is ``joined`` as it is; every other list stays
    sorted."""
    x = len(parent)
    k = len(joined)
    nbrs = list(parent)
    c_inv = inv[:]
    ix = k << 6
    for v in joined:
        d = len(parent[v])
        nbrs[v] = parent[v] + (x,)
        c_inv[v] += (1 << 6) + _W[k]
        step = _W[d + 1] - _W[d]
        for u in parent[v]:
            c_inv[u] += step
        ix += _W[d + 1]
    nbrs.append(joined)
    c_inv.append(ix)
    return nbrs, c_inv


def _canonical_child(nbrs, inv: list[int]):
    """(generation key, canonical order) of a child whose new vertex x is
    the last one, or None unless x lies in the canonical orbit.

    The canonical orbit holds, among the removable vertices with the
    smallest invariant (the latest class) and then the smallest sum of
    neighbor invariants, the one that comes last in the canonical order.
    A removable vertex below x on either count rejects the child before
    any search.  The key is (invariants sorted descending, code): within
    a level it sorts and splits like ``canonical_key``.
    """
    x = len(nbrs) - 1
    ix = inv[x]
    for v in range(x):
        if inv[v] < ix and _removable(nbrs, v):
            return None
    tied = [v for v in range(x) if inv[v] == ix and _removable(nbrs, v)]
    if tied:
        near = {v: sum(inv[u] for u in nbrs[v]) for v in tied + [x]}
        if any(near[v] < near[x] for v in tied):
            return None
        tied = [v for v in tied if near[v] == near[x]]
    cls = _vertex_classes(inv)
    order, code = _canonical_order(nbrs, cls)
    if tied:
        last = max(tied + [x], key=order.index)
        if last != x and _individualised_code(nbrs, cls, x) != _individualised_code(
            nbrs, cls, last
        ):
            return None
    return (tuple(sorted(inv, reverse=True)), code), order


def _children(parent) -> Iterator[tuple[int, ...]]:
    """The ways to join one new vertex to k = 1..3 vertices of degree < 3
    that the degree rule allows, as tuples of the joined vertices: the join
    holds every vertex of degree < k that is removable in the parent, and
    each of those has degree >= k - 1."""
    spots = [v for v, vs in enumerate(parent) if len(vs) < 3]
    removable = [v for v in spots if _removable(parent, v)]
    for k in (1, 2, 3):
        must = tuple(v for v in removable if len(parent[v]) < k)
        if len(must) > k or any(len(parent[v]) < k - 1 for v in must):
            continue
        free = [v for v in spots if v not in must]
        for rest in combinations(free, k - len(must)):
            yield must + rest


def _kept_children(parent) -> dict:
    """Canonical adjacency tuples of the kept children of one parent, by
    key.

    Isomorphic kept children of one parent differ by one of its
    automorphisms, and no other parent can produce them, so a key seen
    before needs no relabelling.
    """
    inv = _invariants(parent)[0]
    found: dict = {}
    for joined in _children(parent):
        nbrs, c_inv = _child_state(parent, inv, joined)
        kept = _canonical_child(nbrs, c_inv)
        if kept is not None and kept[0] not in found:
            key, order = kept
            found[key] = _relabelled(nbrs, order)
    return found


def _connected_levels(max_n: int) -> Iterator[list[Graph]]:
    """Connected subcubic graphs grouped by vertex count, canonical labels,
    each level sorted by canonical key."""
    parents: list[tuple[tuple[int, ...], ...]] = [((),)]
    yield [Graph._from_adjacency(parents[0])]
    for _ in range(2, max_n + 1):
        level = []
        for parent in parents:
            level.extend(_kept_children(parent).items())
        level.sort(key=itemgetter(0))
        parents = [adj for _, adj in level]
        yield [Graph._from_adjacency(adj) for adj in parents]


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

    A random spanning tree with degrees capped at 3, grown in a shuffled
    vertex order by joining each new vertex to a random tree vertex of
    degree < 3, so the draw is connected by construction.  Then an edge
    target m is drawn from n - 1..3n // 2, and shuffled free stubs (3 - deg
    per vertex) are paired until there are m edges, dropping any pair that
    would make a loop or a parallel edge.  O(n + m) time and memory;
    deterministic per (n, seed); makes no uniformity claim.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    adj: list[list[int]] = [[] for _ in range(n)]
    open_ = [order[0]]  # tree vertices of degree < 3
    for v in order[1:]:
        i = rng.randrange(len(open_))
        u = open_[i]
        adj[u].append(v)
        adj[v].append(u)
        if len(adj[u]) == 3:
            open_[i] = open_[-1]
            open_.pop()
        open_.append(v)
    extra = rng.randint(n - 1, 3 * n // 2) - (n - 1)  # the tree has n - 1 edges
    stubs = [v for v in range(n) for _ in range(3 - len(adj[v]))]
    rng.shuffle(stubs)
    for u, v in zip(stubs[::2], stubs[1::2]):
        if extra == 0:
            break
        if u != v and v not in adj[u]:
            adj[u].append(v)
            adj[v].append(u)
            extra -= 1
    return Graph(n, ((u, v) for u in range(n) for v in adj[u] if u < v))
