"""Exhaustive generation of subcubic graphs up to isomorphism, and a
seeded random subcubic graph sampler for stress tests.

Canonical labels.  The canonical code of a graph is the lexicographically
greatest adjacency bitstring over all vertex orderings that list the
vertices class by class, densest class first, where a vertex's class is
its (degree, sorted neighbor degrees), packed into one int.  The classes are
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

Survivors get one search, which yields the key, the relabelling and the
automorphisms; when other removable vertices tie with x, x must share an
orbit with the last of them.

Automorphisms from the search.  ``_canonical_order`` merges two frontier
states with equal ``seen`` tuples.  Both order the same placed set with
the same code prefix, and every unplaced vertex sees the same positions
in both, so the map taking one onto the other position by position, and
fixing every unplaced vertex, keeps adjacency and classes: it is an
automorphism.  These merge maps generate Aut(G).  By induction over the
positions, an ordering that attains the code prefix is mapped onto the
kept state with its ``seen`` tuple by a product of merge maps: extend
both by the same vertex v, which that product fixes, and follow with the
merge of the extended state, if it was merged.  The last position leaves
one state, the returned order, and every ordering that attains the code;
so for an automorphism a, the product taking a(order) onto order is a^-1.

The two uses need different parts of the group.  The tie test asks
whether x and the last tied vertex share an orbit of Aut(G); a subgroup
can split that orbit and reject a child the rule keeps, losing its
class.  So ``_orbits`` joins vertices over every merge.  Join pruning
needs only a subgroup: joins that an automorphism of the parent maps
onto each other give isomorphic children, so one join per orbit of any
subgroup loses no class, and the key dictionary drops a duplicate that
is left.  A class that will be a parent keeps only the merges that
joined two vertex orbits, at most n - 1, as permutations of its
canonical labels (bytes); the last level keeps none.

Per-parent state.  The enumerator holds every graph in one form, the
adjacency tuple that ``Graph._adj`` stores: per vertex, its neighbors as
a sorted tuple.  Levels hold (adjacency, generators) pairs sorted by
key, a parent's neighbor lists are its adjacency as it stands, and each
kept class is yielded as a ``Graph`` with no conversion.  One table per
sweep interns the neighbor tuples of every kept class (``_relabelled``),
so a level holds pointers to shared rows, not copies: level 11's 60 764
rows hold 227 distinct values, and n <= 12 has 296 in all.  A parent's
packed invariants are computed once.  A child differs from its parent
only at x, at the k vertices it joins and at their neighbors, so its
lists and invariants are copies of the parent's, patched there.  A
vertex of degree d packs to ``(d << 6) + sum(W[deg u])`` over its
neighbors u, with W = (0, 1, 4, 16) (``_invariants``).  Joining v of
parent degree d adds ``(1 << 6) + W[k]`` to v and ``W[d + 1] - W[d]`` to
each parent neighbor of v; x gets ``(k << 6) + sum(W[d + 1])`` over the
joined v.  The packed int is the vertex's class, and the ints order like
the (degree, sorted neighbor degrees) tuples.  The generation key is
flat: the invariants sorted descending as ``bytes`` (each is at most
240), then the code as one int, chunk after chunk in n-bit fields, the
first chunk most significant (a chunk is below 2^(n-1)).  Every key on
a level has n invariants and n chunks, so the bytes compare like the
tuples of invariants and the int like the tuple of chunks: the key
sorts and splits a level exactly as ``canonical_key`` does.  The layout
holds for degree <= 3 only, so ``canonical_key`` and ``canonical_form``
reject other graphs.
"""

from __future__ import annotations

import random
from itertools import combinations
from operator import itemgetter
from typing import Iterator, NamedTuple

from .graphs import Graph, degree_profile

_HARD_MAX_N = 12


class LimitExceededError(ValueError):
    """Exhaustive enumeration is capped at 12 vertices in-library."""


class _EnumerationConfig(NamedTuple):
    max_n: int


class EnumerationConfig(_EnumerationConfig):
    """The sweep's largest order.  Every way of building one, ``_make`` and
    ``_replace`` included, goes through ``__new__``, which checks it."""

    __slots__ = ()

    def __new__(cls, max_n):
        if not isinstance(max_n, int) or isinstance(max_n, bool):
            raise ValueError(f"max_n must be an int, got {max_n!r}")
        if max_n < 1:
            raise ValueError(f"max_n must be >= 1, got {max_n}")
        if max_n > _HARD_MAX_N:
            raise LimitExceededError(
                f"max_n={max_n} exceeds the in-library cap of {_HARD_MAX_N}; "
                "feed an external graph6 corpus for larger sweeps"
            )
        return super().__new__(cls, max_n)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# What one neighbor of degree d adds to a packed invariant (``_invariants``).
_W = (0, 1, 4, 16)


def _invariants(nbrs) -> list[int]:
    """Per vertex of the subcubic graph with neighbor lists ``nbrs``, its
    (degree, neighbor degrees sorted descending) packed into one int that
    orders like the tuple and serves as the vertex's class.  Bits 6.. hold
    the degree d, bits 2*(d-1).. count the neighbors of degree d: each
    field counts at most 3, tuples of equal degree have equal length, and
    sorted sequences of equal length compare like their counts taken from
    the largest entry down."""
    degs = [len(vs) for vs in nbrs]
    return [(d << 6) + sum(_W[degs[u]] for u in vs) for d, vs in zip(degs, nbrs)]


def _unpack(key: int) -> tuple[int, tuple[int, ...]]:
    """The (degree, sorted neighbor degrees) tuple packed in ``key``."""
    return key >> 6, tuple(d for d in (3, 2, 1) for _ in range(key >> 2 * (d - 1) & 3))


def _subcubic_invariants(g: Graph) -> list[int]:
    degree_profile(g)  # raises NotSubcubicError on a degree above 3
    return _invariants(g._adj)


def _canonical_order(
    nbrs, cls: list[int]
) -> tuple[tuple[int, ...], tuple[int, ...], list]:
    """One vertex ordering achieving the canonical code under the vertex
    classes ``cls`` (ints, largest class first), the code, and the merge
    maps of the search, for the graph with neighbor lists ``nbrs``.

    The code is the lexicographically greatest sequence of adjacency
    chunks (position i: the adjacency of the i-th vertex to the earlier
    ones, first vertex most significant) over all orderings that list the
    vertices class by class.  Level-wise search: at each position keep
    every partial ordering that attains the maximal next chunk; states in
    which every unplaced vertex sees the same prefix pattern are merged,
    since their futures are interchangeable.  Exact, not heuristic.

    Each merge is recorded as ``(placed, v, rep)``: the ordering
    ``placed + (v,)`` was merged into the kept ordering ``rep``.  Mapping
    one onto the other position by position, and fixing every unplaced
    vertex, is an automorphism, and these maps generate the automorphism
    group (module docstring).

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
    merges: list[tuple[tuple[int, ...], int, tuple[int, ...]]] = []
    for pos, want in enumerate(sorted(cls, reverse=True)):
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
            rep = merged.get(key)
            if rep is None:
                merged[key] = placed + (v,)
            else:
                merges.append((placed, v, rep))
        frontier = [(placed, seen) for seen, placed in merged.items()]
    return frontier[0][0], tuple(code), merges


def _orbits(n: int, merges) -> tuple[list[int], list]:
    """Union-find over the merge maps of one ``_canonical_order`` search on
    n vertices: per vertex the least vertex of its orbit under the group
    the maps generate, and the maps that joined two orbits when taken in
    order.  Those generate a subgroup with the same vertex orbits."""
    root = list(range(n))
    joining = []
    for placed, v, rep in merges:
        joined = False
        for a, b in zip(placed + (v,), rep):
            while root[a] != a:
                a = root[a]
            while root[b] != b:
                b = root[b]
            if a != b:
                root[max(a, b)] = min(a, b)
                joined = True
        if joined:
            joining.append((placed, v, rep))
    for v in range(n):
        root[v] = root[root[v]]  # roots are least, so one step finds each
    return root, joining


def canonical_key(g: Graph):
    """Hashable complete isomorphism invariant of a subcubic graph: (n,
    profile, code), where the profile lists every vertex's (degree, sorted
    neighbor degrees), largest first.  A vertex of degree > 3 raises
    ``NotSubcubicError``, as in ``degree_profile``."""
    inv = _subcubic_invariants(g)
    _, code, _ = _canonical_order(g._adj, inv)
    return (g.n, tuple(map(_unpack, sorted(inv, reverse=True))), code)


def canonical_form(g: Graph) -> Graph:
    """The canonically labeled representative of the subcubic graph g's
    class; a vertex of degree > 3 raises ``NotSubcubicError``, as in
    ``degree_profile``."""
    order, _, _ = _canonical_order(g._adj, _subcubic_invariants(g))
    return Graph._from_adjacency(_relabelled(g._adj, order, {}))


def _relabelled(nbrs, order: tuple[int, ...], rows: dict) -> tuple[tuple[int, ...], ...]:
    """The adjacency tuple, with sorted neighbor tuples as ``Graph._adj``
    holds them, of the graph with neighbor lists ``nbrs`` and ``order[i]``
    renamed to i.  Each neighbor tuple is the one ``rows`` holds for its
    value, added there when new, so equal rows share one object."""
    position = [0] * len(order)
    for pos, v in enumerate(order):
        position[v] = pos
    adj = [tuple(sorted([position[u] for u in nbrs[v]])) for v in order]
    return tuple(map(rows.setdefault, adj, adj))


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


def _canonical_child(nbrs, inv: list[int], keep_gens: bool):
    """(generation key, canonical order, generators) of a child whose new
    vertex x is the last one, or None unless x lies in the canonical orbit.

    The canonical orbit holds, among the removable vertices with the
    smallest invariant (the latest class) and then the smallest sum of
    neighbor invariants, the one that comes last in the canonical order.
    A removable vertex below x on either count rejects the child before
    any search.  The key is (invariants sorted descending, as bytes;
    code, as one int of n-bit chunks, first chunk most significant):
    within a level it sorts and splits like ``canonical_key`` (module
    docstring).  The orbits come from every merge of the search; the
    generators are the merges that joined two orbits (``_orbits``) with
    ``keep_gens``, else ().
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
    order, code, merges = _canonical_order(nbrs, inv)
    joining = ()
    if tied or keep_gens:
        root, joining = _orbits(x + 1, merges)
        if tied and root[max(tied + [x], key=order.index)] != root[x]:
            return None
    packed, n = 0, x + 1
    for chunk in code:
        packed = packed << n | chunk
    return (bytes(sorted(inv, reverse=True)), packed), order, joining if keep_gens else ()


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


def _relabelled_maps(order: tuple[int, ...], maps) -> tuple[bytes, ...]:
    """The merge maps ``maps`` of a search that found ``order``, as
    permutations of the canonical labels: byte i is the image of i."""
    position = [0] * len(order)
    for pos, v in enumerate(order):
        position[v] = pos
    images = []
    for placed, v, rep in maps:
        image = bytearray(range(len(order)))
        for a, b in zip(placed + (v,), rep):
            image[position[a]] = position[b]
        images.append(bytes(image))
    return tuple(images)


def _kept_children(parent, gens, keep_gens: bool, rows: dict) -> dict:
    """(canonical adjacency tuple, generators) of the kept children of one
    parent with automorphisms ``gens``, by key; generators only with
    ``keep_gens``.  Neighbor tuples are shared through ``rows``
    (``_relabelled``).

    Joins that ``gens`` map onto each other give isomorphic children, so
    one join per orbit of the group they generate is built.  Isomorphic
    kept children of one parent still differ by one of its automorphisms,
    and no other parent can produce them, so a key seen before needs no
    relabelling.
    """
    inv = _invariants(parent)
    found: dict = {}
    done: set[frozenset[int]] = set()
    for joined in _children(parent):
        join = frozenset(joined)
        if join in done:
            continue
        done.add(join)
        stack = [join]
        while stack:
            member = stack.pop()
            for g in gens:
                image = frozenset([g[v] for v in member])
                if image not in done:
                    done.add(image)
                    stack.append(image)
        nbrs, c_inv = _child_state(parent, inv, joined)
        kept = _canonical_child(nbrs, c_inv, keep_gens)
        if kept is not None and kept[0] not in found:
            key, order, joining = kept
            found[key] = (_relabelled(nbrs, order, rows), _relabelled_maps(order, joining))
    return found


def _next_level(parents, keep_gens: bool, rows: dict) -> list:
    """The classes one vertex larger than ``parents``, as (canonical
    adjacency, generators) pairs like ``parents``, sorted by generation
    key; generators are kept only with ``keep_gens``, and neighbor tuples
    are shared through ``rows`` (``_relabelled``)."""
    level = []
    for adj, gens in parents:
        level.extend(_kept_children(adj, gens, keep_gens, rows).items())
    level.sort(key=itemgetter(0))
    return [kept for _, kept in level]


def _connected_levels(max_n: int) -> Iterator[list[Graph]]:
    """Connected subcubic graphs grouped by vertex count, canonical labels,
    each level sorted by canonical key.  The last level keeps no
    generators.  One table of neighbor tuples serves the whole sweep, so
    equal rows are one object; it is local to the sweep, so nothing
    outlives it."""
    rows: dict = {}
    parents: list = [(((),), ())]
    yield [Graph._from_adjacency(((),))]
    for n in range(2, max_n + 1):
        parents = _next_level(parents, n < max_n, rows)
        yield [Graph._from_adjacency(adj) for adj, _ in parents]


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
