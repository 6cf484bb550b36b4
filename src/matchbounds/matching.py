"""Exact maximum matching: blossom algorithm plus a brute-force oracle.

``max_matching`` implements Edmonds' blossom contraction and is the
workhorse.  One alternating-forest search (``_Forest``) serves
``max_matching``, ``nu``, ``has_perfect_matching``, ``is_hypomatchable``
and the Gallai-Edmonds decomposition: grown from one exposed root it
finds an augmenting path or proves none starts there.  A search costs
what it touches, never a pass over all n vertices, and a failed
search's tree is skipped by all later ones.  Once every exposed vertex
of the final matching has been searched from, the even vertices of
those failed searches are the decomposition's A.  ``brute_force_nu`` is
an independent branch-and-bound used to cross-validate it.  Both are
deterministic: vertices and adjacency are always processed in index
order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph


class TooLargeError(ValueError):
    """Brute-force guard tripped (edge count above the hard limit)."""


_BRUTE_FORCE_EDGE_LIMIT = 40


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges."""

    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        seen: set[int] = set()
        for u, v in self.edges:
            if u in seen or v in seen or u == v:
                raise ValueError("matching edges are not vertex-disjoint")
            seen.add(u)
            seen.add(v)

    def __len__(self) -> int:
        return len(self.edges)


class _Forest:
    """Edmonds' alternating forest over the mate array ``mate``.

    The state arrays are allocated once and shared by every search. A
    search lists the vertices it labels, the even ones in ``queue`` (its
    BFS queue) and the odd ones in ``odd``, so that ``clear`` and
    ``prune`` cost what the search touched, not n. Each blossom base
    keeps the list of vertices it stands for (``members``; None means
    the base alone), so a contraction relabels only the blossoms on the
    cycle it closes. ``prune`` marks a failed search's tree dead: no
    augmenting path for this or any later matching of the run passes
    through a Hungarian tree, so later searches skip it. A dead tree
    keeps its ``even`` labels; ``clear`` resets every other label.
    """

    __slots__ = ("adj", "mate", "parent", "base", "even", "dead",
                 "members", "mark", "stamp", "queue", "odd")

    def __init__(self, adj: tuple[tuple[int, ...], ...], mate: list[int]):
        n = len(adj)
        self.adj = adj
        self.mate = mate
        self.parent = [-1] * n
        self.base = list(range(n))
        self.even = [False] * n
        self.dead = [False] * n
        self.members: list[list[int] | None] = [None] * n
        self.mark = [0] * n
        self.stamp = 0
        self.queue: list[int] = []
        self.odd: list[int] = []

    def grow(self, root: int) -> int:
        """Grow an alternating tree from the exposed ``root`` in BFS order.

        Returns an unlabelled exposed vertex as soon as one is reached: it
        ends an augmenting path from the root, which ``augment`` applies.
        Otherwise returns -1 once no edge extends the tree; ``queue`` then
        holds every even vertex, blossoms included.  Raises RuntimeError
        when an even vertex is adjacent to an even vertex of a dead tree:
        the two roots then end an augmenting path, so ``mate`` is not a
        maximum matching.
        """
        adj, mate, parent, base = self.adj, self.mate, self.parent, self.base
        even, dead, queue, odd = self.even, self.dead, self.queue, self.odd
        even[root] = True
        queue.append(root)
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in adj[u]:
                if dead[v]:
                    if even[v]:
                        raise RuntimeError("matching is not maximum")
                    continue
                if mate[u] == v or base[u] == base[v]:
                    continue
                if even[v]:
                    self._contract(u, v)
                elif parent[v] == -1:
                    parent[v] = u
                    odd.append(v)
                    w = mate[v]
                    if w == -1:
                        return v
                    even[w] = True
                    queue.append(w)
        return -1

    def _contract(self, u: int, v: int) -> None:
        """Shrink the odd cycle closed by the even-even edge (u, v) into the
        base of its top blossom."""
        mate, parent, base, mark = self.mate, self.parent, self.base, self.mark
        self.stamp += 1
        stamp = self.stamp
        x = base[u]
        while True:
            mark[x] = stamp
            if mate[x] == -1:
                break
            x = base[parent[mate[x]]]
        top = base[v]
        while mark[top] != stamp:
            top = base[parent[mate[top]]]
        # Re-point the parents along both halves of the cycle, so that an
        # augmenting path through the blossom can be walked back later.
        path_bases = []
        for x, child in ((u, v), (v, u)):
            while base[x] != top:
                m = mate[x]
                path_bases.append(base[x])
                path_bases.append(base[m])
                parent[x] = child
                child = m
                x = parent[m]
        even, members, queue = self.even, self.members, self.queue
        merged = members[top]
        if merged is None:
            merged = members[top] = [top]
        for b in path_bases:
            if base[b] == top:
                continue
            group = members[b]
            if group is None:
                group = (b,)
            else:
                members[b] = None
            for x in group:
                base[x] = top
                if not even[x]:
                    even[x] = True
                    queue.append(x)
            merged.extend(group)

    def augment(self, v: int) -> None:
        """Flip the augmenting path that ``grow`` ended at ``v``."""
        mate, parent = self.mate, self.parent
        while v != -1:
            pv = parent[v]
            ppv = mate[pv]
            mate[v] = pv
            mate[pv] = v
            v = ppv

    def clear(self) -> None:
        """Unlabel every vertex the last search touched."""
        parent, base, even, members = self.parent, self.base, self.even, self.members
        for x in self.queue:
            base[x] = x
            even[x] = False
            members[x] = None
            parent[x] = -1
        for x in self.odd:
            parent[x] = -1
        self.queue.clear()
        self.odd.clear()

    def prune(self) -> None:
        """Mark the tree of the last, failed search dead for good."""
        dead = self.dead
        for x in self.queue:
            dead[x] = True
        for x in self.odd:
            dead[x] = True
        self.queue.clear()
        self.odd.clear()


def _matching_array(g: Graph, every_root: bool = False) -> tuple[list[int], list[int]]:
    """Maximum matching as a mate array (mate[v] == -1 for exposed v),
    with the even vertices of its failed searches' Hungarian trees.

    Without ``every_root`` the run stops once one exposed vertex is left
    unsearched, since no augmenting path can start there, and the second
    list is empty.  With it, that last vertex is searched from too, so
    every exposed vertex of the final matching roots a dead tree.  Their
    even vertices, blossoms included, are then exactly the vertices that
    some maximum matching misses (Lovász & Plummer, *Matching Theory*,
    ch. 3).
    """
    n = g.n
    adj = g._adj
    mate = [-1] * n

    # Deterministic greedy seed keeps the number of augmentation phases low.
    for u in range(n):
        if mate[u] == -1:
            for v in adj[u]:
                if mate[v] == -1:
                    mate[u] = v
                    mate[v] = u
                    break

    exposed = [u for u in range(n) if mate[u] == -1]
    # An augmenting path joins two exposed vertices that no search has yet
    # failed from; ``unsearched`` counts those still exposed.
    unsearched = len(exposed)
    if unsearched < 2 and not every_root:
        return mate, []
    forest = _Forest(adj, mate)
    for root in exposed:
        if mate[root] != -1:
            continue
        unsearched -= 1
        if unsearched == 0 and not every_root:
            break
        v = forest.grow(root)
        if v == -1:
            forest.prune()
        else:
            forest.augment(v)
            forest.clear()
            unsearched -= 1
    if not every_root:
        return mate, []
    even = forest.even
    return mate, [v for v in range(n) if even[v]]


def max_matching(g: Graph) -> Matching:
    """A maximum matching of ``g`` (deterministic for a fixed input)."""
    mate, _ = _matching_array(g)
    edges = frozenset(
        (u, mate[u]) for u in range(g.n) if mate[u] > u
    )
    m = Matching(edges)
    if not m.edges <= g.edges:
        raise RuntimeError("matching uses non-edges")
    return m


def nu(g: Graph) -> int:
    """The matching number of ``g``."""
    mate, _ = _matching_array(g)
    return sum(1 for u in range(g.n) if mate[u] > u)


def brute_force_nu(g: Graph) -> int:
    """Exact matching number by branch-and-bound over edges.

    Independent of the blossom code path on purpose; guards against
    blow-up by refusing graphs with more than 40 edges.
    """
    m = len(g.edges)
    if m > _BRUTE_FORCE_EDGE_LIMIT:
        raise TooLargeError(
            f"{m} edges exceeds the brute-force limit of {_BRUTE_FORCE_EDGE_LIMIT}"
        )
    # Most-constrained first: edges with high endpoint degrees early.
    edges = sorted(
        g.edges,
        key=lambda e: (-(g.degree(e[0]) + g.degree(e[1])), e),
    )
    n = g.n
    best = 0
    # Greedy warm start tightens the bound from the first prune on.
    used0 = 0
    for u, v in edges:
        if not (used0 >> u & 1) and not (used0 >> v & 1):
            used0 |= (1 << u) | (1 << v)
            best += 1

    def rec(idx: int, used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        free = n - bin(used).count("1")
        remaining = m - idx
        if count + min(free // 2, remaining) <= best:
            return
        for i in range(idx, m):
            u, v = edges[i]
            if (used >> u & 1) or (used >> v & 1):
                continue
            rec(i + 1, used | (1 << u) | (1 << v), count + 1)
            # Excluding (u, v) is implicit: later iterations skip it.
            free = n - bin(used).count("1")
            if count + min(free // 2, m - i - 1) <= best:
                return
        return

    rec(0, 0, 0)
    return best


def has_perfect_matching(g: Graph) -> bool:
    """True iff a single matching covers every vertex."""
    return g.n % 2 == 0 and nu(g) == g.n // 2


def is_hypomatchable(g: Graph) -> bool:
    """True iff deleting any single vertex leaves a perfect matching.

    Also called factor-critical; the empty graph is not.  That holds iff
    the order is odd, a maximum matching misses exactly one vertex, and
    every vertex is even in the Hungarian tree grown from it.  Every
    maximum matching then misses exactly one vertex, and the even
    vertices are those that some maximum matching misses (Gallai's lemma;
    Lovász & Plummer, *Matching Theory*, ch. 3), so G - v has a perfect
    matching for every v.  A disconnected graph fails the one-miss test.
    """
    if g.n % 2 == 0:
        return False
    mate, even = _matching_array(g, every_root=True)
    return mate.count(-1) == 1 and len(even) == g.n
