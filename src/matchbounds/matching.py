"""Exact maximum matching: blossom algorithm plus a brute-force oracle.

``max_matching`` implements Edmonds' blossom contraction and is the
workhorse; ``brute_force_nu`` is an independent branch-and-bound used to
cross-validate it.  Both are deterministic: vertices and adjacency are
always processed in index order.
"""

from __future__ import annotations

from collections import deque
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


def _matching_array(g: Graph) -> list[int]:
    """Maximum matching as a mate array (mate[v] == -1 for exposed v)."""
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

    parent = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        x = base[a]
        while True:
            seen[x] = True
            if mate[x] == -1:
                break
            x = base[parent[mate[x]]]
        y = base[b]
        while not seen[y]:
            y = base[parent[mate[y]]]
        return y

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def find_augmenting(root: int) -> int:
        for i in range(n):
            parent[i] = -1
            base[i] = i
        used = [False] * n
        used[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if base[u] == base[v] or mate[u] == v:
                    continue
                if v == root or (mate[v] != -1 and parent[mate[v]] != -1):
                    # Even-to-even edge closes an odd cycle: contract it.
                    cur = lca(u, v)
                    in_blossom = [False] * n
                    mark_path(u, cur, v, in_blossom)
                    mark_path(v, cur, u, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[v] == -1:
                    parent[v] = u
                    if mate[v] == -1:
                        return v
                    used[mate[v]] = True
                    queue.append(mate[v])
        return -1

    for root in range(n):
        if mate[root] != -1:
            continue
        v = find_augmenting(root)
        while v != -1:
            pv = parent[v]
            ppv = mate[pv]
            mate[v] = pv
            mate[pv] = v
            v = ppv
    return mate


def max_matching(g: Graph) -> Matching:
    """A maximum matching of ``g`` (deterministic for a fixed input)."""
    mate = _matching_array(g)
    edges = frozenset(
        (u, mate[u]) for u in range(g.n) if mate[u] > u
    )
    m = Matching(edges)
    if not m.edges <= g.edges:
        raise RuntimeError("matching uses non-edges")
    return m


def nu(g: Graph) -> int:
    """The matching number of ``g``."""
    mate = _matching_array(g)
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

    Also called factor-critical.  Requires odd order; the empty graph is
    not hypomatchable.
    """
    if g.n % 2 == 0 or g.n == 0:
        return False
    for v in range(g.n):
        rest, _ = g.without_vertex(v)
        if not has_perfect_matching(rest):
            return False
    return True
