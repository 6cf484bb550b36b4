"""Exhaustive generation of subcubic graphs up to isomorphism, and a
seeded random subcubic graph sampler for stress tests.

Isomorph rejection uses an exact canonical code: the lexicographically
greatest adjacency bitstring over all vertex orderings that respect an
invariant-based stratification (degree, then sorted neighbor degrees).
The stratification is isomorphism-invariant, so equal codes mean equal
graphs up to isomorphism, and the dense-first ordering keeps the search
frontier tiny on sparse graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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


def _vertex_classes(n: int, masks: list[int]) -> tuple[list[int], list]:
    """Stratify vertices by (degree, sorted neighbor degrees), densest
    class first.  Returns (class index per vertex, sorted class keys)."""
    degs = [bin(m).count("1") for m in masks]
    inv = []
    for v in range(n):
        nbr = []
        m = masks[v]
        while m:
            low = m & -m
            nbr.append(degs[low.bit_length() - 1])
            m ^= low
        inv.append((degs[v], tuple(sorted(nbr, reverse=True))))
    keys = sorted(set(inv), reverse=True)
    index = {key: i for i, key in enumerate(keys)}
    return [index[iv] for iv in inv], keys


def _canonical_order(n: int, masks: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One vertex ordering achieving the canonical code, plus the code.

    Level-wise search: at each position keep every partial ordering that
    attains the maximal next adjacency chunk; prefix-equivalent states are
    merged.  Exact, not heuristic.
    """
    if n == 0:
        return (), ()
    cls, _ = _vertex_classes(n, masks)
    order_of_class = sorted(range(n), key=lambda v: cls[v])
    class_seq = [cls[v] for v in order_of_class]

    frontier: list[tuple[tuple[int, ...], int]] = [((), 0)]
    code: list[int] = []
    for pos in range(n):
        want = class_seq[pos]
        best = -1
        extended: list[tuple[tuple[int, ...], int]] = []
        for placed, used in frontier:
            for v in range(n):
                if cls[v] != want or (used >> v) & 1:
                    continue
                mv = masks[v]
                chunk = 0
                for u in placed:
                    chunk = (chunk << 1) | ((mv >> u) & 1)
                if chunk > best:
                    best = chunk
                    extended = [(placed + (v,), used | (1 << v))]
                elif chunk == best:
                    extended.append((placed + (v,), used | (1 << v)))
        code.append(best)
        if len(extended) > 1:
            # Merge states whose remaining vertices all see the same
            # prefix pattern; their futures are interchangeable.
            seen: dict[tuple, tuple[tuple[int, ...], int]] = {}
            for placed, used in extended:
                sig_parts = [used]
                for v in range(n):
                    if (used >> v) & 1:
                        continue
                    mv = masks[v]
                    patt = 0
                    for u in placed:
                        patt = (patt << 1) | ((mv >> u) & 1)
                    sig_parts.append(patt)
                seen.setdefault(tuple(sig_parts), (placed, used))
            extended = list(seen.values())
        frontier = extended
    return frontier[0][0], tuple(code)


def canonical_key(g: Graph):
    """Hashable complete isomorphism invariant."""
    masks = g.adjacency_masks()
    cls, keys = _vertex_classes(g.n, masks)
    _, code = _canonical_order(g.n, masks)
    profile = tuple(sorted((keys[c] for c in cls), reverse=True))
    return (g.n, profile, code)


def canonical_form(g: Graph) -> Graph:
    """The canonically labeled representative of g's isomorphism class."""
    masks = g.adjacency_masks()
    order, _ = _canonical_order(g.n, masks)
    position = [0] * g.n
    for pos, v in enumerate(order):
        position[v] = pos
    return g.relabel(position)


def _augmentations(parent: Graph) -> Iterator[Graph]:
    """All ways to join one new vertex to 1..3 vertices of degree < 3."""
    n = parent.n
    spots = [v for v in range(n) if parent.degree(v) < 3]
    base = list(parent.edges)
    k = len(spots)
    for i in range(k):
        yield Graph(n + 1, base + [(spots[i], n)])
        for j in range(i + 1, k):
            yield Graph(n + 1, base + [(spots[i], n), (spots[j], n)])
            for l in range(j + 1, k):
                yield Graph(
                    n + 1, base + [(spots[i], n), (spots[j], n), (spots[l], n)]
                )


def _connected_levels(max_n: int) -> Iterator[list[Graph]]:
    """Connected subcubic graphs grouped by vertex count, canonical labels.

    Every connected graph has a vertex whose removal keeps it connected,
    so augmenting each (n-1)-vertex class by one new vertex reaches every
    n-vertex class.
    """
    level = [Graph(1)]
    yield level
    for _ in range(2, max_n + 1):
        found: dict = {}
        for parent in level:
            for child in _augmentations(parent):
                key = canonical_key(child)
                if key not in found:
                    found[key] = canonical_form(child)
        level = [found[key] for key in sorted(found)]
        yield level


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
