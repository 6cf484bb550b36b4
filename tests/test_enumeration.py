"""Exhaustive generator: completeness against a labeled oracle,
duplicate-freeness, and the seeded random sampler."""

from __future__ import annotations

import gc
import hashlib
import random
import tracemalloc
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, factorial
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchbounds import enumeration
from matchbounds.enumeration import (
    EnumerationConfig,
    LimitExceededError,
    canonical_form,
    canonical_key,
    enumerate_subcubic,
    random_subcubic,
)
from matchbounds.graphs import (
    Graph,
    NotSubcubicError,
    degree_profile,
    emit_graph6,
)

from .conftest import relabel

# Class counts produced by the generator; n <= 6 are re-derived from the
# labeled oracle below, n = 7..11 by the orbit-stabilizer check, and n = 12
# is a regression pin.
EXPECTED_CONNECTED_COUNTS = {
    1: 1, 2: 1, 3: 2, 4: 6, 5: 10, 6: 29, 7: 64, 8: 194, 9: 531, 10: 1733,
    11: 5524, 12: 19430,
}
# Connected 3-regular graphs: K4; K33 and the prism; then 5, 19 and 85.
CUBIC_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85}
# Trees with maximum degree 3, a classic counting sequence.
TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 4, 7: 6, 8: 11, 9: 18, 10: 37, 11: 66, 12: 135,
}
# sha256 of the graph6 stream of every class with n <= 10, one per line:
# any change of labels or order has to be deliberate.
STREAM_SHA256_N10 = "930f627d002bb97435e5466692969bb664f7e8ca7f0a9a4072e09ce2f6c38429"
# sha256 of the graph6 lines of one whole level, for the orders past 10.
LEVEL_SHA256 = {
    11: "70304d81aa77ac2d5a283d90bf65ce93dc715eac3b88cd8a8c4f7a86dfa807b7",
    12: "16b2dfba425dbf95b860756a8a84c3096688db5f1f9d6f15e343d14ab3aa886a",
}
# sha256 of the graph6 lines of random_subcubic(n, seed) for these draws:
# the sampler's output per (n, seed) is a contract too.
SAMPLER_DRAWS = ((1, 0), (7, 3), (16, 1), (40, 11), (800, 0), (800, 1))
SAMPLER_SHA256 = "e75920a6e690147b9ffa20371e5ca33d9867f7fc954aa19802ed1e2574401e58"


def _swept(expected: dict[int, int], corpus: dict[int, list]) -> dict[int, int]:
    """The pinned values for the orders the corpus sweeps."""
    return {n: c for n, c in expected.items() if n <= max(corpus)}


def _labeled_connected_subcubic_classes(n: int) -> int:
    """Independent oracle: enumerate every labeled graph on n vertices,
    filter, and count isomorphism classes by minimum edge-bitmask over
    degree-preserving permutations."""
    pairs = list(combinations(range(n), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    canon_seen = set()
    for bits in range(1 << len(pairs)):
        degs = [0] * n
        edges = []
        for i, (u, v) in enumerate(pairs):
            if bits >> i & 1:
                degs[u] += 1
                degs[v] += 1
                edges.append((u, v))
        if any(d > 3 for d in degs):
            continue
        if not _labeled_connected(n, edges):
            continue
        # Isomorphisms preserve degrees, so it suffices to relabel each
        # degree class onto a canonical block of positions and minimize.
        by_deg: dict[int, list[int]] = {}
        for v, d in enumerate(degs):
            by_deg.setdefault(d, []).append(v)
        degrees_sorted = sorted(by_deg)
        blocks: dict[int, list[int]] = {}
        start = 0
        for d in degrees_sorted:
            blocks[d] = list(range(start, start + len(by_deg[d])))
            start += len(by_deg[d])
        best = None
        for parts in product(*(permutations(blocks[d]) for d in degrees_sorted)):
            perm = [0] * n
            for d, part in zip(degrees_sorted, parts):
                for src, dst in zip(by_deg[d], part):
                    perm[src] = dst
            mapped = 0
            for u, v in edges:
                a, b = perm[u], perm[v]
                mapped |= 1 << pair_index[(a, b) if a < b else (b, a)]
            if best is None or mapped < best:
                best = mapped
        canon_seen.add((tuple(sorted(degs)), best))
    return len(canon_seen)


def _labeled_connected(n: int, edges: list[tuple[int, int]]) -> bool:
    if n == 0:
        return False
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _joins(parent):
    """Every child of ``parent`` that joins a new vertex to 1..3 vertices
    of degree < 3, built by the validating ``Graph(n, edges)``, with the
    joined vertices."""
    x = len(parent)
    edges = [(u, v) for u, vs in enumerate(parent) for v in vs if u < v]
    spots = [v for v, vs in enumerate(parent) if len(vs) < 3]
    for size in (1, 2, 3):
        for joined in combinations(spots, size):
            yield Graph(x + 1, edges + [(v, x) for v in joined]), joined


def _individualised_code(nbrs, inv: list[int], v: int) -> tuple[int, ...]:
    """Canonical code with v moved into a class of its own, placed first:
    equal for two vertices of one class exactly when an automorphism maps
    one onto the other."""
    own = inv[:]
    own[v] = 1 << 8  # above every packed invariant, the largest being 240
    return enumeration._canonical_order(nbrs, own)[1]


def _code_orbits(nbrs, inv: list[int]) -> set[frozenset[int]]:
    """Oracle: the vertex orbits of the automorphism group, from the
    individualised codes.  Only vertices of one class can share an
    orbit."""
    orbits: dict[tuple, list[int]] = {}
    for v in range(len(nbrs)):
        code = () if inv.count(inv[v]) == 1 else _individualised_code(nbrs, inv, v)
        orbits.setdefault((inv[v], code), []).append(v)
    return {frozenset(vs) for vs in orbits.values()}


def _merge_orbits(nbrs, inv: list[int]) -> set[frozenset[int]]:
    """The vertex orbits that ``_orbits`` reads off one search's merges."""
    root, _ = enumeration._orbits(len(nbrs), enumeration._canonical_order(nbrs, inv)[2])
    orbits: dict[int, set[int]] = {}
    for v, r in enumerate(root):
        orbits.setdefault(r, set()).add(v)
    return {frozenset(vs) for vs in orbits.values()}


def _accepted(nbrs, inv: list[int]):
    """The canonical order of the child with neighbor lists ``nbrs`` and
    new vertex x = n - 1 if the acceptance rule keeps it, else None, by
    the rule with none of its shortcuts: every vertex gets the
    removability search, and orbits come from individualised codes."""
    x = len(nbrs) - 1
    removable = [v for v in range(x) if enumeration._removable(nbrs, v)]
    if any(inv[v] < inv[x] for v in removable):
        return None
    near = {v: sum(inv[u] for u in nbrs[v]) for v in removable + [x]}
    tied = [v for v in removable if inv[v] == inv[x]]
    if any(near[v] < near[x] for v in tied):
        return None
    tied = [v for v in tied if near[v] == near[x]]
    order = enumeration._canonical_order(nbrs, inv)[0]
    last = max(tied + [x], key=order.index)
    if last != x and _individualised_code(nbrs, inv, x) != _individualised_code(
        nbrs, inv, last
    ):
        return None
    return order


def _unpruned_kept(parent) -> set:
    """Oracle for the generator's pruning and its per-parent state: the
    acceptance rule with none of its shortcuts (``_accepted``).  Every
    join of 1..3 vertices of degree < 3 is built, and each child's
    neighbor lists and invariants are read from its own adjacency.  The
    canonical adjacency tuples of the kept children."""
    found = set()
    for child, _ in _joins(parent):
        nbrs = child._adj
        order = _accepted(nbrs, enumeration._invariants(nbrs))
        if order is not None:
            found.add(enumeration._relabelled(nbrs, order, {}))
    return found


@pytest.fixture(scope="module")
def levels_with_gens() -> list[list]:
    """Per order n <= 10, at index n, the driver's (canonical adjacency,
    generators) pairs, generators kept on every level, rows shared as in
    the driver."""
    rows: dict = {}
    levels = [[], [(((),), ())]]
    for _ in range(2, 11):
        levels.append(enumeration._next_level(levels[-1], True, rows))
    return levels


def test_pruned_children_match_the_unpruned_rule(corpus_by_n, levels_with_gens):
    # The degree rule and the one join per orbit of the parent's stored
    # generators must only skip children that the acceptance rule rejects
    # or makes again, and one parent makes each class once.
    for n in range(1, 10):
        assert [adj for adj, _ in levels_with_gens[n]] == [g._adj for g in corpus_by_n[n]], n
        for adj, gens in levels_with_gens[n]:
            kept = enumeration._kept_children(adj, gens, True, {})
            adjacencies = {child for child, _ in kept.values()}
            assert len(adjacencies) == len(kept), adj
            assert adjacencies == _unpruned_kept(adj), adj


def _small_children(corpus_by_n):
    """(child, neighbor lists, invariants) of every child that
    ``_children`` yields from a parent with n <= 9: the child built by the
    validating ``Graph(n, edges)``, with the lists and invariants that
    the generator patches from its parent."""
    for n in range(1, 10):
        for g in corpus_by_n[n]:
            parent = g._adj
            inv = enumeration._invariants(parent)
            children = {joined: child for child, joined in _joins(parent)}
            for joined in enumeration._children(parent):
                nbrs, c_inv = enumeration._child_state(parent, inv, joined)
                yield children[tuple(sorted(joined))], nbrs, c_inv


def test_child_state_matches_a_fresh_computation(corpus_by_n):
    # The patched lists are the child's adjacency, and the patched
    # invariants are those computed from it.
    for child, nbrs, inv in _small_children(corpus_by_n):
        assert tuple(tuple(sorted(vs)) for vs in nbrs) == child._adj, child.edges
        assert inv == enumeration._invariants(child._adj), child.edges


def test_generation_keys_order_like_canonical_keys(corpus_by_n):
    # Within a level the flat generation keys must sort and tie exactly as
    # canonical_key does.  Kept children are taken before the per-parent
    # dictionary, so automorphic duplicates give ties.
    by_n: dict[int, list] = {}
    for child, nbrs, inv in _small_children(corpus_by_n):
        kept = enumeration._canonical_child(nbrs, inv, False)
        if kept is not None:
            by_n.setdefault(child.n, []).append((kept[0], canonical_key(child)))
    ties = 0
    for pairs in by_n.values():
        pairs.sort(key=itemgetter(0))
        for (flat, key), (next_flat, next_key) in zip(pairs, pairs[1:]):
            assert key <= next_key
            assert (flat == next_flat) == (key == next_key)
            ties += flat == next_flat
    assert sorted(by_n) == list(range(2, 11)) and ties > 0


def _merge_maps(n: int, merges) -> list[list[int]]:
    """The permutations of range(n) that merges ``(placed, v, rep)`` of a
    search stand for: ``placed + (v,)`` onto ``rep`` position by position,
    every other vertex fixed."""
    maps = []
    for placed, v, rep in merges:
        image = list(range(n))
        for a, b in zip(placed + (v,), rep):
            image[a] = b
        maps.append(image)
    return maps


def _perm_orbits(n: int, perms) -> set[frozenset[int]]:
    """The orbits on range(n) of the group that ``perms`` generate."""
    orbit = [{v} for v in range(n)]
    for p in perms:
        for v in range(n):
            if orbit[p[v]] is not orbit[v]:
                joined = orbit[v] | orbit[p[v]]
                for u in joined:
                    orbit[u] = joined
    return {frozenset(vs) for vs in orbit}


def test_merge_orbits_are_the_automorphism_orbits(corpus_by_n):
    # The tie test reads orbits off every merge of the child's search.
    # They must be the orbits that individualised codes give, on every
    # class and every child that the degree rule lets through.  A child
    # must be kept exactly when the unpruned rule keeps it, and the
    # generators it returns must keep the orbits of the whole group.
    for n in range(1, 10):
        for g in corpus_by_n[n]:
            inv = enumeration._invariants(g._adj)
            assert _merge_orbits(g._adj, inv) == _code_orbits(g._adj, inv), g.edges
    for _, nbrs, inv in _small_children(corpus_by_n):
        orbits = _code_orbits(nbrs, inv)
        assert _merge_orbits(nbrs, inv) == orbits, nbrs
        kept = enumeration._canonical_child(nbrs, inv, True)
        order = _accepted(nbrs, inv)
        assert (kept is None) == (order is None), nbrs
        if kept is not None:
            assert kept[1] == order, nbrs
            n = len(nbrs)
            assert _perm_orbits(n, _merge_maps(n, kept[2])) == orbits, nbrs


def _closure(gens, n: int) -> set[tuple[int, ...]]:
    """The permutation group on range(n) that ``gens`` generate."""
    group = {tuple(range(n))}
    stack = list(group)
    while stack:
        p = stack.pop()
        for g in gens:
            q = tuple(g[i] for i in p)
            if q not in group:
                group.add(q)
                stack.append(q)
    return group


def test_merge_maps_generate_the_automorphism_group(corpus_by_n):
    # Each merge maps one ordering onto the other and fixes the unplaced
    # vertices; together the maps of one search give all of Aut(G).
    for n in range(1, 9):
        for g in corpus_by_n[n]:
            inv = enumeration._invariants(g._adj)
            maps = _merge_maps(n, enumeration._canonical_order(g._adj, inv)[2])
            assert len(_closure(maps, n)) == _isomorphisms(g, g), g.edges


def test_stored_generators_are_automorphisms(levels_with_gens):
    # Every stored generator is a permutation of the canonical labels
    # that maps the canonical adjacency onto itself, and together they
    # keep the vertex orbits of the whole group.
    stored = 0
    for level in levels_with_gens:
        for adj, gens in level:
            n = len(adj)
            for g in gens:
                assert sorted(g) == list(range(n)), (adj, g)
                for v in range(n):
                    assert tuple(sorted(g[u] for u in adj[v])) == adj[g[v]], (adj, g)
            inv = enumeration._invariants(adj)
            assert _perm_orbits(n, gens) == _code_orbits(adj, inv), adj
            stored += len(gens)
    assert stored > 0


def test_removable_matches_a_connectivity_search(corpus_by_n):
    # Every vertex of every class with n <= 9, the lone vertex of n = 1
    # included.
    checked = 0
    for n in range(1, 10):
        for g in corpus_by_n[n]:
            for v in range(n):
                rest, _ = g.induced(u for u in range(n) if u != v)
                connected = degree_profile(rest).c <= 1
                assert enumeration._removable(g._adj, v) == connected, (g.edges, v)
                checked += 1
    assert checked == 7036


def test_invariants_pack_degree_and_sorted_neighbor_degrees(corpus_by_n):
    # The definition, on the classes and on seeded random subcubic draws:
    # each packed int unpacks to (degree, neighbor degrees sorted
    # descending), and the ints order like those tuples.
    rnd = random.Random(5)
    graphs = [g for n in range(1, 10) for g in corpus_by_n[n]]
    graphs += [random_subcubic(rnd.randint(1, 40), seed) for seed in range(300)]
    for g in graphs:
        degs = [len(vs) for vs in g._adj]
        want = [
            (d, tuple(sorted((degs[u] for u in vs), reverse=True)))
            for d, vs in zip(degs, g._adj)
        ]
        inv = enumeration._invariants(g._adj)
        assert [enumeration._unpack(key) for key in inv] == want, g.edges
        for a, b in combinations(range(g.n), 2):
            assert (inv[a] < inv[b]) == (want[a] < want[b]), g.edges


def test_every_vertex_type_packs_into_one_byte_in_order():
    # The generation key holds the sorted invariants as bytes, which sort
    # and tie like canonical_key's profile only if each of the 20
    # subcubic vertex types (degree d <= 3, a multiset of d neighbor
    # degrees) packs below 256, in the order of its tuple.  Vertex 0 is
    # joined to 1..d, and neighbor i gets leaves up to its degree.
    types = []
    for d in range(4):
        for nbr_degs in combinations_with_replacement((3, 2, 1), d):
            edges, n = [], d + 1
            for i, e in enumerate(nbr_degs, start=1):
                edges.append((0, i))
                edges += [(i, leaf) for leaf in range(n, n + e - 1)]
                n += e - 1
            key = enumeration._invariants(Graph(n, edges)._adj)[0]
            assert enumeration._unpack(key) == (d, nbr_degs)
            types.append(((d, nbr_degs), key))
    keys = [key for _, key in sorted(types)]
    assert len(keys) == 20 and keys[-1] < 256
    assert keys == sorted(set(keys))


def test_equal_rows_on_a_level_are_one_object(sweep_corpus_by_n):
    # The driver passes every neighbor tuple through one table per sweep
    # (_relabelled), so a level holds each distinct row once.
    for n, level in sweep_corpus_by_n.items():
        rows = [row for g in level for row in g._adj]
        assert len({id(row) for row in rows}) == len(set(rows)), n


def test_level_build_peak_memory_per_class(levels_with_gens):
    # Traced peak of building level 10 from every other stored level-9
    # pair (half the level keeps the test under a second), per class
    # made: about 940 B when every class held its own rows and a
    # tuple-of-tuples key, about 410 B with shared rows and flat keys.
    # Freed objects that wait on a free list stay traced, so a full
    # collection empties the lists and an untraced build of level 9
    # refills them as a running sweep has them: the figure does not
    # depend on what ran before.
    gc.collect()
    enumeration._next_level(levels_with_gens[8], True, {})
    tracemalloc.start()
    try:
        level = enumeration._next_level(levels_with_gens[9][::2], True, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(level) == 855 and set(level) <= set(levels_with_gens[10])
    assert peak < 600 * len(level), peak / len(level)


def test_generation_work_is_pinned(sweep_generation):
    # Children built and canonical searches run to n <= 11: a lost filter
    # shows here without a timing test.  Without the degree rule 71923
    # children are built; without one join per orbit of the parent's
    # generators 20778, with 14747 searches when orbits were tested by
    # individualised codes.
    corpus, work = sweep_generation
    if work is None:
        pytest.skip("the sweep stops below n = 11 (MATCHBOUNDS_SWEEP_MAX_N)")
    assert work == {"children": 15753, "searches": 9237}
    assert sum(len(corpus[n]) for n in range(1, 12)) == 8095


def test_tiny_streams():
    assert [g.n for g in enumerate_subcubic(EnumerationConfig(max_n=1))] == [1]
    two = list(enumerate_subcubic(EnumerationConfig(max_n=2)))
    assert len(two) == 2
    assert {g.n for g in two} == {1, 2}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_counts_match_labeled_oracle(n):
    generated = sum(
        1 for g in enumerate_subcubic(EnumerationConfig(max_n=n)) if g.n == n
    )
    assert generated == _labeled_connected_subcubic_classes(n)
    assert generated == EXPECTED_CONNECTED_COUNTS[n]


def test_counts_regression(sweep_corpus_by_n):
    assert {n: len(gs) for n, gs in sweep_corpus_by_n.items()} == _swept(
        EXPECTED_CONNECTED_COUNTS, sweep_corpus_by_n
    )


def _labeled_counts(max_n: int) -> tuple[list[int], list[int]]:
    """(A, L): A[n] counts the labeled graphs on n vertices of maximum
    degree <= 3, L[n] the connected ones.

    A adds vertices in label order, each joined to up to 3 earlier
    vertices of degree < 3; the state is how many earlier vertices have
    degree 0, 1 and 2.  L follows by the exponential formula, splitting
    off the component of the last vertex: L(n) = A(n) - sum over k < n of
    C(n - 1, k - 1) L(k) A(n - k)."""
    a = [1]
    states = {(0, 0, 0): 1}
    for _ in range(max_n):
        nxt: dict[tuple[int, int, int], int] = {}
        for (c0, c1, c2), ways in states.items():
            for j0, j1, j2 in product(range(4), repeat=3):
                joined = j0 + j1 + j2
                if joined > 3 or j0 > c0 or j1 > c1 or j2 > c2:
                    continue
                new = [c0 - j0, c1 - j1 + j0, c2 - j2 + j1]
                if joined < 3:
                    new[joined] += 1
                key = tuple(new)
                nxt[key] = nxt.get(key, 0) + ways * comb(c0, j0) * comb(c1, j1) * comb(c2, j2)
        states = nxt
        a.append(sum(states.values()))
    conn = [0] * (max_n + 1)
    for n in range(1, max_n + 1):
        conn[n] = a[n] - sum(comb(n - 1, k - 1) * conn[k] * a[n - k] for k in range(1, n))
    return a, conn


def _isomorphisms(g: Graph, h: Graph, stop: int = 0) -> int:
    """The number of isomorphisms from the connected graph g onto h of the
    same order, or ``stop`` once that many are found.  Backtracking in BFS
    order of g: each vertex maps to an unused neighbor of its BFS parent's
    image with the same degree and neighbor degrees, and adjacency to
    every vertex mapped before it must agree."""
    n = g.n

    def colours(adj):
        return [(len(vs), sorted(len(adj[u]) for u in vs)) for vs in adj]

    cg, ch = colours(g._adj), colours(h._adj)
    order, parent = [0], {0: None}
    for v in order:
        for u in g._adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    image = [-1] * n
    used = [False] * n
    count = 0

    def extend(i: int) -> bool:
        nonlocal count
        if i == n:
            count += 1
            return count == stop
        v = order[i]
        pool = range(n) if parent[v] is None else h._adj[image[parent[v]]]
        mapped = [image[u] for u in g._adj[v] if image[u] >= 0]
        for y in pool:
            if used[y] or ch[y] != cg[v]:
                continue
            if sum(used[z] for z in h._adj[y]) != len(mapped):
                continue
            if any(z not in h._adj[y] for z in mapped):
                continue
            image[v], used[y] = y, True
            if extend(i + 1):
                return True
            image[v], used[y] = -1, False
        return False

    extend(0)
    return count


def _distance_profile(g: Graph) -> tuple:
    """Per vertex, how many vertices lie at each distance from it, sorted:
    equal for isomorphic graphs."""
    rows = []
    for root in range(g.n):
        dist = {root: 0}
        queue = [root]
        for v in queue:
            for u in g._adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        row = [0] * g.n
        for d in dist.values():
            row[d] += 1
        rows.append(tuple(row))
    return tuple(sorted(rows))


def test_class_counts_obey_orbit_stabilizer(sweep_corpus_by_n):
    # Orbit-stabilizer (Harary & Palmer, Graphical Enumeration, 1973): a
    # class G has n!/|Aut(G)| labelings, so complete, pairwise
    # non-isomorphic classes sum to L(n).  A missing class and a duplicate
    # with equal |Aut| cancel in the sum, so the classes are also compared
    # pairwise, within buckets of equal distance profile.  No canonical
    # labelling takes part.  Runs to n = 11, or as far as the sweep goes.
    max_n = min(11, max(sweep_corpus_by_n))
    a, conn = _labeled_counts(11)
    # Up to n = 4 every graph is subcubic: 1, 1, 4, 38 connected labeled
    # graphs (OEIS A001187); 2**6 labeled graphs on 4 vertices.
    assert conn[1:5] == [1, 1, 4, 38] and a[4] == 64
    for n in range(1, max_n + 1):
        buckets: dict[tuple, list[Graph]] = {}
        for g in sweep_corpus_by_n[n]:
            buckets.setdefault(_distance_profile(g), []).append(g)
        for bucket in buckets.values():
            for g, h in combinations(bucket, 2):
                assert _isomorphisms(g, h, stop=1) == 0, (g.edges, h.edges)
        labelings = sum(factorial(n) // _isomorphisms(g, g) for g in sweep_corpus_by_n[n])
        assert labelings == conn[n], n


def test_stream_is_duplicate_free(corpus_by_n):
    keys = set()
    for n in corpus_by_n:
        for g in corpus_by_n[n]:
            key = canonical_key(g)
            assert key not in keys
            keys.add(key)


def test_stream_contents_are_valid(corpus_by_n):
    for n in corpus_by_n:
        for g in corpus_by_n[n]:
            assert degree_profile(g).c == 1  # subcubic, or it raises, and connected


def test_cubic_subfamily_matches_literature(sweep_corpus_by_n):
    cubic = {
        n: sum(1 for g in gs if degree_profile(g).n3 == n)
        for n, gs in sweep_corpus_by_n.items()
    }
    assert {n: c for n, c in cubic.items() if c} == _swept(CUBIC_COUNTS, sweep_corpus_by_n)


def test_tree_subfamily_matches_literature(sweep_corpus_by_n):
    trees = {
        n: sum(1 for g in gs if len(g.edges) == g.n - 1)
        for n, gs in sweep_corpus_by_n.items()
    }
    assert trees == _swept(TREE_COUNTS, sweep_corpus_by_n)


def _graph6_sha256(graphs) -> str:
    return hashlib.sha256(b"".join(emit_graph6(g) + b"\n" for g in graphs)).hexdigest()


def test_stream_is_pinned(corpus_by_n):
    stream = (g for n in sorted(corpus_by_n) for g in corpus_by_n[n])
    assert _graph6_sha256(stream) == STREAM_SHA256_N10


@pytest.mark.parametrize("n", sorted(LEVEL_SHA256))
def test_level_is_pinned(n, sweep_corpus_by_n):
    if n not in sweep_corpus_by_n:
        pytest.skip(f"the sweep stops below n = {n}")
    assert _graph6_sha256(sweep_corpus_by_n[n]) == LEVEL_SHA256[n]


@pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")
def test_classes_are_pairwise_non_isomorphic(corpus_by_n):
    # Independent oracle for the acceptance rule: no two classes of one
    # order are isomorphic.
    nx = pytest.importorskip("networkx")
    for n in range(1, 10):
        buckets: dict[str, list] = {}
        for g in corpus_by_n[n]:
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges)
            buckets.setdefault(nx.weisfeiler_lehman_graph_hash(h), []).append(h)
        for bucket in buckets.values():
            for a, b in combinations(bucket, 2):
                assert not nx.is_isomorphic(a, b), (n, sorted(a.edges))


def test_canonical_key_invariant_on_every_small_class(corpus_by_n):
    # Classes are often symmetric, unlike random_subcubic draws.
    rnd = random.Random(0)
    for n in range(1, 9):
        for g in corpus_by_n[n]:
            perm = list(range(n))
            rnd.shuffle(perm)
            h = relabel(g, perm)
            assert canonical_key(h) == canonical_key(g)
            assert canonical_form(h) == g


def test_stream_order_is_deterministic():
    cfg = EnumerationConfig(max_n=6)
    first = [emit_graph6(g) for g in enumerate_subcubic(cfg)]
    second = [emit_graph6(g) for g in enumerate_subcubic(cfg)]
    assert first == second


def test_hard_cap():
    with pytest.raises(LimitExceededError):
        EnumerationConfig(max_n=13)
    with pytest.raises(ValueError):
        EnumerationConfig(max_n=0)
    for bad in (2.5, 3.0, "5", True):
        with pytest.raises(ValueError, match=r"^max_n must be an int, got "):
            EnumerationConfig(max_n=bad)


def test_canonical_key_is_complete_on_corpus(corpus_by_n):
    # Distinct classes at equal order must get distinct keys, and the
    # canonical form must be a relabeling of the input.
    for g in corpus_by_n[6]:
        cf = canonical_form(g)
        assert canonical_key(cf) == canonical_key(g)
        assert cf.n == g.n and len(cf.edges) == len(g.edges)


def test_canonical_key_profile_beyond_degree_three():
    # A 5-star with one leaf extended: the packed layout holds degree <= 3
    # only, so both functions refuse it as degree_profile does.
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6)])
    for function in (canonical_key, canonical_form, degree_profile):
        with pytest.raises(NotSubcubicError, match=r"^vertex 0 has degree 5 > 3$"):
            function(g)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=999),
    st.randoms(),
)
def test_canonical_key_invariant_under_relabeling(n, seed, rnd):
    g = random_subcubic(n, seed)
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_key(relabel(g, perm)) == canonical_key(g)


def test_random_subcubic_contract():
    a = random_subcubic(16, 1)
    b = random_subcubic(16, 1)
    assert a == b
    assert emit_graph6(a) == emit_graph6(b)
    sizes_at_12 = set()
    for n in range(1, 41):
        for seed in range(300):
            g = random_subcubic(n, seed)
            assert g.n == n
            assert degree_profile(g).c == 1  # subcubic, or it raises, and connected
            assert n - 1 <= len(g.edges) <= 3 * n // 2
            if n == 12:
                sizes_at_12.add(len(g.edges))
    # The draws still span trees to near-cubic graphs.
    assert 11 in sizes_at_12
    assert max(sizes_at_12) >= 16
    with pytest.raises(ValueError):
        random_subcubic(0, 1)


def test_random_subcubic_is_pinned():
    lines = b"".join(
        emit_graph6(random_subcubic(n, seed)) + b"\n" for n, seed in SAMPLER_DRAWS
    )
    assert hashlib.sha256(lines).hexdigest() == SAMPLER_SHA256


def test_random_subcubic_large_order():
    n = 50_000
    g = random_subcubic(n, 3)
    assert degree_profile(g).c == 1
    assert n - 1 <= len(g.edges) <= 3 * n // 2
    assert random_subcubic(n, 3) == g
