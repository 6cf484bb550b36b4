"""Exhaustive generator: completeness against a labeled oracle,
duplicate-freeness, and the seeded random sampler."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchbounds.enumeration import (
    EnumerationConfig,
    LimitExceededError,
    canonical_form,
    canonical_key,
    enumerate_subcubic,
    random_subcubic,
)
from matchbounds.graphs import Graph, emit_graph6, is_connected, is_subcubic

# Class counts produced by the generator; n <= 6 are re-derived from the
# labeled oracle below, the larger ones are regression pins.
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
            assert is_subcubic(g)
            assert is_connected(g)


def test_cubic_subfamily_matches_literature(sweep_corpus_by_n):
    cubic = {
        n: sum(1 for g in gs if all(g.degree(v) == 3 for v in range(g.n)))
        for n, gs in sweep_corpus_by_n.items()
    }
    assert {n: c for n, c in cubic.items() if c} == _swept(CUBIC_COUNTS, sweep_corpus_by_n)


def test_tree_subfamily_matches_literature(sweep_corpus_by_n):
    trees = {
        n: sum(1 for g in gs if len(g.edges) == g.n - 1)
        for n, gs in sweep_corpus_by_n.items()
    }
    assert trees == _swept(TREE_COUNTS, sweep_corpus_by_n)


def test_stream_is_pinned():
    stream = b"".join(
        emit_graph6(g) + b"\n" for g in enumerate_subcubic(EnumerationConfig(max_n=10))
    )
    assert hashlib.sha256(stream).hexdigest() == STREAM_SHA256_N10


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
            h = g.relabel(perm)
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


def test_canonical_key_is_complete_on_corpus(corpus_by_n):
    # Distinct classes at equal order must get distinct keys, and the
    # canonical form must be a relabeling of the input.
    for g in corpus_by_n[6]:
        cf = canonical_form(g)
        assert canonical_key(cf) == canonical_key(g)
        assert cf.n == g.n and len(cf.edges) == len(g.edges)


def test_canonical_key_profile_beyond_degree_three():
    # A 5-star with one leaf extended: the packed invariants need 3-bit
    # fields here, and the key still lists the plain tuples.
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6)])
    n, profile, _ = canonical_key(g)
    assert n == 7
    assert profile == (
        (5, (2, 1, 1, 1, 1)), (2, (5, 1)), (1, (5,)), (1, (5,)), (1, (5,)), (1, (5,)),
        (1, (2,)),
    )


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
    assert canonical_key(g.relabel(perm)) == canonical_key(g)


def test_random_subcubic_contract():
    a = random_subcubic(16, 1)
    b = random_subcubic(16, 1)
    assert a == b
    assert emit_graph6(a) == emit_graph6(b)
    for seed in range(300):
        g = random_subcubic(11, seed)
        assert is_subcubic(g)
        assert is_connected(g)
    assert random_subcubic(1, 7).n == 1
    with pytest.raises(ValueError):
        random_subcubic(0, 1)
