"""Shared fixtures: the exhaustive graph corpora (built once per session)
and a recorder that prints one line per acceptance criterion at the end
of the run."""

from __future__ import annotations

import os

import pytest

from matchbounds import enumeration
from matchbounds.enumeration import EnumerationConfig, enumerate_subcubic
from matchbounds.graphs import Graph, degree_profile
from matchbounds.matching import _matching_array

_criterion_lines: list[str] = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    _criterion_lines.append(f"criterion {number:2d} {status}: {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_criterion_lines):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def corpus_by_n() -> dict[int, list]:
    """Connected subcubic graphs up to isomorphism, keyed by order, n <= 10."""
    buckets: dict[int, list] = {}
    for g in enumerate_subcubic(EnumerationConfig(max_n=10)):
        buckets.setdefault(g.n, []).append(g)
    return buckets


@pytest.fixture(scope="session")
def sweep_generation(corpus_by_n) -> tuple[dict[int, list], dict[str, int] | None]:
    """Corpus for the big acceptance sweeps: n <= 12 by default, shrunk by
    MATCHBOUNDS_SWEEP_MAX_N for quicker development runs.  With it, the
    generation work to n <= 11, counted while the corpus is generated:
    children built and canonical searches run, or None when the sweep
    stops below 11."""
    max_n = min(12, max(1, int(os.environ.get("MATCHBOUNDS_SWEEP_MAX_N", "12"))))
    if max_n <= 10:
        return {n: gs for n, gs in corpus_by_n.items() if n <= max_n}, None
    counts = {"children": 0, "searches": 0}
    build, search = enumeration._child_state, enumeration._canonical_order

    def counted_build(*args):
        counts["children"] += 1
        return build(*args)

    def counted_search(*args):
        counts["searches"] += 1
        return search(*args)

    buckets: dict[int, list] = {}
    work = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_child_state", counted_build)
        mp.setattr(enumeration, "_canonical_order", counted_search)
        for g in enumerate_subcubic(EnumerationConfig(max_n=max_n)):
            if g.n == 11 and work is None:
                work = dict(counts)  # levels come whole: n = 11 is built, n = 12 not begun
            buckets.setdefault(g.n, []).append(g)
    return buckets, work


@pytest.fixture(scope="session")
def sweep_corpus_by_n(sweep_generation) -> dict[int, list]:
    """The sweep corpus of ``sweep_generation``, keyed by order."""
    return sweep_generation[0]


@pytest.fixture(scope="session")
def profile_rows(sweep_corpus_by_n) -> dict[tuple[int, int, int, int], tuple[int, int]]:
    """The sweep corpus grouped by degree profile ``(n1, n2, n3, c)``: per
    profile the least nu and the number of classes.  A bound's slack
    grows with nu, so its least slack on a profile is its slack at the
    least nu.  Every nu is certified (``certified_nu``)."""
    rows: dict[tuple[int, int, int, int], tuple[int, int]] = {}
    for g in connected_upto(sweep_corpus_by_n, max(sweep_corpus_by_n)):
        prof = degree_profile(g)
        key = (prof.n1, prof.n2, prof.n3, prof.c)
        value = certified_nu(g)
        least, count = rows.get(key, (value, 0))
        rows[key] = (min(least, value), count + 1)
    return rows


def certified_nu(g: Graph) -> int:
    """nu(g), with a Tutte-Berge certificate checked on the way.

    Every vertex set B bounds n - 2*nu >= odd(G - B) - |B|, so a matching
    M and a set B with n - 2|M| = odd(G - B) - |B| prove nu = |M|.  M is
    the blossom code's mate array, checked here to be a matching of g; B
    holds the neighbors outside A of the even vertices A of the Hungarian
    trees of that run.  The run only proposes B: the equality is
    checked here, with its own component count, so a matching that is
    not maximum or a wrong B fails it.
    """
    n, adj = g.n, g._adj
    mate, even = _matching_array(g, every_root=True)
    size = 0
    for v, u in enumerate(mate):
        if u != -1:
            assert mate[u] == v and u in adj[v], (g, v, u)
            size += u > v
    in_a = [False] * n
    for v in even:
        in_a[v] = True
    seen = [False] * n  # B starts seen, so the search runs in G - B
    for v in range(n):
        if in_a[v]:
            for u in adj[v]:
                if not in_a[u]:
                    seen[u] = True
    b_size = sum(seen)
    odd = 0
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        size_c = 0
        while stack:
            v = stack.pop()
            size_c += 1
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        odd += size_c & 1
    assert n - 2 * size == odd - b_size, g
    return size


def connected_upto(corpus: dict[int, list], max_n: int):
    for n in range(1, max_n + 1):
        yield from corpus.get(n, [])


def relabel(g: Graph, perm) -> Graph:
    """Image of ``g`` under the vertex permutation ``perm`` (old index -> new)."""
    p = list(perm)
    return Graph(g.n, ((p[u], p[v]) for u, v in g.edges))
