"""Shared fixtures: the exhaustive graph corpora (built once per session)
and a recorder that prints one line per acceptance criterion at the end
of the run."""

from __future__ import annotations

import os

import pytest

from matchbounds.enumeration import EnumerationConfig, enumerate_subcubic
from matchbounds.graphs import degree_profile
from matchbounds.matching import nu

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
def sweep_corpus_by_n(corpus_by_n) -> dict[int, list]:
    """Corpus for the big acceptance sweeps: n <= 12 by default, shrunk by
    MATCHBOUNDS_SWEEP_MAX_N for quicker development runs."""
    max_n = min(12, max(1, int(os.environ.get("MATCHBOUNDS_SWEEP_MAX_N", "12"))))
    if max_n <= 10:
        return {n: gs for n, gs in corpus_by_n.items() if n <= max_n}
    buckets: dict[int, list] = {}
    for g in enumerate_subcubic(EnumerationConfig(max_n=max_n)):
        buckets.setdefault(g.n, []).append(g)
    return buckets


@pytest.fixture(scope="session")
def profile_rows(sweep_corpus_by_n) -> dict[tuple[int, int, int, int], tuple[int, int]]:
    """The sweep corpus grouped by degree profile ``(n1, n2, n3, c)``: per
    profile the least nu and the number of classes.  A bound's slack
    grows with nu, so its least slack on a profile is its slack at the
    least nu."""
    rows: dict[tuple[int, int, int, int], tuple[int, int]] = {}
    for g in connected_upto(sweep_corpus_by_n, max(sweep_corpus_by_n)):
        prof = degree_profile(g)
        key = (prof.n1, prof.n2, prof.n3, prof.c)
        value = nu(g)
        least, count = rows.get(key, (value, 0))
        rows[key] = (min(least, value), count + 1)
    return rows


def connected_upto(corpus: dict[int, list], max_n: int):
    for n in range(1, max_n + 1):
        yield from corpus.get(n, [])
