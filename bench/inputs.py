"""Seeded benchmark inputs, built without the program under test.

The generator and the graph6 encoder live here, so a change to
``random_subcubic`` or ``emit_graph6`` cannot change what the benchmark
feeds the program.  Each graph is a pure function of its index in a
fixed pool; the seed only picks pool members.
"""

from __future__ import annotations

import random
from math import isqrt

CORPUS_SIZE = 5000
CORPUS_POOL = 20000
CORPUS_ORDERS = (13, 40)
GE_ORDER = 300
GE_GRAPHS = 6
GE_POOL = 32


def random_connected_subcubic(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a connected graph of maximum degree 3 on vertices 0..n-1.

    A degree-capped random spanning tree plus 0..n/2 extra edge attempts.
    Linear in n; makes no uniformity claim.
    """
    order = list(range(n))
    rng.shuffle(order)
    deg = [0] * n
    edges: set[tuple[int, int]] = set()
    open_ = [order[0]]  # tree vertices of degree < 3
    for v in order[1:]:
        i = rng.randrange(len(open_))
        u = open_[i]
        edges.add((min(u, v), max(u, v)))
        deg[u] += 1
        deg[v] += 1
        if deg[u] == 3:
            open_[i] = open_[-1]
            open_.pop()
        open_.append(v)
    for _ in range(rng.randint(0, n // 2)):
        u, v = rng.randrange(n), rng.randrange(n)
        e = (min(u, v), max(u, v))
        if u != v and deg[u] < 3 and deg[v] < 3 and e not in edges:
            edges.add(e)
            deg[u] += 1
            deg[v] += 1
    return sorted(edges)


def graph6(n: int, edges: list[tuple[int, int]]) -> bytes:
    """Standard graph6 line (no newline) for n <= 258047."""
    if n <= 62:
        out = bytearray([n + 63])
    else:
        out = bytearray([126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)])
    bits = bytearray(n * (n - 1) // 2)
    for u, v in edges:
        i, j = (u, v) if u < v else (v, u)
        bits[j * (j - 1) // 2 + i] = 1  # upper triangle, column order
    bits.extend(b"\0" * (-len(bits) % 6))
    for k in range(0, len(bits), 6):
        chunk = 0
        for b in bits[k:k + 6]:
            chunk = chunk << 1 | b
        out.append(chunk + 63)
    return bytes(out)


def corpus_graph(index: int) -> tuple[int, list[tuple[int, int]]]:
    """Member ``index`` of the ``corpus`` pool: order 13..40."""
    rng = random.Random(f"corpus:{index}")
    n = rng.randint(*CORPUS_ORDERS)
    return n, random_connected_subcubic(n, rng)


def ge_graph(index: int) -> tuple[int, list[tuple[int, int]]]:
    """Member ``index`` of the GE pool of the ``large`` workload."""
    return GE_ORDER, random_connected_subcubic(GE_ORDER, random.Random(f"ge:{index}"))


def pick(kind: str, seed: int, pool_size: int, k: int) -> list[int]:
    """The ``k`` pool members a run with ``seed`` uses.  Pools are fixed so
    that each member's expected output can be pinned."""
    return random.Random(f"{kind}-pick:{seed}").sample(range(pool_size), k)


def write_graph6(path: str, graphs) -> list[bytes]:
    lines = [graph6(n, edges) for n, edges in graphs]
    with open(path, "wb") as fh:
        fh.write(b"".join(line + b"\n" for line in lines))
    return lines


def decode_degrees(line: str | bytes) -> tuple[int, int, int, int]:
    """(n, n1, n2, n3) of a graph6 line, by the benchmark's own decoder."""
    data = line.encode("ascii") if isinstance(line, str) else line
    if data[0] != 126:
        n, at = data[0] - 63, 1
    else:
        n, at = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63), 4
    bits = "".join(format(b - 63, "06b") for b in data[at:])
    deg = [0] * n
    k = bits.find("1")
    while k != -1:
        j = (1 + isqrt(1 + 8 * k)) // 2  # bit k is the pair (i, j), i < j
        deg[k - j * (j - 1) // 2] += 1
        deg[j] += 1
        k = bits.find("1", k + 1)
    return n, deg.count(1), deg.count(2), deg.count(3)
