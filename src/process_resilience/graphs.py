"""Immutable simple undirected graphs and the structural queries the rest of
the package is built on: components, giants, k-cores, k-connectivity, and
bounded-radius neighbourhoods.

Vertices are integers 0..n-1. A Graph is frozen after construction and safe
to share across threads; every function here is pure. Induced subgraphs
(giant, k-core) carry a ``labels`` tuple mapping their vertex indices back to
the indices of the graph they were cut from, so attack certificates computed
downstream can be reported in original coordinates.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional

VertexSet = frozenset


class GraphFormatError(ValueError):
    """Malformed graph text; carries the 1-based offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with sorted, deterministic adjacency."""

    n: int
    edges: tuple  # lexicographically sorted (u, v) pairs with u < v
    adj: tuple = field(compare=False, repr=False)  # adj[v]: sorted neighbour tuple
    labels: Optional[tuple] = field(default=None, compare=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def degrees(self) -> tuple:
        return tuple(len(a) for a in self.adj)

    def min_degree(self) -> int:
        return min((len(a) for a in self.adj), default=0)

    def neighbors(self, v: int) -> tuple:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        row = self.adj[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def original_label(self, v: int) -> int:
        return v if self.labels is None else self.labels[v]


def _graph_from_pairs(n: int, pairs: Iterable, labels=None) -> Graph:
    """Trusted constructor: pairs must be distinct, in-range, loop-free."""
    edges = sorted((u, v) if u < v else (v, u) for u, v in pairs)
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, tuple(edges), tuple(tuple(sorted(a)) for a in adj), labels)


def build_graph(n: int, edge_list: Iterable) -> Graph:
    """Build a Graph from unordered vertex pairs, collapsing duplicates.

    Rejects self-loops and out-of-range endpoints.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    seen = set()
    for pair in edge_list:
        u, v = pair
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        seen.add((u, v) if u < v else (v, u))
    return _graph_from_pairs(n, seen)


# -- text format ---------------------------------------------------------
#
# First line "n m", then m lines "u v" with u < v, ASCII decimal. The writer
# emits edges in lexicographic order; format_graph_text(parse_graph_text(s))
# reproduces canonical input byte for byte.

def format_graph_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> Graph:
    lines = text.splitlines()
    if not lines:
        raise GraphFormatError("empty input", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"expected 'n m', got {lines[0]!r}", line=1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError(f"expected integers 'n m', got {lines[0]!r}", line=1) from None
    if n < 0 or m < 0:
        raise GraphFormatError("n and m must be nonnegative", line=1)
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise GraphFormatError(f"header promises {m} edges, found {len(body)}",
                               line=len(lines))
    pairs = set()
    for i, ln in enumerate(body, start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected 'u v', got {ln!r}", line=i)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"expected integers, got {ln!r}", line=i) from None
        if not (0 <= u < v < n):
            raise GraphFormatError(f"edge ({u}, {v}) must satisfy 0 <= u < v < n", line=i)
        if (u, v) in pairs:
            raise GraphFormatError(f"duplicate edge ({u}, {v})", line=i)
        pairs.add((u, v))
    return _graph_from_pairs(n, pairs)


# -- components and induced subgraphs ------------------------------------

def connected_components(g: Graph):
    """Components as vertex sets, largest first, ties by smallest vertex."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        queue = deque((s,))
        while queue:
            x = queue.popleft()
            for y in g.adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    queue.append(y)
        comps.append(comp)
    comps.sort(key=lambda c: (-len(c), min(c)))
    return [VertexSet(c) for c in comps]


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    return len(connected_components(g)) == 1


def induced_subgraph(g: Graph, vertices: Iterable) -> Graph:
    """Subgraph induced on ``vertices``; labels map back to g's originals."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    pairs = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    labels = tuple(g.original_label(v) for v in keep)
    return _graph_from_pairs(len(keep), pairs, labels=labels)


def giant_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component (ties: smallest vertex)."""
    if g.m == 0:
        raise ValueError("no giant: graph has no edges")
    return induced_subgraph(g, connected_components(g)[0])


def k_core(g: Graph, k: int) -> Graph:
    """Maximal induced subgraph of minimum degree >= k (possibly empty).

    Iterative peeling; the result is independent of peeling order.
    """
    if k < 2:
        raise ValueError(f"k-core requires k >= 2, got {k}")
    deg = [len(a) for a in g.adj]
    dead = [False] * g.n
    queue = deque(v for v in range(g.n) if deg[v] < k)
    while queue:
        v = queue.popleft()
        if dead[v]:
            continue
        dead[v] = True
        for u in g.adj[v]:
            if not dead[u]:
                deg[u] -= 1
                if deg[u] < k:
                    queue.append(u)
    return induced_subgraph(g, (v for v in range(g.n) if not dead[v]))


def ball(g: Graph, v: int, radius: int):
    """Vertices at graph distance 1..radius from v (v itself excluded)."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    seen = {v}
    frontier = [v]
    out = []
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for y in g.adj[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    out.append(y)
        if not nxt:
            break
        frontier = nxt
    return VertexSet(out)


# -- k-connectivity ------------------------------------------------------

def _connected_after_removal(g: Graph, removed) -> bool:
    alive = [True] * g.n
    for v in removed:
        alive[v] = False
    start = next((v for v in range(g.n) if alive[v]), None)
    if start is None:
        return False
    seen = {start}
    queue = deque((start,))
    while queue:
        x = queue.popleft()
        for y in g.adj[x]:
            if alive[y] and y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == g.n - len(removed)


def _has_articulation_point(g: Graph) -> bool:
    """Iterative Tarjan lowpoint scan (assumes g connected, n >= 3)."""
    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    timer = 0
    stack = [(0, iter(g.adj[0]))]
    disc[0] = low[0] = timer
    timer += 1
    root_children = 0
    while stack:
        v, it = stack[-1]
        advanced = False
        for u in it:
            if disc[u] == -1:
                parent[u] = v
                disc[u] = low[u] = timer
                timer += 1
                if v == 0:
                    root_children += 1
                stack.append((u, iter(g.adj[u])))
                advanced = True
                break
            elif u != parent[v]:
                low[v] = min(low[v], disc[u])
        if not advanced:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[v])
                if p != 0 and low[v] >= disc[p]:
                    return True
    return root_children > 1


class _SplitNetwork:
    """Even's split-vertex flow network of g, built once per query batch.

    Vertex v becomes in-node 2v and out-node 2v+1 joined by its inner arc,
    arc 2v, of capacity 1; each edge uv becomes arcs 2u+1 -> 2v and
    2v+1 -> 2u of capacity 1; node 2n is a super-source with a unit arc to
    each of ``sources``. Arcs are flat lists: arc e runs to ``head[e]`` with
    base capacity ``base[e]``, its reverse is arc ``e ^ 1``, and ``out[x]``
    lists the arcs leaving node x. The super-source arcs can carry flow
    only in queries that start at node 2n: no other query reaches it.
    """

    def __init__(self, g: Graph, sources):
        self.size = 2 * g.n + 1
        head, base = [], []
        out = [[] for _ in range(self.size)]

        def add_arc(x, y):
            out[x].append(len(head))
            head.append(y)
            base.append(1)
            out[y].append(len(head))
            head.append(x)
            base.append(0)

        for v in range(g.n):
            add_arc(2 * v, 2 * v + 1)
        for u, v in g.edges:
            add_arc(2 * u + 1, 2 * v)
            add_arc(2 * v + 1, 2 * u)
        for s in sources:
            add_arc(2 * g.n, 2 * s)
        self.head, self.base, self.out = head, base, out

    def paths_at_least(self, source: int, sink: int, k: int, uncapped) -> bool:
        """At least k arc-disjoint source->sink paths once the inner arcs of
        the ``uncapped`` vertices get capacity k+1 (unit-capacity
        augmenting paths, one breadth-first search each).
        """
        head, out = self.head, self.out
        cap = self.base[:]
        for v in uncapped:
            cap[2 * v] = k + 1
        for _ in range(k):
            prev = [-1] * self.size
            prev[source] = -2
            queue = [source]
            for x in queue:
                for e in out[x]:
                    if cap[e]:
                        y = head[e]
                        if prev[y] == -1:
                            prev[y] = e
                            queue.append(y)
                if prev[sink] != -1:
                    break
            else:
                return False
            y = sink
            while y != source:
                e = prev[y]
                cap[e] -= 1
                cap[e ^ 1] += 1
                y = head[e ^ 1]
        return True


def is_k_connected(g: Graph, k: int, exhaustive: bool = False) -> bool:
    """True iff n >= k+1 and no removal of <= k-1 vertices disconnects g.

    The default path uses articulation points (k=2) or an Even-style
    disjoint-paths test (k >= 3); ``exhaustive=True`` forces the literal
    enumeration of all separators (the oracle path, small n only).

    For k >= 3 the split-vertex flow network is built once per call, as
    flat arc lists; each of the C(k, 2) + n - k local checks copies its
    base capacities, uncaps the inner arcs of its endpoints and runs at
    most k breadth-first augmentations.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if g.n < k + 1:
        return False
    if exhaustive:
        for size in range(k):
            for sep in combinations(range(g.n), size):
                if not _connected_after_removal(g, sep):
                    return False
        return True
    if g.min_degree() < k:
        return False
    if not is_connected(g):
        return False
    if k == 1:
        return True
    if k == 2:
        return not _has_articulation_point(g)
    # Even's test: fix L = {0..k-1}; check local connectivity within L,
    # then from a super-source attached to L to every other vertex. Every
    # local check runs on the one network built here.
    pivots = range(k)
    net = _SplitNetwork(g, pivots)
    for a, b in combinations(pivots, 2):
        if not net.paths_at_least(2 * a + 1, 2 * b, k, (a, b)):
            return False
    # with the super-source every graph vertex except the sink is an
    # internal vertex of some source-sink path and must stay unit-capacity
    for u in range(k, g.n):
        if not net.paths_at_least(2 * g.n, 2 * u, k, (u,)):
            return False
    return True
