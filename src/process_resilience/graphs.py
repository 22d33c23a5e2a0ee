"""Immutable simple undirected graphs and the structural queries the rest of
the package is built on: components, giants, k-cores, k-connectivity, and
bounded-radius neighbourhoods.

Vertices are integers 0..n-1. A Graph is frozen after construction and safe
to share across threads: the one view it caches on first read,
``degree_array``, is a pure function of its arrays, so a race can only
build it twice. Every function here is pure. Induced subgraphs
(giant, k-core) carry a ``labels`` tuple mapping their vertex indices back to
the indices of the graph they were cut from, so attack certificates computed
downstream can be reported in original coordinates.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional

import numpy as np


class GraphFormatError(ValueError):
    """Malformed graph text; carries the 1-based offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph in compressed sparse rows (CSR).

    Row v is ``indices[indptr[v]:indptr[v + 1]]``, v's neighbours in
    ascending order; ``_ends`` = (eu, ev) lists each edge once, u < v, in
    lexicographic order. All four arrays are read-only int64, as is the
    cached ``degree_array``. A walk reads row v as the slice
    ``indices[at[v]:at[v + 1]].tolist()``, with ``at = indptr.tolist()``.
    """

    n: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    _ends: tuple = field(repr=False)
    labels: Optional[tuple] = field(default=None, repr=False)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and all(map(np.array_equal, self._ends, other._ends))

    def __hash__(self):
        return hash((self.n, self._ends[0].tobytes(), self._ends[1].tobytes()))

    @property
    def edges(self) -> tuple:
        """Lexicographically sorted (u, v) pairs with u < v, built per call."""
        eu, ev = self._ends
        return tuple(zip(eu.tolist(), ev.tolist()))

    @property
    def m(self) -> int:
        return len(self._ends[0])

    @cached_property
    def degree_array(self) -> np.ndarray:
        deg = np.diff(self.indptr)
        deg.setflags(write=False)
        return deg

    def min_degree(self) -> int:
        return int(self.degree_array.min()) if self.n else 0

    def original_label(self, v: int) -> int:
        return v if self.labels is None else self.labels[v]


def _spans(starts, lens) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + lens[i] - 1, laid end to end."""
    return np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())


def _row_positions(g: Graph, vs) -> np.ndarray:
    """The positions in ``g.indices`` of the CSR rows of the vertices vs,
    row after row."""
    return _spans(g.indptr[vs], g.degree_array[vs])


def _is_edge(g: Graph, lo, hi) -> np.ndarray:
    """Mask: whether each pair (lo[i], hi[i]), lo[i] < hi[i], is an edge of
    g. An edge u < v has the key u * n + v; g's keys are ascending, and the
    sentinel after them stops every search inside the array. The range
    check is needed: the key of a pair outside [0, n) can equal an edge's,
    by wrapping around int64 too."""
    eu, ev = g._ends
    keys = np.append(eu * g.n + ev, np.iinfo(np.int64).max)
    want = lo * g.n + hi
    return (lo >= 0) & (hi < g.n) & (keys[np.searchsorted(keys, want)] == want)


def incidence(n: int, us, vs) -> np.ndarray:
    """count[v]: the pairs (us[i], vs[i]) with v at one end, a pair with
    v at both ends counting twice; us and vs are int arrays over [0, n)."""
    return np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)


def _graph(n: int, eu, ev, indices, labels) -> Graph:
    """The Graph of sorted endpoint arrays and its CSR rows laid end to
    end; the row offsets are the cumulative degrees."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(incidence(n, eu, ev), out=indptr[1:])
    for a in (indptr, indices, eu, ev):
        a.setflags(write=False)
    return Graph(n, indptr, indices, (eu, ev), labels)


def _graph_from_arrays(n: int, us, vs, labels=None) -> Graph:
    """Trusted constructor: the pairs (us[i], vs[i]) must be distinct,
    in-range and loop-free; their order and orientation are free.

    One sort of the keys lo*n + hi gives the edges; one sort of the keys
    owner*n + neighbour, over both orientations, gives the CSR rows.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    base = max(n, 1)
    eu, ev = np.divmod(np.sort(np.minimum(us, vs) * base + np.maximum(us, vs)), base)
    indices = np.sort(np.concatenate((eu * base + ev, ev * base + eu))) % base
    return _graph(n, eu, ev, indices, labels)


def _integer(name: str, value) -> int:
    """``value`` as a Python int; ValueError naming the parameter unless it
    is an integer. A bool is refused: True would pass as 1."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _pair_arrays(pairs) -> tuple:
    """(us, vs) int64 arrays of a collection of vertex pairs."""
    arr = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


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
    return _graph_from_arrays(n, *_pair_arrays(seen))


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
    return _graph_from_arrays(n, *_pair_arrays(pairs))


# -- components and induced subgraphs ------------------------------------

def _component_labels(g: Graph) -> np.ndarray:
    """label[v]: the smallest vertex of v's component.

    Min-label propagation with pointer jumping: each round hooks the larger
    of the two labels at the ends of every edge whose labels differ to the
    smaller one, then jumps every vertex to its root, until no edge has two
    labels. Every label is a vertex of its component and never above it, so
    the smallest vertex keeps its own label and in the end lends it to all.
    """
    label = np.arange(g.n)
    eu, ev = g._ends
    while True:
        lu, lv = label[eu], label[ev]
        split = lu != lv
        if not split.any():
            return label
        lu, lv = lu[split], lv[split]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while not np.array_equal(root := label[label], label):
            label = root


def _components(g: Graph) -> list:
    """Components as ascending int64 arrays, largest first, ties by
    smallest vertex."""
    label = _component_labels(g)
    order = np.argsort(label, kind="stable")  # each component in ascending order
    comps = np.split(order, np.flatnonzero(np.diff(label[order])) + 1) if g.n else []
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


def connected_components(g: Graph):
    """Components as vertex sets, largest first, ties by smallest vertex."""
    return [frozenset(c.tolist()) for c in _components(g)]


def is_connected(g: Graph) -> bool:
    return g.n > 0 and not _component_labels(g).any()


def _induced(g: Graph, inside: np.ndarray) -> Graph:
    """Subgraph induced on the vertices where the mask ``inside`` is True.

    The index map is increasing, so the CSR rows and the edge arrays stay
    sorted when they are filtered through it; no sort is needed.
    """
    index = np.cumsum(inside) - 1  # the new index of each kept vertex
    eu, ev = g._ends
    both = inside[eu] & inside[ev]
    rows = np.repeat(inside, g.degree_array) & inside[g.indices]
    keep = np.flatnonzero(inside).tolist()
    labels = tuple(keep if g.labels is None else map(g.labels.__getitem__, keep))
    return _graph(len(keep), index[eu[both]], index[ev[both]],
                  index[g.indices[rows]], labels)


def induced_subgraph(g: Graph, vertices: Iterable) -> Graph:
    """Subgraph induced on ``vertices``; labels map back to g's originals."""
    return _induced(g, _vertex_mask(g.n, vertices))


def giant_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component (ties: smallest vertex).

    The giant of a connected g shares g's read-only arrays, with the
    labels ``_induced`` would give it; only a disconnected g is copied.
    """
    if g.m == 0:
        raise ValueError("no giant: graph has no edges")
    label = _component_labels(g)
    if not label.any():
        labels = tuple(range(g.n) if g.labels is None else g.labels)
        return Graph(g.n, g.indptr, g.indices, g._ends, labels)
    sizes = np.bincount(label, minlength=g.n)
    return _induced(g, label == np.argmax(sizes))


def k_core(g: Graph, k: int) -> Graph:
    """Maximal induced subgraph of minimum degree >= k (possibly empty).

    Peeling in rounds: each round drops every live vertex of live degree
    < k and takes one from the live degree of each live neighbour, read
    from the dropped vertices' CSR rows. The result is independent of
    peeling order.
    """
    k = _integer("k", k)
    if k < 2:
        raise ValueError(f"k-core requires k >= 2, got {k}")
    deg = g.degree_array.copy()
    alive = np.ones(g.n, dtype=bool)
    drop = np.flatnonzero(deg < k)
    while len(drop):
        alive[drop] = False
        nbr = g.indices[_row_positions(g, drop)]
        nbr = nbr[alive[nbr]]
        np.subtract.at(deg, nbr, 1)
        # the new drops once each; np.unique would load about 1.6 MB more
        low = np.sort(nbr[deg[nbr] < k])
        drop = low[np.diff(low, prepend=-1) != 0]
    return _induced(g, alive)


def ball(g: Graph, v: int, radius: int):
    """Vertices at graph distance 1..radius from v (v itself excluded),
    found breadth-first: level d is the vertices first met in the rows of
    level d - 1."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    dist = np.full(g.n, -1)
    dist[v] = 0
    frontier = np.array([v])
    for d in range(1, radius + 1):
        nbrs = g.indices[_row_positions(g, frontier)]
        nbrs = nbrs[dist[nbrs] < 0]
        if not len(nbrs):
            break
        dist[nbrs] = d
        frontier = np.flatnonzero(dist == d)
    return frozenset(np.flatnonzero(dist > 0).tolist())


def _vertex_mask(n: int, members) -> np.ndarray:
    """The boolean mask over 0..n-1 of ``members``, an iterable of vertices
    or such a mask already; a mask it builds is read-only. ValueError for
    a mask of another length or a member outside [0, n): an index of -1
    would alias vertex n - 1."""
    if isinstance(members, np.ndarray) and members.dtype == bool:
        if members.shape != (n,):
            raise ValueError(f"vertex mask must have shape ({n},), got {members.shape}")
        return members
    at = np.asarray(members if isinstance(members, np.ndarray) else list(members))
    mask = np.zeros(n, dtype=bool)
    if at.size:
        if not (at.dtype.kind in "iu" and at.min() >= 0 and at.max() < n):
            raise ValueError(f"vertices must be integers in [0, {n})")
        mask[at] = True
    mask.setflags(write=False)
    return mask


def neighbours_in(g: Graph, members) -> list:
    """counts[v]: the neighbours of v among the vertices ``members``, or
    among those of a boolean mask over 0..n-1."""
    inside = _vertex_mask(g.n, members)
    eu, ev = g._ends
    return incidence(g.n, eu[inside[ev]], ev[inside[eu]]).tolist()


# -- k-connectivity ------------------------------------------------------

def _has_articulation_point(g: Graph) -> bool:
    """Iterative Tarjan lowpoint scan (assumes g connected, n >= 3); each
    row is read once, when its vertex is discovered."""
    at, indices = g.indptr.tolist(), g.indices
    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    timer = 0
    stack = [(0, iter(indices[at[0]:at[1]].tolist()))]
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
                stack.append((u, iter(indices[at[u]:at[u + 1]].tolist())))
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
    base capacity ``base[e]`` (1 on even arcs, 0 on odd ones), its reverse
    is arc ``e ^ 1``, and ``out[x]`` lists the arcs leaving node x in
    ascending order. ``cap`` holds the residual capacities; every query
    leaves it equal to ``base``. No arc into the super-source has capacity
    until a query from node 2n sends flow out of it, so no other query
    routes through it.
    """

    def __init__(self, g: Graph, sources):
        eu, ev = g._ends
        s = np.asarray(sources, dtype=np.int64).reshape(-1)
        # arc 2j runs arcs[j, 0] -> arcs[j, 1] and arc 2j + 1 back: the
        # inner arcs, then both arcs of each edge, then the super-source's
        arcs = np.concatenate((
            2 * np.arange(g.n)[:, None] + [0, 1],
            2 * np.column_stack((eu, ev, ev, eu)).reshape(-1, 2) + [1, 0],
            2 * np.column_stack((np.full(len(s), g.n), s))))
        order = np.argsort(arcs.ravel(), kind="stable").tolist()
        ends = np.cumsum(np.bincount(arcs.ravel(), minlength=2 * g.n + 1)).tolist()
        self.head = arcs[:, ::-1].ravel().tolist()
        self.base = [1, 0] * len(arcs)
        self.out = [order[a:b] for a, b in zip([0] + ends, ends)]
        self.cap = self.base[:]

    def paths_at_least(self, source: int, sink: int, k: int, uncapped) -> bool:
        """At least k arc-disjoint source->sink paths once the inner arcs of
        the ``uncapped`` vertices get capacity k+1 (unit-capacity
        augmenting paths). The arcs each path augments go to an undo log;
        on exit they, their reverses and the uncapped inner arcs are reset
        to ``base``.
        """
        cap, base = self.cap, self.base
        touched = []
        for v in uncapped:
            cap[2 * v] = k + 1
        try:
            for _ in range(k):
                path = self._augmenting_path(source, sink)
                if path is None:
                    return False
                for e in path:
                    cap[e] -= 1
                    cap[e ^ 1] += 1
                touched += path
            return True
        finally:
            for e in touched:
                cap[e] = base[e]
                cap[e ^ 1] = base[e ^ 1]
            for v in uncapped:
                cap[2 * v] = base[2 * v]

    def _augmenting_path(self, source: int, sink: int):
        """The arcs of one source->sink path of positive residual capacity,
        or None. The path is grown from both ends (Pohl 1971), always
        expanding the smaller frontier by one level, and spliced at the
        first node reached from both sides.
        """
        head, out, cap = self.head, self.out, self.cap
        # seen[0][y]: the arc that reached y from the source;
        # seen[1][y]: the arc that leads from y towards the sink
        seen = ({source: -1}, {sink: -1})
        fronts = [[source], [sink]]
        while fronts[0] and fronts[1]:
            # side 0 takes arc e out of x; side 1 takes arc e ^ 1 into x
            side = 0 if len(fronts[0]) <= len(fronts[1]) else 1
            mine, other = seen[side], seen[1 - side]
            grown = []
            for x in fronts[side]:
                for e in out[x]:
                    arc = e ^ side
                    y = head[e]
                    if cap[arc] and y not in mine:
                        mine[y] = arc
                        if y in other:
                            return self._splice(y, source, sink, *seen)
                        grown.append(y)
            fronts[side] = grown
        return None

    def _splice(self, meet, source, sink, to_source, to_sink):
        """The source->meet half, then the meet->sink half, as arcs."""
        head = self.head
        path = []
        y = meet
        while y != source:
            path.append(to_source[y])
            y = head[to_source[y] ^ 1]
        y = meet
        while y != sink:
            path.append(to_sink[y])
            y = head[to_sink[y]]
        return path


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff n >= k+1 and no removal of <= k-1 vertices disconnects g.

    Uses articulation points (k=2) or Even's disjoint-paths test
    ``_k_connected`` (k >= 3).
    """
    k = _integer("k", k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if g.n < k + 1:
        return False
    if g.min_degree() < k:
        return False
    if not is_connected(g):
        return False
    if k == 1:
        return True
    if k == 2:
        return not _has_articulation_point(g)
    return _k_connected(g, k, ())


def _clique(g: Graph, k: int, order, at, indices) -> list:
    """A k-clique of g found by a bounded scan from the top of ``order``,
    or [] when the scan finds none.

    Each vertex u in turn is tried with each neighbour v: the common
    neighbours of u and v are the candidates, and the least of them joins
    the clique and narrows the candidates to its own neighbours, until the
    clique has k vertices or no candidate is left. For k = 3 the scan is
    exhaustive at each u it finishes. It stops once the rows of the v it
    has tried hold m entries, so it reads O(k m) row entries, about what
    one flow check costs.
    """
    budget = g.m
    for u in order:
        row = indices[at[u]:at[u + 1]].tolist()
        mates = set(row)
        for v in row:
            clique = [u, v]
            common = mates.intersection(indices[at[v]:at[v + 1]].tolist())
            while common and len(clique) < k:
                w = min(common)
                clique.append(w)
                common.intersection_update(indices[at[w]:at[w + 1]].tolist())
            if len(clique) == k:
                return clique
            budget -= at[v + 1] - at[v]
            if budget <= 0:
                return []
    return []


# The most vertices whose fans failed that wait for the settled set to grow
# before any of them gets a flow check; see ``_k_connected``.
_WAIT = 16


def _fans(u: int, k: int, settled, at, indices) -> bool:
    """Whether a two-step or a three-step fan settles u: k paths from u to
    distinct settled vertices that share only u (see ``_k_connected``).
    Fewer than k of u's neighbours may be settled."""
    row = indices[at[u]:at[u + 1]].tolist()
    ends = {z for z in row if settled[z]}
    stuck = []
    for w in row:
        if len(ends) == k:
            return True
        if not settled[w]:
            for z in indices[at[w]:at[w + 1]].tolist():
                if settled[z] and z not in ends:
                    ends.add(z)
                    break
            else:
                stuck.append(w)
    # the three-step fan; ``tried`` holds u, its neighbours and every x
    # tried so far
    if stuck and len(ends) < k:
        tried = {u, *row}
        for w in stuck:
            for x in indices[at[w]:at[w + 1]].tolist():
                if not settled[x] and x not in tried:
                    tried.add(x)
                    z = next((z for z in indices[at[x]:at[x + 1]].tolist()
                              if settled[z] and z not in ends), None)
                    if z is not None:
                        ends.add(z)
                        break
            if len(ends) == k:
                break
    return len(ends) == k


def _k_connected(g: Graph, k: int, linked) -> bool:
    """Even's test: whether g, with n >= k+1 >= 3, is k-connected.

    A vertex is settled once every removal X of <= k-1 other vertices
    leaves it joined in g - X to the settled vertices outside X, which stay
    joined to each other; g is k-connected iff every vertex gets settled.
    The settled set starts as the seed ``linked``, which must induce a
    k-connected subgraph of g. When ``linked`` is empty the seed is a
    k-clique found by ``_clique``: no removal separates two vertices of a
    clique, since they are adjacent. Failing that, it is the pivots: the
    first k vertices of the degree order (descending, ties by index),
    after their C(k, 2) pair checks. A vertex u is settled by the first of
    four rules that holds; in each, u has k paths to settled vertices that
    share only u, so X misses one whole path (the fan lemma):
    - the one-step fan: k of u's neighbours are settled. The seed's rows
      are counted in one numpy pass; only the rows of the vertices
      settled later are read one at a time, and each settled vertex
      counts once in its neighbours' counts;
    - the two-step fan: u's settled neighbours, plus, for each unsettled
      neighbour w, the first settled vertex z in w's row that is not yet
      an endpoint, give k distinct endpoints. The middle vertices w are
      distinct and unsettled, so no path u-w-z meets another path;
    - the three-step fan: for each neighbour w that the two-step fan left
      without an endpoint, the first unsettled x in w's row that is not u,
      not a neighbour of u and not tried before, whose row has a settled z
      that is not yet an endpoint, adds the path u-w-x-z. Each x is a
      non-neighbour of u, so it is none of the w, and is tried once, so
      the interior vertices are distinct and unsettled, and the paths
      still share only u. An x tried without success stays useless, since
      the endpoints only grow;
    - a super-source check: k paths, disjoint but for u, to the first k
      seed vertices in degree order.
    The fans only read rows; the check runs a flow. Conversely, when g is
    k-connected every check passes (Menger), so the answer is exact, and
    it does not depend on the order in which vertices are settled.

    The vertices are visited in degree order. A vertex whose two fans fail
    waits: when more than ``_WAIT`` = 16 vertices wait, and once more after
    the walk, each retries its fans if the settled set has grown since its
    last try, and gets the check if they fail again. A fan that fails for
    want of settled vertices nearby often succeeds once the walk has
    settled more. The tests of the 80 trials of the kcore benchmark study
    (n = 256, seeds 20260810 and 1-9) built the network 43 times with no
    waiting place, 11 times with 3, once with 12 and never with 16; with
    16 it is not built either on the 3-cores at m = n ln n / 2 of
    ``sample_process(n, s)``, n = 256 and 1024, s = 0-2, or at tau_3 of
    ``sample_process(4096, 5)``. The
    bound keeps a separator cheap: past one every fan fails, the settled
    set stops growing, and at most ``_WAIT`` + 1 fans fail before the
    first check ends the test.

    The split-vertex network is built at the first flow check. Each check
    uncaps the inner arcs of its endpoints, runs at most k bidirectional
    augmentations and undoes them on exit.
    """
    rank = np.argsort(-g.degree_array, kind="stable")
    order = rank.tolist()
    at, indices = g.indptr.tolist(), g.indices
    start = linked or _clique(g, k, order, at, indices)
    seed = np.zeros(g.n, dtype=bool)
    seed[np.asarray(start or order[:k])] = True
    sources = rank[seed[rank]][:k].tolist()
    net = None
    if not start:
        net = _SplitNetwork(g, sources)
        for a, b in combinations(sources, 2):
            if not net.paths_at_least(2 * a + 1, 2 * b, k, (a, b)):
                return False
    count = np.bincount(indices[_row_positions(g, np.flatnonzero(seed))],
                        minlength=g.n)
    settled = seed.tolist()
    grown = 0  # vertices settled after the seed

    def spread(ready):
        # settle the vertices ``ready`` and count each in its neighbours'
        # rows; a neighbour whose count reaches k is settled in turn
        nonlocal grown
        grown += len(ready)
        for x in ready:
            settled[x] = True
        while ready:
            x = ready.pop()
            for w in indices[at[x]:at[x + 1]].tolist():
                count[w] += 1
                if count[w] == k and not settled[w]:
                    settled[w] = True
                    grown += 1
                    ready.append(w)

    def retry(waiting) -> bool:
        # retry the fans of each waiting vertex, if the settled set has
        # grown since its last try, and check those that fail again
        nonlocal net
        for v, stamp in waiting:
            if settled[v]:
                continue
            if stamp == grown or not _fans(v, k, settled, at, indices):
                if net is None:
                    net = _SplitNetwork(g, sources)
                # with the super-source every graph vertex except the sink
                # is inside some source-sink path and must stay unit-capacity
                if not net.paths_at_least(2 * g.n, 2 * v, k, (v,)):
                    return False
            spread([v])
        waiting.clear()
        return True

    ready = np.flatnonzero((count >= k) & ~seed).tolist()
    count = count.tolist()
    spread(ready)
    waiting = []  # (vertex, ``grown`` at its last try)
    for u in order:
        if settled[u]:
            continue
        if _fans(u, k, settled, at, indices):
            spread([u])
            continue
        waiting.append((u, grown))
        if len(waiting) > _WAIT and not retry(waiting):
            return False
    return retry(waiting)
